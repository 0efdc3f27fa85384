"""Benchmark of cotbench: the paper grid, long inputs and the live client.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 35 --trace 0

Runs from the root of a checkout and imports the program from its src/.
A run first times set-up in fresh interpreters, then repeats whole rounds
until --seconds have passed.  A round makes a fresh run of the workload's
spec (seeded from --seed and the round number), resumes it, reports it and
takes the census of its (task, length) cells, checking every output
against reference.py.  The resume, the report and the census each repeat
until they have lasted MIN_PHASE_S.  Each rate is the median over rounds.

With --trace 0 the last line of standard output is one JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics, taken
from spans recorded around calls into the program (see spans.py), and the
spans are written to perfbench/spans/.  A failed check ends the run with
"correct": false in that line.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import checks
import workloads
from spans import Tracer
from workloads import HERE, RATE_LIMIT_EVERY, ROOT, WORKLOADS, MissingProgram, Stub

# A repeated phase runs until it has lasted this long, so that its rate is
# taken over enough time to be steady whatever one pass of it costs.
MIN_PHASE_S = 1.0


class CheckFailed(Exception):
    pass


class CountingBackend:
    """Stands in for a backend: counts the calls made through it and can trace them."""

    def __init__(self, inner, tracer: Tracer | None = None):
        self.inner = inner
        self.calls = 0
        self._lock = threading.Lock()
        for method in ("complete", "complete_with_meta"):
            if hasattr(inner, method):
                fn = self._counted(getattr(inner, method))
                setattr(self, method, tracer.wrap("backends.call", fn) if tracer else fn)

    def _counted(self, fn):
        def counted(*args, **kwargs):
            with self._lock:
                self.calls += 1
            return fn(*args, **kwargs)

        return counted

    def __getattr__(self, name):
        return getattr(self.inner, name)


def median(values, what: str) -> float:
    if not values:
        raise CheckFailed(f"no samples of {what}")
    return statistics.median(values)


def percentile(values, q: int, what: str) -> float:
    if len(values) < 2:
        return median(values, what)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def repeat(fn) -> tuple[int, float]:
    """Call fn until the calls have lasted MIN_PHASE_S; returns (calls, seconds)."""
    passes = 0
    start = time.perf_counter()
    while True:
        fn()
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed >= MIN_PHASE_S:
            return passes, elapsed


class Bench:
    def __init__(self, workload: workloads.Workload, seed: int, tracer: Tracer | None):
        import cotbench.backends
        import cotbench.complexity
        import cotbench.extraction
        import cotbench.prompts
        import cotbench.runner
        import cotbench.tasks

        self.w = workload
        self.seed = seed
        self.tracer = tracer
        self.runner = cotbench.runner
        self.complexity = cotbench.complexity
        self.tasks = cotbench.tasks
        self.prompts = cotbench.prompts
        self.extraction = cotbench.extraction
        self.make_backend = cotbench.backends.make_backend
        self.work_dir = HERE / "runs" / f"{workload.name}-seed{seed}-pid{os.getpid()}"
        self.stub: Stub | None = None
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.rounds = 0

    def add(self, name: str, value: float) -> None:
        self.samples[name].append(value)

    def require(self, problems: list[str]) -> None:
        if problems:
            raise CheckFailed("; ".join(problems))

    # -- set-up ---------------------------------------------------------

    def measure_setup(self) -> None:
        """Time SETUP_PROBES fresh interpreters to readiness, after one untimed warm-up."""
        cmd = [sys.executable, str(HERE / "probe.py"), self.w.name, str(self.seed)]
        for probe in range(workloads.SETUP_PROBES + 1):
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True)
            line = proc.stdout.readline()
            ready = time.perf_counter()
            rest, _ = proc.communicate(timeout=60)
            if proc.returncode != 0 or not line.startswith("ready "):
                self.attempted += 1
                self.failed += 1
                raise CheckFailed(f"set-up probe failed with code {proc.returncode}: {line}{rest}")
            if probe:
                self.add("setup_s", ready - start)
                self.add("import_s", float(line.split()[1]))

    # -- one round ------------------------------------------------------

    def spec(self, index: int):
        spec_json = self.w.spec_json(self.seed * 1000 + index, self.stub.base_url if self.stub else None)
        spec = self.runner.ExperimentSpec.from_json(spec_json)
        return spec_json, spec, self.make_backend(spec.backend)

    def fresh_run(self, spec_json, spec, backend, run_dir: Path, traced: bool) -> float:
        """One run on an empty directory; returns its wall time after checking its records."""
        if traced:
            backend = CountingBackend(backend, self.tracer)
        with self.phase("run", "runner.run_experiment", traced):
            start = time.perf_counter()
            self.runner.run_experiment(spec, backend, run_dir)
            elapsed = time.perf_counter() - start
        problems, totals = checks.check_records(run_dir, spec_json)
        self.require(problems)
        if self.stub:
            # every call succeeded, so each 429 cost exactly one more request
            stats = self.stub.stats()
            seen = (stats["requests"], stats["requests"] - stats["rate_limited"], stats["unreadable"])
            if seen != (totals["attempts"], self.w.calls, 0):
                raise CheckFailed(f"stub saw {stats}, records hold {totals['attempts']} attempts")
            self.samples["service_ms"].extend(stats["service_ms"])
        self.add("record_bytes", totals["bytes"])
        self.add("attempts_per_call", totals["attempts"] / totals["records"])
        return elapsed

    @contextlib.contextmanager
    def phase(self, name: str, span_name: str, traced: bool = True):
        """In a traced run, wrap the program's functions and open a phase span for the block."""
        if not (self.tracer and traced):
            yield
            return
        with self.tracer.traced(self.trace_targets()), self.tracer.phase_span(name, span_name):
            yield

    def round(self, index: int) -> None:
        w = self.w
        spec_json, spec, backend = self.spec(index)
        run_dir = self.work_dir / f"round{index}"
        records = w.calls
        # a round attempts its calls, one resume and one report of its
        # records and one census of its cells, however often a phase repeats
        self.attempted += 3 * records + len(w.census_cells)

        if self.tracer:
            # an untraced run of the same spec gives the tracing overhead;
            # which of the two goes first alternates between rounds
            plain_dir = self.work_dir / f"round{index}-untraced"
            order = (False, True) if index % 2 else (True, False)
            for traced in order:
                elapsed = self.fresh_run(spec_json, spec, backend, run_dir if traced else plain_dir, traced)
                self.add("traced_run_s" if traced else "untraced_run_s", elapsed)
            shutil.rmtree(plain_dir)
        else:
            elapsed = self.fresh_run(spec_json, spec, backend, run_dir, False)
            self.add("run_calls_per_s", records / elapsed)

        before = checks.snapshot(run_dir)
        counter = CountingBackend(backend, self.tracer)
        with self.phase("resume", "runner.resume"):
            passes, elapsed = repeat(lambda: self.runner.run_experiment(spec, counter, run_dir))
        self.add("resume_records_per_s", records * passes / elapsed)
        self.add("resume_calls", counter.calls)
        if counter.calls or checks.snapshot(run_dir) != before:
            raise CheckFailed(f"no-op resume issued {counter.calls} calls or changed a record file")
        if self.stub and self.stub.stats()["requests"]:
            raise CheckFailed("no-op resume reached the stub")

        with self.phase("report", "runner.report"):
            passes, elapsed = repeat(lambda: self.runner.aggregate(run_dir))
        self.add("report_records_per_s", records * passes / elapsed)
        self.require(checks.check_table(run_dir, spec_json))

        if self.tracer:
            with self.phase("compare", "runner.compare_runs"):
                self.runner.compare_runs(run_dir, run_dir)

        self.census()
        shutil.rmtree(run_dir)

    def census(self) -> None:
        """Passes over the workload's cells; the cells refused in a pass count as failed."""
        refusal = self.complexity.ComplexityError
        cells = [(self.tasks.TaskId(code), code, length) for code, length in self.w.census_cells]
        results = []  # the first pass's answers, None where refused
        refusals = set()  # which cells each pass refused
        with self.phase("census", "complexity.census"):
            census = self.complexity.answer_space_census

            def one_pass():
                answers = []
                for task, _, length in cells:
                    try:
                        answers.append(census(task, length))
                    except refusal:
                        answers.append(None)
                refusals.add(tuple(a is None for a in answers))
                if not results:
                    results.extend(answers)

            passes, elapsed = repeat(one_pass)
        self.add("census_cells_per_s", len(cells) * passes / elapsed)
        self.add("census_passes", passes)
        refused = results.count(None)
        self.failed += refused
        self.add("census_refused", refused)
        problems = []
        for (_, code, length), result in zip(cells, results):
            if result is not None:
                problems += checks.check_census(result, code, length)
        if len(refusals) != 1:
            problems.append("census refusals differ between passes")
        self.require(problems)

    # -- the whole run --------------------------------------------------

    def run(self, seconds: float) -> None:
        self.measure_setup()
        stub = Stub(rate_limit_slot=self.seed % RATE_LIMIT_EVERY) if self.w.live else contextlib.nullcontext()
        with stub as self.stub:
            start = time.perf_counter()
            while True:
                round_start = time.perf_counter()
                self.round(self.rounds)
                self.rounds += 1
                now = time.perf_counter()
                # stop before a round that would end past the measuring window
                if now - start + (now - round_start) > seconds:
                    break

    def trace_targets(self) -> list[tuple]:
        targets = [
            (self.tasks, "generate_instance", "tasks.generate_instance"),
            (self.tasks, "oracle_solve", "tasks.oracle_solve"),
            (self.prompts, "render_prompt", "prompts.render_prompt"),
            (self.extraction, "extract_result", "extraction.extract_result"),
            (self.extraction, "score", "extraction.score"),
            (self.runner, "load_records", "runner.load_records"),
            (self.runner, "aggregate", "runner.aggregate"),
            (self.complexity, "answer_space_census", "complexity.answer_space_census"),
        ]
        missing = [f"{module.__name__}.{attr}" for module, attr, _ in targets if not hasattr(module, attr)]
        if missing:
            raise CheckFailed(f"no function to trace: {', '.join(missing)}")
        return targets

    # -- metrics --------------------------------------------------------

    def end_to_end(self) -> dict:
        s = self.samples
        rates = ("run_calls_per_s", "resume_records_per_s", "report_records_per_s", "census_cells_per_s")
        return {
            "setup_s": (median(s["setup_s"], "setup_s"), "s"),
            **{name: (median(s[name], name), "1/s") for name in rates},
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    def per_layer(self) -> dict:
        s = self.samples
        spans = self.tracer.spans
        by_parent: dict[int, list] = defaultdict(list)
        for span in spans:
            by_parent[span.parent].append(span)

        def in_runs(name):
            return [x for x in spans if x.name == name and x.phase == "run"]

        def run_cpu_us(name):
            """Mean busy time per call in the fresh runs: the layer's share of their CPU time."""
            busy = [x.cpu_s for x in in_runs(name)]
            if not busy:
                raise CheckFailed(f"no {name} span in a fresh run")
            return sum(busy) * 1e6 / len(busy)

        def phase_spans(name):
            return [x for x in spans if x.name == name and x.parent == 0]

        def in_reports(name):
            return [x for x in spans if x.name == name and x.phase == "report"]

        calls_ms = [x.wall_s * 1e3 for x in in_runs("backends.call")]
        run_self = [
            p.cpu_s - sum(c.cpu_s for c in by_parent[p.id]) for p in phase_spans("runner.run_experiment")
        ]
        aggregate_self = [
            a.wall_s - sum(c.wall_s for c in by_parent[a.id]) for a in in_reports("runner.aggregate")
        ]
        load_s = [x.wall_s for x in in_reports("runner.load_records")]
        compare_s = [x.wall_s for x in phase_spans("runner.compare_runs")]
        census_ms = [
            sum(c.wall_s for c in by_parent[p.id] if c.name == "complexity.answer_space_census") * 1e3 / passes
            for p, passes in zip(phase_spans("complexity.census"), s["census_passes"], strict=True)
        ]
        call_p50 = median(calls_ms, "backends.call")
        # no stub serves the echo workloads
        service_p50 = median(s["service_ms"], "stub service times") if self.w.live else 0.0
        return {
            "tasks.generate_us": (run_cpu_us("tasks.generate_instance"), "us"),
            "tasks.oracle_us": (run_cpu_us("tasks.oracle_solve"), "us"),
            "prompts.render_us": (run_cpu_us("prompts.render_prompt"), "us"),
            "backends.call_p50_ms": (call_p50, "ms"),
            "backends.call_p95_ms": (percentile(calls_ms, 95, "backends.call"), "ms"),
            "backends.client_overhead_ms": (call_p50 - service_p50, "ms"),
            "backends.attempts_per_call": (median(s["attempts_per_call"], "attempts"), "count"),
            "extraction.extract_us": (run_cpu_us("extraction.extract_result"), "us"),
            "extraction.score_us": (run_cpu_us("extraction.score"), "us"),
            "runner.run_self_s": (median(run_self, "runner.run_experiment"), "s"),
            "runner.record_bytes": (median(s["record_bytes"], "record bytes"), "B"),
            "runner.resume_calls": (sum(s["resume_calls"]), "count"),
            "runner.load_records_s": (median(load_s, "runner.load_records"), "s"),
            "runner.aggregate_s": (median(aggregate_self, "runner.aggregate"), "s"),
            "runner.compare_s": (median(compare_s, "runner.compare_runs"), "s"),
            "complexity.census_ms": (median(census_ms, "complexity.answer_space_census"), "ms"),
            "complexity.census_refused": (median(s["census_refused"], "census refusals"), "count"),
            "setup.import_s": (median(s["import_s"], "import times"), "s"),
            "stub.service_p50_ms": (service_p50, "ms"),
            "trace.overhead_s": (
                median(s["traced_run_s"], "traced runs") - median(s["untraced_run_s"], "untraced runs"),
                "s",
            ),
        }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="cotbench benchmark: one workload, one seed.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the measuring window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        workloads.import_program()
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    bench = Bench(WORKLOADS[args.workload], args.seed, Tracer() if args.trace else None)
    correct = True
    try:
        bench.run(args.seconds)
        metrics = bench.per_layer() if args.trace else bench.end_to_end()
    except CheckFailed as exc:
        # the result line still goes out, with what was attempted before the failure
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        correct = False
        metrics = {}
    finally:
        shutil.rmtree(bench.work_dir, ignore_errors=True)
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    samples = {name: values for name, values in bench.samples.items() if name != "service_ms"}
    (HERE / "results").mkdir(exist_ok=True)
    (HERE / "results" / f"{tag}.json").write_text(
        json.dumps(dict(result, rounds=bench.rounds, samples=samples), indent=1) + "\n", encoding="utf-8"
    )
    if bench.tracer:
        (HERE / "spans").mkdir(exist_ok=True)
        bench.tracer.write(HERE / "spans" / f"{tag}.jsonl")
    print(f"perfbench: {args.workload} seed {args.seed}: {bench.rounds} rounds", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
