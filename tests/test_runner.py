"""Runner orchestration: persistence, resume, aggregation, comparison."""

from __future__ import annotations

import gc
import hashlib
import json
import threading
import time
import weakref
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from cotbench import cli, rundir, runner
from cotbench.backends import (
    AuthError,
    BackendError,
    Completion,
    CompletionConfig,
    CorruptingBackend,
    ModelBackend,
    OracleEchoBackend,
    RateLimited,
    ReplayBackend,
)
from cotbench.extraction import (
    ExtractedAnswer,
    ExtractionFailure,
    FailureReason,
    Verdict,
    extract_result,
    score,
)
from cotbench.prompts import SupervisionKind
from cotbench.runner import (
    AccuracyTable,
    CellKey,
    CellStats,
    EmptyCellWarning,
    ExperimentSpec,
    SpecError,
    StructureMismatch,
    aggregate,
    compare_runs,
    format_accuracy,
    run_experiment,
    two_proportion_z,
    wilson_interval,
)
from cotbench.tasks import (
    ANSWER_TYPES,
    DEFAULT_LENGTHS,
    InputRendering,
    MalformedInstance,
    TaskId,
    generate_instance,
    instance_record,
    oracle_solve,
)

from conftest import keyed_records

ALL_KINDS = list(SupervisionKind)


def small_spec(**overrides) -> ExperimentSpec:
    base = dict(
        tasks=[TaskId.PARITY_CHECK],
        lengths={TaskId.PARITY_CHECK: [20]},
        kinds=ALL_KINDS,
        rendering=InputRendering.LIST_FIED,
        instances_per_cell=10,
        master_seed=7,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def record_rules_spec() -> ExperimentSpec:
    """One Base cell each of a parity, a palindrome, a duplicate-list and an even-pairs task.

    Their instance rules differ, and their answers are booleans, text and integers.
    """
    tasks = [TaskId.PARITY_CHECK, TaskId.PALINDROME_VERIFICATION, TaskId.DUPLICATE_LIST, TaskId.EVEN_PAIRS]
    return small_spec(tasks=tasks, lengths=dict(zip(tasks, [[20], [4], [4], [4]])), kinds=[SupervisionKind.BASE])


# A field that a changed record leaves out.
DROP = object()


def altered(line: str, changes: dict) -> str:
    """A record line with fields changed: set to a value, to a function of the old value, or left out (DROP)."""
    data = json.loads(line)
    for name, change in changes.items():
        if change is DROP:
            del data[name]
        else:
            data[name] = change(data[name]) if callable(change) else change
    return json.dumps(data)


def with_instance(**fields):
    """A change to a record's instance that sets these of its fields."""
    return lambda instance: {**instance, **fields}


def spelled(name: str, number: str):
    """A change that sets a record's field to a number spelled as given, such as ``1e999``, and its error.

    Kept, the record would replace the first one with a backend error.
    """
    placeholder = f'"{name}": 0.25'
    return lambda first: altered(first, {name: 0.25, "error": "Timeout"}).replace(placeholder, f'"{name}": {number}')


# Oracles of another JSON type than their task's answers, as (id, task, changes):
# pc answers with a boolean, dl with text and ep with an integer.
WRONG_TYPE_ORACLES = [
    ("oracle-true-for-an-int", "ep", {"oracle": True}),
    ("oracle-1-for-a-bool", "pc", {"oracle": 1}),
    ("oracle-1-for-a-text", "dl", {"oracle": 1}),
    ("oracle-float-for-an-int", "ep", {"oracle": 1.0}),
]

# Lines that hold no record, one case per rule of rundir.check_record and of
# the line's JSON, as (id, task, line): a whole line, a function of the first
# record line of the task's cell file, or the changes that turn that record
# into one that breaks the rule.
NOT_RECORDS = [
    ("list", "pc", "[]"),
    ("null", "pc", "null"),
    ("number", "pc", "7"),
    ("two-records-on-one-line", "pc", lambda first: 2 * altered(first, {"error": "Timeout"})),
    ("byte-order-mark", "pc", lambda first: "\ufeff" + altered(first, {"error": "Timeout"})),
    ("int-task", "pc", {"task": 5}),
    ("list-task", "pc", {"task": ["pc"]}),
    ("unknown-kind", "pc", {"kind": "nope"}),
    ("length-no-number", "pc", {"length": "twenty"}),
    ("bad-symbol", "pc", {"instance": {"elements": ["z"] * 20, "params": {}, "seed_path": ""}}),
    ("number-elements", "pc", {"instance": with_instance(elements=7)}),
    ("two-markers", "pv", {"instance": lambda inst: {**inst, "elements": ["#"] + inst["elements"][1:]}}),
    ("marker-off-centre", "pv", {"instance": lambda inst: {**inst, "elements": sorted(inst["elements"])}}),
    ("symbol-outside-dl-alphabet", "dl", {"instance": with_instance(elements=list("abca"))}),
    ("oracle-of-wrong-type", "pc", {"oracle": "true"}),
    *WRONG_TYPE_ORACLES,
    ("extraction-list", "pc", {"extraction": ["ok"]}),
    ("unknown-failure-reason", "pc", {"extraction": {"ok": False, "reason": "Nope", "detail": ""}}),
    ("answer-without-span", "pc", {"extraction": lambda raw: {k: v for k, v in raw.items() if k != "raw_span"}}),
    ("unknown-verdict", "pc", {"verdict": "maybe"}),
    ("index-no-number", "pc", {"index": "three"}),
    *[
        (f"{name}-{number.lower()}", "pc", spelled(name, number))
        for name in ("index", "length")
        for number in ("Infinity", "-Infinity", "1e999")
    ],
    ("no-transcript", "pc", {"transcript": DROP}),
    ("no-prompt-hash", "pc", {"prompt_sha256": DROP}),
]

# Changes that leave a record odd but keep every rule, so it still counts:
# int() reads the index and the length, names are parsed without regard to
# case or surrounding spaces, a text is a sequence of symbols, a list of
# pairs updates the params, and the call's telemetry has defaults.
ODD_RECORDS = [
    ("index-as-text", {"index": "3"}),
    ("index-as-float", {"index": 3.0}),
    ("length-as-text", {"length": "20"}),
    ("names-in-capitals", {"task": " PC ", "kind": "BASE", "rendering": "List"}),
    ("elements-as-text", {"instance": lambda inst: {**inst, "elements": "".join(inst["elements"])}}),
    ("params-as-pairs", {"instance": with_instance(params=[["letter", "a"]])}),
    ("ok-as-number", {"extraction": lambda raw: {**raw, "ok": 1}}),
    ("no-telemetry", dict.fromkeys(["error", "error_detail", "latency_s", "attempts", "timestamp"], DROP)),
]


class TestSpec:
    def test_round_trip(self):
        spec = small_spec()
        again = ExperimentSpec.from_json(spec.to_json())
        assert again.to_json() == spec.to_json()

    def test_default_lengths_fill_in(self):
        spec = ExperimentSpec.from_json({"tasks": ["ep"], "master_seed": 1})
        assert spec.lengths[TaskId.EVEN_PAIRS] == list(DEFAULT_LENGTHS[TaskId.EVEN_PAIRS])

    def test_lengths_keys_are_read_as_task_names(self):
        canonical = ExperimentSpec.from_json({"tasks": ["pc", "ep"], "lengths": {"pc": [10], "ep": [12]}})
        spelled = ExperimentSpec.from_json({"tasks": ["PC", "ep"], "lengths": {"PC": [10], "even_pairs": [12]}})
        assert spelled.to_json() == canonical.to_json()
        assert canonical.lengths == {TaskId.PARITY_CHECK: [10], TaskId.EVEN_PAIRS: [12]}

    def test_lengths_of_an_unlisted_task_are_allowed(self):
        spec = ExperimentSpec.from_json({"tasks": ["pc"], "lengths": {"pc": [10], "rl": [4]}})
        assert spec.to_json()["lengths"] == {"pc": [10]}

    @pytest.mark.parametrize(
        "lengths, message",
        [({"zz": [4]}, "lengths: unknown task 'zz'"), ({"pc": [10], "PC": [12]}, "lengths names task pc twice")],
        ids=["unknown-task", "one-task-twice"],
    )
    def test_bad_lengths_keys_are_refused(self, lengths, message):
        with pytest.raises(ValueError) as exc:
            ExperimentSpec.from_json({"tasks": ["pc"], "lengths": lengths})
        assert str(exc.value) == message

    def test_fields_left_out_take_their_defaults(self):
        spec = ExperimentSpec.from_json({"tasks": ["pc"]})
        assert json.dumps(spec.to_json()) == (
            '{"tasks": ["pc"], "lengths": {"pc": [20, 25, 30, 35]}, '
            '"kinds": ["base", "cot", "scot", "scot-sub"], "rendering": "list", '
            '"instances_per_cell": 50, "master_seed": 0, "backend": {"kind": "echo"}, '
            '"completion": {"model": "gpt-4o-mini", "temperature": 0.0, "max_tokens": 4096, '
            '"timeout_s": 120.0, "max_attempts": 3, "backoff_s": [1.0, 2.0, 4.0]}, "workers": 4}'
        )

    def test_validation_rejects_odd_palindrome_length(self):
        spec = small_spec(
            tasks=[TaskId.PALINDROME_VERIFICATION],
            lengths={TaskId.PALINDROME_VERIFICATION: [25]},
        )
        with pytest.raises(SpecError):
            spec.validate()

    def test_validation_rejects_zero_instances(self):
        with pytest.raises(SpecError):
            small_spec(instances_per_cell=0).validate()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"workers": 0},
            {"completion": CompletionConfig(max_attempts=0)},
            {"completion": CompletionConfig(backoff_s=())},
            {"completion": CompletionConfig(backoff_s=(1.0, -1.0))},
        ],
        ids=["zero-workers", "zero-attempts", "no-backoff", "negative-backoff"],
    )
    def test_validation_rejects_settings_that_fail_mid_run(self, tmp_path, overrides):
        backend = StallingBackend()
        with pytest.raises(SpecError):
            run_experiment(small_spec(**overrides), backend, tmp_path / "run")
        assert backend.calls == 0

    @pytest.mark.parametrize("workers", [0, -1])
    def test_worker_override_below_one_is_refused(self, tmp_path, workers):
        backend = StallingBackend()
        with pytest.raises(SpecError, match="workers must be positive"):
            run_experiment(small_spec(), backend, tmp_path / "run", workers=workers)
        assert backend.calls == 0
        assert not (tmp_path / "run").exists()

    def test_cells_unique(self):
        spec = small_spec(lengths={TaskId.PARITY_CHECK: [20, 25]})
        labels = [c.label for c in spec.cells()]
        assert len(labels) == len(set(labels)) == 8


class StallingBackend(OracleEchoBackend):
    """Echo backend that counts the calls it is given.

    Calls 11 to 18 (twice the workers of TestAbort) wait half a second, so
    a run aborted around call 10 has long cancelled its queue before a
    worker is free to start another call.  With ``fail_at`` set, that call
    raises AuthError.
    """

    def __init__(self, fail_at: int | None = None):
        self.calls = 0
        self.fail_at = fail_at
        self._lock = threading.Lock()

    def complete(self, prompt, cfg, context=None):
        with self._lock:
            self.calls += 1
            call = self.calls
        if call == self.fail_at:
            raise AuthError("endpoint rejected credentials (401)")
        if 10 < call <= 18:
            time.sleep(0.5)
        return super().complete(prompt, cfg, context)


class FlakyBackend(OracleEchoBackend):
    """Echo backend whose first ``failures`` calls end in a backend error."""

    def __init__(self, failures):
        self.calls = 0
        self.failures = failures

    def complete(self, prompt, cfg, context=None):
        self.calls += 1
        if self.calls <= self.failures:
            raise RateLimited("429 after retries", attempts=3)
        return super().complete(prompt, cfg, context)


class TestAbort:
    WORKERS = 4

    def spec(self):
        return small_spec(instances_per_cell=500)  # 2,000 calls

    def assert_resumes_to_clean_table(self, spec, run_dir, tmp_path):
        run_experiment(spec, OracleEchoBackend(), run_dir)
        assert len(keyed_records(run_dir)) == 2000
        clean_dir = run_experiment(spec, OracleEchoBackend(), tmp_path / "clean")
        assert aggregate(run_dir, write=False).to_json() == aggregate(clean_dir, write=False).to_json()

    def test_auth_error_stops_run_and_records_nothing(self, tmp_path):
        spec = self.spec()
        backend = StallingBackend(fail_at=10)
        run_dir = tmp_path / "run"
        with pytest.raises(AuthError):
            run_experiment(spec, backend, run_dir, workers=self.WORKERS)
        assert backend.calls <= 10 + self.WORKERS
        records = keyed_records(run_dir)
        assert len(records) == backend.calls - 1
        assert all(r.outcome is Verdict.CORRECT for r in records.values())
        self.assert_resumes_to_clean_table(spec, run_dir, tmp_path)

    def test_interrupt_cancels_queued_calls(self, tmp_path):
        def interrupt_at_ten(done, total):
            if done == 10:
                raise KeyboardInterrupt

        spec = self.spec()
        backend = StallingBackend()
        run_dir = tmp_path / "run"
        with pytest.raises(KeyboardInterrupt):
            run_experiment(spec, backend, run_dir, workers=self.WORKERS, progress=interrupt_at_ten)
        assert backend.calls <= 10 + self.WORKERS
        assert len(keyed_records(run_dir)) == backend.calls
        self.assert_resumes_to_clean_table(spec, run_dir, tmp_path)


class TestAbortOneWorker(TestAbort):
    """The same aborts where the calls run in the calling thread."""

    WORKERS = 1

    def test_calls_run_in_calling_thread(self, tmp_path):
        seen = set()

        class ThreadRecordingBackend(OracleEchoBackend):
            def complete(self, prompt, cfg, context=None):
                seen.add(threading.get_ident())
                return super().complete(prompt, cfg, context)

        run_experiment(small_spec(), ThreadRecordingBackend(), tmp_path / "run", workers=self.WORKERS)
        assert seen == {threading.get_ident()}
        assert len(keyed_records(tmp_path / "run")) == 40


class TestPoolWindow:
    def test_at_most_the_window_is_submitted_and_unfinished(self, tmp_path, monkeypatch):
        workers = 2
        lock = threading.Lock()
        unfinished = peak = 0
        gate = threading.Semaphore(0)

        def finished(_):
            nonlocal unfinished
            with lock:
                unfinished -= 1

        class CountingPool(ThreadPoolExecutor):
            def submit(self, *args, **kwargs):
                nonlocal unfinished, peak
                future = super().submit(*args, **kwargs)
                with lock:
                    unfinished += 1
                    peak = max(peak, unfinished)
                future.add_done_callback(finished)
                return future

        class GatedBackend(OracleEchoBackend):
            """Each call waits for a pass from the releasing thread."""

            def complete(self, prompt, cfg, context=None):
                gate.acquire()
                return super().complete(prompt, cfg, context)

        def release_one_call_at_a_time():
            for _ in range(40):
                time.sleep(0.002)
                gate.release()

        monkeypatch.setattr(runner, "ThreadPoolExecutor", CountingPool)
        releaser = threading.Thread(target=release_one_call_at_a_time)
        releaser.start()
        try:
            run_dir = run_experiment(small_spec(), GatedBackend(), tmp_path / "run", workers=workers)
        finally:
            releaser.join(timeout=10)
        assert not releaser.is_alive()
        assert peak == runner.WINDOW_PER_WORKER * workers == 4
        assert len(keyed_records(run_dir)) == 40


class TestStreaming:
    """A report reads one cell file at a time and lets its records go before the next."""

    class Tracked(dict):
        """A record's JSON object that, unlike a plain dict, takes a weak reference."""

    @pytest.fixture
    def tracked_run(self, tmp_path, monkeypatch):
        """An eight-cell run, weak references to the JSON object of every
        record read from it from then on, and how many of those were alive
        at each read of a cell file."""
        spec = small_spec(
            tasks=[TaskId.PARITY_CHECK, TaskId.EVEN_PAIRS],
            lengths={TaskId.PARITY_CHECK: [20], TaskId.EVEN_PAIRS: [10]},
        )
        run_dir = run_experiment(spec, OracleEchoBackend(), tmp_path / "run")
        refs, alive_at_read = [], []
        scan = rundir.scan_cell_file

        def tracking_scan(path, instances_per_cell):
            gc.collect()
            alive_at_read.append(sum(ref() is not None for ref in refs))
            records = scan(path, instances_per_cell)
            for index, checked in records.items():
                # the record holds the only reference to its object
                records[index] = checked = checked._replace(data=self.Tracked(checked.data))
                refs.append(weakref.ref(checked.data))
            return records

        monkeypatch.setattr(rundir, "scan_cell_file", tracking_scan)
        return run_dir, refs, alive_at_read

    def test_load_records_reads_nothing_until_iterated(self, tracked_run):
        run_dir, _, alive_at_read = tracked_run
        records = runner.load_records(run_dir)
        assert alive_at_read == []
        # map drops each record once counted, so only the generator could keep one
        assert sum(map(lambda record: 1, records)) == 80
        assert alive_at_read == [0] * 8

    def test_report_holds_one_cell_at_a_time(self, tracked_run):
        run_dir, refs, alive_at_read = tracked_run
        table = aggregate(run_dir, write=False)
        assert [(c.n, c.n_correct) for c in table.cells] == [(10, 10)] * 8
        assert len(refs) == 80
        assert alive_at_read == [0] * 8

    def test_replay_keeps_transcripts_not_records(self, tracked_run):
        run_dir, refs, _ = tracked_run
        replay = ReplayBackend.from_run(run_dir)
        gc.collect()
        assert len(refs) == 80
        assert all(ref() is None for ref in refs)
        assert len(replay.transcripts) == 80


class TestRunExperiment:
    def test_echo_grid_all_correct(self, tmp_path):
        spec = small_spec()
        run_dir = run_experiment(spec, OracleEchoBackend(), tmp_path / "run")
        records = keyed_records(run_dir)
        assert len(records) == 40
        assert all(r.verdict is Verdict.CORRECT for r in records.values())

    def test_same_seed_same_instances(self, tmp_path):
        spec = small_spec()
        dir_a = run_experiment(spec, OracleEchoBackend(), tmp_path / "a")
        dir_b = run_experiment(spec, OracleEchoBackend(), tmp_path / "b")
        instances_a = {k: v.data["instance"] for k, v in keyed_records(dir_a).items()}
        instances_b = {k: v.data["instance"] for k, v in keyed_records(dir_b).items()}
        assert instances_a == instances_b

    def test_resume_fills_missing_records(self, tmp_path):
        spec = small_spec()
        run_dir = run_experiment(spec, OracleEchoBackend(), tmp_path / "run")
        # drop the tail of one cell file and corrupt another line mid-run
        cell_file = next((run_dir / "records").glob("*.jsonl"))
        lines = cell_file.read_text().strip().split("\n")
        cell_file.write_text("\n".join(lines[:4]) + "\n" + '{"torn": ')
        assert len(keyed_records(run_dir)) == 34

        run_experiment(spec, OracleEchoBackend(), run_dir)
        records = keyed_records(run_dir)
        assert len(records) == 40
        per_cell = {}
        for (label, i) in records:
            per_cell.setdefault(label, set()).add(i)
        assert all(v == set(range(10)) for v in per_cell.values())

    @pytest.mark.parametrize("task,bad", [pytest.param(task, bad, id=id_) for id_, task, bad in NOT_RECORDS])
    def test_resume_and_report_skip_json_that_is_no_record(self, tmp_path, task, bad):
        spec = record_rules_spec()
        run_dir = run_experiment(spec, OracleEchoBackend(), tmp_path / "run")
        before = aggregate(run_dir, write=False).to_json()
        (cell_file,) = (run_dir / "records").glob(f"{task}.*.jsonl")
        first = cell_file.read_text().split("\n")[0]
        if isinstance(bad, dict):
            # kept, the changed copy would replace the first record with a
            # backend error: a resume would issue a call, a report count it
            bad = altered(first, {**bad, "error": "Timeout"})
        elif callable(bad):
            bad = bad(first)
        with open(cell_file, "a") as fh:
            fh.write(bad + "\n")
        backend = StallingBackend()
        run_experiment(spec, backend, run_dir)
        assert backend.calls == 0
        assert aggregate(run_dir, write=False).to_json() == before

    @pytest.mark.parametrize("change", [pytest.param(change, id=id_) for id_, change in ODD_RECORDS])
    def test_resume_and_report_count_odd_records_that_keep_every_rule(self, tmp_path, change):
        spec = small_spec(kinds=[SupervisionKind.BASE])
        clean = aggregate(run_experiment(spec, OracleEchoBackend(), tmp_path / "clean"), write=False)
        run_dir = run_experiment(spec, OracleEchoBackend(), tmp_path / "run")
        cell_file = run_dir / "records" / "pc.20.base.list.jsonl"
        lines = cell_file.read_text().splitlines()
        # index 3's record, changed, moves to the end; dropped, it would be issued again
        (third,) = [line for line in lines if json.loads(line)["index"] == 3]
        kept = [line for line in lines if line != third]
        cell_file.write_text("\n".join(kept + [altered(third, change)]) + "\n")
        backend = StallingBackend()
        run_experiment(spec, backend, run_dir)
        assert backend.calls == 0
        assert aggregate(run_dir, write=False).to_json() == clean.to_json()

    def test_resume_reissues_errored_calls(self, tmp_path):
        spec = small_spec(kinds=[SupervisionKind.BASE], instances_per_cell=20)
        run_dir = run_experiment(spec, FlakyBackend(failures=5), tmp_path / "run")
        assert sum(r.data["error"] is not None for r in keyed_records(run_dir).values()) == 5

        healthy = FlakyBackend(failures=0)
        run_experiment(spec, healthy, run_dir)
        assert healthy.calls == 5
        (cell,) = aggregate(run_dir, write=False).cells
        assert (cell.n, cell.n_correct) == (20, 20)
        records = keyed_records(run_dir)
        assert len(records) == 20 and all(r.data["error"] is None for r in records.values())

        # a resume with every record done issues nothing
        again = FlakyBackend(failures=0)
        run_experiment(spec, again, run_dir)
        assert again.calls == 0

    def test_record_of_another_cell_does_not_count(self, tmp_path):
        spec = small_spec(instances_per_cell=3)
        clean = aggregate(run_experiment(spec, OracleEchoBackend(), tmp_path / "clean"), write=False)
        run_dir = run_experiment(spec, OracleEchoBackend(), tmp_path / "run")
        records = run_dir / "records"
        # the scot file loses its index 2, and the base file's index 2 is appended in its place
        scot = records / "pc.20.scot.list.jsonl"
        kept = [line for line in scot.read_text().splitlines() if json.loads(line)["index"] != 2]
        (foreign,) = [
            line for line in (records / "pc.20.base.list.jsonl").read_text().splitlines()
            if json.loads(line)["index"] == 2
        ]
        scot.write_text("\n".join(kept + [foreign]) + "\n")
        assert ("pc.20.scot.list", 2) not in keyed_records(run_dir)

        backend = StallingBackend()
        run_experiment(spec, backend, run_dir)
        assert backend.calls == 1
        assert aggregate(run_dir, write=False).to_json() == clean.to_json()

    def test_record_outside_the_index_range_does_not_count(self, tmp_path):
        spec = small_spec()
        clean = aggregate(run_experiment(spec, OracleEchoBackend(), tmp_path / "clean"), write=False)
        run_dir = run_experiment(spec, OracleEchoBackend(), tmp_path / "run")
        cell_file = run_dir / "records" / "pc.20.base.list.jsonl"
        first = json.loads(cell_file.read_text().split("\n")[0])
        with open(cell_file, "a") as fh:
            for index in (99, 10, -1):
                fh.write(json.dumps({**first, "index": index}) + "\n")
        assert aggregate(run_dir, write=False).to_json() == clean.to_json()

        backend = StallingBackend()
        run_experiment(spec, backend, run_dir)
        assert backend.calls == 0
        assert aggregate(run_dir, write=False).to_json() == clean.to_json()

    def test_records_of_a_cell_share_one_key(self, tmp_path):
        run_dir = run_experiment(small_spec(), OracleEchoBackend(), tmp_path / "run")
        by_label = {}
        for (label, _), record in keyed_records(run_dir).items():
            by_label.setdefault(label, []).append(record.cell)
        assert len(by_label) == 4
        for label, cells in by_label.items():
            assert len(cells) == 10
            assert all(cell is cells[0] for cell in cells)
            assert cells[0].label == label

    def test_resume_rejects_different_spec(self, tmp_path):
        run_dir = run_experiment(small_spec(), OracleEchoBackend(), tmp_path / "run")
        with pytest.raises(SpecError, match="different spec"):
            run_experiment(small_spec(master_seed=8), OracleEchoBackend(), run_dir)

    def test_spec_json_records_the_instance_stream(self, tmp_path):
        # a user spec cannot choose the stream: the field is not read from it
        spec = ExperimentSpec.from_json({**small_spec().to_json(), "generator": 1})
        run_dir = run_experiment(spec, OracleEchoBackend(), tmp_path / "run")
        frozen = json.loads((run_dir / "spec.json").read_text())
        assert frozen == {**small_spec().to_json(), "generator": rundir.GENERATOR}
        assert rundir.GENERATOR == 3

    def test_instance_stream_matches_its_golden_digest(self):
        # indices 0-49 of master seed 0, for each task's grid lengths and 200 and 300
        digest = hashlib.sha256()
        for task in TaskId:
            for length in DEFAULT_LENGTHS[task] + (200, 300):
                for index in range(50):
                    seed_path = runner.instance_seed_path(0, task, length, index)
                    instance = generate_instance(task, length, seed_path=seed_path)
                    digest.update(json.dumps(instance_record(instance)).encode() + b"\n")
        assert digest.hexdigest() == "740ab53f019cbc205442515d032f286103ff78ec9308b659bca092e7dc7da020", (
            "the instance stream changed: bump rundir.GENERATOR and update this digest in the same change"
        )

    @pytest.mark.parametrize("stored", [None, 2], ids=["before-the-field", "older-version"])
    def test_resume_refuses_another_instance_stream(self, tmp_path, stored):
        spec = small_spec()
        run_dir = run_experiment(spec, OracleEchoBackend(), tmp_path / "run")
        before = aggregate(run_dir, write=False).to_json()
        old = spec.to_json() if stored is None else {**spec.to_json(), "generator": stored}
        (run_dir / "spec.json").write_text(json.dumps(old, indent=2) + "\n")

        backend = StallingBackend()
        with pytest.raises(SpecError, match="instance-stream change"):
            run_experiment(spec, backend, run_dir)
        assert backend.calls == 0
        # an old run directory still loads and reports
        assert len(keyed_records(run_dir)) == 40
        assert aggregate(run_dir, write=False).to_json() == before

    def test_worker_count_does_not_change_table(self, tmp_path):
        spec = small_spec(backend={"kind": "corrupt", "p": 0.4})
        backend = CorruptingBackend(p=0.4, seed=1)
        dir_a = run_experiment(spec, backend, tmp_path / "w1", workers=1)
        dir_b = run_experiment(spec, backend, tmp_path / "w16", workers=16)
        table_a = aggregate(dir_a, write=True)
        table_b = aggregate(dir_b, write=True)
        assert table_a.to_json() == table_b.to_json()
        assert (dir_a / "table.json").read_text() == (dir_b / "table.json").read_text()

    def test_backend_errors_recorded_not_raised(self, tmp_path):
        class FailingBackend(OracleEchoBackend):
            def complete(self, prompt, cfg, context=None):
                raise BackendError("boom", attempts=3)

        spec = small_spec(instances_per_cell=2)
        run_dir = run_experiment(spec, FailingBackend(), tmp_path / "run")
        records = keyed_records(run_dir)
        assert len(records) == 8
        for record in records.values():
            assert record.data["error"] == "BackendError"
            assert record.verdict is Verdict.UNPARSEABLE
            assert record.data["attempts"] == 3

    def test_rescoring_stored_records_is_stable(self, tmp_path):
        spec = small_spec(instances_per_cell=5)
        run_dir = run_experiment(spec, CorruptingBackend(p=0.5, seed=2), tmp_path / "run")
        for record in keyed_records(run_dir).values():
            extracted = extract_result(record.data["transcript"], record.cell.answer_type)
            assert score(extracted, record.data["oracle"]) is record.verdict


class TestWilson:
    def test_ten_of_ten(self):
        # lower bound frozen from the scipy-quantile recomputation below
        low, high = wilson_interval(10, 10)
        assert abs(low - 0.7224672001371107) < 1e-9
        assert high == 1.0

    def test_zero_of_n(self):
        low, high = wilson_interval(0, 20)
        assert low == 0.0
        assert 0 < high < 0.2

    @pytest.mark.parametrize("k,n", [(0, 5), (3, 7), (10, 10), (50, 100), (953, 1000)])
    def test_matches_independent_formula(self, k, n):
        # recompute from scratch with scipy's normal quantile
        z = scipy_stats.norm.ppf(0.975)
        phat = k / n
        denom = 1 + z**2 / n
        center = (phat + z**2 / (2 * n)) / denom
        margin = z * ((phat * (1 - phat) / n + z**2 / (4 * n**2)) ** 0.5) / denom
        low, high = wilson_interval(k, n)
        assert abs(low - max(0.0, center - margin)) < 1e-9
        assert abs(high - min(1.0, center + margin)) < 1e-9

    def test_interval_contains_accuracy(self):
        for k in range(0, 21):
            low, high = wilson_interval(k, 20)
            assert 0.0 <= low <= k / 20 <= high <= 1.0


def corrupt_run_pair(tmp_path):
    """Two runs of one four-cell grid on the corrupting backend, at corruption rates 0.1 (A) and 0.6 (B)."""
    dirs = []
    for name, p, seed in (("a", 0.1, 1), ("b", 0.6, 2)):
        spec = small_spec(
            tasks=[TaskId.PARITY_CHECK, TaskId.EVEN_PAIRS],
            lengths={TaskId.PARITY_CHECK: [20], TaskId.EVEN_PAIRS: [10]},
            kinds=[SupervisionKind.BASE, SupervisionKind.SUPERVISED_COT],
            master_seed=5,
            backend={"kind": "corrupt", "p": p, "seed": seed},
        )
        dirs.append(run_experiment(spec, CorruptingBackend(p=p, seed=seed), tmp_path / name))
    return dirs


# The outputs of corrupt_run_pair: run A's tables and the comparison of A with B.
PAIR_TABLE_TXT = """\
Task  Len   n                 Base                S-CoT
----  ---  --  -------------------  -------------------
PC    20   10    90.0 [59.6, 98.2]  100.0 [72.2, 100.0]
EP    10   10  100.0 [72.2, 100.0]    90.0 [59.6, 98.2]
"""

PAIR_TABLE_JSON = """\
{
  "cells": [
    {
      "task": "pc",
      "length": 20,
      "kind": "base",
      "rendering": "list",
      "n": 10,
      "n_correct": 9,
      "n_unparseable": 0,
      "n_error": 0,
      "accuracy": 0.9,
      "ci_low": 0.5958499732047616,
      "ci_high": 0.982123786904927
    },
    {
      "task": "pc",
      "length": 20,
      "kind": "scot",
      "rendering": "list",
      "n": 10,
      "n_correct": 10,
      "n_unparseable": 0,
      "n_error": 0,
      "accuracy": 1.0,
      "ci_low": 0.7224672001371109,
      "ci_high": 1.0
    },
    {
      "task": "ep",
      "length": 10,
      "kind": "base",
      "rendering": "list",
      "n": 10,
      "n_correct": 10,
      "n_unparseable": 0,
      "n_error": 0,
      "accuracy": 1.0,
      "ci_low": 0.7224672001371109,
      "ci_high": 1.0
    },
    {
      "task": "ep",
      "length": 10,
      "kind": "scot",
      "rendering": "list",
      "n": 10,
      "n_correct": 9,
      "n_unparseable": 0,
      "n_error": 0,
      "accuracy": 0.9,
      "ci_low": 0.5958499732047616,
      "ci_high": 0.982123786904927
    }
  ]
}
"""

PAIR_COMPARE_TXT = """\
Task  Len   Kind  acc A  acc B  delta      z  sig
----  ---  -----  -----  -----  -----  -----  ---
PC    20    Base   90.0   50.0  -40.0  -1.95
PC    20   S-CoT  100.0   40.0  -60.0  -2.93    *
EP    10    Base  100.0   30.0  -70.0  -3.28    *
EP    10   S-CoT   90.0   20.0  -70.0  -3.15    *
"""

PAIR_COMPARE_JSON = """\
{
  "cells": [
    {
      "task": "pc",
      "length": 20,
      "kind": "base",
      "n_a": 10,
      "accuracy_a": 0.9,
      "n_b": 10,
      "accuracy_b": 0.5,
      "delta": -0.4,
      "z": -1.9518001458970664,
      "significant": false
    },
    {
      "task": "pc",
      "length": 20,
      "kind": "scot",
      "n_a": 10,
      "accuracy_a": 1.0,
      "n_b": 10,
      "accuracy_b": 0.4,
      "delta": -0.6,
      "z": -2.927700218845599,
      "significant": true
    },
    {
      "task": "ep",
      "length": 10,
      "kind": "base",
      "n_a": 10,
      "accuracy_a": 1.0,
      "n_b": 10,
      "accuracy_b": 0.3,
      "delta": -0.7,
      "z": -3.281650616569468,
      "significant": true
    },
    {
      "task": "ep",
      "length": 10,
      "kind": "scot",
      "n_a": 10,
      "accuracy_a": 0.9,
      "n_b": 10,
      "accuracy_b": 0.2,
      "delta": -0.7,
      "z": -3.1462660248284626,
      "significant": true
    }
  ]
}
"""


class TestAggregate:
    def test_format_accuracy(self):
        assert format_accuracy(0.953) == "95.3"
        assert format_accuracy(1.0) == "100.0"
        assert format_accuracy(0.0) == "0.0"

    def test_echo_table_all_ones(self, tmp_path):
        run_dir = run_experiment(small_spec(), OracleEchoBackend(), tmp_path / "run")
        table = aggregate(run_dir)
        assert len(table.cells) == 4
        for cell in table.cells:
            assert cell.n == 10
            assert cell.accuracy == 1.0
            assert cell.n_unparseable == 0
        text = (tmp_path / "run" / "table.txt").read_text()
        assert "PC" in text and "100.0" in text

    def test_reaggregation_idempotent(self, tmp_path):
        run_dir = run_experiment(small_spec(), OracleEchoBackend(), tmp_path / "run")
        aggregate(run_dir)
        first = (run_dir / "table.json").read_bytes()
        aggregate(run_dir)
        assert (run_dir / "table.json").read_bytes() == first

    def test_backend_errors_are_left_out_of_n(self, tmp_path):
        spec = small_spec(kinds=[SupervisionKind.BASE], instances_per_cell=20)
        run_dir = run_experiment(spec, FlakyBackend(failures=5), tmp_path / "run")
        (cell,) = aggregate(run_dir).cells
        assert (cell.n, cell.n_correct, cell.n_error, cell.n_unparseable) == (15, 15, 5, 0)
        assert cell.accuracy == 1.0
        (stored,) = json.loads((run_dir / "table.json").read_text())["cells"]
        assert (stored["n"], stored["n_error"]) == (15, 5)
        assert "5 calls ended in a backend error" in (run_dir / "table.txt").read_text()
        # the records on disk keep their verdict
        errored = [r for r in keyed_records(run_dir).values() if r.data["error"] is not None]
        assert len(errored) == 5 and all(r.verdict is Verdict.UNPARSEABLE for r in errored)

        run_experiment(spec, FlakyBackend(failures=0), run_dir)
        (cell,) = aggregate(run_dir).cells
        assert (cell.n, cell.n_correct, cell.n_error) == (20, 20, 0)
        (stored,) = json.loads((run_dir / "table.json").read_text())["cells"]
        assert (stored["n"], stored["n_error"]) == (20, 0)
        assert "backend error" not in (run_dir / "table.txt").read_text()

    def test_empty_cell_warns(self, tmp_path):
        spec = small_spec()
        run_dir = run_experiment(spec, OracleEchoBackend(), tmp_path / "run")
        removed = next((run_dir / "records").glob("*.jsonl"))
        removed.unlink()
        with pytest.warns(EmptyCellWarning):
            aggregate(run_dir, write=False)

    def test_corrupt_run_tables_are_golden(self, tmp_path):
        dir_a, _ = corrupt_run_pair(tmp_path)
        aggregate(dir_a)
        assert (dir_a / "table.txt").read_text(encoding="utf-8") == PAIR_TABLE_TXT
        assert (dir_a / "table.json").read_text(encoding="utf-8") == PAIR_TABLE_JSON

    def test_text_table_of_two_renderings_a_missing_kind_and_unequal_n(self):
        pc, ep = TaskId.PARITY_CHECK, TaskId.EVEN_PAIRS
        base, scot = SupervisionKind.BASE, SupervisionKind.SUPERVISED_COT
        listed, compact = InputRendering.LIST_FIED, InputRendering.COMPACT_STRING
        # out of table order: the text sorts them
        cells = [
            CellStats(CellKey(ep, 10, scot, compact), 5, 0, 5, 0),
            CellStats(CellKey(pc, 20, scot, listed), 10, 10, 0, 0),
            CellStats(CellKey(ep, 10, scot, listed), 8, 6, 1, 2),
            CellStats(CellKey(pc, 20, base, compact), 10, 7, 0, 0),
            CellStats(CellKey(ep, 10, base, listed), 10, 10, 0, 0),
            CellStats(CellKey(pc, 20, base, listed), 10, 9, 0, 0),
        ]
        assert AccuracyTable(cells).format_text() == (
            "Task  Len   Input      n                 Base                S-CoT\n"
            "----  ---  ------  -----  -------------------  -------------------\n"
            "PC    20     list     10    90.0 [59.6, 98.2]  100.0 [72.2, 100.0]\n"
            "PC    20   string     10    70.0 [39.7, 89.2]                    -\n"
            "EP    10     list  mixed  100.0 [72.2, 100.0]    75.0 [40.9, 92.9]\n"
            "EP    10   string      5                    -      0.0 [0.0, 43.4]\n"
            "2 calls ended in a backend error and are left out of n; resume the run to issue them again\n"
        )


class TestCompare:
    def test_identical_runs_no_significance(self, tmp_path):
        spec = small_spec()
        dir_a = run_experiment(spec, OracleEchoBackend(), tmp_path / "a")
        dir_b = run_experiment(spec, OracleEchoBackend(), tmp_path / "b")
        table = compare_runs(dir_a, dir_b)
        assert all(row.delta == 0.0 and not row.significant for row in table.rows)

    def test_echo_vs_half_corrupt_significant(self, tmp_path):
        spec = small_spec(instances_per_cell=100)
        dir_a = run_experiment(spec, OracleEchoBackend(), tmp_path / "a")
        dir_b = run_experiment(
            small_spec(instances_per_cell=100, backend={"kind": "corrupt", "p": 0.5}),
            CorruptingBackend(p=0.5, seed=4),
            tmp_path / "b",
        )
        table = compare_runs(dir_a, dir_b)
        assert all(row.significant for row in table.rows)
        assert all(row.delta < 0 for row in table.rows)

    def test_rendering_axis_may_differ(self, tmp_path):
        spec_list = small_spec(instances_per_cell=3)
        spec_str = small_spec(instances_per_cell=3, rendering=InputRendering.COMPACT_STRING)
        dir_a = run_experiment(spec_list, OracleEchoBackend(), tmp_path / "a")
        dir_b = run_experiment(spec_str, OracleEchoBackend(), tmp_path / "b")
        table = compare_runs(dir_a, dir_b)
        assert len(table.rows) == 4

    def test_structure_mismatch(self, tmp_path):
        dir_a = run_experiment(small_spec(instances_per_cell=2), OracleEchoBackend(), tmp_path / "a")
        other = small_spec(instances_per_cell=2, tasks=[TaskId.EVEN_PAIRS], lengths={TaskId.EVEN_PAIRS: [10]})
        dir_b = run_experiment(other, OracleEchoBackend(), tmp_path / "b")
        with pytest.raises(StructureMismatch):
            compare_runs(dir_a, dir_b)

    def test_two_proportion_z_signs(self):
        assert two_proportion_z(90, 100, 50, 100) < -1.96
        assert two_proportion_z(50, 100, 90, 100) > 1.96
        assert two_proportion_z(0, 100, 0, 100) == 0.0
        assert two_proportion_z(100, 100, 100, 100) == 0.0

    def test_cell_with_only_backend_errors_compares_without_evidence(self, tmp_path):
        class FailingBackend(OracleEchoBackend):
            def complete(self, prompt, cfg, context=None):
                raise BackendError("boom", attempts=3)

        spec = small_spec(instances_per_cell=2)
        dir_a = run_experiment(spec, FailingBackend(), tmp_path / "a")
        dir_b = run_experiment(spec, OracleEchoBackend(), tmp_path / "b")
        assert all((c.n, c.n_error) == (0, 2) for c in aggregate(dir_a, write=False).cells)
        rows = compare_runs(dir_a, dir_b).rows
        assert len(rows) == 4
        assert all(row.z == 0.0 and not row.significant for row in rows)

    def test_thousand_instance_gap_is_significant(self):
        # a 24.4% vs 54.2% split at n=1000 per arm is far past the 5% bar
        z = two_proportion_z(244, 1000, 542, 1000)
        assert z > 1.96
        assert abs(z - 13.64302407543293) < 1e-9

    @pytest.mark.parametrize("flags,expected", [([], PAIR_COMPARE_TXT), (["--json"], PAIR_COMPARE_JSON)], ids=["text", "json"])
    def test_corrupt_run_pair_compares_to_golden_output(self, tmp_path, capsys, flags, expected):
        dir_a, dir_b = corrupt_run_pair(tmp_path)
        assert cli.main(["compare", "--run-a", str(dir_a), "--run-b", str(dir_b), *flags]) == 0
        assert capsys.readouterr().out == expected


class TestPairedInstances:
    """The kinds of one (task, length) share the instance and oracle of each index."""

    def spec(self, **overrides):
        return small_spec(
            tasks=[TaskId.PARITY_CHECK, TaskId.EQUAL_NUMBER],
            lengths={TaskId.PARITY_CHECK: [20, 25], TaskId.EQUAL_NUMBER: [20]},
            instances_per_cell=6,
            **overrides,
        )

    @staticmethod
    def by_instance(run_dir) -> dict[tuple, dict]:
        """(task, length, index) -> {kind: (instance json, oracle json)}."""
        out: dict[tuple, dict] = {}
        for (_, index), record in keyed_records(run_dir).items():
            data = record.data
            key = (record.cell.task, record.cell.length, index)
            out.setdefault(key, {})[record.cell.kind] = (data["instance"], data["oracle"])
        return out

    def assert_paired(self, run_dir, spec):
        groups = self.by_instance(run_dir)
        assert len(groups) == 3 * spec.instances_per_cell
        for (task, length, index), by_kind in groups.items():
            assert set(by_kind) == set(spec.kinds)
            (shared,) = {json.dumps(pair, sort_keys=True) for pair in by_kind.values()}
            instance, _ = json.loads(shared)
            assert instance["seed_path"] == f"{spec.master_seed}/{task.value}.{length}/{index}"
        # the indices of one (task, length) still draw different instances
        pc20 = {
            json.dumps(by_kind[SupervisionKind.BASE][0]["elements"])
            for (task, length, _), by_kind in groups.items()
            if (task, length) == (TaskId.PARITY_CHECK, 20)
        }
        assert len(pc20) == spec.instances_per_cell
        return groups

    def test_kinds_share_instance_and_oracle(self, tmp_path):
        spec = self.spec()
        self.assert_paired(run_experiment(spec, OracleEchoBackend(), tmp_path / "run"), spec)

    def test_fresh_run_generates_and_solves_once_per_instance(self, tmp_path, monkeypatch):
        generated, solved = [], []
        generate, solve = runner.generate_instance, runner.oracle_solve

        def counting_generate(task, length, seed_path):
            generated.append((task, length, seed_path))
            return generate(task, length, seed_path=seed_path)

        def counting_solve(task, instance):
            solved.append(instance.seed_path)
            return solve(task, instance)

        monkeypatch.setattr(runner, "generate_instance", counting_generate)
        monkeypatch.setattr(runner, "oracle_solve", counting_solve)
        spec = self.spec()
        run_experiment(spec, OracleEchoBackend(), tmp_path / "run")
        assert len(generated) == len(set(generated)) == 3 * spec.instances_per_cell
        assert sorted(solved) == sorted(path for _, _, path in generated)

    def test_resume_reissues_a_lost_kind_on_the_same_instances(self, tmp_path):
        spec = self.spec()
        run_dir = run_experiment(spec, OracleEchoBackend(), tmp_path / "run")
        before = self.by_instance(run_dir)
        (run_dir / "records" / "pc.25.scot.list.jsonl").unlink()

        backend = StallingBackend()
        run_experiment(spec, backend, run_dir)
        assert backend.calls == spec.instances_per_cell
        assert self.assert_paired(run_dir, spec) == before

    def test_worker_count_does_not_change_paired_instances(self, tmp_path):
        spec = self.spec()
        one = run_experiment(spec, OracleEchoBackend(), tmp_path / "w1", workers=1)
        sixteen = run_experiment(spec, OracleEchoBackend(), tmp_path / "w16", workers=16)
        assert self.assert_paired(one, spec) == self.assert_paired(sixteen, spec)

    def test_one_worker_writes_each_cell_in_index_order(self, tmp_path):
        spec = self.spec()
        run_dir = run_experiment(spec, OracleEchoBackend(), tmp_path / "run", workers=1)
        files = sorted((run_dir / "records").glob("*.jsonl"))
        assert len(files) == 12
        for path in files:
            indices = [json.loads(line)["index"] for line in path.read_text().splitlines()]
            assert indices == list(range(spec.instances_per_cell))


class MixedOutcomeBackend(OracleEchoBackend):
    """Echo backend whose outcome is chosen by the prompt's hash, whatever the call order.

    Of every five prompts one raises a backend error with a non-ASCII
    detail, one gets a transcript with no result, one a result of the wrong
    type, one a non-ASCII transcript that ends in the right answer, and one
    the plain echo.
    """

    def complete(self, prompt, cfg, context=None):
        slot = int(hashlib.sha256(prompt.encode("utf-8")).hexdigest(), 16) % 5
        if slot == 0:
            raise BackendError("upstream answered «überlastet» – 503", attempts=2)
        if slot == 1:
            return Completion("Keine Antwort.")
        if slot == 2:
            wrong = "True" if ANSWER_TYPES[context.instance.task] is str else "'zz'"
            return Completion("{'Result': " + wrong + "}")
        echo = super().complete(prompt, cfg, context)
        return Completion("Schritt für Schritt → " + echo.text) if slot == 3 else echo


def four_task_spec() -> ExperimentSpec:
    """A 32-cell, 160-call grid of four tasks with text, boolean and integer answers."""
    tasks = [TaskId.PARITY_CHECK, TaskId.PALINDROME_VERIFICATION, TaskId.DUPLICATE_LIST, TaskId.EVEN_PAIRS]
    return small_spec(tasks=tasks, lengths={task: [6, 8] for task in tasks}, instances_per_cell=5)


# A record line's keys in order: the cell's fields, the index, the part every
# kind of an instance shares, then the call's record_tail.
RECORD_KEYS = [
    "task", "length", "kind", "rendering", "index", "instance", "oracle",
    "prompt_sha256", "transcript", "extraction", "verdict", "error", "error_detail",
    "latency_s", "attempts", "timestamp",
]
ANSWER_KEYS = ["ok", "value", "raw_span", "position"]
FAILURE_KEYS = ["ok", "reason", "detail"]


class TestRecordLines:
    """A run writes each record's line from parts encoded once per cell and per instance."""

    @staticmethod
    def lines(run_dir) -> dict[str, list[str]]:
        return {
            path.name: path.read_text(encoding="utf-8").splitlines()
            for path in sorted((run_dir / "records").glob("*.jsonl"))
        }

    def test_lines_are_the_records_json_dumps(self, tmp_path):
        spec = four_task_spec()
        runs = {
            workers: self.lines(run_experiment(spec, MixedOutcomeBackend(), tmp_path / f"w{workers}", workers=workers))
            for workers in (1, 2)
        }
        outcomes = Counter()
        for files in runs.values():
            assert len(files) == len(spec.cells())
            for lines in files.values():
                assert len(lines) == spec.instances_per_cell
                for line in lines:
                    data = json.loads(line)
                    assert line == json.dumps(data, ensure_ascii=False)
                    assert list(data) == RECORD_KEYS
                    assert list(data["instance"]) == ["elements", "params", "seed_path"]
                    assert list(data["extraction"]) in (ANSWER_KEYS, FAILURE_KEYS)
                    rundir.check_record(data)
                    outcomes[data["error"] or data["extraction"].get("reason", "ok")] += 1
        reasons = [reason.value for reason in (FailureReason.NO_RESULT_FOUND, FailureReason.TYPE_MISMATCH)]
        assert {"BackendError", *reasons, "ok"} <= set(outcomes)

        def without_timing(files):
            out = {}
            for name, lines in files.items():
                records = [json.loads(line) for line in lines]
                for data in records:
                    del data["latency_s"], data["timestamp"]
                out[name] = sorted(records, key=lambda data: data["index"])
            return out

        assert without_timing(runs[1]) == without_timing(runs[2])


# text that JSON escapes or that json.dumps(..., ensure_ascii=False) writes raw:
# quotes, backslashes, control characters, U+2028, a non-BMP character and a
# lone surrogate, mixed with any other character
TAIL_TEXT = st.text(
    st.one_of(
        st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\u2028", "\U0001F600", "\ud83d"]),
        st.characters(exclude_categories=["Cs"]),
    )
)
TAIL_EXTRACTIONS = st.one_of(
    st.builds(
        ExtractedAnswer,
        raw_span=TAIL_TEXT,
        value=st.one_of(st.booleans(), st.integers(min_value=-10**40, max_value=10**40), TAIL_TEXT),
        position=st.integers(min_value=0, max_value=10**9),
    ),
    st.builds(ExtractionFailure, reason=st.sampled_from(FailureReason), detail=TAIL_TEXT),
)
TAIL_LATENCIES = st.one_of(
    st.sampled_from([0.0, 1e-05, 12345.678]),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
)


def pc_parts(index: int = 0) -> tuple[CellKey, str]:
    """A Parity Check cell and the encoded shared part of its instance at ``index``."""
    cell = CellKey(TaskId.PARITY_CHECK, 6, SupervisionKind.BASE, InputRendering.LIST_FIED)
    instance = generate_instance(cell.task, cell.length, seed_path=runner.instance_seed_path(0, cell.task, 6, index))
    return cell, rundir.encode_shared(instance, oracle_solve(cell.task, instance))


class TestRecordTail:
    """``record_tail`` writes the call's members as the JSON text json.dumps would."""

    @settings(max_examples=300, deadline=None)
    @given(
        prompt_sha256=TAIL_TEXT,
        transcript=TAIL_TEXT,
        extraction=TAIL_EXTRACTIONS,
        verdict=st.sampled_from(Verdict),
        error=st.one_of(st.none(), TAIL_TEXT),
        error_detail=TAIL_TEXT,
        latency_s=TAIL_LATENCIES,
        attempts=st.integers(min_value=1, max_value=10),
        index=st.integers(min_value=0, max_value=10**6),
    )
    def test_line_is_json_dumps_and_decodes_to_the_inputs(
        self, prompt_sha256, transcript, extraction, verdict, error, error_detail, latency_s, attempts, index
    ):
        cell, shared_json = pc_parts()
        tail = rundir.record_tail(
            prompt_sha256, transcript, extraction, verdict, error, error_detail, latency_s, attempts
        )
        line = rundir._record_line(json.dumps(cell.to_json(), ensure_ascii=False), index, shared_json, tail)
        assert line.endswith("}\n") and line.count("\n") == 1
        data = json.loads(line)
        assert line[:-1] == json.dumps(data, ensure_ascii=False)
        assert list(data) == RECORD_KEYS
        if isinstance(extraction, ExtractedAnswer):
            raw = {"ok": True, "value": extraction.value, "raw_span": extraction.raw_span,
                   "position": extraction.position}
            assert type(data["extraction"]["value"]) is type(extraction.value)
        else:
            raw = {"ok": False, "reason": extraction.reason.value, "detail": extraction.detail}
        assert data["extraction"] == raw
        assert list(data["extraction"]) == list(raw)
        timestamp = data.pop("timestamp")
        assert datetime.fromisoformat(timestamp).tzinfo == timezone.utc
        assert {key: data[key] for key in RECORD_KEYS[:7]} == {
            **cell.to_json(), "index": index, **json.loads(shared_json)
        }
        assert {key: data[key] for key in RECORD_KEYS[7:-1]} == {
            "prompt_sha256": prompt_sha256, "transcript": transcript, "extraction": raw,
            "verdict": verdict.value, "error": error, "error_detail": error_detail,
            "latency_s": latency_s, "attempts": attempts,
        }
        assert type(data["latency_s"]) is float


class TestRecordAppender:
    """``record_appender`` ends a torn final line before it appends, reading the last byte alone."""

    @pytest.mark.parametrize(
        "before,kept",
        [
            pytest.param(None, b"", id="missing"),
            pytest.param(b"", b"", id="empty"),
            pytest.param(b"\n", b"\n", id="one-newline"),
            pytest.param(b"{", b"{\n", id="one-byte-torn"),
            pytest.param(b'{"a": 1}\n', b'{"a": 1}\n', id="ends-in-newline"),
            pytest.param(b'{"a": 1}\n{"torn": ', b'{"a": 1}\n{"torn": \n', id="torn"),
        ],
    )
    def test_torn_final_line_is_ended_first(self, tmp_path, before, kept):
        cell, shared_json = pc_parts()
        path = rundir.cell_file(tmp_path, cell)
        path.parent.mkdir()
        if before is not None:
            path.write_bytes(before)
        tail = rundir.record_tail("0" * 64, "{'Result': True}", ExtractedAnswer("True", True, 11),
                                  Verdict.CORRECT, None, "", 0.5, 1)
        with rundir.record_appender(tmp_path) as save:
            save(cell, 0, shared_json, tail)
            save(cell, 1, shared_json, tail)
        lines = [rundir._record_line(json.dumps(cell.to_json()), i, shared_json, tail).encode() for i in (0, 1)]
        assert path.read_bytes() == kept + b"".join(lines)
        assert sorted(rundir.scan_cell_file(path, 2)) == [0, 1]


class SurrogateBackend(OracleEchoBackend):
    """Echo backend whose transcripts hold a lone surrogate, as json.loads decodes a "\\ud83d" escape."""

    PREFIX = json.loads('"Denke nach \\ud83d: "')

    def complete(self, prompt, cfg, context=None):
        return Completion(self.PREFIX + super().complete(prompt, cfg, context).text)


class TestLoneSurrogate:
    """A transcript holding a lone surrogate is saved as its JSON escape, and reads back the same."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_saves_report_counts_and_replay_serves_it(self, tmp_path, workers):
        assert SurrogateBackend.PREFIX.endswith("\ud83d: ")
        spec = small_spec()
        run_dir = run_experiment(spec, SurrogateBackend(), tmp_path / "run", workers=workers)
        text = "".join(path.read_text(encoding="utf-8") for path in (run_dir / "records").glob("*.jsonl"))
        assert text.count("\\ud83d") == 40
        records = keyed_records(run_dir)
        assert len(records) == 40
        for record in records.values():
            rundir.check_record(record.data)
            assert record.data["transcript"].startswith(SurrogateBackend.PREFIX)
            assert record.verdict is Verdict.CORRECT
        table = aggregate(run_dir, write=False)
        assert sum(stats.n_correct for stats in table.cells) == 40
        served = {record.data["prompt_sha256"]: record.data["transcript"] for record in records.values()}
        replay = ReplayBackend.from_run(run_dir)
        assert replay.transcripts == served
        replayed = run_experiment(spec, replay, tmp_path / "replayed", workers=workers)
        assert {key: r.data["transcript"] for key, r in keyed_records(replayed).items()} == {
            key: r.data["transcript"] for key, r in records.items()
        }
        assert aggregate(replayed, write=False).to_json() == table.to_json()


class LongIntegerBackend(ModelBackend):
    """Answers every call with a result integer of 5,000 digits, and keeps the prompts it was asked."""

    TRANSCRIPT = "{'Result': " + "1" * 5000 + "}"

    def __init__(self):
        self.prompts = []

    def complete(self, prompt, cfg, context=None):
        self.prompts.append(prompt)
        return Completion(self.TRANSCRIPT)


class TestLongResultInteger:
    """A result integer longer than the interpreter converts is a TypeMismatch, not a crash."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_records_it_unparseable_and_resume_and_replay_agree(self, tmp_path, int_digit_limit, workers):
        spec = small_spec(tasks=[TaskId.CYCLE_NAVIGATION], lengths={TaskId.CYCLE_NAVIGATION: [30]},
                          kinds=[SupervisionKind.BASE], instances_per_cell=4)
        backend = LongIntegerBackend()
        run_dir = run_experiment(spec, backend, tmp_path / "run", workers=workers)
        assert len(backend.prompts) == 4
        records = keyed_records(run_dir)
        assert len(records) == 4
        for record in records.values():
            assert rundir.check_record(record.data).verdict is Verdict.UNPARSEABLE
            assert record.data["extraction"] == {
                "ok": False, "reason": "TypeMismatch", "detail": "expected int, found an integer of 5000 digits",
            }
        resumed = LongIntegerBackend()
        run_experiment(spec, resumed, run_dir, workers=workers)
        assert resumed.prompts == []
        table = aggregate(run_dir, write=False)
        replayed = run_experiment(spec, ReplayBackend.from_run(run_dir), tmp_path / "replayed", workers=workers)
        assert aggregate(replayed, write=False).to_json() == table.to_json()


class TestCheckedRecords:
    """A report and a replay read what the checked records of a run say."""

    def test_replay_serves_the_transcripts_of_calls_without_an_error(self, tmp_path):
        run_dir = run_experiment(four_task_spec(), MixedOutcomeBackend(), tmp_path / "mixed")
        records = keyed_records(run_dir)
        assert len(records) == 160
        data = [r.data for r in records.values()]
        served = {d["prompt_sha256"]: d["transcript"] for d in data if d["error"] is None}
        assert ReplayBackend.from_run(run_dir).transcripts == served
        assert len(served) < len({d["prompt_sha256"] for d in data})

    def test_report_counts_what_the_records_say(self, tmp_path):
        run_dir = run_experiment(four_task_spec(), MixedOutcomeBackend(), tmp_path / "run")
        expected: dict[str, Counter] = {}
        for (label, _), record in keyed_records(run_dir).items():
            counts = expected.setdefault(label, Counter())
            if record.data["error"] is not None:
                counts["n_error"] += 1
            else:
                counts["n"] += 1
                counts["n_correct"] += record.verdict is Verdict.CORRECT
                counts["n_unparseable"] += record.verdict is Verdict.UNPARSEABLE
        table = aggregate(run_dir, write=False)
        names = ("n", "n_correct", "n_unparseable", "n_error")
        got = {stats.cell.label: tuple(getattr(stats, name) for name in names) for stats in table.cells}
        assert got == {label: tuple(counts[name] for name in names) for label, counts in expected.items()}
        totals = [sum(column) for column in zip(*got.values())]
        assert totals[0] == 160 - totals[3] and all(totals)


class TestRecordCheck:
    """``check_record`` holds every rule, and the cell-file scan and ``load_records`` apply it."""

    @pytest.fixture(scope="class")
    def first_lines(self, tmp_path_factory):
        """By task, the name of its cell file and the file's first line."""
        run_dir = run_experiment(record_rules_spec(), OracleEchoBackend(), tmp_path_factory.mktemp("run"))
        paths = (run_dir / "records").glob("*.jsonl")
        return {path.name.split(".")[0]: (path.name, path.read_text().split("\n")[0]) for path in paths}

    CASES = (
        [pytest.param(task, bad, False, id=id_) for id_, task, bad in NOT_RECORDS]
        + [pytest.param("pc", change, True, id=id_) for id_, change in ODD_RECORDS]
        + [pytest.param(task, {}, True, id=f"unchanged-{task}") for task in ("pc", "pv", "dl", "ep")]
    )

    @pytest.mark.parametrize("task,line,is_record", CASES)
    def test_check_scan_and_load_keep_and_skip_alike(self, tmp_path, first_lines, task, line, is_record):
        name, first = first_lines[task]
        if isinstance(line, dict):
            line = altered(first, line)
        elif callable(line):
            line = line(first)
        try:
            rundir.check_record(json.loads(line))
            passes = True
        except (ValueError, KeyError, MalformedInstance):
            passes = False
        assert passes is is_record
        path = tmp_path / "records" / name
        path.parent.mkdir()
        path.write_text(line + "\n")
        assert len(rundir.scan_cell_file(path, 10)) == len(list(rundir.load_records(tmp_path))) == is_record

    @pytest.mark.parametrize("task,change", [pytest.param(task, change, id=id_) for id_, task, change in WRONG_TYPE_ORACLES])
    def test_an_oracle_of_the_wrong_type_is_a_value_error(self, first_lines, task, change):
        # a ValueError that names the field, not a KeyError from the check's own table of type names
        with pytest.raises(ValueError, match="oracle must be"):
            rundir.check_record(json.loads(altered(first_lines[task][1], change)))
