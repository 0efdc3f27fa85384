"""Experiment orchestration: run grids of calls, persist them, aggregate accuracy.

A run is a directory: ``spec.json`` freezes the experiment definition,
``records/<cell>.jsonl`` collects one call record per line, and
``table.json`` / ``table.txt`` hold the aggregates.  Records are keyed by
(cell, index) so interrupted runs resume without duplicating work.  A
report reads the records one cell file at a time and counts each cell as
it goes, so it holds one cell's records whatever the size of the run.

Every instance derives from (master seed, task, length, index) alone, so
the prompt kinds of one (task, length) share each instance and its oracle:
their accuracies are paired, the instance is generated once for all of
them, and the same spec produces the same instances regardless of worker
count.  ``spec.json`` records the version of that instance stream
(``GENERATOR``), and a run directory written with another stream is not
resumed.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
import warnings
from collections import Counter
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import cached_property, lru_cache
from itertools import groupby, islice
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterator

from cotbench.backends import (
    AuthError,
    BackendError,
    CallContext,
    CompletionConfig,
    ModelBackend,
)
from cotbench.extraction import (
    ExtractedAnswer,
    ExtractionFailure,
    FailureReason,
    Verdict,
    extract_result,
    score,
)
from cotbench.prompts import SupervisionKind, get_template, render_prompt
from cotbench.tasks import (
    ANSWER_KINDS,
    InputRendering,
    MalformedInstance,
    OracleAnswer,
    TaskId,
    TaskInstance,
    generate_instance,
    make_instance,
    oracle_solve,
)
from cotbench.textgrid import format_grid

# Per-task instance lengths used in the large-scale accuracy grid.  The
# palindrome task's published lengths count the middle marker, so in
# payload terms (marker excluded) they come out one lower and even.
DEFAULT_LENGTHS: dict[TaskId, tuple[int, ...]] = {
    TaskId.PARITY_CHECK: (20, 25, 30, 35),
    TaskId.EVEN_PAIRS: (10, 15, 20, 25),
    TaskId.CYCLE_NAVIGATION: (30, 40, 50, 60),
    TaskId.REVERSE_LIST: (10, 15, 20, 25),
    TaskId.EQUAL_NUMBER: (20, 30, 40, 50),
    TaskId.PALINDROME_VERIFICATION: (24, 34, 44, 54),
    TaskId.ODDS_FIRST: (8, 10, 12, 15),
    TaskId.SORTING_LIST: (8, 10, 12, 15),
    TaskId.DUPLICATE_LIST: (40, 50, 60, 70),
}

Z_95 = statistics.NormalDist().inv_cdf(0.975)

# Version of the instance stream, frozen into each run's spec.json.  Bump it
# whenever the instances a spec draws change (a generator or the seed path).
# Versions 1 and 2 predate the field: runs written then hold no "generator".
GENERATOR = 3

# On the pool path at most this many calls per worker are submitted and not
# yet saved: enough to keep every worker busy while the calling thread saves
# records and builds the next instances, few enough that an abort has little
# queued work to cancel.
WINDOW_PER_WORKER = 2

_TASK_ORDER = {task: i for i, task in enumerate(TaskId)}
_KIND_ORDER = {kind: i for i, kind in enumerate(SupervisionKind)}


class RunnerError(Exception):
    pass


class SpecError(RunnerError):
    """Experiment spec is invalid or conflicts with an existing run."""


class StructureMismatch(RunnerError):
    """Two runs do not share the cell structure needed for comparison."""


class EmptyCellWarning(UserWarning):
    pass


@dataclass(frozen=True)
class CellKey:
    """One (task, length, kind, rendering) combination of the grid."""

    task: TaskId
    length: int
    kind: SupervisionKind
    rendering: InputRendering

    @cached_property
    def label(self) -> str:
        return f"{self.task.value}.{self.length}.{self.kind.value}.{self.rendering.value}"

    @property
    def sort_key(self):
        return (_TASK_ORDER[self.task], self.length, _KIND_ORDER[self.kind], self.rendering.value)

    def to_json(self) -> dict:
        return {
            "task": self.task.value,
            "length": self.length,
            "kind": self.kind.value,
            "rendering": self.rendering.value,
        }

    @staticmethod
    def from_json(data: dict) -> "CellKey":
        """The shared key of the cell a record names; equal fields give the same object."""
        return _cell_key(data["task"], data["length"], data["kind"], data["rendering"])


# The records of one cell file name one cell, so the most recent keys are
# all a decode needs; the bound caps what files naming many cells can add.
@lru_cache(maxsize=1024)
def _cell_key(task, length, kind, rendering) -> CellKey:
    return CellKey(
        TaskId.parse(task),
        int(length),
        SupervisionKind.parse(kind),
        InputRendering.parse(rendering),
    )


@dataclass
class ExperimentSpec:
    """Declarative description of a full experiment grid."""

    tasks: list[TaskId]
    lengths: dict[TaskId, list[int]]
    kinds: list[SupervisionKind]
    rendering: InputRendering
    instances_per_cell: int
    master_seed: int
    backend: dict = field(default_factory=lambda: {"kind": "echo"})
    completion: CompletionConfig = field(default_factory=CompletionConfig)
    workers: int = 4

    def validate(self) -> None:
        if not self.tasks:
            raise SpecError("spec lists no tasks")
        if self.instances_per_cell < 1:
            raise SpecError("instances_per_cell must be positive")
        if self.workers < 1:
            raise SpecError("workers must be positive")
        if self.completion.max_attempts < 1:
            raise SpecError("completion.max_attempts must be positive")
        if not self.completion.backoff_s or min(self.completion.backoff_s) < 0:
            raise SpecError("completion.backoff_s must list at least one delay, none negative")
        if len(set(self.tasks)) != len(self.tasks):
            raise SpecError("duplicate tasks in spec")
        for task in self.tasks:
            lengths = self.lengths.get(task)
            if not lengths:
                raise SpecError(f"no lengths for task {task.value}")
            if len(set(lengths)) != len(lengths):
                raise SpecError(f"duplicate lengths for task {task.value}")
            for length in lengths:
                if length < 2:
                    raise SpecError(f"{task.value} length {length} below minimum 2")
                if task in (TaskId.PALINDROME_VERIFICATION, TaskId.EQUAL_NUMBER) and length % 2:
                    raise SpecError(f"{task.value} requires even lengths, got {length}")

    def cells(self) -> list[CellKey]:
        return [
            CellKey(task, length, kind, self.rendering)
            for task in self.tasks
            for length in self.lengths[task]
            for kind in self.kinds
        ]

    def to_json(self) -> dict:
        return {
            "tasks": [t.value for t in self.tasks],
            "lengths": {t.value: list(self.lengths[t]) for t in self.tasks},
            "kinds": [k.value for k in self.kinds],
            "rendering": self.rendering.value,
            "instances_per_cell": self.instances_per_cell,
            "master_seed": self.master_seed,
            "backend": self.backend,
            "completion": self.completion.to_json(),
            "workers": self.workers,
        }

    @staticmethod
    def from_json(data: dict) -> "ExperimentSpec":
        tasks = [TaskId.parse(t) for t in data["tasks"]]
        raw_lengths = data.get("lengths") or {}
        lengths = {}
        for task in tasks:
            if task.value in raw_lengths:
                lengths[task] = [int(x) for x in raw_lengths[task.value]]
            else:
                lengths[task] = list(DEFAULT_LENGTHS[task])
        return ExperimentSpec(
            tasks=tasks,
            lengths=lengths,
            kinds=[SupervisionKind.parse(k) for k in data.get("kinds", ["base", "cot", "scot", "scot-sub"])],
            rendering=InputRendering.parse(data.get("rendering", "list")),
            instances_per_cell=int(data.get("instances_per_cell", 50)),
            master_seed=int(data.get("master_seed", 0)),
            backend=data.get("backend", {"kind": "echo"}),
            completion=CompletionConfig.from_json(data.get("completion", {})),
            workers=int(data.get("workers", 4)),
        )


def instance_seed_path(master_seed: int, task: TaskId, length: int, index: int) -> str:
    """The seed path of one instance; it leaves out the kind and the rendering,
    so every cell of a (task, length) draws the same instance at an index."""
    return f"{master_seed}/{task.value}.{length}/{index}"


@dataclass
class CallRecord:
    """Everything needed to audit or re-score one evaluation event."""

    cell: CellKey
    index: int
    instance: TaskInstance
    oracle: OracleAnswer
    prompt_sha256: str
    transcript: str
    extraction: ExtractedAnswer | ExtractionFailure
    verdict: Verdict
    error: str | None
    error_detail: str
    latency_s: float
    attempts: int
    timestamp: str

    def to_json(self) -> dict:
        if isinstance(self.extraction, ExtractedAnswer):
            extraction = {
                "ok": True,
                "value": self.extraction.value,
                "raw_span": self.extraction.raw_span,
                "position": self.extraction.position,
            }
        else:
            extraction = {
                "ok": False,
                "reason": self.extraction.reason.value,
                "detail": self.extraction.detail,
            }
        return {
            **self.cell.to_json(),
            "index": self.index,
            "instance": {
                "elements": list(self.instance.elements),
                "params": self.instance.params,
                "seed_path": self.instance.seed_path,
            },
            "oracle": self.oracle.to_json(),
            "prompt_sha256": self.prompt_sha256,
            "transcript": self.transcript,
            "extraction": extraction,
            "verdict": self.verdict.value,
            "error": self.error,
            "error_detail": self.error_detail,
            "latency_s": self.latency_s,
            "attempts": self.attempts,
            "timestamp": self.timestamp,
        }

    @staticmethod
    def from_json(data: dict) -> "CallRecord":
        """Decode one record; ValueError, KeyError or MalformedInstance if ``data`` is not one."""
        if not isinstance(data, dict):
            raise ValueError(f"a record is a JSON object, not {type(data).__name__}")
        try:
            cell = CellKey.from_json(data)
            kind = ANSWER_KINDS[cell.task]
            instance = make_instance(
                cell.task,
                data["instance"]["elements"],
                data["instance"].get("params") or {},
                data["instance"].get("seed_path", ""),
            )
            oracle = OracleAnswer.from_json(kind, data["oracle"])
            raw = data["extraction"]
            extraction: ExtractedAnswer | ExtractionFailure
            if not isinstance(raw, dict):
                raise ValueError(f"extraction is a JSON object, not {type(raw).__name__}")
            if raw.get("ok"):
                extraction = ExtractedAnswer(raw["raw_span"], raw["value"], kind, raw["position"])
            else:
                extraction = ExtractionFailure(FailureReason(raw["reason"]), raw.get("detail", ""))
            return CallRecord(
                cell=cell,
                index=int(data["index"]),
                instance=instance,
                oracle=oracle,
                prompt_sha256=data["prompt_sha256"],
                transcript=data["transcript"],
                extraction=extraction,
                verdict=Verdict(data["verdict"]),
                error=data.get("error"),
                error_detail=data.get("error_detail", ""),
                latency_s=data.get("latency_s", 0.0),
                attempts=data.get("attempts", 1),
                timestamp=data.get("timestamp", ""),
            )
        except TypeError as exc:
            # a field of the wrong JSON type, such as a list where text belongs
            raise ValueError(f"malformed record: {exc}") from exc


# The pending calls of one instance: (task, length, index, the cells still to call).
PendingGroup = tuple[TaskId, int, int, list[CellKey]]


def _paired_calls(
    master_seed: int, pending: list[PendingGroup]
) -> Iterator[tuple[CellKey, int, TaskInstance, OracleAnswer]]:
    """Each pending call with its instance and oracle, built once per group when it is reached."""
    for task, length, index, cells in pending:
        instance = generate_instance(
            task, length, seed_path=instance_seed_path(master_seed, task, length, index)
        )
        oracle = oracle_solve(task, instance)
        for cell in cells:
            yield cell, index, instance, oracle


def _execute_call(
    spec: ExperimentSpec,
    backend: ModelBackend,
    cell: CellKey,
    index: int,
    instance: TaskInstance,
    oracle: OracleAnswer,
) -> CallRecord:
    prompt = render_prompt(get_template(cell.task, cell.kind), instance, cell.rendering)
    kind = ANSWER_KINDS[cell.task]

    start = time.monotonic()
    error = None
    error_detail = ""
    transcript = ""
    try:
        completion = backend.complete(prompt.text, spec.completion, CallContext(instance, oracle))
        transcript, attempts = completion.text, completion.attempts
    except AuthError:
        # a rejected key fails every call alike: stop the run, record nothing
        raise
    except BackendError as exc:
        error = type(exc).__name__
        error_detail = str(exc)
        attempts = exc.attempts
    latency = time.monotonic() - start

    if error is None:
        extraction = extract_result(transcript, kind)
    else:
        extraction = ExtractionFailure(FailureReason.NO_RESULT_FOUND, f"backend error: {error}")
    verdict = score(extraction, oracle)
    return CallRecord(
        cell=cell,
        index=index,
        instance=instance,
        oracle=oracle,
        prompt_sha256=prompt.sha256,
        transcript=transcript,
        extraction=extraction,
        verdict=verdict,
        error=error,
        error_detail=error_detail,
        latency_s=latency,
        attempts=attempts,
        timestamp=datetime.now(timezone.utc).isoformat(),
    )


def _records_dir(run_dir: Path) -> Path:
    return run_dir / "records"


def _cell_file(run_dir: Path, cell: CellKey) -> Path:
    return _records_dir(run_dir) / f"{cell.label}.jsonl"


def _load_cell_records(path: Path, instances_per_cell: int) -> dict[int, CallRecord]:
    """Parse one cell file, keeping only the records that belong in it.

    A torn line, JSON that is not a record and a malformed instance are all
    skipped, and so is a record of another cell or with an index outside
    ``0 .. instances_per_cell - 1``.  Of several records for one index the
    last one wins, so a call re-issued on resume replaces the error it was
    re-issued for.
    """
    records: dict[int, CallRecord] = {}
    if not path.exists():
        return records
    label = path.stem
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = CallRecord.from_json(json.loads(line))
            except (ValueError, KeyError, MalformedInstance):
                continue
            if record.cell.label == label and 0 <= record.index < instances_per_cell:
                records[record.index] = record
    return records


def _read_spec_file(spec_path: Path, parse: Callable[[object], object] = ExperimentSpec.from_json):
    """``parse`` applied to the JSON in ``spec_path``; SpecError if the file holds no spec."""
    try:
        return parse(json.loads(spec_path.read_text(encoding="utf-8")))
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        # invalid JSON, a missing field, or a field of the wrong JSON type
        raise SpecError(f"{spec_path} holds no experiment spec: {type(exc).__name__}: {exc}") from exc


def _load_spec(run_dir: Path) -> ExperimentSpec | None:
    """The run's spec, or None without a ``spec.json``; SpecError if the file holds no spec."""
    spec_path = run_dir / "spec.json"
    if not spec_path.exists():
        return None
    return _read_spec_file(spec_path)


def load_records(run_dir: str | Path) -> Iterator[CallRecord]:
    """The records of a run that belong in their cell files, one cell file after another.

    Cell files are read in sorted order, by the rules of ``_load_cell_records``,
    and the records of one file share one ``CellKey``.  The generator lets go
    of each record as it hands it out, so it holds at most one cell's records;
    a caller that keeps none holds no more.  Without a ``spec.json`` no index
    is out of range.
    """
    run_dir = Path(run_dir)
    records_dir = _records_dir(run_dir)
    if not records_dir.is_dir():
        return
    spec = _load_spec(run_dir)
    instances_per_cell = spec.instances_per_cell if spec else sys.maxsize
    for path in sorted(records_dir.glob("*.jsonl")):
        records = _load_cell_records(path, instances_per_cell)
        for index in list(records):
            yield records.pop(index)


def run_experiment(
    spec: ExperimentSpec,
    backend: ModelBackend,
    out_dir: str | Path,
    workers: int | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> Path:
    """Execute (or resume) every cell of the spec against the backend.

    Backend errors are recorded on the affected call, except AuthError,
    and a resume issues those calls again; spec problems, a ``workers``
    below 1 and a run directory of another spec or instance stream abort
    before any call is issued.  An exception (AuthError included) or an
    interrupt cancels the calls not yet started, waits for those in flight,
    saves the record of every call that succeeded and is raised again.

    Each instance and its oracle are built once and handed to every pending
    kind of its (task, length, index).  With one worker the calls run in the
    calling thread, one instance at a time, and each cell file receives its
    records in index order.  With more, a pool runs them, and the calling
    thread keeps at most ``WINDOW_PER_WORKER`` calls per worker submitted
    and unsaved, building the next instances only as places free up.
    """
    spec.validate()
    if workers is not None and workers < 1:
        raise SpecError(f"workers must be positive, got {workers}")
    workers = spec.workers if workers is None else workers
    run_dir = Path(out_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    _records_dir(run_dir).mkdir(exist_ok=True)

    spec_path = run_dir / "spec.json"
    frozen = {**spec.to_json(), "generator": GENERATOR}
    if spec_path.exists():
        # compared as stored, generator field included
        stored = _read_spec_file(spec_path, parse=lambda data: data)
        if stored != frozen:
            if isinstance(stored, dict) and stored.get("generator") != GENERATOR:
                raise SpecError(
                    f"{spec_path} was written with instance stream "
                    f"{stored.get('generator', '1 or 2')}, and this version draws stream "
                    f"{GENERATOR}: the instances changed, so refusing to resume across "
                    "an instance-stream change; start a new run directory"
                )
            raise SpecError(f"{spec_path} holds a different spec; refusing to mix runs")
    else:
        text = json.dumps(frozen, indent=2, ensure_ascii=False) + "\n"
        spec_path.write_text(text, encoding="utf-8")

    cells = spec.cells()
    pending: list[PendingGroup] = []
    n_pending = 0
    for (task, length), group in groupby(cells, key=lambda c: (c.task, c.length)):
        group = list(group)
        # the indices each cell is done with; a call that ended in a backend
        # error is issued again
        done = []
        for cell in group:
            records = _load_cell_records(_cell_file(run_dir, cell), spec.instances_per_cell)
            done.append({index for index, record in records.items() if record.error is None})
        for index in range(spec.instances_per_cell):
            todo = [cell for cell, indices in zip(group, done) if index not in indices]
            if todo:
                pending.append((task, length, index, todo))
                n_pending += len(todo)

    total = len(cells) * spec.instances_per_cell
    completed = total - n_pending
    if progress:
        progress(completed, total)
    if not pending:
        return run_dir

    handles = {}

    def save(cell: CellKey, record: CallRecord) -> None:
        handle = handles.get(cell.label)
        if handle is None:
            path = _cell_file(run_dir, cell)
            # a crash can leave a torn final line with no newline;
            # terminate it so appended records stay parseable
            needs_newline = path.exists() and path.stat().st_size > 0 and not path.read_bytes().endswith(b"\n")
            handle = open(path, "a", encoding="utf-8")
            if needs_newline:
                handle.write("\n")
            handles[cell.label] = handle
        handle.write(json.dumps(record.to_json(), ensure_ascii=False) + "\n")
        handle.flush()

    calls = _paired_calls(spec.master_seed, pending)
    try:
        if workers == 1:
            # calls one after another need no pool: handing each call and its
            # record between two threads only adds work whose cost depends on
            # how the host schedules them
            for cell, index, instance, oracle in calls:
                save(cell, _execute_call(spec, backend, cell, index, instance, oracle))
                completed += 1
                if progress:
                    progress(completed, total)
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                unsaved = {}
                try:
                    while True:
                        # the calling thread builds each instance as a place in the
                        # window frees up, so no more than the window is ever queued
                        for call in islice(calls, WINDOW_PER_WORKER * workers - len(unsaved)):
                            unsaved[pool.submit(_execute_call, spec, backend, *call)] = call[0]
                        if not unsaved:
                            break
                        done, _ = wait(unsaved, return_when=FIRST_COMPLETED)
                        for future in done:
                            save(unsaved.pop(future), future.result())
                            completed += 1
                            if progress:
                                progress(completed, total)
                except BaseException:
                    # without this the executor's exit would still run every queued call
                    pool.shutdown(cancel_futures=True)
                    # save what succeeded: a done set comes in no set order, and
                    # the calls in flight have finished during the shutdown
                    for future, cell in list(unsaved.items()):
                        if not future.cancelled() and future.exception() is None:
                            save(cell, future.result())
                    raise
    finally:
        for handle in handles.values():
            handle.close()
    return run_dir


def wilson_interval(successes: int, n: int, z: float = Z_95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n == 0:
        return (0.0, 1.0)
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    margin = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    # at the extremes the bound is exactly the proportion; avoid float dust
    low = 0.0 if successes == 0 else max(0.0, center - margin)
    high = 1.0 if successes == n else min(1.0, center + margin)
    return (low, high)


def format_accuracy(value: float) -> str:
    """Accuracy as a percentage with one decimal, e.g. 0.953 -> '95.3'."""
    return f"{value * 100:.1f}"


@dataclass(frozen=True)
class CellStats:
    """Accuracy of one cell; ``n`` leaves out the calls that ended in a backend error."""

    cell: CellKey
    n: int
    n_correct: int
    n_unparseable: int
    n_error: int

    @property
    def accuracy(self) -> float:
        return self.n_correct / self.n if self.n else 0.0

    @property
    def interval(self) -> tuple[float, float]:
        return wilson_interval(self.n_correct, self.n)

    def to_json(self) -> dict:
        low, high = self.interval
        return {
            **self.cell.to_json(),
            "n": self.n,
            "n_correct": self.n_correct,
            "n_unparseable": self.n_unparseable,
            "n_error": self.n_error,
            "accuracy": self.accuracy,
            "ci_low": low,
            "ci_high": high,
        }


@dataclass
class AccuracyTable:
    cells: list[CellStats]

    def to_json(self) -> dict:
        return {"cells": [c.to_json() for c in self.cells]}

    def format_text(self) -> str:
        kinds = sorted({c.cell.kind for c in self.cells}, key=_KIND_ORDER.get)
        renderings = sorted({c.cell.rendering for c in self.cells}, key=lambda r: r.value)
        multi_rendering = len(renderings) > 1
        headers = ["Task", "Len"] + (["Input"] if multi_rendering else []) + ["n"]
        headers += [k.display for k in kinds]

        grouped: dict[tuple, dict[SupervisionKind, CellStats]] = {}
        for stats in self.cells:
            row_key = (_TASK_ORDER[stats.cell.task], stats.cell.length, stats.cell.rendering.value)
            grouped.setdefault(row_key, {})[stats.cell.kind] = stats

        rows = []
        for row_key in sorted(grouped):
            by_kind = grouped[row_key]
            any_stats = next(iter(by_kind.values()))
            cell = any_stats.cell
            row = [cell.task.display, str(cell.length)]
            if multi_rendering:
                row.append(cell.rendering.value)
            ns = {s.n for s in by_kind.values()}
            row.append(str(ns.pop()) if len(ns) == 1 else "mixed")
            for kind in kinds:
                stats = by_kind.get(kind)
                if stats is None:
                    row.append("-")
                else:
                    low, high = stats.interval
                    row.append(
                        f"{format_accuracy(stats.accuracy)} "
                        f"[{format_accuracy(low)}, {format_accuracy(high)}]"
                    )
            rows.append(row)
        text = format_grid(headers, rows)
        n_error = sum(c.n_error for c in self.cells)
        if n_error:
            text += (
                f"{n_error} calls ended in a backend error and are left out of n; "
                "resume the run to issue them again\n"
            )
        return text


def _outcome(record: CallRecord) -> Verdict | None:
    """What a record says about the model: its verdict, or None after a backend error."""
    return record.verdict if record.error is None else None


def aggregate(run_dir: str | Path, write: bool = True) -> AccuracyTable:
    """Count a run's records cell by cell and compute accuracy with Wilson bounds.

    The records stream from ``load_records`` and each cell is counted as its
    records go by, so a report holds one cell's records, not the run's.  A
    record of a call that ended in a backend error says nothing about the
    model, so it counts in ``n_error`` and not in ``n``.
    """
    run_dir = Path(run_dir)
    stats = []
    for cell, records in groupby(load_records(run_dir), key=attrgetter("cell")):
        # map lets go of each record once it is counted; a loop variable
        # would keep the cell's last record alive while the next file is read
        counts = Counter(map(_outcome, records))
        n_error = counts[None]
        stats.append(
            CellStats(
                cell,
                counts.total() - n_error,
                counts[Verdict.CORRECT],
                counts[Verdict.UNPARSEABLE],
                n_error,
            )
        )
    stats.sort(key=lambda s: s.cell.sort_key)

    spec = _load_spec(run_dir)
    if spec:
        recorded = {s.cell.label for s in stats}
        for cell in spec.cells():
            if cell.label not in recorded:
                warnings.warn(f"cell {cell.label} has no records", EmptyCellWarning)

    table = AccuracyTable(stats)
    if write:
        (run_dir / "table.json").write_text(
            json.dumps(table.to_json(), indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
        )
        (run_dir / "table.txt").write_text(table.format_text(), encoding="utf-8")
    return table


@dataclass(frozen=True)
class CellComparison:
    task: TaskId
    length: int
    kind: SupervisionKind
    n_a: int
    accuracy_a: float
    n_b: int
    accuracy_b: float
    delta: float
    z: float
    significant: bool

    def to_json(self) -> dict:
        return {
            "task": self.task.value,
            "length": self.length,
            "kind": self.kind.value,
            "n_a": self.n_a,
            "accuracy_a": self.accuracy_a,
            "n_b": self.n_b,
            "accuracy_b": self.accuracy_b,
            "delta": self.delta,
            "z": self.z,
            "significant": self.significant,
        }


@dataclass
class ComparisonTable:
    rows: list[CellComparison]

    def to_json(self) -> dict:
        return {"cells": [r.to_json() for r in self.rows]}

    def format_text(self) -> str:
        headers = ["Task", "Len", "Kind", "acc A", "acc B", "delta", "z", "sig"]
        rows = []
        for r in self.rows:
            rows.append(
                [
                    r.task.display,
                    str(r.length),
                    r.kind.display,
                    format_accuracy(r.accuracy_a),
                    format_accuracy(r.accuracy_b),
                    f"{r.delta * 100:+.1f}",
                    f"{r.z:+.2f}",
                    "*" if r.significant else "",
                ]
            )
        return format_grid(headers, rows)


def two_proportion_z(k_a: int, n_a: int, k_b: int, n_b: int) -> float:
    """Pooled two-proportion z statistic (b minus a); 0 when either side has no scored call."""
    if n_a == 0 or n_b == 0:
        return 0.0
    pooled = (k_a + k_b) / (n_a + n_b)
    if pooled in (0.0, 1.0):
        return 0.0
    se = math.sqrt(pooled * (1 - pooled) * (1 / n_a + 1 / n_b))
    return (k_b / n_b - k_a / n_a) / se


def compare_runs(run_a: str | Path, run_b: str | Path, alpha: float = 0.05) -> ComparisonTable:
    """Per-cell accuracy deltas between two runs sharing (task, length, kind) cells.

    The rendering axis may differ between the runs (that is the point of
    the tokenization comparison); everything else must line up.
    """
    table_a = aggregate(run_a, write=False)
    table_b = aggregate(run_b, write=False)

    def keyed(table: AccuracyTable) -> dict[tuple, CellStats]:
        out = {}
        for stats in table.cells:
            key = (stats.cell.task, stats.cell.length, stats.cell.kind)
            if key in out:
                raise StructureMismatch(
                    f"run has multiple renderings for {key}; compare one rendering at a time"
                )
            out[key] = stats
        return out

    cells_a = keyed(table_a)
    cells_b = keyed(table_b)
    if set(cells_a) != set(cells_b):
        only_a = {f"{t.value}/{l}/{k.value}" for t, l, k in set(cells_a) - set(cells_b)}
        only_b = {f"{t.value}/{l}/{k.value}" for t, l, k in set(cells_b) - set(cells_a)}
        raise StructureMismatch(f"cell structures differ (only in A: {only_a}, only in B: {only_b})")

    z_crit = statistics.NormalDist().inv_cdf(1 - alpha / 2)
    rows = []
    for key in sorted(cells_a, key=lambda k: (_TASK_ORDER[k[0]], k[1], _KIND_ORDER[k[2]])):
        a, b = cells_a[key], cells_b[key]
        z = two_proportion_z(a.n_correct, a.n, b.n_correct, b.n)
        rows.append(
            CellComparison(
                task=key[0],
                length=key[1],
                kind=key[2],
                n_a=a.n,
                accuracy_a=a.accuracy,
                n_b=b.n,
                accuracy_b=b.accuracy,
                delta=b.accuracy - a.accuracy,
                z=z,
                significant=abs(z) > z_crit,
            )
        )
    return ComparisonTable(rows)


def stderr_progress(done: int, total: int) -> None:
    """Progress printer for CLI use; keeps stdout clean for data."""
    sys.stderr.write(f"\r{done}/{total} calls")
    sys.stderr.flush()
    if done >= total:
        sys.stderr.write("\n")
