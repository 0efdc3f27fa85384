"""Experiment orchestration: run grids of calls, then count and compare their accuracy.

Every instance derives from (master seed, task, length, index) alone, so
the prompt kinds of one (task, length) share each instance and its oracle:
their accuracies are paired, the instance is generated once for all of
them, and the same spec produces the same instances regardless of worker
count.  The files a run leaves behind are ``rundir``'s; this module calls
and counts.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
import warnings
from collections import Counter
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass
from itertools import groupby, islice
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterator

from cotbench.backends import AuthError, BackendError, CallContext, ModelBackend
from cotbench.extraction import ExtractionFailure, FailureReason, Verdict, extract_result, score
from cotbench.prompts import SupervisionKind, get_template, render_prompt
from cotbench.rundir import (
    CellKey,
    ExperimentSpec,
    RunnerError,
    SpecError,
    cell_file,
    encode_shared,
    init_run_dir,
    load_records,
    load_spec,
    record_appender,
    record_tail,
    scan_cell_file,
    write_table,
)
from cotbench.tasks import Answer, TaskId, TaskInstance, generate_instance, oracle_solve
from cotbench.textgrid import format_grid

Z_95 = statistics.NormalDist().inv_cdf(0.975)

# On the pool path at most this many calls per worker are submitted and not
# yet saved: enough to keep every worker busy while the calling thread saves
# records and builds the next instances, few enough that an abort has little
# queued work to cancel.
WINDOW_PER_WORKER = 2


class StructureMismatch(RunnerError):
    """Two runs do not share the cell structure needed for comparison."""


class EmptyCellWarning(UserWarning):
    pass


def instance_seed_path(master_seed: int, task: TaskId, length: int, index: int) -> str:
    """The seed path of one instance; it leaves out the kind and the rendering,
    so every cell of a (task, length) draws the same instance at an index."""
    return f"{master_seed}/{task.value}.{length}/{index}"


# The pending calls of one instance: (task, length, index, the cells still to call).
PendingGroup = tuple[TaskId, int, int, list[CellKey]]

# One call to make: (cell, index, instance, oracle, the record's encoded shared part).
PendingCall = tuple[CellKey, int, TaskInstance, Answer, str]


def _paired_calls(master_seed: int, pending: list[PendingGroup]) -> Iterator[PendingCall]:
    """Each pending call with its record's encoded shared part.

    The instance, its oracle and that encoding are built once per group,
    when the group is reached, and serve every cell of the group.
    """
    for task, length, index, cells in pending:
        instance = generate_instance(
            task, length, seed_path=instance_seed_path(master_seed, task, length, index)
        )
        oracle = oracle_solve(task, instance)
        shared_json = encode_shared(instance, oracle)
        for cell in cells:
            yield cell, index, instance, oracle, shared_json


def _execute_call(
    spec: ExperimentSpec,
    backend: ModelBackend,
    cell: CellKey,
    instance: TaskInstance,
    oracle: Answer,
) -> str:
    """Make one call and score it; the record tail of what it produced, as JSON text."""
    prompt = render_prompt(get_template(cell.task, cell.kind), instance, cell.rendering)

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
        extraction = extract_result(transcript, cell.answer_type)
    else:
        extraction = ExtractionFailure(FailureReason.NO_RESULT_FOUND, f"backend error: {error}")
    verdict = score(extraction, oracle)
    return record_tail(prompt.sha256, transcript, extraction, verdict, error, error_detail, latency, attempts)


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

    A resume first reads each cell file with ``scan_cell_file``, as a report
    does, and reads each checked record's index and outcome.  Each call's
    record is written from its cell, index, encoded instance part and
    ``record_tail``.

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
    init_run_dir(run_dir, spec)

    cells = spec.cells()
    pending: list[PendingGroup] = []
    n_pending = 0
    for (task, length), group in groupby(cells, key=lambda c: (c.task, c.length)):
        group = list(group)
        # the indices each cell is done with; a call that ended in a backend
        # error is issued again
        done = []
        for cell in group:
            records = scan_cell_file(cell_file(run_dir, cell), spec.instances_per_cell)
            done.append({index for index, checked in records.items() if checked.outcome is not None})
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

    calls = _paired_calls(spec.master_seed, pending)
    with record_appender(run_dir) as save:
        if workers == 1:
            # calls one after another need no pool: handing each call and its
            # record between two threads only adds work whose cost depends on
            # how the host schedules them
            for cell, index, instance, oracle, shared_json in calls:
                save(cell, index, shared_json, _execute_call(spec, backend, cell, instance, oracle))
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
                        window = WINDOW_PER_WORKER * workers - len(unsaved)
                        for cell, index, instance, oracle, shared_json in islice(calls, window):
                            future = pool.submit(_execute_call, spec, backend, cell, instance, oracle)
                            unsaved[future] = (cell, index, shared_json)
                        if not unsaved:
                            break
                        done, _ = wait(unsaved, return_when=FIRST_COMPLETED)
                        for future in done:
                            save(*unsaved.pop(future), future.result())
                            completed += 1
                            if progress:
                                progress(completed, total)
                except BaseException:
                    # without this the executor's exit would still run every queued call
                    pool.shutdown(cancel_futures=True)
                    # save what succeeded: a done set comes in no set order, and
                    # the calls in flight have finished during the shutdown
                    for future, (cell, index, shared_json) in list(unsaved.items()):
                        if not future.cancelled() and future.exception() is None:
                            save(cell, index, shared_json, future.result())
                    raise
    return run_dir


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    z = Z_95
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
        present = {c.cell.kind for c in self.cells}
        kinds = [kind for kind in SupervisionKind if kind in present]
        multi_rendering = len({c.cell.rendering for c in self.cells}) > 1
        headers = ["Task", "Len"] + (["Input"] if multi_rendering else []) + ["n"]
        headers += [k.display for k in kinds]

        def row_key(stats: CellStats) -> tuple:
            task_rank, length, _, rendering = stats.cell.sort_key
            return task_rank, length, rendering

        def with_interval(stats: CellStats) -> str:
            low, high = stats.interval
            return f"{format_accuracy(stats.accuracy)} [{format_accuracy(low)}, {format_accuracy(high)}]"

        rows = []
        for _, group in groupby(sorted(self.cells, key=row_key), key=row_key):
            group = list(group)
            cell = group[0].cell
            ns = {stats.n for stats in group}
            row = [cell.task.display, str(cell.length)] + ([cell.rendering.value] if multi_rendering else [])
            row.append(str(ns.pop()) if len(ns) == 1 else "mixed")
            by_kind = {stats.cell.kind: stats for stats in group}
            row += [with_interval(by_kind[kind]) if kind in by_kind else "-" for kind in kinds]
            rows.append(row)
        text = format_grid(headers, rows)
        n_error = sum(c.n_error for c in self.cells)
        if n_error:
            text += (
                f"{n_error} calls ended in a backend error and are left out of n; "
                "resume the run to issue them again\n"
            )
        return text


def aggregate(run_dir: str | Path, write: bool = True) -> AccuracyTable:
    """Count a run's records cell by cell and compute accuracy with Wilson bounds.

    The checked records stream from ``load_records`` and each cell's
    outcomes are counted as its records go by, so a report holds one cell's
    records, not the run's.  A record of a call that ended in a backend
    error says nothing about the model, so it counts in ``n_error`` and not
    in ``n``.
    """
    run_dir = Path(run_dir)
    stats = []
    for cell, records in groupby(load_records(run_dir), key=attrgetter("cell")):
        # map lets go of each record once it is counted; a loop variable
        # would keep the cell's last record alive while the next file is read
        counts = Counter(map(attrgetter("outcome"), records))
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

    spec = load_spec(run_dir)
    if spec:
        recorded = {s.cell.label for s in stats}
        for cell in spec.cells():
            if cell.label not in recorded:
                warnings.warn(f"cell {cell.label} has no records", EmptyCellWarning)

    table = AccuracyTable(stats)
    if write:
        write_table(run_dir, table)
    return table


@dataclass(frozen=True)
class CellComparison:
    """One row of a comparison: the two cells it compares, A's and B's.

    The delta (B minus A), the z statistic and the significance are read
    from the two cells' counts, so a row holds nothing it could derive.
    """

    a: CellStats
    b: CellStats

    @property
    def delta(self) -> float:
        return self.b.accuracy - self.a.accuracy

    @property
    def z(self) -> float:
        return two_proportion_z(self.a.n_correct, self.a.n, self.b.n_correct, self.b.n)

    @property
    def significant(self) -> bool:
        """Whether the two-sided z test rejects equal accuracy at the 0.05 level."""
        return abs(self.z) > Z_95

    def to_json(self) -> dict:
        cell = self.a.cell
        return {
            "task": cell.task.value,
            "length": cell.length,
            "kind": cell.kind.value,
            "n_a": self.a.n,
            "accuracy_a": self.a.accuracy,
            "n_b": self.b.n,
            "accuracy_b": self.b.accuracy,
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
        rows = [
            [
                r.a.cell.task.display,
                str(r.a.cell.length),
                r.a.cell.kind.display,
                format_accuracy(r.a.accuracy),
                format_accuracy(r.b.accuracy),
                f"{r.delta * 100:+.1f}",
                f"{r.z:+.2f}",
                "*" if r.significant else "",
            ]
            for r in self.rows
        ]
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


def compare_runs(run_a: str | Path, run_b: str | Path) -> ComparisonTable:
    """Compare two runs that share their (task, length, kind) cells, in run A's table order.

    Each row holds run A's and run B's ``CellStats`` of one cell; its delta
    is significant when its two-sided z test rejects at the 0.05 level.

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
    if cells_a.keys() != cells_b.keys():
        only_a = {f"{t.value}/{l}/{k.value}" for t, l, k in cells_a.keys() - cells_b.keys()}
        only_b = {f"{t.value}/{l}/{k.value}" for t, l, k in cells_b.keys() - cells_a.keys()}
        raise StructureMismatch(f"cell structures differ (only in A: {only_a}, only in B: {only_b})")
    # aggregate sorts its cells, so A's keys are in table order
    return ComparisonTable([CellComparison(a, cells_b[key]) for key, a in cells_a.items()])


def stderr_progress(done: int, total: int) -> None:
    """Progress printer for CLI use; keeps stdout clean for data."""
    sys.stderr.write(f"\r{done}/{total} calls")
    sys.stderr.flush()
    if done >= total:
        sys.stderr.write("\n")
