"""Runner orchestration: persistence, resume, aggregation, comparison."""

from __future__ import annotations

import gc
import json
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor

import pytest
from scipy import stats as scipy_stats

from cotbench import runner
from cotbench.backends import (
    AuthError,
    BackendError,
    CompletionConfig,
    CorruptingBackend,
    OracleEchoBackend,
    RateLimited,
    ReplayBackend,
)
from cotbench.extraction import Verdict, extract_result, score
from cotbench.prompts import SupervisionKind
from cotbench.runner import (
    AccuracyTable,
    CallRecord,
    CellKey,
    DEFAULT_LENGTHS,
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
from cotbench.tasks import ANSWER_KINDS, InputRendering, TaskId

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


class TestSpec:
    def test_round_trip(self):
        spec = small_spec()
        again = ExperimentSpec.from_json(spec.to_json())
        assert again.to_json() == spec.to_json()

    def test_default_lengths_fill_in(self):
        spec = ExperimentSpec.from_json({"tasks": ["ep"], "master_seed": 1})
        assert spec.lengths[TaskId.EVEN_PAIRS] == list(DEFAULT_LENGTHS[TaskId.EVEN_PAIRS])

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
        assert all(r.error is None and r.verdict is Verdict.CORRECT for r in records.values())
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

    @pytest.fixture
    def tracked_run(self, tmp_path, monkeypatch):
        """An eight-cell run, weak references to every record read from it
        from then on, and how many of those were alive at each read."""
        spec = small_spec(
            tasks=[TaskId.PARITY_CHECK, TaskId.EVEN_PAIRS],
            lengths={TaskId.PARITY_CHECK: [20], TaskId.EVEN_PAIRS: [10]},
        )
        run_dir = run_experiment(spec, OracleEchoBackend(), tmp_path / "run")
        refs, alive_at_read = [], []
        load = runner._load_cell_records

        def tracking_load(path, instances_per_cell):
            gc.collect()
            alive_at_read.append(sum(ref() is not None for ref in refs))
            records = load(path, instances_per_cell)
            refs.extend(weakref.ref(record) for record in records.values())
            return records

        monkeypatch.setattr(runner, "_load_cell_records", tracking_load)
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
        instances_a = {k: v.instance for k, v in keyed_records(dir_a).items()}
        instances_b = {k: v.instance for k, v in keyed_records(dir_b).items()}
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

    @pytest.mark.parametrize(
        "bad",
        [
            "[]",
            "null",
            "7",
            {"task": 5},
            {"task": ["pc"]},
            {"instance": {"elements": ["z"] * 20, "params": {}, "seed_path": ""}},
        ],
        ids=["list", "null", "number", "int-task", "list-task", "bad-symbol"],
    )
    def test_resume_and_report_skip_json_that_is_no_record(self, tmp_path, bad):
        spec = small_spec()
        run_dir = run_experiment(spec, OracleEchoBackend(), tmp_path / "run")
        before = aggregate(run_dir, write=False).to_json()
        cell_file = sorted((run_dir / "records").glob("*.jsonl"))[0]
        if isinstance(bad, dict):
            first = json.loads(cell_file.read_text().split("\n")[0])
            bad = json.dumps({**first, **bad})
        with open(cell_file, "a") as fh:
            fh.write(bad + "\n")
        backend = StallingBackend()
        run_experiment(spec, backend, run_dir)
        assert backend.calls == 0
        assert aggregate(run_dir, write=False).to_json() == before

    def test_resume_reissues_errored_calls(self, tmp_path):
        spec = small_spec(kinds=[SupervisionKind.BASE], instances_per_cell=20)
        run_dir = run_experiment(spec, FlakyBackend(failures=5), tmp_path / "run")
        assert sum(r.error is not None for r in keyed_records(run_dir).values()) == 5

        healthy = FlakyBackend(failures=0)
        run_experiment(spec, healthy, run_dir)
        assert healthy.calls == 5
        (cell,) = aggregate(run_dir, write=False).cells
        assert (cell.n, cell.n_correct) == (20, 20)
        records = keyed_records(run_dir)
        assert len(records) == 20 and all(r.error is None for r in records.values())

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
        assert frozen == {**small_spec().to_json(), "generator": runner.GENERATOR}
        assert runner.GENERATOR == 3

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
            assert record.error == "BackendError"
            assert record.verdict is Verdict.UNPARSEABLE
            assert record.attempts == 3

    def test_rescoring_stored_records_is_stable(self, tmp_path):
        spec = small_spec(instances_per_cell=5)
        run_dir = run_experiment(spec, CorruptingBackend(p=0.5, seed=2), tmp_path / "run")
        for record in keyed_records(run_dir).values():
            extracted = extract_result(record.transcript, ANSWER_KINDS[record.cell.task])
            assert score(extracted, record.oracle) is record.verdict

    def test_record_json_round_trip(self, tmp_path):
        run_dir = run_experiment(small_spec(instances_per_cell=2), OracleEchoBackend(), tmp_path / "r")
        for record in keyed_records(run_dir).values():
            again = CallRecord.from_json(record.to_json())
            assert again.to_json() == record.to_json()


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
        errored = [r for r in keyed_records(run_dir).values() if r.error is not None]
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
            data = record.to_json()
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
