"""Acceptance suite: one test per release criterion, each printing a verdict line.

Criterion 7 needs a live endpoint and is skipped unless credentials are
present; everything else runs offline.
"""

from __future__ import annotations

import math
import os
import threading
from contextlib import contextmanager
from fractions import Fraction
from math import factorial

import pytest

from cotbench.backends import CompletionConfig, CorruptingBackend, OracleEchoBackend, make_backend
from cotbench.complexity import PromptSpaceParams, answer_space_census, template_count
from cotbench.extraction import ExtractedAnswer, Verdict, extract_result, score
from cotbench.prompts import SupervisionKind, get_template, render_prompt
from cotbench.runner import (
    ExperimentSpec,
    aggregate,
    run_experiment,
)
from cotbench.tasks import (
    ALPHABETS,
    DEFAULT_LENGTHS,
    AnswerKind,
    InputRendering,
    TaskId,
    generate_instance,
    make_instance,
    oracle_disagreements,
    oracle_solve,
)

from conftest import CASE_EP_LIST, CASE_ORACLES, CASE_RL_LIST, CASE_STUDIES, keyed_records, load_case


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


EXHAUSTIVE_TASKS = (TaskId.PARITY_CHECK, TaskId.EVEN_PAIRS, TaskId.EQUAL_NUMBER, TaskId.DUPLICATE_LIST)
SAMPLED_TASKS = tuple(t for t in TaskId if t not in EXHAUSTIVE_TASKS)


def test_criterion_1_oracle_equivalence():
    with criterion(1, "oracle equivalence"):
        checked, bad = oracle_disagreements(max_length=12, samples=1000, seed_path="acceptance")
        assert bad == []
        # every instance of lengths 1-12 of each exhaustive task, 1,000 of each other task
        exhaustive = sum(len(ALPHABETS[task]) ** n for task in EXHAUSTIVE_TASKS for n in range(1, 13))
        assert checked == exhaustive + 1000 * len(SAMPLED_TASKS) == 37_760


def test_criterion_2_golden_case_studies():
    with criterion(2, "golden case-study fixtures"):
        # the stored inputs really have the stated ground truths
        ep = make_instance(TaskId.EVEN_PAIRS, CASE_EP_LIST)
        rl = make_instance(TaskId.REVERSE_LIST, CASE_RL_LIST)
        assert oracle_solve(TaskId.EVEN_PAIRS, ep) == CASE_ORACLES["ep"] == 9
        assert oracle_solve(TaskId.REVERSE_LIST, rl) == CASE_ORACLES["rl"] == "evxedkhmivkbgfo"

        expected_verdicts = {
            "case_ep_cot": Verdict.INCORRECT,
            "case_ep_scot_sub": Verdict.INCORRECT,
            "case_ep_scot": Verdict.CORRECT,
            "case_rl_cot": Verdict.INCORRECT,
            "case_rl_scot_sub": Verdict.INCORRECT,
            "case_rl_scot": Verdict.CORRECT,
        }
        for name, task, _, expected_value in CASE_STUDIES:
            kind = AnswerKind.INT if task == "ep" else AnswerKind.TEXT
            extracted = extract_result(load_case(name), kind)
            assert isinstance(extracted, ExtractedAnswer), name
            assert extracted.value == expected_value, name
            assert score(extracted, CASE_ORACLES[task]) is expected_verdicts[name], name


PROMPT_ANCHORS = {
    ("pc", "base"): "Determine whether the number of occurrences of letter",
    ("pc", "cot"): "is even. Think step by step.",
    ("pc", "scot"): "Initialize 'count' to 0.",
    ("pc", "scot-sub"): "Write down yes or no for each step.",
    ("ep", "base"): "Please count the total numbers of 'ab' and 'ba'",
    ("ep", "cot"): "Think Step by step.",
    ("ep", "scot"): "Initialize the 'count' to 0.",
    ("ep", "scot-sub"): "Count the number of 'True's.",
    ("cn", "base"): "compute the end position",
    ("cn", "cot"): "in the list. Think step by step.",
    ("cn", "scot"): "Initialize 'state' to 0.",
    ("cn", "scot-sub"): "Calculate the sum of all elements",
    ("rl", "base"): "Please reverse the list.",
    ("rl", "cot"): "Please reverse the list. Think step by step.",
    ("rl", "scot"): "Create an empty string 'reversed'",
    ("rl", "scot-sub"): "move it to the rightmost place",
    ("en", "base"): "Determine if the count of '0' in the list is greater than or equal to",
    ("en", "cot"): "at each prefix. Think step by step.",
    ("en", "scot"): "If the element is 0: increment 'count' by 1",
    ("en", "scot-sub"): "Initialize 'count_0' and 'count_1' to 0.",
    ("pv", "base"): "Determine if the list is a palindrome.",
    ("pv", "cot"): "second half of the list. Think step by step.",
    ("pv", "scot"): "Reverse 'left', store in list 'left_reverse'.",
    ("pv", "scot-sub"): "If both 'left' and 'right' are empty, return True.",
    ("of", "base"): "Please convert the list below to odds first.",
    ("of", "cot"): "odds first. Think step by step",
    ("of", "scot"): "Create an empty list 'odds' and a copy of the list 'copy'",
    ("of", "scot-sub"): "decide whether it's at odd position or even position",
    ("sl", "base"): "Please sort the list below in ascending order using insertion sort.",
    ("sl", "cot"): "insertion sort. Think step by step.",
    ("sl", "scot"): "Start by creating an empty list 'sorted' for sorted characters.",
    ("sl", "scot-sub"): "Set a place counter to 1.",
    ("dl", "base"): "Please process the input string by duplicating it.",
    ("dl", "cot"): "duplicating it. Think step by step.",
    ("dl", "scot"): "Append the copied string to the original string.",
    ("dl", "scot-sub"): "Then repeat step 2 until the length has been doubled.",
}


def test_criterion_3_prompt_fidelity():
    with criterion(3, "prompt fidelity"):
        assert len(PROMPT_ANCHORS) == 36
        for task in TaskId:
            length = DEFAULT_LENGTHS[task][0]
            inst = generate_instance(task, length, seed_path=f"fidelity/{task.value}")
            for kind in SupervisionKind:
                template = get_template(task, kind)
                anchor = PROMPT_ANCHORS[(task.value, kind.value)]
                assert anchor in template.body, (task, kind)
                for rendering in InputRendering:
                    text = render_prompt(template, inst, rendering).text
                    assert anchor in text, (task, kind, rendering)
                    assert "{{" not in text and "}}" not in text, (task, kind, rendering)


def desk_grid_spec(backend: dict, seed: int = 2026) -> ExperimentSpec:
    return ExperimentSpec(
        tasks=list(TaskId),
        lengths={task: [DEFAULT_LENGTHS[task][0]] for task in TaskId},
        kinds=list(SupervisionKind),
        rendering=InputRendering.LIST_FIED,
        instances_per_cell=20,
        master_seed=seed,
        backend=backend,
        completion=CompletionConfig(model="offline"),
    )


@pytest.fixture(scope="module")
def grid_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance_runs")


def test_criterion_4_end_to_end(grid_dir):
    with criterion(4, "harness end-to-end"):
        spec = desk_grid_spec({"kind": "echo"})
        echo_dir = run_experiment(spec, OracleEchoBackend(), grid_dir / "echo")
        table = aggregate(echo_dir)
        assert len(table.cells) == 36
        for stats in table.cells:
            assert stats.n == 20
            assert stats.accuracy == 1.0, stats.cell.label

        p = 0.3
        spec_c = desk_grid_spec({"kind": "corrupt", "p": p, "seed": 0})
        corrupt_dir = run_experiment(spec_c, CorruptingBackend(p=p, seed=0), grid_dir / "corrupt")
        table_c = aggregate(corrupt_dir)
        sigma = math.sqrt(p * (1 - p) / 20)
        low, high = (1 - p) - 3 * sigma, min(1.0, (1 - p) + 3 * sigma)
        for stats in table_c.cells:
            assert low <= stats.accuracy <= high, (stats.cell.label, stats.accuracy)


class _AbortAfter(OracleEchoBackend):
    """Echo backend that simulates a hard kill partway through a run."""

    def __init__(self, limit: int):
        self.limit = limit
        self.calls = 0
        self._lock = threading.Lock()

    def complete(self, prompt, cfg, context=None):
        with self._lock:
            self.calls += 1
            if self.calls > self.limit:
                raise KeyboardInterrupt
        return super().complete(prompt, cfg, context)


def test_criterion_5_determinism_and_resume(grid_dir):
    with criterion(5, "determinism and resumability"):
        spec = desk_grid_spec({"kind": "echo"})
        total = 36 * 20

        one = run_experiment(spec, OracleEchoBackend(), grid_dir / "w1", workers=1)
        sixteen = run_experiment(spec, OracleEchoBackend(), grid_dir / "w16", workers=16)
        table_one = aggregate(one)
        table_sixteen = aggregate(sixteen)
        assert table_one.to_json() == table_sixteen.to_json()

        killed = grid_dir / "killed"
        with pytest.raises(KeyboardInterrupt):
            run_experiment(spec, _AbortAfter(17), killed, workers=4)
        partial = len(keyed_records(killed))
        assert partial < total

        run_experiment(spec, OracleEchoBackend(), killed, workers=4)
        records = keyed_records(killed)
        assert len(records) == total
        by_cell: dict[str, set[int]] = {}
        for (label, index) in records:
            by_cell.setdefault(label, set()).add(index)
        assert all(indices == set(range(20)) for indices in by_cell.values())
        assert aggregate(killed).to_json() == table_one.to_json()


def test_criterion_6_complexity_formulas():
    with criterion(6, "complexity formulas"):
        count = lambda n, s: template_count(PromptSpaceParams(n, s))
        for n in range(1, 201):
            for s in range(1, n):
                assert count(n, s) == count(n, n - s)
            assert count(n, n) == 1
        for n in range(2, 201):
            for s in range(2, n):
                assert count(n, s) == count(n - 1, s - 1) + count(n - 1, s)

        independent = factorial(64) // (factorial(8) * factorial(56))
        assert count(64, 8) == independent == 4_426_165_368

        for length in (4, 8, 12):
            assert answer_space_census(TaskId.PARITY_CHECK, length).density == Fraction(1, 2)
            assert answer_space_census(TaskId.CYCLE_NAVIGATION, length).density == Fraction(1, 5)
        for length in range(2, 8):
            census = answer_space_census(TaskId.REVERSE_LIST, length)
            assert census.density == Fraction(1, factorial(length))


@pytest.mark.skipif(
    not os.environ.get("COTBENCH_API_KEY"),
    reason="criterion 7 needs a live model endpoint (set COTBENCH_API_KEY); not part of the offline gate",
)
def test_criterion_7_live_supervision_ordering(grid_dir):
    with criterion(7, "live supervision ordering (non-gating)"):
        spec = ExperimentSpec(
            tasks=[TaskId.PARITY_CHECK],
            lengths={TaskId.PARITY_CHECK: [30]},
            kinds=[SupervisionKind.BASE, SupervisionKind.UNSUPERVISED_COT, SupervisionKind.SUPERVISED_COT],
            rendering=InputRendering.LIST_FIED,
            instances_per_cell=50,
            master_seed=30,
            backend={"kind": "live"},
        )
        run_dir = run_experiment(spec, make_backend(spec.backend), grid_dir / "live")
        table = aggregate(run_dir)
        by_kind = {stats.cell.kind: stats.accuracy for stats in table.cells}
        assert by_kind[SupervisionKind.SUPERVISED_COT] - by_kind[SupervisionKind.BASE] >= 0.10
