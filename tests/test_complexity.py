"""Template counting and answer-space census tests."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import factorial

import pytest

from cotbench.complexity import (
    AnswerSpaceCensus,
    CandidateModel,
    InvalidParams,
    PromptSpaceParams,
    answer_space_census,
    density_report,
    reference_instance,
    template_count,
)
from cotbench.tasks import (
    ALPHABETS,
    ANSWER_KINDS,
    PALINDROME_MARKER,
    AnswerKind,
    TaskId,
    generate_instance,
    make_instance,
    oracle_solve,
)


def count(n, s):
    return template_count(PromptSpaceParams(n, s))


class TestTemplateCount:
    def test_small_case(self):
        assert count(5, 2) == 10

    def test_full_extraction_single_template(self):
        for k in (1, 7, 64):
            assert count(k, k) == 1

    def test_reference_value(self):
        assert count(64, 8) == 4_426_165_368

    def test_matches_factorial_ratio(self):
        # independent route: plain factorial arithmetic
        for n, s in [(10, 3), (64, 8), (200, 71), (999, 500)]:
            assert count(n, s) == factorial(n) // (factorial(s) * factorial(n - s))

    def test_symmetry_up_to_200(self):
        # the s == n mirror lands on s' == 0, outside the parameter domain,
        # where the count is the single empty-selection template
        for n in range(1, 201):
            for s in range(1, n):
                assert count(n, s) == count(n, n - s)
            assert count(n, n) == 1

    def test_pascal_identity_up_to_200(self):
        for n in range(2, 201):
            for s in range(1, n):
                left = count(n - 1, s - 1) if s > 1 else 1
                assert count(n, s) == left + count(n - 1, s)

    def test_big_values_exact(self):
        assert count(10_000, 3) == 10_000 * 9_999 * 9_998 // 6

    @pytest.mark.parametrize("n,s", [(0, 1), (5, 0), (5, 6), (-1, -1)])
    def test_invalid_params(self, n, s):
        with pytest.raises(InvalidParams):
            PromptSpaceParams(n, s)


class TestCensus:
    def test_boolean_tasks_half(self):
        for task in (TaskId.PARITY_CHECK, TaskId.EQUAL_NUMBER, TaskId.PALINDROME_VERIFICATION):
            census = answer_space_census(task, 8)
            assert census.total == 2 and census.correct == 1
            assert census.density == Fraction(1, 2)

    def test_cycle_positions_fifth(self):
        census = answer_space_census(TaskId.CYCLE_NAVIGATION, 12)
        assert census.density == Fraction(1, 5)

    def test_count_range(self):
        census = answer_space_census(TaskId.EVEN_PAIRS, 10)
        assert census.total == 10 and census.correct == 1

    def test_reverse_distinct_letters(self):
        census = answer_space_census(TaskId.REVERSE_LIST, 6)
        assert census.total == factorial(6)
        assert census.density == Fraction(1, 720)

    @pytest.mark.parametrize("length", [3, 4, 5, 6, 7])
    def test_permutation_density_is_inverse_factorial(self, length):
        census = answer_space_census(TaskId.REVERSE_LIST, length)
        assert census.density == Fraction(1, factorial(length))

    def test_repeated_letters_reduce_to_distinct_density(self):
        inst = make_instance(TaskId.REVERSE_LIST, ["a", "a", "b"])
        census = answer_space_census(TaskId.REVERSE_LIST, instance=inst)
        # 3 distinct arrangements, one correct
        assert census.density == Fraction(1, 3)

    def test_duplicate_list_strings(self):
        inst = make_instance(TaskId.DUPLICATE_LIST, ["a", "b", "a"])
        census = answer_space_census(TaskId.DUPLICATE_LIST, instance=inst)
        assert census.total == 2**6
        assert census.correct == 1

    def test_paper_lengths_beyond_enumeration(self):
        census = answer_space_census(TaskId.REVERSE_LIST, 15)
        assert (census.total, census.correct) == (factorial(15), 1)
        census = answer_space_census(TaskId.DUPLICATE_LIST, 70)
        assert (census.total, census.correct) == (2**140, 1)

    def test_density_in_unit_interval(self):
        for task in TaskId:
            census = answer_space_census(task, 6)
            assert 0 < census.density <= 1
            if census.density == 1:
                assert census.total == 1

    def test_census_deterministic(self):
        a = answer_space_census(TaskId.SORTING_LIST, 5)
        b = answer_space_census(TaskId.SORTING_LIST, 5)
        assert a == b

    @pytest.mark.parametrize("task", [t for t in TaskId if ANSWER_KINDS[t] is not AnswerKind.TEXT])
    def test_strings_refused_for_non_text_answers(self, task):
        with pytest.raises(InvalidParams):
            answer_space_census(task, 4, model=CandidateModel.ALPHABET_STRINGS)

    def test_generated_instance_census(self):
        inst = generate_instance(TaskId.CYCLE_NAVIGATION, 10, seed_path="census/cn")
        census = answer_space_census(TaskId.CYCLE_NAVIGATION, instance=inst)
        assert census.density == Fraction(1, 5)


def enumerated_census(instance, model: CandidateModel) -> tuple[int, int]:
    """(total, correct) by listing every candidate answer and comparing it to the oracle."""
    target = oracle_solve(instance.task, instance)
    if model is CandidateModel.BOOLEAN:
        candidates = [True, False]
    elif model is CandidateModel.CYCLE_POSITIONS:
        candidates = range(instance.params.get("modulus", 5))
    elif model is CandidateModel.COUNT_RANGE:
        candidates = range(instance.length)
    elif model is CandidateModel.PERMUTATIONS:
        candidates = map("".join, itertools.permutations(instance.elements))
    else:
        alphabet = sorted(set(instance.elements))
        candidates = map("".join, itertools.product(alphabet, repeat=len(target)))
    total = correct = 0
    for candidate in candidates:
        total += 1
        correct += candidate == target and type(candidate) is type(target)
    return total, correct


def repeated_letter_instance(task: TaskId, length: int, rng: random.Random):
    """An instance drawn from the first two letters of the task's pool."""
    pool = ALPHABETS[task][:2]
    if task is TaskId.PALINDROME_VERIFICATION:
        half = [rng.choice(pool) for _ in range(length // 2)]
        return make_instance(task, half + [PALINDROME_MARKER] + half[::-1])
    return make_instance(task, [rng.choice(pool) for _ in range(length)])


ENUMERATION_BUDGET = 10**5  # candidates listed per case, to keep the suite fast


@pytest.mark.parametrize("task", list(TaskId))
def test_closed_form_matches_enumeration(task):
    rng = random.Random(f"census/{task.value}")
    # strings are candidates only for a text answer
    strings = CandidateModel.ALPHABET_STRINGS
    text_answer = ANSWER_KINDS[task] is AnswerKind.TEXT
    models = {m for m in CandidateModel if text_answer or m is not strings}
    checked = set()
    for length in range(2, 8):
        if task in (TaskId.PALINDROME_VERIFICATION, TaskId.EQUAL_NUMBER) and length % 2:
            continue
        instances = [
            generate_instance(task, length, seed_path=f"census/{task.value}/{length}/{i}")
            for i in range(3)
        ]
        instances.append(repeated_letter_instance(task, length, rng))
        for instance in instances:
            answer_length = len(oracle_solve(task, instance)) if text_answer else 0
            for model in models:
                if model is strings and len(set(instance.elements)) ** answer_length > ENUMERATION_BUDGET:
                    continue
                census = answer_space_census(task, instance=instance, model=model)
                assert (census.total, census.correct) == enumerated_census(instance, model), (
                    instance.elements,
                    model,
                )
                checked.add(model)
    assert checked == models


class TestDensityReport:
    def test_forced_densities(self):
        report = density_report([TaskId.PARITY_CHECK, TaskId.CYCLE_NAVIGATION], [4, 8, 12])
        assert len(report.rows) == 6
        for row in report.rows:
            want = Fraction(1, 2) if row.task is TaskId.PARITY_CHECK else Fraction(1, 5)
            assert row.density == want

    def test_factorial_series(self):
        report = density_report([TaskId.REVERSE_LIST], [3, 4, 5])
        densities = [r.density for r in report.rows]
        assert densities == [Fraction(1, 6), Fraction(1, 24), Fraction(1, 120)]

    def test_empty_tasks(self):
        report = density_report([], [4])
        assert report.rows == [] and report.failures == []

    def test_failures_do_not_stop_grid(self):
        report = density_report([TaskId.REVERSE_LIST], [4, 30])
        assert len(report.rows) == 1
        assert len(report.failures) == 1
        assert report.failures[0][1] == 30

    def test_text_table(self):
        report = density_report([TaskId.PARITY_CHECK], [4])
        text = report.format_text()
        assert "PC" in text and "1/2" in text


class TestReferenceInstance:
    def test_palindrome_reference_is_even_and_marked(self):
        inst = reference_instance(TaskId.PALINDROME_VERIFICATION, 8)
        assert inst.length == 8 and inst.elements.count("#") == 1

    def test_distinct_letters(self):
        inst = reference_instance(TaskId.SORTING_LIST, 7)
        assert len(set(inst.elements)) == 7

    def test_odd_balanced_rejected(self):
        with pytest.raises(InvalidParams):
            reference_instance(TaskId.EQUAL_NUMBER, 5)

    @pytest.mark.parametrize("task", list(TaskId))
    @pytest.mark.parametrize("length", [-3, 0, 1])
    def test_length_below_two_rejected(self, task, length):
        # generate_instance and ExperimentSpec.validate refuse these lengths too
        with pytest.raises(InvalidParams, match="length must be >= 2"):
            reference_instance(task, length)
