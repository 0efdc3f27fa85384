"""Search-space size calculations for step templates and final answers.

Two quantities: the number of distinct step templates when a reasoning
step verbalizes s of n available bits (a plain binomial coefficient,
kept exact at any size), and the density of correct answers inside a
task's candidate answer space, reported as an exact rational.  Both are
closed forms, so they stay exact and cheap at any instance length.
"""

from __future__ import annotations

import math
import string
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from cotbench.tasks import (
    TaskId,
    TaskInstance,
    UnsupportedLength,
    check_length,
    make_instance,
    oracle_solve,
)
from cotbench.textgrid import format_grid


class ComplexityError(Exception):
    pass


class InvalidParams(ComplexityError):
    pass


@dataclass(frozen=True)
class PromptSpaceParams:
    """n bits of latent information, s bits verbalized per reasoning step."""

    n: int
    s: int

    def __post_init__(self):
        if self.n <= 0 or self.s <= 0 or self.s > self.n:
            raise InvalidParams(f"need 0 < s <= n, got n={self.n}, s={self.s}")


def template_count(params: PromptSpaceParams) -> int:
    """Number of distinct step templates: ways to choose s of n bits."""
    return math.comb(params.n, params.s)


class CandidateModel(Enum):
    """Rule defining a task's candidate answer space."""

    BOOLEAN = "boolean"
    CYCLE_POSITIONS = "cycle-positions"
    COUNT_RANGE = "count-range"
    PERMUTATIONS = "permutations"
    ALPHABET_STRINGS = "alphabet-strings"


DEFAULT_CANDIDATE_MODELS = {
    TaskId.PARITY_CHECK: CandidateModel.BOOLEAN,
    TaskId.EQUAL_NUMBER: CandidateModel.BOOLEAN,
    TaskId.PALINDROME_VERIFICATION: CandidateModel.BOOLEAN,
    TaskId.CYCLE_NAVIGATION: CandidateModel.CYCLE_POSITIONS,
    TaskId.EVEN_PAIRS: CandidateModel.COUNT_RANGE,
    TaskId.REVERSE_LIST: CandidateModel.PERMUTATIONS,
    TaskId.ODDS_FIRST: CandidateModel.PERMUTATIONS,
    TaskId.SORTING_LIST: CandidateModel.PERMUTATIONS,
    TaskId.DUPLICATE_LIST: CandidateModel.ALPHABET_STRINGS,
}


@dataclass(frozen=True)
class AnswerSpaceCensus:
    """Exact counts over one instance's candidate answers."""

    task: TaskId
    length: int
    model: CandidateModel
    total: int
    correct: int

    @property
    def density(self) -> Fraction:
        return Fraction(self.correct, self.total)


def reference_instance(task: TaskId, length: int) -> TaskInstance:
    """Deterministic instance used when a census is asked for by length only.

    Permutation-space tasks get distinct letters so the census lands on
    the canonical 1/length! density.  InvalidParams for a length no
    generated instance has either (``check_length``).
    """
    try:
        check_length(task, length)
    except UnsupportedLength as exc:
        raise InvalidParams(str(exc)) from exc
    letters = string.ascii_lowercase
    if DEFAULT_CANDIDATE_MODELS[task] is CandidateModel.PERMUTATIONS:
        if length > len(letters):
            raise InvalidParams(f"distinct-letter instance caps at {len(letters)} symbols")
        return make_instance(task, list(letters[:length]))
    if task is TaskId.PALINDROME_VERIFICATION:
        half = [letters[i % 26] for i in range(length // 2)]
        return make_instance(task, half + ["#"] + half[::-1])
    if task is TaskId.EQUAL_NUMBER:
        return make_instance(task, ["0"] * (length // 2) + ["1"] * (length // 2))
    if task is TaskId.CYCLE_NAVIGATION:
        return make_instance(task, ["1"] * length)
    return make_instance(task, [("a" if i % 2 == 0 else "b") for i in range(length)])


def answer_space_census(
    task: TaskId,
    length: int | None = None,
    instance: TaskInstance | None = None,
    model: CandidateModel | None = None,
) -> AnswerSpaceCensus:
    """Count a candidate answer space and its correct members in closed form.

    The counts are those of enumerating the candidates: permutations are
    orderings of the instance's symbols by position, so repeated symbols
    make several orderings spell the same answer.
    """
    if instance is None:
        if length is None:
            raise InvalidParams("pass a length or an instance")
        instance = reference_instance(task, length)
    if model is None:
        model = DEFAULT_CANDIDATE_MODELS[task]
    target = oracle_solve(task, instance)

    if model is CandidateModel.BOOLEAN:
        total, correct = 2, int(type(target) is bool)
    elif model is CandidateModel.CYCLE_POSITIONS:
        total = instance.params.get("modulus", 5)
        correct = int(type(target) is int and 0 <= target < total)
    elif model is CandidateModel.COUNT_RANGE:
        total = instance.length
        correct = int(type(target) is int and 0 <= target < total)
    elif model is CandidateModel.PERMUTATIONS:
        total = math.factorial(len(instance.elements))
        multiplicities = Counter(instance.elements)
        correct = 0
        if isinstance(target, str) and Counter(target) == multiplicities:
            correct = math.prod(math.factorial(m) for m in multiplicities.values())
    else:  # ALPHABET_STRINGS
        if not isinstance(target, str):
            raise InvalidParams(f"{task.value} answers are not strings; {model.value} does not apply")
        alphabet = set(instance.elements)
        total = len(alphabet) ** len(target)
        correct = int(alphabet.issuperset(target))
    return AnswerSpaceCensus(task, instance.length, model, total, correct)


@dataclass
class DensityReport:
    rows: list[AnswerSpaceCensus]
    failures: list[tuple[TaskId, int, str]]

    def format_text(self) -> str:
        headers = ["Task", "Len", "Model", "Correct", "Total", "Density"]
        body = []
        for row in self.rows:
            body.append(
                [
                    row.task.display,
                    str(row.length),
                    row.model.value,
                    str(row.correct),
                    str(row.total),
                    f"{row.density.numerator}/{row.density.denominator}",
                ]
            )
        for task, length, msg in self.failures:
            body.append([task.display, str(length), "-", "-", "-", f"error: {msg}"])
        return format_grid(headers, body)


def density_report(tasks: list[TaskId], lengths: list[int]) -> DensityReport:
    """Censuses across a task x length grid; per-cell failures don't stop the rest."""
    rows = []
    failures = []
    for task in tasks:
        for length in lengths:
            try:
                rows.append(answer_space_census(task, length))
            except ComplexityError as exc:
                failures.append((task, length, str(exc)))
    return DensityReport(rows, failures)


__all__ = [
    "AnswerSpaceCensus",
    "CandidateModel",
    "ComplexityError",
    "DensityReport",
    "InvalidParams",
    "PromptSpaceParams",
    "answer_space_census",
    "density_report",
    "reference_instance",
    "template_count",
]
