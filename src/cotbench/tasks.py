"""Instance generators, exact oracles, and input renderers for the nine tasks.

Tasks come in three groups by the machine class needed to solve them:
finite-state (parity check, even pairs, cycle navigation), stack-based
(reverse list, equal number, palindrome verification), and linear-space
(odds first, sorting list, duplicate list).  Every generator is a pure
function of the random source passed in; every oracle is deterministic.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import string
from dataclasses import dataclass, field
from enum import Enum
from functools import cache, cached_property
from typing import Iterator, Sequence


class TaskError(Exception):
    """Base for task-layer errors."""


class UnsupportedLength(TaskError):
    """Requested instance length violates the task's length preconditions."""


class MalformedInstance(TaskError):
    """Instance does not satisfy its task's structural invariants."""


class InstanceTooLarge(TaskError):
    """Instance exceeds the size bound of a naive reference solver."""


@cache
def _enum_table(cls: type[Enum]) -> dict:
    """Each text a member of ``cls`` parses from, built once per class."""
    table = {}
    for member in cls:
        for key in (member.value, member.name.lower()):
            # only keys that stripped, lower-cased text can equal, so an exact
            # hit gives what the normalised lookup would; as in a scan of the
            # members in order, the first member to claim a key wins
            if isinstance(key, str) and key == key.strip().lower():
                table.setdefault(key, member)
    return table


def parse_enum(cls: type[Enum], text: str, noun: str) -> Enum:
    """The member of ``cls`` whose value or lower-cased name is ``text``.

    Case and surrounding whitespace are ignored.
    """
    table = _enum_table(cls)
    if isinstance(text, str):
        member = table.get(text)
        if member is None:
            text = text.strip().lower()
            member = table.get(text)
        if member is not None:
            return member
    raise ValueError(f"unknown {noun} {text!r}")


class TaskId(Enum):
    """The nine tasks, keyed by their short CLI codes, three per level in level order."""

    PARITY_CHECK = "pc"
    EVEN_PAIRS = "ep"
    CYCLE_NAVIGATION = "cn"
    REVERSE_LIST = "rl"
    EQUAL_NUMBER = "en"
    PALINDROME_VERIFICATION = "pv"
    ODDS_FIRST = "of"
    SORTING_LIST = "sl"
    DUPLICATE_LIST = "dl"

    @classmethod
    def parse(cls, text: str) -> "TaskId":
        return parse_enum(cls, text, "task")

    @property
    def display(self) -> str:
        return self.value.upper()


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


class AnswerKind(Enum):
    BOOL = "bool"
    INT = "int"
    TEXT = "text"


ANSWER_KINDS = {
    TaskId.PARITY_CHECK: AnswerKind.BOOL,
    TaskId.EQUAL_NUMBER: AnswerKind.BOOL,
    TaskId.PALINDROME_VERIFICATION: AnswerKind.BOOL,
    TaskId.EVEN_PAIRS: AnswerKind.INT,
    TaskId.CYCLE_NAVIGATION: AnswerKind.INT,
    TaskId.REVERSE_LIST: AnswerKind.TEXT,
    TaskId.ODDS_FIRST: AnswerKind.TEXT,
    TaskId.SORTING_LIST: AnswerKind.TEXT,
    TaskId.DUPLICATE_LIST: AnswerKind.TEXT,
}

# Letter pools each generator draws from.  Palindrome instances additionally
# carry exactly one '#' marker that is not part of the pool.
PALINDROME_MARKER = "#"
ALPHABETS = {
    TaskId.PARITY_CHECK: "ab",
    TaskId.EVEN_PAIRS: "ab",
    TaskId.CYCLE_NAVIGATION: "012",
    TaskId.EQUAL_NUMBER: "01",
    TaskId.REVERSE_LIST: string.ascii_lowercase,
    TaskId.PALINDROME_VERIFICATION: string.ascii_lowercase,
    TaskId.ODDS_FIRST: string.ascii_lowercase,
    TaskId.SORTING_LIST: string.ascii_uppercase + string.ascii_lowercase,
    TaskId.DUPLICATE_LIST: "ab",
}
# Membership tests run on these sets: on the pool strings, `in` would
# also admit substrings such as "" and "ab" as symbols.
_SYMBOLS = {task: frozenset(pool) for task, pool in ALPHABETS.items()}


@dataclass(frozen=True)
class OracleAnswer:
    """A typed ground-truth answer; the kind is fixed per task."""

    kind: AnswerKind
    value: bool | int | str

    @staticmethod
    def of_bool(value: bool) -> "OracleAnswer":
        return OracleAnswer(AnswerKind.BOOL, bool(value))

    @staticmethod
    def of_int(value: int) -> "OracleAnswer":
        return OracleAnswer(AnswerKind.INT, int(value))

    @staticmethod
    def of_text(value: str) -> "OracleAnswer":
        return OracleAnswer(AnswerKind.TEXT, str(value))

    def to_json(self) -> bool | int | str:
        return self.value

    @staticmethod
    def from_json(kind: AnswerKind, value: bool | int | str) -> "OracleAnswer":
        if kind is AnswerKind.BOOL:
            if not isinstance(value, bool):
                raise ValueError(f"expected bool, got {value!r}")
            return OracleAnswer.of_bool(value)
        if kind is AnswerKind.INT:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"expected int, got {value!r}")
            return OracleAnswer.of_int(value)
        if not isinstance(value, str):
            raise ValueError(f"expected str, got {value!r}")
        return OracleAnswer.of_text(value)


class InputRendering(Enum):
    """How an instance's symbols are laid out inside a prompt."""

    COMPACT_STRING = "string"
    LIST_FIED = "list"

    @classmethod
    def parse(cls, text: str) -> "InputRendering":
        return parse_enum(cls, text, "rendering")


@dataclass(frozen=True)
class TaskInstance:
    """One generated problem: payload symbols plus generation provenance.

    ``length`` counts payload symbols only; the palindrome marker '#' is
    carried in ``elements`` but excluded from ``length``.
    """

    task: TaskId
    elements: tuple[str, ...]
    params: dict = field(default_factory=dict)
    length: int = 0
    seed_path: str = ""

    def payload(self) -> tuple[str, ...]:
        """Elements without the palindrome marker."""
        if self.task is TaskId.PALINDROME_VERIFICATION:
            return tuple(e for e in self.elements if e != PALINDROME_MARKER)
        return self.elements

    # The input texts are built on first use and kept in the instance's
    # __dict__, outside the dataclass fields, so the prompt kinds that share
    # an instance share them too; equality and repr do not see them.
    @cached_property
    def compact_text(self) -> str:
        """The symbols run together."""
        return "".join(self.elements)

    @cached_property
    def list_text(self) -> str:
        """The symbols as a list, each quoted so that it lands on its own token."""
        quoted = ", ".join(f"'{e}'" for e in self.elements)
        return f"[{quoted}]"


def make_instance(
    task: TaskId,
    elements: Sequence[str],
    params: dict | None = None,
    seed_path: str = "",
) -> TaskInstance:
    """Build and validate an instance from raw symbols."""
    elements = tuple(elements)
    if task is TaskId.PALINDROME_VERIFICATION:
        length = sum(1 for e in elements if e != PALINDROME_MARKER)
    else:
        length = len(elements)
    merged = dict(_default_params(task))
    merged.update(params or {})
    instance = TaskInstance(task, elements, merged, length, seed_path)
    validate_instance(instance)
    return instance


def _default_params(task: TaskId) -> dict:
    if task is TaskId.PARITY_CHECK:
        return {"letter": "a"}
    if task is TaskId.CYCLE_NAVIGATION:
        return {"modulus": 5}
    if task is TaskId.DUPLICATE_LIST:
        return {"alphabet": ALPHABETS[TaskId.DUPLICATE_LIST]}
    return {}


def validate_instance(instance: TaskInstance) -> None:
    """Raise MalformedInstance if structural invariants fail."""
    task = instance.task
    if task is TaskId.PALINDROME_VERIFICATION:
        markers = instance.elements.count(PALINDROME_MARKER)
        if markers != 1:
            raise MalformedInstance(f"palindrome instance needs exactly one marker, found {markers}")
        mid = instance.elements.index(PALINDROME_MARKER)
        if mid * 2 + 1 != len(instance.elements):
            raise MalformedInstance("palindrome marker is not centered")
        if instance.length % 2 != 0 or instance.length != len(instance.elements) - 1:
            raise MalformedInstance("palindrome length must count the payload symbols, evenly split")
        symbols = _SYMBOLS[task]
        payload = instance.payload()
    else:
        if instance.length != len(instance.elements):
            raise MalformedInstance("length must equal the number of elements")
        if task is TaskId.DUPLICATE_LIST:
            symbols = frozenset(instance.params.get("alphabet", ALPHABETS[task]))
        else:
            symbols = _SYMBOLS[task]
        payload = instance.elements
    if not symbols.issuperset(payload):
        bad = [e for e in payload if e not in symbols]
        raise MalformedInstance(f"symbols {bad!r} outside alphabet for {task.value}")


def rng_for(seed_path: str) -> random.Random:
    """Platform-stable RNG derived from a seed path string."""
    digest = hashlib.sha256(seed_path.encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def generate_instance(
    task: TaskId,
    length: int,
    rng: random.Random | None = None,
    *,
    seed_path: str = "",
) -> TaskInstance:
    """Draw one instance of the given payload length.

    Boolean-answer tasks (parity check, equal number, palindrome
    verification) are class-balanced: the positive and negative oracle
    labels each appear with probability 1/2.

    The random source may be passed explicitly or derived from
    ``seed_path``; regenerating with the same seed path yields a
    byte-identical instance.
    """
    if rng is None:
        if not seed_path:
            raise ValueError("pass an rng or a seed_path")
        rng = rng_for(seed_path)
    if length < 2:
        raise UnsupportedLength(f"length must be >= 2, got {length}")
    if task in (TaskId.PALINDROME_VERIFICATION, TaskId.EQUAL_NUMBER) and length % 2 != 0:
        raise UnsupportedLength(f"{task.value} requires an even length, got {length}")

    if task is TaskId.PARITY_CHECK:
        elements = rng.choices(ALPHABETS[task], k=length)
        want_even = rng.random() < 0.5
        if (elements.count("a") % 2 == 0) != want_even:
            i = rng.randrange(length)
            elements[i] = "b" if elements[i] == "a" else "a"
    elif task is TaskId.EQUAL_NUMBER:
        half = length // 2
        if rng.random() < 0.5:
            steps = ["0"] * half + ["1"] * (half + 1)
            rng.shuffle(steps)
            elements = dyck_rotation(steps)
        else:
            # rejection stays cheap here: a shuffle is accepted with probability half/(half+1)
            elements = ["0"] * half + ["1"] * half
            rng.shuffle(elements)
            while _is_prefix_balanced(elements):
                rng.shuffle(elements)
    elif task is TaskId.PALINDROME_VERIFICATION:
        half = length // 2
        pool = ALPHABETS[task]
        left = rng.choices(pool, k=half)
        right = left[::-1]
        if rng.random() < 0.5:
            j = rng.randrange(half)
            others = [c for c in pool if c != right[j]]
            right[j] = rng.choice(others)
        elements = left + [PALINDROME_MARKER] + right
    else:
        elements = rng.choices(ALPHABETS[task], k=length)

    # the default params: letter "a", modulus 5 and the task's own alphabet
    return make_instance(task, elements, seed_path=seed_path)


def dyck_rotation(steps: Sequence[str]) -> list[str]:
    """Map h "0"s and h + 1 "1"s to a balanced, prefix-balanced list of 2h symbols.

    Cycle lemma (Dvoretzky & Motzkin, 1947): with "0" as +1 and "1" as -1
    the steps sum to -1, and exactly one of their 2h + 1 rotations keeps
    every proper prefix sum non-negative: the one starting just after the
    first position where the prefix sum reaches its minimum.  That rotation
    ends in "1"; dropping it leaves a Dyck word.  Each Dyck word is reached
    from exactly 2h + 1 arrangements, so a uniformly shuffled ``steps``
    gives a uniformly drawn Dyck word.
    """
    depths = list(itertools.accumulate(1 if s == "0" else -1 for s in steps))
    cut = depths.index(min(depths)) + 1
    return [*steps[cut:], *steps[: cut - 1]]


def _is_prefix_balanced(elements: Sequence[str]) -> bool:
    depth = 0
    for e in elements:
        depth += 1 if e == "0" else -1
        if depth < 0:
            return False
    return depth == 0


def oracle_solve(task: TaskId, instance: TaskInstance) -> OracleAnswer:
    """Compute the unique correct answer for an instance."""
    if instance.task is not task:
        raise MalformedInstance(f"instance is for {instance.task.value}, not {task.value}")
    elements = instance.elements

    if task is TaskId.PARITY_CHECK:
        letter = instance.params.get("letter", "a")
        return OracleAnswer.of_bool(elements.count(letter) % 2 == 0)

    if task is TaskId.EVEN_PAIRS:
        changes = sum(1 for a, b in zip(elements, elements[1:]) if a != b)
        return OracleAnswer.of_int(changes)

    if task is TaskId.CYCLE_NAVIGATION:
        modulus = instance.params.get("modulus", 5)
        deltas = {"0": 0, "1": 1, "2": -1}
        try:
            total = sum(deltas[m] for m in elements)
        except KeyError as exc:
            raise MalformedInstance(f"bad movement symbol {exc.args[0]!r}") from exc
        return OracleAnswer.of_int(total % modulus)

    if task is TaskId.REVERSE_LIST:
        return OracleAnswer.of_text("".join(reversed(elements)))

    if task is TaskId.EQUAL_NUMBER:
        return OracleAnswer.of_bool(_is_prefix_balanced(elements))

    if task is TaskId.PALINDROME_VERIFICATION:
        left, right = _split_at_marker(elements)
        return OracleAnswer.of_bool(right == left[::-1])

    if task is TaskId.ODDS_FIRST:
        return OracleAnswer.of_text("".join(elements[1::2]) + "".join(elements[0::2]))

    if task is TaskId.SORTING_LIST:
        return OracleAnswer.of_text("".join(sorted(elements, key=ord)))

    if task is TaskId.DUPLICATE_LIST:
        s = "".join(elements)
        return OracleAnswer.of_text(s + s)

    raise AssertionError(f"unhandled task {task}")


def _split_at_marker(elements: Sequence[str]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    if elements.count(PALINDROME_MARKER) != 1:
        raise MalformedInstance("expected exactly one '#' marker")
    mid = elements.index(PALINDROME_MARKER)
    return tuple(elements[:mid]), tuple(elements[mid + 1 :])


def brute_force_oracle(task: TaskId, instance: TaskInstance) -> OracleAnswer:
    """Recompute the answer by a structurally different naive method.

    Used only for cross-checking oracle_solve; refuses payloads over 20
    symbols since several of these run in quadratic time or worse.
    """
    if instance.length > 20:
        raise InstanceTooLarge(f"naive solver capped at length 20, got {instance.length}")
    elements = list(instance.elements)

    if task is TaskId.PARITY_CHECK:
        letter = instance.params.get("letter", "a")
        kept = [e for e in elements if e == letter]
        return OracleAnswer.of_bool(len(kept) % 2 == 0)

    if task is TaskId.EVEN_PAIRS:
        s = "".join(elements)
        hits = 0
        for i in range(len(s) - 1):
            if s[i : i + 2] in ("ab", "ba"):
                hits += 1
        return OracleAnswer.of_int(hits)

    if task is TaskId.CYCLE_NAVIGATION:
        modulus = instance.params.get("modulus", 5)
        pos = 0
        for move in elements:
            if move == "1":
                pos = pos + 1 if pos < modulus - 1 else 0
            elif move == "2":
                pos = pos - 1 if pos > 0 else modulus - 1
            elif move != "0":
                raise MalformedInstance(f"bad movement symbol {move!r}")
        return OracleAnswer.of_int(pos)

    if task is TaskId.REVERSE_LIST:
        out: list[str] = []
        for e in elements:
            out.insert(0, e)
        return OracleAnswer.of_text("".join(out))

    if task is TaskId.EQUAL_NUMBER:
        for i in range(1, len(elements) + 1):
            prefix = elements[:i]
            if prefix.count("0") < prefix.count("1"):
                return OracleAnswer.of_bool(False)
        return OracleAnswer.of_bool(elements.count("0") == elements.count("1"))

    if task is TaskId.PALINDROME_VERIFICATION:
        left, right = _split_at_marker(elements)
        mirrored: list[str] = []
        for e in left:
            mirrored.insert(0, e)
        return OracleAnswer.of_bool(list(right) == mirrored)

    if task is TaskId.ODDS_FIRST:
        odds = [e for i, e in enumerate(elements) if i % 2 == 1]
        evens = [e for i, e in enumerate(elements) if i % 2 == 0]
        return OracleAnswer.of_text("".join(odds + evens))

    if task is TaskId.SORTING_LIST:
        out = []
        for e in elements:
            i = 0
            while i < len(out) and ord(out[i]) <= ord(e):
                i += 1
            out.insert(i, e)
        return OracleAnswer.of_text("".join(out))

    if task is TaskId.DUPLICATE_LIST:
        out = []
        for _ in range(2):
            for e in elements:
                out.append(e)
        return OracleAnswer.of_text("".join(out))

    raise AssertionError(f"unhandled task {task}")


def render_input(instance: TaskInstance, rendering: InputRendering) -> str:
    """Render an instance's symbols as prompt text.

    Compact gives the raw concatenation; list form quotes each symbol
    so that every reasoning unit lands on its own token.  Each text is
    built once per instance.
    """
    if rendering is InputRendering.COMPACT_STRING:
        return instance.compact_text
    return instance.list_text


def instance_record(instance: TaskInstance) -> dict:
    """Dump-file record for one instance (stable field order)."""
    return {
        "task": instance.task.value,
        "length": instance.length,
        "elements": list(instance.elements),
        "params": instance.params,
        "oracle": oracle_solve(instance.task, instance).to_json(),
    }


def iter_all_instances(task: TaskId, length: int) -> Iterator[TaskInstance]:
    """Exhaustively enumerate every instance of a given payload length.

    Only meant for small lengths in equivalence tests; palindrome
    instances enumerate the left half crossed with all right halves.
    """
    pool = ALPHABETS[task]
    if task is TaskId.PALINDROME_VERIFICATION:
        if length % 2 != 0:
            raise UnsupportedLength("even lengths only")
        half = length // 2
        for left in itertools.product(pool, repeat=half):
            for right in itertools.product(pool, repeat=half):
                yield make_instance(task, list(left) + [PALINDROME_MARKER] + list(right))
        return
    for combo in itertools.product(pool, repeat=length):
        yield make_instance(task, combo)


# Tasks over two-letter alphabets, small enough to check at every instance.
EXHAUSTIVE_TASKS = (TaskId.PARITY_CHECK, TaskId.EVEN_PAIRS, TaskId.EQUAL_NUMBER, TaskId.DUPLICATE_LIST)


def oracle_disagreements(
    max_length: int, samples: int, seed_path: str
) -> tuple[int, list[TaskInstance]]:
    """Cross-check oracle_solve against brute_force_oracle on every task.

    The tasks in EXHAUSTIVE_TASKS are checked on every instance of lengths
    1 to ``max_length``; each other task on ``samples`` generated instances
    of even lengths up to 20, drawn from ``seed_path``.  Returns the number
    of instances checked and those on which the two solvers disagree.
    """
    checked = 0
    bad = []
    for task in TaskId:
        if task in EXHAUSTIVE_TASKS:
            instances = (
                inst for length in range(1, max_length + 1) for inst in iter_all_instances(task, length)
            )
        else:
            rng = rng_for(f"{seed_path}/{task.value}")
            instances = (generate_instance(task, rng.choice(range(2, 21, 2)), rng) for _ in range(samples))
        for inst in instances:
            checked += 1
            if oracle_solve(task, inst) != brute_force_oracle(task, inst):
                bad.append(inst)
    return checked, bad
