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


# An answer is the JSON value a record stores: a bool, an int that is no
# bool, or text.  ANSWER_TYPES gives the exact Python type of each task's
# answers, which extraction parses a result as and a record's oracle holds.
Answer = bool | int | str
ANSWER_TYPES: dict[TaskId, type] = {
    TaskId.PARITY_CHECK: bool,
    TaskId.EQUAL_NUMBER: bool,
    TaskId.PALINDROME_VERIFICATION: bool,
    TaskId.EVEN_PAIRS: int,
    TaskId.CYCLE_NAVIGATION: int,
    TaskId.REVERSE_LIST: str,
    TaskId.ODDS_FIRST: str,
    TaskId.SORTING_LIST: str,
    TaskId.DUPLICATE_LIST: str,
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
# The params an instance holds unless it gives its own; the other tasks have none.
_DEFAULT_PARAMS = {
    TaskId.PARITY_CHECK: {"letter": "a"},
    TaskId.CYCLE_NAVIGATION: {"modulus": 5},
    TaskId.DUPLICATE_LIST: {"alphabet": ALPHABETS[TaskId.DUPLICATE_LIST]},
}


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
    return TaskInstance(task, *instance_fields(task, elements, params), seed_path)


def instance_fields(
    task: TaskId, elements: Sequence[str], params: dict | None = None
) -> tuple[tuple[str, ...], dict, int]:
    """The symbols, params and payload length of an instance of ``task`` built from raw fields.

    The params are the task's defaults updated by ``params``.  Raises
    MalformedInstance if the symbols break the task's invariants: a symbol
    outside its alphabet (a duplicate-list instance's own ``alphabet``
    param), or a palindrome without exactly one '#' marker at its centre.
    """
    elements = tuple(elements)
    merged = dict(_DEFAULT_PARAMS.get(task, {}))
    merged.update(params or {})
    if task is TaskId.PALINDROME_VERIFICATION:
        markers = elements.count(PALINDROME_MARKER)
        if markers != 1:
            raise MalformedInstance(f"palindrome instance needs exactly one marker, found {markers}")
        mid = elements.index(PALINDROME_MARKER)
        if mid * 2 + 1 != len(elements):
            raise MalformedInstance("palindrome marker is not centered")
        symbols = _SYMBOLS[task]
        payload = elements[:mid] + elements[mid + 1 :]
    else:
        if task is TaskId.DUPLICATE_LIST:
            symbols = frozenset(merged["alphabet"])
        else:
            symbols = _SYMBOLS[task]
        payload = elements
    if not symbols.issuperset(payload):
        bad = [e for e in payload if e not in symbols]
        raise MalformedInstance(f"symbols {bad!r} outside alphabet for {task.value}")
    return elements, merged, len(payload)


def rng_for(seed_path: str) -> random.Random:
    """Platform-stable RNG derived from a seed path string."""
    digest = hashlib.sha256(seed_path.encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def check_length(task: TaskId, length: int) -> None:
    """UnsupportedLength unless ``task`` has instances of payload length ``length``.

    Every task needs at least 2 symbols, and palindrome verification and
    equal number an even count.
    """
    if length < 2:
        raise UnsupportedLength(f"length must be >= 2, got {length}")
    if task in (TaskId.PALINDROME_VERIFICATION, TaskId.EQUAL_NUMBER) and length % 2 != 0:
        raise UnsupportedLength(f"{task.value} requires an even length, got {length}")


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
    check_length(task, length)

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


def oracle_solve(task: TaskId, instance: TaskInstance) -> Answer:
    """The unique correct answer for an instance, as the value a record stores.

    Its type is the one ``ANSWER_TYPES`` gives the task.
    """
    if instance.task is not task:
        raise MalformedInstance(f"instance is for {instance.task.value}, not {task.value}")
    elements = instance.elements

    if task is TaskId.PARITY_CHECK:
        return elements.count(instance.params["letter"]) % 2 == 0

    if task is TaskId.EVEN_PAIRS:
        return sum(1 for a, b in zip(elements, elements[1:]) if a != b)

    if task is TaskId.CYCLE_NAVIGATION:
        deltas = {"0": 0, "1": 1, "2": -1}
        try:
            total = sum(deltas[m] for m in elements)
        except KeyError as exc:
            raise MalformedInstance(f"bad movement symbol {exc.args[0]!r}") from exc
        return total % instance.params["modulus"]

    if task is TaskId.REVERSE_LIST:
        return "".join(reversed(elements))

    if task is TaskId.EQUAL_NUMBER:
        return _is_prefix_balanced(elements)

    if task is TaskId.PALINDROME_VERIFICATION:
        left, right = _split_at_marker(elements)
        return right == left[::-1]

    if task is TaskId.ODDS_FIRST:
        return "".join(elements[1::2]) + "".join(elements[0::2])

    if task is TaskId.SORTING_LIST:
        return "".join(sorted(elements, key=ord))

    if task is TaskId.DUPLICATE_LIST:
        s = "".join(elements)
        return s + s

    raise AssertionError(f"unhandled task {task}")


def _split_at_marker(elements: Sequence[str]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    if elements.count(PALINDROME_MARKER) != 1:
        raise MalformedInstance("expected exactly one '#' marker")
    mid = elements.index(PALINDROME_MARKER)
    return tuple(elements[:mid]), tuple(elements[mid + 1 :])


# The longest payload brute_force_oracle solves: several of its solvers run
# in quadratic time or worse.
BRUTE_FORCE_MAX_LENGTH = 20


def brute_force_oracle(task: TaskId, instance: TaskInstance) -> Answer:
    """Recompute the answer by a structurally different naive method.

    Used only for cross-checking oracle_solve; InstanceTooLarge for a
    payload over ``BRUTE_FORCE_MAX_LENGTH`` symbols.
    """
    if instance.length > BRUTE_FORCE_MAX_LENGTH:
        raise InstanceTooLarge(f"naive solver capped at length {BRUTE_FORCE_MAX_LENGTH}, got {instance.length}")
    elements = list(instance.elements)

    if task is TaskId.PARITY_CHECK:
        letter = instance.params["letter"]
        kept = [e for e in elements if e == letter]
        return len(kept) % 2 == 0

    if task is TaskId.EVEN_PAIRS:
        s = "".join(elements)
        hits = 0
        for i in range(len(s) - 1):
            if s[i : i + 2] in ("ab", "ba"):
                hits += 1
        return hits

    if task is TaskId.CYCLE_NAVIGATION:
        modulus = instance.params["modulus"]
        pos = 0
        for move in elements:
            if move == "1":
                pos = pos + 1 if pos < modulus - 1 else 0
            elif move == "2":
                pos = pos - 1 if pos > 0 else modulus - 1
            elif move != "0":
                raise MalformedInstance(f"bad movement symbol {move!r}")
        return pos

    if task is TaskId.REVERSE_LIST:
        out: list[str] = []
        for e in elements:
            out.insert(0, e)
        return "".join(out)

    if task is TaskId.EQUAL_NUMBER:
        for i in range(1, len(elements) + 1):
            prefix = elements[:i]
            if prefix.count("0") < prefix.count("1"):
                return False
        return elements.count("0") == elements.count("1")

    if task is TaskId.PALINDROME_VERIFICATION:
        left, right = _split_at_marker(elements)
        mirrored: list[str] = []
        for e in left:
            mirrored.insert(0, e)
        return list(right) == mirrored

    if task is TaskId.ODDS_FIRST:
        odds = [e for i, e in enumerate(elements) if i % 2 == 1]
        evens = [e for i, e in enumerate(elements) if i % 2 == 0]
        return "".join(odds + evens)

    if task is TaskId.SORTING_LIST:
        out = []
        for e in elements:
            i = 0
            while i < len(out) and ord(out[i]) <= ord(e):
                i += 1
            out.insert(i, e)
        return "".join(out)

    if task is TaskId.DUPLICATE_LIST:
        out = []
        for _ in range(2):
            for e in elements:
                out.append(e)
        return "".join(out)

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
        "oracle": oracle_solve(instance.task, instance),
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
    of instances checked and those on which the two solvers disagree: their
    answers differ in type or in value, so ``1`` disagrees with ``True``.
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
            fast, naive = oracle_solve(task, inst), brute_force_oracle(task, inst)
            if type(fast) is not type(naive) or fast != naive:
                bad.append(inst)
    return checked, bad
