"""The benchmark's own answers: nine solvers and the closed-form census counts.

Written from the task definitions, not from ``cotbench.tasks``, so that a
record the program scores as correct is checked against an independent
computation.  Tasks are named by their short codes; instances are the raw
symbol lists as they appear in a record or a prompt.
"""

from __future__ import annotations

import math

CYCLE_MODULUS = 5
PALINDROME_MARKER = "#"
DUPLICATE_ALPHABET_SIZE = 2  # duplicate-list reference instances alternate 'a' and 'b'


def parity_check(symbols, letter="a"):
    """True when `letter` occurs an even number of times."""
    even = True
    for s in symbols:
        if s == letter:
            even = not even
    return even


def even_pairs(symbols):
    """Number of adjacent 'ab' and 'ba' pairs."""
    count = 0
    for i in range(1, len(symbols)):
        if {symbols[i - 1], symbols[i]} == {"a", "b"}:
            count += 1
    return count


def cycle_navigation(symbols, modulus=CYCLE_MODULUS):
    """End position on a cycle after STAY (0), INCREASE (1) and DECREASE (2) moves from 0."""
    position = 0
    step = {"0": 0, "1": 1, "2": modulus - 1}
    for s in symbols:
        position = (position + step[s]) % modulus
    return position


def reverse_list(symbols):
    return "".join(symbols[i] for i in range(len(symbols) - 1, -1, -1))


def equal_number(symbols):
    """True when every prefix has at least as many '0' as '1' and the totals are equal."""
    surplus = 0
    for s in symbols:
        surplus += 1 if s == "0" else -1
        if surplus < 0:
            return False
    return surplus == 0


def palindrome_verification(symbols):
    """True when the half after the '#' marker mirrors the half before it."""
    mid = symbols.index(PALINDROME_MARKER)
    left, right = symbols[:mid], symbols[mid + 1 :]
    return len(left) == len(right) and all(left[i] == right[-1 - i] for i in range(len(left)))


def odds_first(symbols):
    """Symbols at odd 0-based positions, then those at even positions."""
    odds = [s for i, s in enumerate(symbols) if i % 2]
    evens = [s for i, s in enumerate(symbols) if not i % 2]
    return "".join(odds + evens)


def sorting_list(symbols):
    """Ascending by character code, so every upper-case letter precedes every lower-case one."""
    counts: dict[str, int] = {}
    for s in symbols:
        counts[s] = counts.get(s, 0) + 1
    return "".join(s * counts[s] for s in sorted(counts, key=ord))


def duplicate_list(symbols):
    text = "".join(symbols)
    return text + text


def solve(task: str, symbols, params: dict | None = None):
    """The correct answer for one instance of `task` (a short code such as 'pc')."""
    params = params or {}
    symbols = list(symbols)
    if task == "pc":
        return parity_check(symbols, params.get("letter", "a"))
    if task == "ep":
        return even_pairs(symbols)
    if task == "cn":
        return cycle_navigation(symbols, params.get("modulus", CYCLE_MODULUS))
    if task == "rl":
        return reverse_list(symbols)
    if task == "en":
        return equal_number(symbols)
    if task == "pv":
        return palindrome_verification(symbols)
    if task == "of":
        return odds_first(symbols)
    if task == "sl":
        return sorting_list(symbols)
    if task == "dl":
        return duplicate_list(symbols)
    raise ValueError(f"unknown task {task!r}")


def result_line(answer) -> str:
    """The concluding dictionary the prompts ask for, e.g. {'Result': 'dcba'}."""
    if isinstance(answer, str):
        return "{'Result': '" + answer + "'}"
    return "{'Result': " + str(answer) + "}"


def census_counts(task: str, length: int) -> tuple[int, int]:
    """(candidates, correct candidates) for the census's reference instance of a cell.

    Reference instances hold distinct letters for the permutation tasks, so
    exactly one ordering is correct in every candidate model.
    """
    if task in ("pc", "en", "pv"):
        return 2, 1
    if task == "cn":
        return CYCLE_MODULUS, 1
    if task == "ep":
        return length, 1
    if task in ("rl", "of", "sl"):
        return math.factorial(length), 1
    if task == "dl":
        return DUPLICATE_ALPHABET_SIZE ** (2 * length), 1
    raise ValueError(f"unknown task {task!r}")
