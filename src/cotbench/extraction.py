"""Pull the final ``{'Result': ...}`` answer out of a free-form transcript.

Transcripts restate intermediate result dictionaries while reasoning, and
the prompts instruct the model to conclude with the answer, so the last
syntactically valid occurrence is authoritative.  Parsing is deliberately
forgiving about surface syntax (quote style, unquoted key, code fences)
and strict about value typing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from cotbench.tasks import Answer

# A result dictionary: key 'Result' in single/double/no quotes, value one of
# a bool literal, an optionally signed integer, or a quoted string.  A quoted
# string is written unrolled, a run of plain characters between escapes, so
# that the engine takes a long run in one step rather than one alternation
# per character.
_VALUE_PATTERN = (
    r"True|False|true|false"
    r"|[+-]?\d+"
    r"|'[^'\\\n]*(?:\\.[^'\\\n]*)*'"
    r"|\"[^\"\\\n]*(?:\\.[^\"\\\n]*)*\""
)
RESULT_RE = re.compile(
    r"\{\s*(?:'Result'|\"Result\"|Result)\s*:\s*(?P<value>" + _VALUE_PATTERN + r")\s*\}"
)


class Verdict(Enum):
    CORRECT = "correct"
    INCORRECT = "incorrect"
    UNPARSEABLE = "unparseable"


class FailureReason(Enum):
    NO_RESULT_FOUND = "NoResultFound"
    TYPE_MISMATCH = "TypeMismatch"


@dataclass(frozen=True)
class ExtractedAnswer:
    """An answer found in a transcript; its value has the type it was extracted as."""

    raw_span: str
    value: Answer
    position: int


@dataclass(frozen=True)
class ExtractionFailure:
    reason: FailureReason
    detail: str = ""


# The most digits a result integer may have.  No answer comes near it, and
# it is the lowest limit an interpreter can set on converting between int
# and decimal text, so parsing and storing an accepted literal never hits
# that limit, and every interpreter accepts the same literals.
MAX_INT_DIGITS = 640


def _coerce(raw: str, kind: type) -> Answer | ExtractionFailure:
    """Parse a matched value literal as a value of type ``kind``; a TypeMismatch if it is none."""
    found = None
    if kind is bool:
        if raw in ("True", "true"):
            return True
        if raw in ("False", "false"):
            return False
    elif kind is int:
        if re.fullmatch(r"[+-]?\d+", raw):
            digits = len(raw.lstrip("+-"))
            if digits <= MAX_INT_DIGITS:
                return int(raw)
            found = f"an integer of {digits} digits"
    elif raw[:1] in ("'", '"') and raw[-1:] == raw[:1]:
        body = raw[1:-1]
        return re.sub(r"\\(.)", r"\1", body) if "\\" in body else body
    return ExtractionFailure(
        FailureReason.TYPE_MISMATCH, f"expected {kind.__name__}, found {found or repr(raw)}"
    )


def extract_result(transcript: str, kind: type) -> ExtractedAnswer | ExtractionFailure:
    """Extract the concluding result value as a value of type ``kind``, the task's answer type.

    The last occurrence that parses as any supported value wins; if that
    occurrence holds a value of another type the extraction fails with
    TypeMismatch rather than falling back to an earlier occurrence.
    """
    last = None
    for match in RESULT_RE.finditer(transcript):
        last = match
    if last is None:
        return ExtractionFailure(FailureReason.NO_RESULT_FOUND)
    value = _coerce(last.group("value"), kind)
    if isinstance(value, ExtractionFailure):
        return value
    return ExtractedAnswer(last.group(0), value, last.start())


def score(extracted: ExtractedAnswer | ExtractionFailure, oracle: Answer) -> Verdict:
    """Exact-match scoring against the oracle's value; any extraction failure counts as unparseable.

    An answer is correct only if it has the oracle's type and equals it, so
    an extracted ``1`` does not match a ``True`` oracle.
    """
    if isinstance(extracted, ExtractionFailure):
        return Verdict.UNPARSEABLE
    value = extracted.value
    return Verdict.CORRECT if type(value) is type(oracle) and value == oracle else Verdict.INCORRECT


def format_result(answer: Answer) -> str:
    """Canonical concluding form, as the prompts request it."""
    if isinstance(answer, str):
        escaped = answer.replace("\\", "\\\\").replace("'", "\\'")
        rendered = f"'{escaped}'"
    else:
        # str() spells a bool True or False and an int in decimal
        rendered = str(answer)
    return "{'Result': " + rendered + "}"
