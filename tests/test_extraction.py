"""Result extraction, scoring, and the golden transcript fixtures."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotbench.extraction import (
    MAX_INT_DIGITS,
    RESULT_RE,
    ExtractedAnswer,
    ExtractionFailure,
    FailureReason,
    Verdict,
    extract_result,
    format_result,
    score,
)

from conftest import CASE_ORACLES, CASE_STUDIES, load_case


class TestGoldenTranscripts:
    @pytest.mark.parametrize("name,task,kind,expected", CASE_STUDIES)
    def test_extracts_stated_value(self, name, task, kind, expected):
        answer_type = int if task == "ep" else str
        got = extract_result(load_case(name), answer_type)
        assert isinstance(got, ExtractedAnswer)
        assert got.value == expected

    @pytest.mark.parametrize("name,task,kind,expected", CASE_STUDIES)
    def test_scores_against_oracle(self, name, task, kind, expected):
        answer_type = int if task == "ep" else str
        verdict = score(extract_result(load_case(name), answer_type), CASE_ORACLES[task])
        want = Verdict.CORRECT if expected == CASE_ORACLES[task] else Verdict.INCORRECT
        assert verdict is want


class TestExtractResult:
    def test_no_result_found(self):
        got = extract_result("no dictionary here", int)
        assert isinstance(got, ExtractionFailure)
        assert got.reason is FailureReason.NO_RESULT_FOUND

    def test_last_occurrence_wins(self):
        text = "first {'Result': 3} and then {'Result': 7}"
        got = extract_result(text, int)
        assert got.value == 7
        assert got.position == text.rindex("{'Result': 7}")

    def test_fenced_json(self):
        got = extract_result("```json\n{'Result': 6}\n```", int)
        assert got.value == 6

    def test_double_quoted_key_and_value(self):
        got = extract_result('{"Result": "abc"}', str)
        assert got.value == "abc"

    def test_unquoted_key(self):
        got = extract_result("{Result: 12}", int)
        assert got.value == 12

    def test_bool_leniency(self):
        assert extract_result("{'Result': true}", bool).value is True
        assert extract_result("{'Result': false}", bool).value is False
        assert extract_result("{'Result': True}", bool).value is True

    def test_negative_int(self):
        assert extract_result("{'Result': -3}", int).value == -3

    def test_type_mismatch_on_last(self):
        text = "{'Result': 4} but I conclude {'Result': 'four'}"
        got = extract_result(text, int)
        assert isinstance(got, ExtractionFailure)
        assert got.reason is FailureReason.TYPE_MISMATCH

    def test_invalid_value_skipped(self):
        text = "code: {'Result': count_true} then real {'Result': 7}"
        assert extract_result(text, int).value == 7

    def test_text_never_int(self):
        got = extract_result("{'Result': 42}", str)
        assert isinstance(got, ExtractionFailure)
        assert got.reason is FailureReason.TYPE_MISMATCH
        assert got.detail == "expected str, found '42'"

    @pytest.mark.parametrize("sign", ["", "-", "+"])
    def test_integer_of_the_most_digits_parses(self, int_digit_limit, sign):
        digits = "9" * MAX_INT_DIGITS
        assert extract_result("{'Result': " + sign + digits + "}", int).value == int(sign + digits)

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_integer_of_more_digits_is_a_type_mismatch_that_counts_them(self, int_digit_limit, sign):
        # the same cap under any interpreter limit, so a replay scores a run as the run did
        got = extract_result("{'Result': " + sign + "1" * (MAX_INT_DIGITS + 1) + "}", int)
        assert got == ExtractionFailure(
            FailureReason.TYPE_MISMATCH, f"expected int, found an integer of {MAX_INT_DIGITS + 1} digits"
        )

    def test_raw_span_is_whole_expression(self):
        got = extract_result("x {'Result': 'ab'} y", str)
        assert got.raw_span == "{'Result': 'ab'}"


class TestScore:
    def test_incorrect_int(self):
        got = extract_result("{'Result': 6}", int)
        assert score(got, 9) is Verdict.INCORRECT

    def test_correct_text(self):
        got = extract_result("{'Result': 'evxedkhmivkbgfo'}", str)
        assert score(got, "evxedkhmivkbgfo") is Verdict.CORRECT

    def test_text_case_sensitive(self):
        got = extract_result("{'Result': 'BCad'}", str)
        assert score(got, "bcad") is Verdict.INCORRECT

    def test_unparseable(self):
        failure = ExtractionFailure(FailureReason.NO_RESULT_FOUND)
        assert score(failure, True) is Verdict.UNPARSEABLE

    def test_bool_not_confused_with_int(self):
        # True == 1 in Python; score compares the types as well
        extracted = ExtractedAnswer("{'Result': True}", True, 0)
        assert score(extracted, 1) is Verdict.INCORRECT
        extracted = ExtractedAnswer("{'Result': 1}", 1, 0)
        assert score(extracted, True) is Verdict.INCORRECT


def kinded_answers():
    """(type, answer) pairs: an answer of each type, with the type to extract it as."""
    bools = st.booleans().map(lambda v: (bool, v))
    ints = st.integers(-10**6, 10**6).map(lambda v: (int, v))
    texts = st.text(
        alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"),
        min_size=0,
        max_size=40,
    ).map(lambda v: (str, v))
    return st.one_of(bools, ints, texts)


class TestProperties:
    @given(st.text(max_size=300), st.sampled_from([bool, int, str]))
    @settings(max_examples=200, deadline=None)
    def test_total_on_arbitrary_text(self, text, kind):
        got = extract_result(text, kind)
        assert isinstance(got, (ExtractedAnswer, ExtractionFailure))

    @given(kinded_answers())
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, kinded):
        kind, answer = kinded
        rendered = format_result(answer)
        got = extract_result(rendered, kind)
        assert isinstance(got, ExtractedAnswer), rendered
        assert type(got.value) is type(answer)
        assert got.value == answer

    @given(
        st.text(max_size=120),
        st.integers(-99, 99),
        st.text(max_size=80).filter(lambda s: "{" not in s and "}" not in s),
    )
    @settings(max_examples=200, deadline=None)
    def test_appending_resultless_text_is_stable(self, prefix, value, suffix):
        base = prefix + format_result(value)
        first = extract_result(base, int)
        second = extract_result(base + suffix, int)
        assert isinstance(first, ExtractedAnswer)
        assert isinstance(second, ExtractedAnswer)
        assert first.value == second.value


# RESULT_RE as it was written before its quoted strings were unrolled: one
# alternation per character.  Both must match the same language.
ALTERNATING_RESULT_RE = re.compile(
    r"\{\s*(?:'Result'|\"Result\"|Result)\s*:\s*(?P<value>"
    r"True|False|true|false"
    r"|[+-]?\d+"
    r"|'(?:[^'\\\n]|\\.)*'"
    r"|\"(?:[^\"\\\n]|\\.)*\""
    r")\s*\}"
)

# the pieces a result dictionary and its quoted strings are made of, and a
# quoted result's opening and closing, so that about a third of the drawn
# strings hold a quoted match
RESULT_PIECES = ["{", "}", "'", '"', "\\", "\n", ":", " ", "Result", "True", "1", "-", "a"]
RESULT_PIECES += ["{'Result': '", '{"Result": "', "'}", '"}']


@given(st.lists(st.sampled_from(RESULT_PIECES), max_size=40).map("".join))
@settings(max_examples=1000, deadline=None)
def test_unrolled_pattern_matches_like_the_alternating_one(text):
    def spans(pattern):
        return [(m.span(), m.group("value")) for m in pattern.finditer(text)]

    assert spans(RESULT_RE) == spans(ALTERNATING_RESULT_RE)
