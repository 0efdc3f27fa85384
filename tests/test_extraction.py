"""Result extraction, scoring, and the golden transcript fixtures."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotbench.extraction import (
    RESULT_RE,
    ExtractedAnswer,
    ExtractionFailure,
    FailureReason,
    Verdict,
    extract_result,
    format_result,
    score,
)
from cotbench.tasks import AnswerKind, OracleAnswer

from conftest import CASE_ORACLES, CASE_STUDIES, load_case


class TestGoldenTranscripts:
    @pytest.mark.parametrize("name,task,kind,expected", CASE_STUDIES)
    def test_extracts_stated_value(self, name, task, kind, expected):
        answer_kind = AnswerKind.INT if task == "ep" else AnswerKind.TEXT
        got = extract_result(load_case(name), answer_kind)
        assert isinstance(got, ExtractedAnswer)
        assert got.value == expected

    @pytest.mark.parametrize("name,task,kind,expected", CASE_STUDIES)
    def test_scores_against_oracle(self, name, task, kind, expected):
        answer_kind = AnswerKind.INT if task == "ep" else AnswerKind.TEXT
        oracle = OracleAnswer(answer_kind, CASE_ORACLES[task])
        verdict = score(extract_result(load_case(name), answer_kind), oracle)
        want = Verdict.CORRECT if expected == CASE_ORACLES[task] else Verdict.INCORRECT
        assert verdict is want


class TestExtractResult:
    def test_no_result_found(self):
        got = extract_result("no dictionary here", AnswerKind.INT)
        assert isinstance(got, ExtractionFailure)
        assert got.reason is FailureReason.NO_RESULT_FOUND

    def test_last_occurrence_wins(self):
        text = "first {'Result': 3} and then {'Result': 7}"
        got = extract_result(text, AnswerKind.INT)
        assert got.value == 7
        assert got.position == text.rindex("{'Result': 7}")

    def test_fenced_json(self):
        got = extract_result("```json\n{'Result': 6}\n```", AnswerKind.INT)
        assert got.value == 6

    def test_double_quoted_key_and_value(self):
        got = extract_result('{"Result": "abc"}', AnswerKind.TEXT)
        assert got.value == "abc"

    def test_unquoted_key(self):
        got = extract_result("{Result: 12}", AnswerKind.INT)
        assert got.value == 12

    def test_bool_leniency(self):
        assert extract_result("{'Result': true}", AnswerKind.BOOL).value is True
        assert extract_result("{'Result': false}", AnswerKind.BOOL).value is False
        assert extract_result("{'Result': True}", AnswerKind.BOOL).value is True

    def test_negative_int(self):
        assert extract_result("{'Result': -3}", AnswerKind.INT).value == -3

    def test_type_mismatch_on_last(self):
        text = "{'Result': 4} but I conclude {'Result': 'four'}"
        got = extract_result(text, AnswerKind.INT)
        assert isinstance(got, ExtractionFailure)
        assert got.reason is FailureReason.TYPE_MISMATCH

    def test_invalid_value_skipped(self):
        text = "code: {'Result': count_true} then real {'Result': 7}"
        assert extract_result(text, AnswerKind.INT).value == 7

    def test_text_never_int(self):
        got = extract_result("{'Result': 42}", AnswerKind.TEXT)
        assert isinstance(got, ExtractionFailure)
        assert got.reason is FailureReason.TYPE_MISMATCH

    def test_raw_span_is_whole_expression(self):
        got = extract_result("x {'Result': 'ab'} y", AnswerKind.TEXT)
        assert got.raw_span == "{'Result': 'ab'}"


class TestScore:
    def test_incorrect_int(self):
        got = extract_result("{'Result': 6}", AnswerKind.INT)
        assert score(got, OracleAnswer.of_int(9)) is Verdict.INCORRECT

    def test_correct_text(self):
        got = extract_result("{'Result': 'evxedkhmivkbgfo'}", AnswerKind.TEXT)
        assert score(got, OracleAnswer.of_text("evxedkhmivkbgfo")) is Verdict.CORRECT

    def test_text_case_sensitive(self):
        got = extract_result("{'Result': 'BCad'}", AnswerKind.TEXT)
        assert score(got, OracleAnswer.of_text("bcad")) is Verdict.INCORRECT

    def test_unparseable(self):
        failure = ExtractionFailure(FailureReason.NO_RESULT_FOUND)
        assert score(failure, OracleAnswer.of_bool(True)) is Verdict.UNPARSEABLE

    def test_bool_not_confused_with_int(self):
        # True == 1 in Python; the kind tag must keep them apart
        extracted = ExtractedAnswer("{'Result': True}", True, AnswerKind.BOOL, 0)
        assert score(extracted, OracleAnswer.of_int(1)) is Verdict.INCORRECT


def oracle_answers():
    bools = st.booleans().map(OracleAnswer.of_bool)
    ints = st.integers(-10**6, 10**6).map(OracleAnswer.of_int)
    texts = st.text(
        alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"),
        min_size=0,
        max_size=40,
    ).map(OracleAnswer.of_text)
    return st.one_of(bools, ints, texts)


class TestProperties:
    @given(st.text(max_size=300), st.sampled_from(list(AnswerKind)))
    @settings(max_examples=200, deadline=None)
    def test_total_on_arbitrary_text(self, text, kind):
        got = extract_result(text, kind)
        assert isinstance(got, (ExtractedAnswer, ExtractionFailure))

    @given(oracle_answers())
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, answer):
        rendered = format_result(answer)
        got = extract_result(rendered, answer.kind)
        assert isinstance(got, ExtractedAnswer), rendered
        assert got.value == answer.value

    @given(
        st.text(max_size=120),
        st.integers(-99, 99),
        st.text(max_size=80).filter(lambda s: "{" not in s and "}" not in s),
    )
    @settings(max_examples=200, deadline=None)
    def test_appending_resultless_text_is_stable(self, prefix, value, suffix):
        base = prefix + format_result(OracleAnswer.of_int(value))
        first = extract_result(base, AnswerKind.INT)
        second = extract_result(base + suffix, AnswerKind.INT)
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
