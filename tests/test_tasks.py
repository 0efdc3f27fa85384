"""Generator and oracle tests, including the brute-force cross checks."""

from __future__ import annotations

import itertools
import json
from collections import Counter
from enum import Enum, EnumMeta
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from cotbench.cli import main as cli_main
from cotbench.prompts import SupervisionKind
from cotbench.tasks import (
    ALPHABETS,
    ANSWER_KINDS,
    ANSWER_TYPES,
    InputRendering,
    InstanceTooLarge,
    MalformedInstance,
    TaskId,
    UnsupportedLength,
    brute_force_oracle,
    dyck_rotation,
    generate_instance,
    instance_record,
    iter_all_instances,
    make_instance,
    oracle_disagreements,
    oracle_solve,
    parse_enum,
    render_input,
    rng_for,
)

# The failing-transcript input from the worked examples; its answer is 9.
EP_CASE_LIST = list("bbbbababbbbbababbbba")
RL_CASE_LIST = list("ofgbkvimhkdexve")


def solve(task, elements, **params):
    return oracle_solve(task, make_instance(task, elements, params))


def same_answer(a, b) -> bool:
    """Equal and of the same type: True must not pass for 1."""
    return type(a) is type(b) and a == b


class TestOracleKnownValues:
    def test_even_pairs_long_case(self):
        assert solve(TaskId.EVEN_PAIRS, EP_CASE_LIST) == 9

    def test_reverse_list_long_case(self):
        assert solve(TaskId.REVERSE_LIST, RL_CASE_LIST) == "evxedkhmivkbgfo"

    def test_cycle_navigation_example(self):
        assert solve(TaskId.CYCLE_NAVIGATION, ["0", "1", "2", "1"]) == 1

    def test_even_pairs_example(self):
        assert solve(TaskId.EVEN_PAIRS, ["a", "b", "b", "a"]) == 2

    def test_odds_first_example(self):
        assert solve(TaskId.ODDS_FIRST, ["a", "b", "c", "d"]) == "bdac"

    def test_sorting_list_example(self):
        assert solve(TaskId.SORTING_LIST, ["a", "B", "C", "d"]) == "BCad"

    def test_palindrome_example(self):
        assert solve(TaskId.PALINDROME_VERIFICATION, ["a", "b", "#", "a", "b"]) is False

    def test_equal_number_example(self):
        assert solve(TaskId.EQUAL_NUMBER, ["0", "0", "1", "1"]) is True

    def test_duplicate_list_example(self):
        assert solve(TaskId.DUPLICATE_LIST, ["a", "b"]) == "abab"

    def test_parity_empty_is_even(self):
        assert solve(TaskId.PARITY_CHECK, []) is True

    def test_cycle_all_stay(self):
        assert solve(TaskId.CYCLE_NAVIGATION, ["0"] * 8) == 0

    def test_answer_kinds(self):
        # each solver answers with the type of its task's answer kind
        for task in TaskId:
            inst = generate_instance(task, 4, seed_path=f"kinds/{task.value}")
            want = ANSWER_TYPES[ANSWER_KINDS[task]]
            assert type(oracle_solve(task, inst)) is want
            assert type(brute_force_oracle(task, inst)) is want


class TestLevels:
    def test_nine_tasks(self):
        assert len(TaskId) == 9


class TestGenerators:
    @pytest.mark.parametrize("task", list(TaskId))
    def test_alphabet_and_length(self, task):
        length = 12
        inst = generate_instance(task, length, rng_for(f"alpha/{task.value}"))
        assert inst.length == length
        assert inst.task is task
        if task is TaskId.PALINDROME_VERIFICATION:
            assert len(inst.elements) == length + 1
            assert inst.elements.count("#") == 1
            assert inst.elements.index("#") == length // 2
        else:
            assert len(inst.elements) == length
        pool = set(ALPHABETS[task]) | ({"#"} if task is TaskId.PALINDROME_VERIFICATION else set())
        assert set(inst.elements) <= pool

    def test_rejects_short_lengths(self):
        with pytest.raises(UnsupportedLength):
            generate_instance(TaskId.PARITY_CHECK, 1, rng_for("x"))

    @pytest.mark.parametrize("task", [TaskId.PALINDROME_VERIFICATION, TaskId.EQUAL_NUMBER])
    def test_rejects_odd_lengths(self, task):
        with pytest.raises(UnsupportedLength):
            generate_instance(task, 5, rng_for("x"))

    def test_seed_path_reproducible(self):
        for task in TaskId:
            a = generate_instance(task, 10, seed_path=f"repro/{task.value}")
            b = generate_instance(task, 10, seed_path=f"repro/{task.value}")
            assert a == b

    @pytest.mark.parametrize(
        "task,length",
        [
            (TaskId.PARITY_CHECK, 20),
            (TaskId.EQUAL_NUMBER, 20),
            (TaskId.PALINDROME_VERIFICATION, 20),
        ],
    )
    def test_boolean_class_balance(self, task, length):
        rng = rng_for(f"balance/{task.value}")
        draws = 10_000
        positives = 0
        for _ in range(draws):
            inst = generate_instance(task, length, rng)
            if oracle_solve(task, inst):
                positives += 1
        assert 0.47 <= positives / draws <= 0.53

    def test_equal_number_instances_are_balanced_lists(self):
        rng = rng_for("en/balanced")
        for _ in range(50):
            inst = generate_instance(TaskId.EQUAL_NUMBER, 12, rng)
            assert inst.elements.count("0") == inst.elements.count("1")

    @pytest.mark.parametrize("half", [1, 2, 3, 4])
    def test_dyck_rotation_is_exact_cycle_lemma(self, half):
        # every arrangement of half "0"s and half + 1 "1"s
        size = 2 * half + 1
        reached = Counter()
        for zeros in itertools.combinations(range(size), half):
            steps = ["1"] * size
            for z in zeros:
                steps[z] = "0"
            word = dyck_rotation(steps)
            inst = make_instance(TaskId.EQUAL_NUMBER, word)
            assert brute_force_oracle(TaskId.EQUAL_NUMBER, inst) is True
            reached[tuple(word)] += 1
        assert len(reached) == comb(2 * half, half) // (half + 1)  # the Catalan number
        assert set(reached.values()) == {size}

    def test_equal_number_classes_are_uniform(self):
        rng = rng_for("en/uniform")
        by_class = {True: Counter(), False: Counter()}
        for _ in range(20_000):
            inst = generate_instance(TaskId.EQUAL_NUMBER, 6, rng)
            by_class[oracle_solve(TaskId.EQUAL_NUMBER, inst)][inst.elements] += 1
        balanced = set(itertools.permutations("000111"))
        dyck_words = {w for w in balanced if solve(TaskId.EQUAL_NUMBER, w)}
        assert len(dyck_words) == 5
        for dyck, words in ((True, dyck_words), (False, balanced - dyck_words)):
            counts = by_class[dyck]
            assert set(counts) == words
            assert scipy_stats.chisquare(list(counts.values())).pvalue > 0.001

    def test_duplicate_list_custom_alphabet(self):
        # a record's stored alphabet, not the default "ab", bounds its symbols
        inst = make_instance(TaskId.DUPLICATE_LIST, list("xyzzy"), {"alphabet": "xyz"})
        assert inst.params["alphabet"] == "xyz"
        assert oracle_solve(TaskId.DUPLICATE_LIST, inst) == "xyzzyxyzzy"
        with pytest.raises(MalformedInstance):
            make_instance(TaskId.DUPLICATE_LIST, list("xyab"), {"alphabet": "xyz"})

    def test_parity_custom_letter(self):
        # a record's stored letter, not the default "a", is the one counted
        inst = make_instance(TaskId.PARITY_CHECK, list("abbab"), {"letter": "b"})
        assert inst.params["letter"] == "b"
        assert oracle_solve(TaskId.PARITY_CHECK, inst) is False
        assert oracle_solve(TaskId.PARITY_CHECK, make_instance(TaskId.PARITY_CHECK, list("abbab"))) is True


class TestBruteForceAgreement:
    @pytest.mark.parametrize("task", [TaskId.PARITY_CHECK, TaskId.EVEN_PAIRS, TaskId.EQUAL_NUMBER, TaskId.DUPLICATE_LIST])
    def test_exhaustive_binary_short(self, task):
        for length in range(1, 9):
            for inst in iter_all_instances(task, length):
                assert same_answer(oracle_solve(task, inst), brute_force_oracle(task, inst))

    @pytest.mark.parametrize("task", list(TaskId))
    def test_random_instances(self, task):
        rng = rng_for(f"bf/{task.value}")
        for _ in range(300):
            length = rng.choice([2, 4, 6, 10, 14, 18, 20])
            inst = generate_instance(task, length, rng)
            assert same_answer(oracle_solve(task, inst), brute_force_oracle(task, inst))

    def test_brute_force_refuses_large(self):
        inst = generate_instance(TaskId.REVERSE_LIST, 21, rng_for("big"))
        with pytest.raises(InstanceTooLarge):
            brute_force_oracle(TaskId.REVERSE_LIST, inst)

    def test_balanced_binary_lists_length_10(self):
        # every arrangement of five '0's and five '1's
        positions = range(10)
        seen = 0
        for zeros in itertools.combinations(positions, 5):
            elems = ["1"] * 10
            for z in zeros:
                elems[z] = "0"
            inst = make_instance(TaskId.EQUAL_NUMBER, elems)
            assert same_answer(oracle_solve(TaskId.EQUAL_NUMBER, inst), brute_force_oracle(TaskId.EQUAL_NUMBER, inst))
            seen += 1
        assert seen == 252

    def test_an_answer_of_another_type_disagrees(self, monkeypatch):
        # a naive parity answer of 1 or 0 equals True or False, yet is no bool
        def int_parity(task, instance):
            answer = brute_force_oracle(task, instance)
            return int(answer) if task is TaskId.PARITY_CHECK else answer

        monkeypatch.setattr("cotbench.tasks.brute_force_oracle", int_parity)
        _, bad = oracle_disagreements(max_length=3, samples=5, seed_path="typed")
        # every parity instance of lengths 1 to 3, and no other
        assert len(bad) == 2 + 4 + 8
        assert {inst.task for inst in bad} == {TaskId.PARITY_CHECK}


@st.composite
def task_instances(draw, tasks=tuple(TaskId)):
    task = draw(st.sampled_from(tasks))
    if task in (TaskId.EQUAL_NUMBER, TaskId.PALINDROME_VERIFICATION):
        length = draw(st.integers(1, 10)) * 2
    else:
        length = draw(st.integers(2, 20))
    path = draw(st.integers(0, 10**6))
    return generate_instance(task, length, seed_path=f"hyp/{task.value}/{length}/{path}")


class TestProperties:
    @given(task_instances())
    @settings(max_examples=150, deadline=None)
    def test_oracle_equals_brute_force(self, inst):
        assert same_answer(oracle_solve(inst.task, inst), brute_force_oracle(inst.task, inst))

    @given(task_instances(tasks=(TaskId.REVERSE_LIST,)))
    @settings(max_examples=60, deadline=None)
    def test_reverse_is_involution(self, inst):
        once = oracle_solve(TaskId.REVERSE_LIST, inst)
        again = oracle_solve(TaskId.REVERSE_LIST, make_instance(TaskId.REVERSE_LIST, list(once)))
        assert again == "".join(inst.elements)

    @given(task_instances(tasks=(TaskId.EVEN_PAIRS,)))
    @settings(max_examples=60, deadline=None)
    def test_even_pairs_counts_runs(self, inst):
        answer = oracle_solve(TaskId.EVEN_PAIRS, inst)
        runs = 1 + sum(1 for a, b in zip(inst.elements, inst.elements[1:]) if a != b)
        assert answer == runs - 1
        assert 0 <= answer <= inst.length - 1

    @given(task_instances(tasks=(TaskId.CYCLE_NAVIGATION,)))
    @settings(max_examples=60, deadline=None)
    def test_cycle_navigation_neutral_moves(self, inst):
        answer = oracle_solve(TaskId.CYCLE_NAVIGATION, inst)
        assert answer in range(5)
        stay = make_instance(TaskId.CYCLE_NAVIGATION, list(inst.elements) + ["0"])
        assert oracle_solve(TaskId.CYCLE_NAVIGATION, stay) == answer
        updown = make_instance(TaskId.CYCLE_NAVIGATION, list(inst.elements) + ["1", "2"])
        assert oracle_solve(TaskId.CYCLE_NAVIGATION, updown) == answer

    @given(st.lists(st.sampled_from("01"), min_size=2, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_equal_number_is_dyck_condition(self, bits):
        inst = make_instance(TaskId.EQUAL_NUMBER, bits)
        answer = oracle_solve(TaskId.EQUAL_NUMBER, inst)
        depth, dyck = 0, True
        for b in bits:
            depth += 1 if b == "0" else -1
            if depth < 0:
                dyck = False
        assert answer is (dyck and depth == 0)

    @given(task_instances(tasks=(TaskId.ODDS_FIRST, TaskId.SORTING_LIST)))
    @settings(max_examples=60, deadline=None)
    def test_permutation_outputs(self, inst):
        out = oracle_solve(inst.task, inst)
        assert sorted(out) == sorted(inst.elements)
        if inst.task is TaskId.SORTING_LIST:
            assert list(out) == sorted(out, key=ord)

    @given(task_instances(tasks=(TaskId.DUPLICATE_LIST,)))
    @settings(max_examples=60, deadline=None)
    def test_duplicate_structure(self, inst):
        out = oracle_solve(TaskId.DUPLICATE_LIST, inst)
        n = inst.length
        assert len(out) == 2 * n
        assert out[:n] == out[n:] == "".join(inst.elements)


class TestRendering:
    def test_listfied_example(self):
        inst = make_instance(TaskId.EVEN_PAIRS, ["a", "b", "b", "a"])
        assert render_input(inst, InputRendering.LIST_FIED) == "['a', 'b', 'b', 'a']"

    def test_compact_example(self):
        inst = make_instance(TaskId.EVEN_PAIRS, ["a", "b", "b", "a"])
        assert render_input(inst, InputRendering.COMPACT_STRING) == "abba"

    def test_compact_duplicate_string(self):
        inst = make_instance(TaskId.DUPLICATE_LIST, ["a", "b"])
        assert render_input(inst, InputRendering.COMPACT_STRING) == "ab"

    def test_palindrome_marker_rendered(self):
        inst = make_instance(TaskId.PALINDROME_VERIFICATION, ["a", "b", "#", "b", "a"])
        assert render_input(inst, InputRendering.LIST_FIED) == "['a', 'b', '#', 'b', 'a']"

    @given(task_instances())
    @settings(max_examples=80, deadline=None)
    def test_rendering_injective_per_task(self, inst):
        other = generate_instance(inst.task, inst.length, seed_path=inst.seed_path + "/other")
        for rendering in InputRendering:
            if inst.elements != other.elements:
                assert render_input(inst, rendering) != render_input(other, rendering)
            else:
                assert render_input(inst, rendering) == render_input(other, rendering)


class TestDumpFormat:
    def test_record_field_order(self):
        inst = generate_instance(TaskId.PARITY_CHECK, 4, seed_path="dump/pc")
        rec = instance_record(inst)
        assert list(rec.keys()) == ["task", "length", "elements", "params", "oracle"]

    def test_round_trip(self, tmp_path):
        for t in TaskId:
            out = tmp_path / f"{t.value}.jsonl"
            argv = ["generate", "--task", t.value, "--length", "6", "--count", "3", "--out", str(out)]
            assert cli_main(argv) == 0
            lines = out.read_text().strip().split("\n")
            assert len(lines) == 3
            for line in lines:
                rec = json.loads(line)
                task = TaskId.parse(rec["task"])
                parsed = make_instance(task, rec["elements"], rec["params"])
                assert same_answer(rec["oracle"], oracle_solve(task, parsed))
                assert instance_record(parsed) == rec

    def test_malformed_palindrome_rejected(self):
        with pytest.raises(MalformedInstance):
            make_instance(TaskId.PALINDROME_VERIFICATION, ["a", "b", "a"])
        with pytest.raises(MalformedInstance):
            make_instance(TaskId.PALINDROME_VERIFICATION, ["a", "#", "#", "a"])

    def test_bad_alphabet_rejected(self):
        with pytest.raises(MalformedInstance):
            make_instance(TaskId.PARITY_CHECK, ["a", "z"])

    @pytest.mark.parametrize("symbol", ["", "ab"])
    def test_symbols_are_single_characters(self, symbol):
        with pytest.raises(MalformedInstance):
            make_instance(TaskId.REVERSE_LIST, [symbol, "c"])
        with pytest.raises(MalformedInstance):
            make_instance(TaskId.PALINDROME_VERIFICATION, [symbol, "#", "a"])


def scan_parse_enum(cls, text, noun):
    """parse_enum as a scan of the members: the reference for the table."""
    text = text.strip().lower()
    for member in cls:
        if text in (member.value, member.name.lower()):
            return member
    raise ValueError(f"unknown {noun} {text!r}")


def parse_outcome(parse, *args):
    try:
        return parse(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


class TestParseEnum:
    NOUNS = {TaskId: "task", SupervisionKind: "supervision kind", InputRendering: "rendering"}

    @pytest.mark.parametrize("cls", list(NOUNS), ids=lambda c: c.__name__)
    def test_table_matches_scan(self, cls):
        noun = self.NOUNS[cls]
        for member in cls:
            texts = [member.value, member.name, member.name.lower(), f" \t{member.value.upper()}  ", "nonsense"]
            for text in texts:
                expected = parse_outcome(scan_parse_enum, cls, text, noun)
                assert parse_outcome(cls.parse, text) == expected
                assert parse_outcome(parse_enum, cls, text, noun) == expected
        assert TaskId.parse("pc") is TaskId.PARITY_CHECK
        with pytest.raises(ValueError, match="unknown task 'nonsense'"):
            TaskId.parse(" NONSENSE ")

    @pytest.mark.parametrize("text", [5, None, ["pc"], {"pc": 1}], ids=["int", "null", "list", "object"])
    def test_non_text_is_value_error(self, text):
        with pytest.raises(ValueError, match="unknown task"):
            TaskId.parse(text)

    def test_members_are_walked_once_per_class(self):
        class CountingMeta(EnumMeta):
            walks = 0

            def __iter__(cls):
                CountingMeta.walks += 1
                return super().__iter__()

        class Colour(Enum, metaclass=CountingMeta):
            RED = "red"
            DARK_BLUE = "blue"

        CountingMeta.walks = 0
        for _ in range(50):
            assert parse_enum(Colour, "red", "colour") is Colour.RED
            assert parse_enum(Colour, " Dark_Blue ", "colour") is Colour.DARK_BLUE
            with pytest.raises(ValueError):
                parse_enum(Colour, "green", "colour")
        assert CountingMeta.walks == 1
