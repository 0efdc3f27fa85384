"""CLI surface tests: flags, exit codes, file outputs."""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import cotbench
from cotbench.cli import exact_digits, main
from cotbench.complexity import answer_space_census
from cotbench.tasks import TaskId

SRC = Path(cotbench.__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_command(cwd, *argv) -> subprocess.CompletedProcess:
    """The command in its own interpreter, so stderr holds whatever a user would see, tracebacks included."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "cotbench.cli", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


class TestGenerate:
    def test_deterministic_output(self, tmp_path, capsys):
        out_a = tmp_path / "a.jsonl"
        out_b = tmp_path / "b.jsonl"
        for out in (out_a, out_b):
            code, _, _ = run_cli(
                capsys, "generate", "--task", "pc", "--length", "20",
                "--count", "5", "--seed", "7", "--out", str(out),
            )
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_odd_palindrome_length_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "generate", "--task", "pv", "--length", "5")
        assert code == 2
        assert "even" in err

    def test_even_pairs_mean_half_transitions(self, capsys):
        code, out, _ = run_cli(
            capsys, "generate", "--task", "ep", "--length", "10", "--count", "1000", "--seed", "3",
        )
        assert code == 0
        answers = [json.loads(line)["oracle"] for line in out.strip().split("\n")]
        assert len(answers) == 1000
        mean = sum(answers) / len(answers)
        assert abs(mean - 4.5) < 0.2

    def test_documented_fields_and_optional_input(self, capsys):
        code, out, _ = run_cli(
            capsys, "generate", "--task", "ep", "--length", "4", "--count", "1",
            "--rendering", "list",
        )
        record = json.loads(out.strip())
        assert list(record)[:5] == ["task", "length", "elements", "params", "oracle"]
        assert record["input"].startswith("[")

    @pytest.mark.parametrize("count", [0, -2])
    def test_count_below_one_is_usage_error(self, tmp_path, capsys, count):
        out = tmp_path / "instances.jsonl"
        for flags in ((), ("--out", str(out))):
            code, stdout, err = run_cli(
                capsys, "generate", "--task", "pc", "--length", "10", "--count", str(count), *flags
            )
            assert code == 2
            assert stdout == ""
            assert err == f"usage error: --count must be positive, got {count}\n"
        assert not out.exists()

    def test_unknown_task_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--task", "zz", "--length", "4"])
        assert exc.value.code == 2


class TestValidateOracles:
    def test_full_agreement(self, capsys):
        code, out, _ = run_cli(capsys, "validate-oracles", "--max-length", "6", "--samples", "50")
        assert code == 0
        assert "0 disagreements" in out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--max-length", "-1", "--samples", "-5"], "--max-length must be in 1..20, got -1"),
            (["--max-length", "0"], "--max-length must be in 1..20, got 0"),
            # brute_force_oracle refuses a payload over 20 symbols
            (["--max-length", "21", "--samples", "1"], "--max-length must be in 1..20, got 21"),
            (["--max-length", "4", "--samples", "0"], "--samples must be positive, got 0"),
        ],
        ids=["negative", "zero-length", "past-naive-cap", "zero-samples"],
    )
    def test_arguments_that_check_nothing_or_crash_are_usage_errors(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "validate-oracles", *argv)
        assert (code, out, err) == (2, "", f"usage error: {message}\n")

    def test_smallest_arguments_check_something(self, capsys):
        code, out, _ = run_cli(capsys, "validate-oracles", "--max-length", "1", "--samples", "1")
        assert (code, out) == (0, "checked 13 instances, 0 disagreements\n")


class TestShowPrompt:
    def test_supervised_even_pairs_anchor(self, capsys):
        code, out, _ = run_cli(capsys, "show-prompt", "--task", "ep", "--kind", "scot")
        assert code == 0
        assert "Terminate when the letter is the last element" in out
        assert "{{" not in out

    def test_duplicate_base(self, capsys):
        code, out, _ = run_cli(capsys, "show-prompt", "--task", "dl", "--kind", "base")
        assert code == 0
        assert "Input string:" in out

    def test_every_combination_renders(self, capsys):
        for task in ("pc", "ep", "cn", "rl", "en", "pv", "of", "sl", "dl"):
            for kind in ("base", "cot", "scot", "scot-sub"):
                code, out, _ = run_cli(capsys, "show-prompt", "--task", task, "--kind", kind)
                assert code == 0
                assert "{{" not in out


class TestCommandsDrawTheRunsInstances:
    """``generate --seed S`` and ``show-prompt --seed S`` give what a run with master seed S draws."""

    SEED = 5
    COUNT = 4
    LENGTHS = {"pc": 20, "pv": 8, "en": 6}

    @pytest.fixture
    def records(self, tmp_path, capsys):
        """The run's records, by cell label and index."""
        spec = {
            "tasks": list(self.LENGTHS),
            "lengths": {task: [length] for task, length in self.LENGTHS.items()},
            "instances_per_cell": self.COUNT,
            "master_seed": self.SEED,
        }
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        run_dir = tmp_path / "run"
        code, _, _ = run_cli(capsys, "run", "--spec", str(tmp_path / "spec.json"), "--out", str(run_dir))
        assert code == 0
        out = {}
        for path in (run_dir / "records").glob("*.jsonl"):
            for line in path.read_text(encoding="utf-8").splitlines():
                data = json.loads(line)
                out[(path.name.removesuffix(".jsonl"), data["index"])] = data
        return out

    @pytest.mark.parametrize("task", list(LENGTHS))
    def test_generate_writes_the_runs_instances(self, capsys, records, task):
        length = self.LENGTHS[task]
        code, out, _ = run_cli(
            capsys, "generate", "--task", task, "--length", str(length),
            "--count", str(self.COUNT), "--seed", str(self.SEED),
        )
        assert code == 0
        generated = [json.loads(line) for line in out.splitlines()]
        assert len(generated) == self.COUNT
        for index, instance in enumerate(generated):
            stored = records[(f"{task}.{length}.base.list", index)]["instance"]
            assert (instance["elements"], instance["params"]) == (stored["elements"], stored["params"])

    @pytest.mark.parametrize("kind", ["base", "cot", "scot", "scot-sub"])
    @pytest.mark.parametrize("task", list(LENGTHS))
    def test_show_prompt_prints_the_prompt_of_index_0(self, capsys, records, task, kind):
        length = self.LENGTHS[task]
        code, out, _ = run_cli(
            capsys, "show-prompt", "--task", task, "--kind", kind,
            "--length", str(length), "--seed", str(self.SEED),
        )
        assert code == 0 and out.endswith("\n")
        digest = hashlib.sha256(out[:-1].encode("utf-8")).hexdigest()
        assert digest == records[(f"{task}.{length}.{kind}.list", 0)]["prompt_sha256"]


class TestRunReportCompare:
    def write_spec(self, path, **overrides):
        spec = {
            "tasks": ["pc", "ep"],
            "lengths": {"pc": [20], "ep": [10]},
            "kinds": ["base", "cot", "scot", "scot-sub"],
            "rendering": "list",
            "instances_per_cell": 10,
            "master_seed": 5,
            "backend": {"kind": "echo"},
        }
        spec.update(overrides)
        path.write_text(json.dumps(spec))
        return path

    def test_echo_run_and_report(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path / "spec.json")
        run_dir = tmp_path / "run"
        code, _, err = run_cli(capsys, "run", "--spec", str(spec), "--out", str(run_dir))
        assert code == 0
        records = list((run_dir / "records").glob("*.jsonl"))
        assert len(records) == 8
        total = sum(len(p.read_text().strip().split("\n")) for p in records)
        assert total == 80

        code, out, _ = run_cli(capsys, "report", "--run", str(run_dir))
        assert code == 0
        assert "100.0" in out
        assert (run_dir / "table.json").exists()
        table = json.loads((run_dir / "table.json").read_text())
        assert all(cell["accuracy"] == 1.0 for cell in table["cells"])

    def test_corrupt_run_near_half(self, tmp_path, capsys):
        spec = self.write_spec(
            tmp_path / "spec.json",
            tasks=["pc"],
            lengths={"pc": [20]},
            instances_per_cell=200,
            backend={"kind": "corrupt", "p": 0.5, "seed": 9},
        )
        run_dir = tmp_path / "run"
        code, _, _ = run_cli(capsys, "run", "--spec", str(spec), "--out", str(run_dir))
        assert code == 0
        table = json.loads((run_dir / "table.json").read_text()) if (run_dir / "table.json").exists() else None
        code, out, _ = run_cli(capsys, "report", "--run", str(run_dir))
        table = json.loads((run_dir / "table.json").read_text())
        for cell in table["cells"]:
            assert 0.35 <= cell["accuracy"] <= 0.65

    def test_compare_self_is_null(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path / "spec.json", tasks=["pc"], lengths={"pc": [20]})
        run_dir = tmp_path / "run"
        run_cli(capsys, "run", "--spec", str(spec), "--out", str(run_dir))
        code, out, _ = run_cli(
            capsys, "compare", "--run-a", str(run_dir), "--run-b", str(run_dir), "--json",
        )
        assert code == 0
        rows = json.loads(out)["cells"]
        assert all(row["delta"] == 0.0 and not row["significant"] for row in rows)

    def test_live_without_key_fails_cleanly(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("COTBENCH_API_KEY", raising=False)
        spec = self.write_spec(tmp_path / "spec.json", backend={"kind": "live"})
        code, _, err = run_cli(capsys, "run", "--spec", str(spec), "--out", str(tmp_path / "run"))
        assert code == 1
        assert "auth" in err.lower()

    def test_spec_that_would_fail_mid_run_is_a_run_error(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path / "spec.json", completion={"backoff_s": []})
        code, _, err = run_cli(capsys, "run", "--spec", str(spec), "--out", str(tmp_path / "run"))
        assert code == 1
        assert "run error: completion.backoff_s" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_is_a_run_error(self, tmp_path, capsys, workers):
        spec = self.write_spec(tmp_path / "spec.json")
        code, _, err = run_cli(
            capsys, "run", "--spec", str(spec), "--out", str(tmp_path / "run"), "--workers", workers,
        )
        assert code == 1
        assert f"run error: workers must be positive, got {workers}" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("source", [["--backend", "echo"], ["--backend", "corrupt", "--corrupt-p", "0.3"]])
    def test_replay_reproduces_the_source_tables(self, tmp_path, capsys, source):
        spec = self.write_spec(
            tmp_path / "spec.json", tasks=["pc", "ep", "rl"], lengths={"pc": [20], "ep": [10], "rl": [10]},
        )
        a, b = tmp_path / "a", tmp_path / "b"
        code, _, _ = run_cli(capsys, "run", "--spec", str(spec), "--out", str(a), *source)
        assert code == 0
        code, _, err = run_cli(
            capsys, "run", "--spec", str(spec), "--out", str(b), "--backend", "replay", "--store", str(a),
        )
        assert code == 0, err
        reports = []
        for run_dir in (a, b):
            code, out, _ = run_cli(capsys, "report", "--run", str(run_dir))
            assert code == 0
            reports.append(out)
        assert reports[0] == reports[1]
        assert (a / "table.txt").read_bytes() == (b / "table.txt").read_bytes()
        if source[1] == "corrupt":
            assert "100.0" not in reports[0]

    @pytest.mark.parametrize("store", ["file", "empty-dir"])
    def test_replay_store_that_is_not_a_run_directory(self, tmp_path, capsys, store):
        spec = self.write_spec(tmp_path / "spec.json")
        path = tmp_path / store
        if store == "file":
            path.write_text("{}\n")
        else:
            path.mkdir()
        code, _, err = run_cli(
            capsys, "run", "--spec", str(spec), "--out", str(tmp_path / "run"),
            "--backend", "replay", "--store", str(path),
        )
        assert code == 2
        assert "backend error: no spec.json" in err
        assert not (tmp_path / "run").exists()

    def test_replay_store_without_records_is_a_backend_error(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path / "spec.json")
        store = tmp_path / "store"
        assert run_cli(capsys, "run", "--spec", str(spec), "--out", str(store))[0] == 0
        shutil.rmtree(store / "records")
        code, _, err = run_cli(
            capsys, "run", "--spec", str(spec), "--out", str(tmp_path / "run"),
            "--backend", "replay", "--store", str(store),
        )
        assert code == 2
        assert f"backend error: no records directory in {store}" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--store", "elsewhere"], "--store needs --backend replay"),
            (["--backend", "echo", "--store", "elsewhere"], "--store needs --backend replay"),
            (["--corrupt-p", "0.3"], "--corrupt-p needs --backend corrupt"),
            (["--backend", "replay", "--corrupt-p", "0.3"], "--corrupt-p needs --backend corrupt"),
        ],
        ids=["store-alone", "store-with-echo", "corrupt-p-alone", "corrupt-p-with-replay"],
    )
    def test_override_for_another_backend_is_usage_error(self, tmp_path, capsys, flags, message):
        spec = self.write_spec(tmp_path / "spec.json")
        code, _, err = run_cli(capsys, "run", "--spec", str(spec), "--out", str(tmp_path / "run"), *flags)
        assert code == 2
        assert f"usage error: {message}" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "completion",
        [{"model": "other"}, {"temperature": 0.7}, {"max_tokens": 100}],
        ids=["model", "temperature", "max-tokens"],
    )
    def test_replay_under_other_decoding_is_usage_error(self, tmp_path, capsys, completion):
        source = tmp_path / "source"
        code, _, _ = run_cli(capsys, "run", "--spec", str(self.write_spec(tmp_path / "a.json")), "--out", str(source))
        assert code == 0
        other = self.write_spec(tmp_path / "b.json", completion=completion)
        code, _, err = run_cli(
            capsys, "run", "--spec", str(other), "--out", str(tmp_path / "replay"),
            "--backend", "replay", "--store", str(source),
        )
        assert code == 2
        assert f"usage error: cannot replay {source}: recorded with (model, temperature, max_tokens)" in err
        assert not (tmp_path / "replay").exists()
        # the same refusal when the spec itself names the replayed run
        own = self.write_spec(
            tmp_path / "c.json", completion=completion, backend={"kind": "replay", "store": str(source)}
        )
        code, _, err = run_cli(capsys, "run", "--spec", str(own), "--out", str(tmp_path / "replay"))
        assert code == 2
        assert f"usage error: cannot replay {source}:" in err
        assert not (tmp_path / "replay").exists()

    def test_replay_under_other_transport_settings_runs(self, tmp_path, capsys):
        source = tmp_path / "source"
        run_cli(capsys, "run", "--spec", str(self.write_spec(tmp_path / "a.json")), "--out", str(source))
        other = self.write_spec(tmp_path / "b.json", completion={"timeout_s": 1.0, "max_attempts": 1})
        code, _, err = run_cli(
            capsys, "run", "--spec", str(other), "--out", str(tmp_path / "replay"),
            "--backend", "replay", "--store", str(source),
        )
        assert code == 0, err
        for run_dir in (source, tmp_path / "replay"):
            assert run_cli(capsys, "report", "--run", str(run_dir))[0] == 0
        assert (source / "table.txt").read_bytes() == (tmp_path / "replay" / "table.txt").read_bytes()

    def test_missing_spec_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "run", "--spec", str(tmp_path / "nope.json"), "--out", str(tmp_path / "run"),
        )
        assert code == 2


    @pytest.mark.parametrize(
        "text",
        [
            '{"tasks": ["pc"], "completion": {"max_attempts": "3"}}',
            '{"tasks": ["pc"], "completion": {"backoff_s": 5}}',
            '{"tasks": ["pc"], "lengths": {"pc": 10}}',
            '{"tasks": ["pc"], "backend": "echo"}',
            '["pc"]',
        ],
        ids=["text-attempts", "number-backoff", "number-lengths", "text-backend", "list"],
    )
    def test_spec_field_of_wrong_type_is_usage_error(self, tmp_path, capsys, text):
        spec = tmp_path / "spec.json"
        spec.write_text(text)
        code, _, err = run_cli(capsys, "run", "--spec", str(spec), "--out", str(tmp_path / "run"))
        assert code == 2
        assert f"bad spec file: {spec} holds no experiment spec: TypeError" in err
        assert "Traceback" not in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "backend, message",
        [
            ({"kind": "corrupt", "p": "0.3"}, 'backend.p must be a number, not "0.3"'),
            ({"kind": "replay", "store": 5}, "backend.store must be a string, not 5"),
        ],
        ids=["text-p", "number-store"],
    )
    def test_backend_field_of_wrong_type_is_usage_error(self, tmp_path, capsys, backend, message):
        spec = self.write_spec(tmp_path / "spec.json", backend=backend)
        code, out, err = run_cli(capsys, "run", "--spec", str(spec), "--out", str(tmp_path / "run"))
        assert (code, out, err) == (2, "", f"backend error: {message}\n")
        assert not (tmp_path / "run").exists()

    def test_lengths_key_is_read_as_a_task_name(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path / "spec.json", tasks=["PC"], lengths={"PC": [10]}, instances_per_cell=2)
        run_dir = tmp_path / "run"
        assert run_cli(capsys, "run", "--spec", str(spec), "--out", str(run_dir))[0] == 0
        assert sorted(path.name for path in (run_dir / "records").iterdir()) == [
            f"pc.10.{kind}.list.jsonl" for kind in ("base", "cot", "scot-sub", "scot")
        ]
        assert json.loads((run_dir / "spec.json").read_text())["lengths"] == {"pc": [10]}

    @pytest.mark.parametrize(
        "lengths, message",
        [
            ({"pc": [20], "xx": [10]}, "ValueError: lengths: unknown task 'xx'"),
            ({"pc": [20], " PC ": [10]}, "ValueError: lengths names task pc twice"),
        ],
        ids=["unknown-task", "one-task-twice"],
    )
    def test_bad_lengths_key_is_usage_error(self, tmp_path, capsys, lengths, message):
        spec = self.write_spec(tmp_path / "spec.json", tasks=["pc"], lengths=lengths)
        code, out, err = run_cli(capsys, "run", "--spec", str(spec), "--out", str(tmp_path / "run"))
        assert (code, out) == (2, "")
        assert err == f"bad spec file: {spec} holds no experiment spec: {message}\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("which", ["a", "b", "both"])
    def test_compare_needs_two_run_directories(self, tmp_path, capsys, which):
        spec = self.write_spec(tmp_path / "spec.json", tasks=["pc"], lengths={"pc": [20]})
        run_dir = tmp_path / "run"
        assert run_cli(capsys, "run", "--spec", str(spec), "--out", str(run_dir))[0] == 0
        missing = tmp_path / "missing"
        run_a = run_dir if which == "b" else missing
        run_b = run_dir if which == "a" else missing
        code, out, err = run_cli(capsys, "compare", "--run-a", str(run_a), "--run-b", str(run_b))
        assert code == 2
        assert out == ""
        assert f"not a run directory: {missing}" in err


class TestComplexityCommand:
    def test_template_count(self, capsys):
        code, out, _ = run_cli(capsys, "complexity", "--n", "64", "--s", "8")
        assert code == 0
        assert "4426165368" in out

    def test_invalid_params(self, capsys):
        code, _, err = run_cli(capsys, "complexity", "--n", "3", "--s", "9")
        assert code == 2

    def test_census_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "complexity", "--tasks", "pc,cn,rl", "--lengths", "4,5",
        )
        assert code == 0
        assert "1/2" in out and "1/5" in out and "1/24" in out

    def test_census_of_a_length_below_two_is_an_error_row(self, capsys):
        code, out, _ = run_cli(capsys, "complexity", "--tasks", "rl,pc", "--lengths=-3,0,1,4")
        assert code == 0
        rows = [line.split() for line in out.splitlines()[2:]]
        # the censuses first, then one error row per refused cell
        assert [row[:2] for row in rows] == [
            ["RL", "4"], ["PC", "4"],
            ["RL", "-3"], ["RL", "0"], ["RL", "1"], ["PC", "-3"], ["PC", "0"], ["PC", "1"],
        ]
        for row in rows[2:]:
            assert " ".join(row[-8:]) == f"error: length must be >= 2, got {row[1]}"

    def test_no_action_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "complexity")
        assert code == 2

    @staticmethod
    def run_past_the_digit_limit(capsys, *argv) -> list[str]:
        """The lines ``complexity`` prints for numbers of more than 4,300 digits, the
        interpreter's limit on converting an int to text, which stays in force after."""
        digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
        limit = digit_limit()
        code, out, err = run_cli(capsys, "complexity", *argv)
        assert (code, err) == (0, "")
        assert digit_limit() == limit
        return out.splitlines()

    def test_template_count_past_the_digit_limit(self, capsys):
        (line,) = self.run_past_the_digit_limit(capsys, "--n", "20000", "--s", "10000")
        with exact_digits():
            expected = str(math.comb(20000, 10000))
        assert len(expected) > 4300
        assert line == f"template_count(n=20000, s=10000) = {expected}"

    def test_census_past_the_digit_limit(self, capsys):
        lines = self.run_past_the_digit_limit(capsys, "--tasks", "dl", "--lengths", "8000")
        census = answer_space_census(TaskId.DUPLICATE_LIST, 8000)
        with exact_digits():
            total = str(census.total)
            density = f"{census.density.numerator}/{census.density.denominator}"
        assert len(total) > 4300
        assert lines[2].split() == ["DL", "8000", census.model.value, str(census.correct), total, density]


class TestHelp:
    @pytest.mark.parametrize(
        "command",
        ["generate", "validate-oracles", "run", "report", "compare", "complexity", "show-prompt"],
    )
    def test_every_subcommand_has_help(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "usage" in out


# spec.json texts that hold no experiment spec, each failing in another way
MALFORMED_SPECS = pytest.mark.parametrize(
    "text",
    ['{"master_seed": 1}', '{"tasks": ["pc"', "[]", '{"tasks": ["zz"]}', '{"tasks": ["pc"], "completion": []}'],
    ids=["no-tasks", "invalid-json", "list", "unknown-task", "list-completion"],
)


def write_small_spec(path):
    path.write_text(json.dumps({"tasks": ["pc"], "lengths": {"pc": [20]}, "instances_per_cell": 3}))
    return path


def malformed_run(path, text):
    """A run directory whose spec.json holds ``text``."""
    (path / "records").mkdir(parents=True)
    (path / "spec.json").write_text(text)
    return path


class TestMalformedRunSpec:
    @MALFORMED_SPECS
    def test_report_is_usage_error(self, tmp_path, capsys, text):
        run_dir = malformed_run(tmp_path / "run", text)
        code, out, err = run_cli(capsys, "report", "--run", str(run_dir))
        assert code == 2
        assert out == ""
        assert f"usage error: {run_dir / 'spec.json'} holds no experiment spec" in err
        assert not (run_dir / "table.json").exists()

    @MALFORMED_SPECS
    def test_replay_is_usage_error(self, tmp_path, capsys, text):
        store = malformed_run(tmp_path / "store", text)
        spec = write_small_spec(tmp_path / "spec.json")
        code, _, err = run_cli(
            capsys, "run", "--spec", str(spec), "--out", str(tmp_path / "replay"),
            "--backend", "replay", "--store", str(store),
        )
        assert code == 2
        assert f"backend error: {store / 'spec.json'} holds no experiment spec" in err
        assert not (tmp_path / "replay").exists()

    @pytest.mark.parametrize("text", ['{"tasks": ', ""], ids=["torn", "empty"])
    def test_resume_over_a_torn_spec_is_a_run_error(self, tmp_path, capsys, text):
        run_dir = malformed_run(tmp_path / "run", text)
        spec = write_small_spec(tmp_path / "spec.json")
        code, _, err = run_cli(capsys, "run", "--spec", str(spec), "--out", str(run_dir))
        assert code == 1
        assert f"run error: {run_dir / 'spec.json'} holds no experiment spec: JSONDecodeError" in err
        assert "Traceback" not in err
        # no call was issued, and the stored spec is left as it was
        assert list((run_dir / "records").iterdir()) == []
        assert (run_dir / "spec.json").read_text() == text

    @MALFORMED_SPECS
    def test_compare_is_compare_error(self, tmp_path, capsys, text):
        spec = write_small_spec(tmp_path / "spec.json")
        good = tmp_path / "a"
        assert run_cli(capsys, "run", "--spec", str(spec), "--out", str(good))[0] == 0
        bad = malformed_run(tmp_path / "b", text)
        code, _, err = run_cli(capsys, "compare", "--run-a", str(good), "--run-b", str(bad))
        assert code == 1
        assert f"compare error: {bad / 'spec.json'} holds no experiment spec" in err


class TestFileErrors:
    """A file a command cannot write ends it with exit 1 and a one-line message, not a traceback."""

    def test_generate_into_a_missing_directory(self, tmp_path):
        result = run_command(
            tmp_path, "generate", "--task", "pc", "--length", "10", "--count", "2", "--out", "missing/x.jsonl",
        )
        assert result.returncode == 1
        assert result.stderr.startswith("FileNotFoundError: ")
        assert "missing/x.jsonl" in result.stderr
        assert "Traceback" not in result.stderr
        assert not (tmp_path / "missing").exists()

    def test_run_under_a_file(self, tmp_path):
        write_small_spec(tmp_path / "s.json")
        result = run_command(tmp_path, "run", "--spec", "s.json", "--out", "s.json/run")
        assert result.returncode == 1
        assert result.stderr.startswith("NotADirectoryError: ")
        assert "s.json/run" in result.stderr
        assert "Traceback" not in result.stderr
