"""Offline work never imports ``requests``; only building a live backend does.

Each check runs in a fresh interpreter, since the test process itself has
long since imported the HTTP stack.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import cotbench

SRC = Path(cotbench.__file__).resolve().parents[1]


def run_python(code: str, cwd: Path) -> subprocess.CompletedProcess:
    env = {key: value for key, value in os.environ.items() if key != "COTBENCH_API_KEY"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_offline_commands_run_with_requests_unimportable(tmp_path):
    # a None entry in sys.modules makes every import of requests raise ImportError
    result = run_python(
        """
        import sys
        sys.modules["requests"] = None

        from cotbench import cli
        from cotbench.backends import make_backend
        from cotbench.complexity import density_report
        from cotbench.runner import ExperimentSpec, aggregate, compare_runs, run_experiment
        from cotbench.tasks import TaskId

        spec = ExperimentSpec.from_json(
            {"tasks": ["pc", "rl"], "lengths": {"pc": [10], "rl": [6]}, "instances_per_cell": 4, "master_seed": 3}
        )
        run_experiment(spec, make_backend({"kind": "echo"}), "echo", workers=1)
        run_experiment(spec, make_backend({"kind": "corrupt", "p": 0.5, "seed": 1}), "corrupt", workers=2)
        run_experiment(spec, make_backend({"kind": "replay", "store": "corrupt"}), "replay", workers=1)
        assert aggregate("echo").format_text() != aggregate("corrupt").format_text()
        assert aggregate("replay").format_text() == aggregate("corrupt").format_text()
        assert compare_runs("echo", "corrupt").rows
        assert density_report([TaskId.PARITY_CHECK], [6]).rows
        assert cli.main(["report", "--run", "replay"]) == 0
        assert sys.modules["requests"] is None and "urllib3" not in sys.modules
        """,
        tmp_path,
    )
    assert result.returncode == 0, result.stderr


def test_requests_is_imported_when_a_live_backend_is_built(tmp_path):
    result = run_python(
        """
        import sys
        from cotbench.backends import AuthError, make_backend

        try:
            make_backend({"kind": "live"})
        except AuthError:
            pass
        assert "requests" not in sys.modules, "a live backend without a key loaded requests"
        make_backend({"kind": "live", "api_key": "k", "base_url": "http://127.0.0.1:9"})
        assert "requests" in sys.modules
        """,
        tmp_path,
    )
    assert result.returncode == 0, result.stderr


def test_live_run_without_requests_is_a_backend_error(tmp_path):
    result = run_python(
        """
        import json, os, sys
        from pathlib import Path
        sys.modules["requests"] = None
        os.environ["COTBENCH_API_KEY"] = "k"

        from cotbench import cli

        Path("spec.json").write_text(json.dumps({"tasks": ["pc"], "lengths": {"pc": [10]}, "instances_per_cell": 2}))
        code = cli.main(["run", "--spec", "spec.json", "--backend", "live", "--out", "out"])
        assert code == 2, code
        assert not Path("out").exists()
        """,
        tmp_path,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr.startswith("backend error: the live backend needs the requests package"), result.stderr
