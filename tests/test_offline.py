"""Offline work never imports ``http.client`` or ``ssl``; only building a live backend does.

Each check runs in a fresh interpreter, since the test process itself has
long since imported the HTTP stack.  The live backend needs no third-party
package at all.
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


def test_offline_commands_never_load_http_client_or_ssl(tmp_path):
    result = run_python(
        """
        import sys

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
        loaded = {"http.client", "ssl"} & set(sys.modules)
        assert not loaded, loaded
        """,
        tmp_path,
    )
    assert result.returncode == 0, result.stderr


def test_http_client_is_imported_when_a_live_backend_is_built(tmp_path):
    result = run_python(
        """
        import sys
        from cotbench.backends import AuthError, make_backend

        try:
            make_backend({"kind": "live"})
        except AuthError:
            pass
        loaded = {"http.client", "ssl"} & set(sys.modules)
        assert not loaded, f"a live backend without a key loaded {loaded}"
        make_backend({"kind": "live", "api_key": "k", "base_url": "http://127.0.0.1:9"})
        assert "http.client" in sys.modules
        third_party = {"requests", "urllib3", "charset_normalizer", "idna"} & set(sys.modules)
        assert not third_party, third_party
        """,
        tmp_path,
    )
    assert result.returncode == 0, result.stderr


def test_live_run_needs_no_requests(tmp_path):
    result = run_python(
        """
        import json, os, sys, threading
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
        from pathlib import Path
        sys.modules["requests"] = None

        from cotbench import cli

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_POST(self):
                self.rfile.read(int(self.headers["Content-Length"]))
                data = json.dumps({"choices": [{"message": {"content": "{'Result': 0}"}}]}).encode()
                self.send_response(200)
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):
                pass

        server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        server.daemon_threads = True
        threading.Thread(target=server.serve_forever, daemon=True).start()
        os.environ["COTBENCH_API_KEY"] = "k"
        os.environ["COTBENCH_BASE_URL"] = f"http://127.0.0.1:{server.server_port}/v1"

        Path("spec.json").write_text(json.dumps({"tasks": ["pc"], "lengths": {"pc": [10]}, "instances_per_cell": 2}))
        assert cli.main(["run", "--spec", "spec.json", "--backend", "live", "--out", "out", "--workers", "2"]) == 0
        records = [json.loads(line) for path in Path("out/records").iterdir() for line in path.read_text().splitlines()]
        assert len(records) == 8 and all(record["error"] is None for record in records), records
        assert sys.modules["requests"] is None
        """,
        tmp_path,
    )
    assert result.returncode == 0, result.stderr
