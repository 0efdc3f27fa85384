"""The benchmark's workloads, the program's location and the stub process.

Each workload is one experiment spec in the JSON form ``cotbench run
--spec`` reads.
"""

from __future__ import annotations

import http.client
import json
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

KINDS = ["base", "cot", "scot", "scot-sub"]
TASKS = ["pc", "ep", "cn", "rl", "en", "pv", "of", "sl", "dl"]
# The paper's large-scale grid; pv lengths count payload symbols, without the '#' marker.
PAPER_LENGTHS = {
    "pc": [20, 25, 30, 35],
    "ep": [10, 15, 20, 25],
    "cn": [30, 40, 50, 60],
    "rl": [10, 15, 20, 25],
    "en": [20, 30, 40, 50],
    "pv": [24, 34, 44, 54],
    "of": [8, 10, 12, 15],
    "sl": [8, 10, 12, 15],
    "dl": [40, 50, 60, 70],
}
LONG_LENGTHS = [200, 300]

RATE_LIMIT_EVERY = 10  # the stub answers one first attempt in this many with a 429
LIVE_COMPLETION = {"max_attempts": 3, "backoff_s": [0.005], "timeout_s": 10.0}
API_KEY = "perfbench-key"
SETUP_PROBES = 5


@dataclass(frozen=True)
class Workload:
    name: str
    lengths: dict
    rendering: str
    instances: int
    workers: int = 1
    live: bool = False

    def spec_json(self, master_seed: int, base_url: str | None = None) -> dict:
        spec = {
            "tasks": TASKS,
            "lengths": self.lengths,
            "kinds": KINDS,
            "rendering": self.rendering,
            "instances_per_cell": self.instances,
            "master_seed": master_seed,
            "backend": {"kind": "echo"},
            "workers": self.workers,
        }
        if self.live:
            spec["backend"] = {
                "kind": "live",
                "base_url": base_url,
                "api_key": API_KEY,
                "max_concurrency": self.workers,
            }
            spec["completion"] = LIVE_COMPLETION
        return spec

    @property
    def calls(self) -> int:
        return sum(len(v) for v in self.lengths.values()) * len(KINDS) * self.instances

    @property
    def census_cells(self) -> list[tuple[str, int]]:
        return [(task, length) for task in TASKS for length in self.lengths[task]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-grid", PAPER_LENGTHS, "list", 50),
        Workload("long-inputs", {task: LONG_LENGTHS for task in TASKS}, "string", 20),
        Workload(
            "live-stub",
            {task: PAPER_LENGTHS[task][:1] for task in TASKS},
            "list",
            5,
            # calls wait on the stub, so a second worker overlaps them
            workers=2,
            live=True,
        ),
    )
}


class MissingProgram(Exception):
    pass


def import_program() -> float:
    """Import cotbench from this checkout's src/ and return the import's wall time."""
    if not (SRC / "cotbench" / "__init__.py").is_file():
        raise MissingProgram(f"no cotbench package under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import cotbench

    elapsed = time.perf_counter() - start
    if SRC not in Path(cotbench.__file__).resolve().parents:
        raise MissingProgram(f"cotbench imported from {cotbench.__file__}, not from {SRC}")
    return elapsed


class Stub:
    """The stub server process: started on entry, stopped and waited for on exit."""

    def __init__(self, rate_limit_slot: int):
        self.args = [sys.executable, str(HERE / "stub.py"), "--rate-limit-slot", str(rate_limit_slot)]
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def __enter__(self) -> "Stub":
        self.proc = subprocess.Popen(
            self.args, stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, text=True
        )
        try:
            line = self.proc.stdout.readline().split()
            if len(line) != 2 or line[0] != "port":
                raise RuntimeError(f"stub did not start: {line!r}")
            self.port = int(line[1])
        except BaseException:
            self.stop()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self.port}/v1"

    def stats(self) -> dict:
        """Counts and service times since the previous call."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", "/stats")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def stop(self) -> None:
        if self.proc is None:
            return
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()
            self.proc = None
