"""Chat-completions stub for the live-client workload, run as its own process.

    python3 perfbench/stub.py --rate-limit-slot 3

It prints ``port <n>`` once it listens on 127.0.0.1 and serves until its
standard input closes.  Every POST waits ``DELAY_MS`` (20 ms).  Of each
``RATE_LIMIT_EVERY`` first attempts it receives, the one in position
``--rate-limit-slot`` gets a 429; the retry of that prompt is answered.  Answers come from the
benchmark's reference solvers applied to the instance read back out of the
prompt, so a correct verdict checks oracle, rendering and extraction
together.  ``GET /stats`` returns the counts and service times recorded
since the previous ``GET /stats``.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import reference
from workloads import RATE_LIMIT_EVERY

DELAY_MS = 20.0

# The first phrase found in a prompt names its task; every template of a
# task states its task this way.
TASK_PHRASES = (
    ("palindrome", "pv"),
    ("duplicating", "dl"),
    ("odds first", "of"),
    ("insertion sort", "sl"),
    ("movements on a cycle", "cn"),
    ("'ab' and 'ba'", "ep"),
    ("count of '0'", "en"),
    ("occurrences of", "pc"),
    ("reverse the list", "rl"),
)
INPUT_LINE_RE = re.compile(r"^(?:List|Input string): (.*)$", re.MULTILINE)
LETTER_RE = re.compile(r"letter '(\w)'")
CYCLE_RE = re.compile(r"cycle of length (\d+)")
QUOTED_RE = re.compile(r"'([^']*)'")


def read_instance(prompt: str) -> tuple[str, list[str], dict]:
    """(task code, symbols, params) recovered from a rendered prompt."""
    lowered = prompt.lower()
    task = next((code for phrase, code in TASK_PHRASES if phrase in lowered), None)
    lines = INPUT_LINE_RE.findall(prompt)
    if task is None or not lines:
        raise ValueError("prompt names no known task or input")
    raw = lines[-1].strip()
    symbols = QUOTED_RE.findall(raw) if raw.startswith("[") else list(raw)
    params = {}
    if task == "pc":
        params["letter"] = LETTER_RE.search(prompt).group(1)
    if task == "cn":
        params["modulus"] = int(CYCLE_RE.search(prompt).group(1))
    return task, symbols, params


class StubState:
    """Rate-limit bookkeeping and per-request service times, shared by handler threads."""

    def __init__(self, rate_limit_slot: int):
        self.rate_limit_slot = rate_limit_slot
        self.lock = threading.Lock()
        self.first_attempts = 0
        self.awaiting_retry: dict[str, int] = {}
        self.stats = self._empty_stats()

    @staticmethod
    def _empty_stats() -> dict:
        return {"requests": 0, "rate_limited": 0, "unreadable": 0, "service_ms": []}

    def take_stats(self) -> dict:
        with self.lock:
            stats, self.stats = self.stats, self._empty_stats()
        return stats

    def admit(self, prompt: str) -> bool:
        """False when this request is answered with a 429."""
        with self.lock:
            self.stats["requests"] += 1
            waiting = self.awaiting_retry.get(prompt, 0)
            if waiting:
                if waiting == 1:
                    del self.awaiting_retry[prompt]
                else:
                    self.awaiting_retry[prompt] = waiting - 1
                return True
            slot = self.first_attempts % RATE_LIMIT_EVERY
            self.first_attempts += 1
            if slot != self.rate_limit_slot:
                return True
            self.awaiting_retry[prompt] = waiting + 1
            self.stats["rate_limited"] += 1
            return False

    def record(self, service_s: float, readable: bool) -> None:
        with self.lock:
            self.stats["service_ms"].append(service_s * 1000.0)
            if not readable:
                self.stats["unreadable"] += 1


def make_handler(state: StubState):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # the status line, headers and body go out in separate writes; with
        # Nagle's algorithm on, the body waits for the client's delayed ACK
        disable_nagle_algorithm = True

        def _send(self, status: int, payload: dict) -> None:
            data = json.dumps(payload).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_POST(self):
            start = time.perf_counter()
            body = json.loads(self.rfile.read(int(self.headers.get("Content-Length", 0))))
            prompt = body["messages"][0]["content"]
            readable = True
            if state.admit(prompt):
                try:
                    task, symbols, params = read_instance(prompt)
                    text = "Reading the list and applying the steps.\n"
                    text += reference.result_line(reference.solve(task, symbols, params))
                except (ValueError, KeyError, AttributeError, IndexError):
                    readable = False
                    text = "The prompt could not be read."
                status, payload = 200, {"choices": [{"message": {"content": text}}]}
            else:
                status, payload = 429, {"error": "rate limited"}
            time.sleep(DELAY_MS / 1000.0)
            self._send(status, payload)
            state.record(time.perf_counter() - start, readable)

        def do_GET(self):
            if self.path != "/stats":
                self._send(404, {"error": "not found"})
                return
            self._send(200, state.take_stats())

        def log_message(self, *args):
            pass

    return Handler


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rate-limit-slot", type=int, required=True, choices=range(RATE_LIMIT_EVERY))
    args = parser.parse_args()

    state = StubState(args.rate_limit_slot)
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(state))
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(f"port {server.server_port}", flush=True)
    try:
        sys.stdin.read()  # the parent closes our stdin to stop us
    finally:
        server.shutdown()
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
