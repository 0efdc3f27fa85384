"""Spans recorded around calls into the program's public functions.

A traced phase replaces a function of the program, under every name a
``cotbench`` module binds it to (its own module's and each import of it),
with a wrapper that records a span per call: name, wall start and end, the
calling thread's CPU time at start and end, the parent span and the grid
call it belongs to.  Spans stay in memory until ``write`` saves them.
Nothing is wrapped outside a ``traced`` block, so untraced phases run the
program unchanged.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager
from typing import NamedTuple

# Each grid call starts by generating its instance; the span that does so
# opens a new call identifier for the thread that runs the call.
CALL_START = "tasks.generate_instance"


def bindings(fn) -> list[tuple]:
    """Every (module, attribute) of the program that holds `fn`."""
    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "cotbench"]
    return [(m, attr) for m in modules for attr, value in list(vars(m).items()) if value is fn]


class Span(NamedTuple):
    id: int
    parent: int  # 0 for a phase span
    call: int  # the grid call this span belongs to, 0 outside calls
    name: str
    phase: str
    start_s: float
    end_s: float
    cpu_start_s: float  # the calling thread's CPU time; process CPU time for a phase span
    cpu_end_s: float

    @property
    def wall_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def cpu_s(self) -> float:
        return self.cpu_end_s - self.cpu_start_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.phase = ""
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root = 0

    def _next_id(self) -> int:
        with self._lock:
            return next(self._ids)

    def wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if not stack and name == CALL_START:
                local.call = tracer._next_id()
            span_id = tracer._next_id()
            parent = stack[-1] if stack else tracer._root
            stack.append(span_id)
            c0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                c1 = time.thread_time()
                stack.pop()
                call = getattr(local, "call", 0)
                tracer.spans.append(Span(span_id, parent, call, name, tracer.phase, t0, t1, c0, c1))

        return traced

    @contextmanager
    def phase_span(self, phase: str, name: str):
        """Open a phase: spans opened by any thread with no span of its own nest under it."""
        self.phase = phase
        span_id = self._next_id()
        self._root = span_id
        self._local.call = 0
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            c1 = time.process_time()
            self._root = 0
            self.spans.append(Span(span_id, 0, 0, name, phase, t0, t1, c0, c1))

    @contextmanager
    def traced(self, targets):
        """Wrap the function of every (module, attribute, span name) in `targets` for the block."""
        saved = []
        try:
            for module, attr, name in targets:
                original = getattr(module, attr)
                wrapper = self.wrap(name, original)
                for home, alias in bindings(original):
                    saved.append((home, alias, original))
                    setattr(home, alias, wrapper)
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": Span._fields}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

