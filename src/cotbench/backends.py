"""Completion backends: one live HTTP client plus synthetic stand-ins.

Every backend exposes the same call shape: prompt text in, a ``Completion``
out, which carries the transcript and the attempts spent on it.  The
synthetic backends (oracle echo, corrupting) exist so the whole harness can
be exercised and validated offline; the replay backend serves the
transcripts an earlier run directory recorded, which it reads through
``rundir``, so a paid live run can be re-scored offline; the live backend
speaks the common chat-completions JSON shape against whatever base URL it
is pointed at.  The decoding settings of a call, ``CompletionConfig``, are
part of a run's spec, so they live in ``rundir`` with it.

Only the live backend needs ``requests``, and it imports it when it is built,
after its API-key check.  Importing this package, and running or replaying
on the offline backends, never loads the HTTP stack.
"""

from __future__ import annotations

import hashlib
import os
import random
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from cotbench.extraction import format_result
from cotbench.rundir import CompletionConfig, load_records, load_spec
from cotbench.tasks import OracleAnswer, TaskInstance

API_KEY_ENV = "COTBENCH_API_KEY"
BASE_URL_ENV = "COTBENCH_BASE_URL"
DEFAULT_BASE_URL = "https://api.openai.com/v1"


class BackendError(Exception):
    """Base for completion-layer failures; subclasses name the cause."""

    def __init__(self, message: str = "", attempts: int = 1):
        super().__init__(message)
        self.attempts = attempts


class AuthError(BackendError):
    pass


class RateLimited(BackendError):
    pass


class Timeout(BackendError):
    pass


class ProtocolError(BackendError):
    pass


class MissingRecording(BackendError):
    pass


@dataclass(frozen=True)
class CallContext:
    """Per-call binding handed to backends that answer from ground truth."""

    instance: TaskInstance
    oracle: OracleAnswer


class Completion(NamedTuple):
    """What one call returns: the transcript and the attempts spent on it."""

    text: str
    attempts: int = 1


class ModelBackend:
    """Interface: complete(prompt, cfg, context) -> Completion, or raise a BackendError.

    ``complete`` is the one call method; the runner issues every call through it.
    """

    name = "abstract"

    def complete(
        self, prompt: str, cfg: CompletionConfig, context: CallContext | None = None
    ) -> Completion:
        raise NotImplementedError


def _echo_transcript(oracle: OracleAnswer) -> str:
    return (
        "Working through the instructions on the given input.\n"
        "The final output is:\n" + format_result(oracle)
    )


class OracleEchoBackend(ModelBackend):
    """Answers every prompt with its bound oracle answer; accuracy is 1 by construction."""

    name = "echo"

    def complete(self, prompt, cfg, context=None):
        if context is None:
            raise ProtocolError("echo backend needs a bound instance and oracle")
        return Completion(_echo_transcript(context.oracle))


def _transpose(text: str) -> str:
    """A wrong-but-well-typed variant of a text answer."""
    for i in range(len(text) - 1):
        if text[i] != text[i + 1]:
            return text[:i] + text[i + 1] + text[i] + text[i + 2 :]
    # all characters equal: swap the first for a different letter
    if not text:
        return "x"
    substitute = "b" if text[0] != "b" else "a"
    return substitute + text[1:]


class CorruptingBackend(ModelBackend):
    """Echoes the oracle, except with probability p emits a typed wrong answer.

    Corruption is decided per prompt from a content hash, not from call
    order, so outcomes do not depend on worker scheduling.
    """

    name = "corrupt"

    def __init__(self, p: float, seed: int = 0):
        if not 0.0 <= p <= 1.0:
            raise ValueError("corruption rate must be in [0, 1]")
        self.p = p
        self.seed = seed

    def _rng(self, prompt: str) -> random.Random:
        digest = hashlib.sha256(f"{self.seed}|{prompt}".encode("utf-8")).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    def complete(self, prompt, cfg, context=None):
        if context is None:
            raise ProtocolError("corrupting backend needs a bound instance and oracle")
        rng = self._rng(prompt)
        answer = context.oracle
        if rng.random() < self.p:
            if isinstance(answer.value, bool):
                answer = OracleAnswer.of_bool(not answer.value)
            elif isinstance(answer.value, int):
                answer = OracleAnswer.of_int(answer.value + rng.choice((-1, 1)))
            else:
                answer = OracleAnswer.of_text(_transpose(answer.value))
        return Completion(_echo_transcript(answer))


class ReplayBackend(ModelBackend):
    """Serves an earlier run's transcripts by prompt sha256; never goes to the network.

    A transcript answers only calls with the recorded run's model, temperature
    and max_tokens; timeout and retry settings do not change what a model says.
    """

    name = "replay"

    def __init__(self, transcripts: dict[str, str], decoding: CompletionConfig):
        self.transcripts = transcripts
        self.decoding = decoding

    @staticmethod
    def from_run(run_dir: str | Path) -> "ReplayBackend":
        """The transcripts of a run directory's records, except calls that ended in an error."""
        spec = load_spec(Path(run_dir))
        if spec is None:
            raise ValueError(f"no spec.json in {run_dir}: replay needs a run directory")
        transcripts = {
            record.prompt_sha256: record.transcript
            for record in load_records(run_dir)
            if record.error is None
        }
        return ReplayBackend(transcripts, spec.completion)

    def decoding_mismatch(self, cfg: CompletionConfig) -> str | None:
        """Why no call under ``cfg`` can be answered, or None if it decodes as recorded."""
        recorded = (self.decoding.model, self.decoding.temperature, self.decoding.max_tokens)
        asked = (cfg.model, cfg.temperature, cfg.max_tokens)
        if asked == recorded:
            return None
        return f"recorded with (model, temperature, max_tokens) {recorded}, not {asked}"

    def complete(self, prompt, cfg, context=None):
        mismatch = self.decoding_mismatch(cfg)
        if mismatch:
            raise MissingRecording(mismatch)
        key = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
        try:
            return Completion(self.transcripts[key])
        except KeyError:
            raise MissingRecording(f"no transcript recorded under {key[:12]}...") from None


class _RateLimiter:
    """Blocking requests-per-minute limiter shared across worker threads; None sets no limit."""

    def __init__(self, per_minute: int | None):
        # a spec's value: anything but a positive int would fail inside the first call
        if per_minute is not None and (type(per_minute) is not int or per_minute < 1):
            raise ValueError(f"requests_per_minute must be a positive integer, got {per_minute!r}")
        self.per_minute = per_minute
        self._stamps: deque[float] = deque()
        self._lock = threading.Lock()

    def acquire(self):
        if self.per_minute is None:
            return
        while True:
            with self._lock:
                now = time.monotonic()
                while self._stamps and now - self._stamps[0] > 60.0:
                    self._stamps.popleft()
                if len(self._stamps) < self.per_minute:
                    self._stamps.append(now)
                    return
                wait = 60.0 - (now - self._stamps[0])
            time.sleep(max(wait, 0.01))


class LiveBackend(ModelBackend):
    """Chat-completions HTTP client with retries and a rate limit.

    Sends a single user message per call and returns the assistant text.
    Retries transport failures, 429s, and 5xx responses per the config's
    attempt budget; auth failures surface immediately.  ``requests`` is
    imported by the constructor, once the API key is found, so a missing key
    fails without loading it.
    """

    name = "live"

    def __init__(
        self,
        base_url: str | None = None,
        api_key: str | None = None,
        requests_per_minute: int | None = None,
    ):
        self.base_url = (base_url or os.environ.get(BASE_URL_ENV) or DEFAULT_BASE_URL).rstrip("/")
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV, "")
        if not self.api_key:
            raise AuthError(f"no API key: set {API_KEY_ENV}")
        self._limiter = _RateLimiter(requests_per_minute)
        import requests

        self._requests = requests
        self._session = requests.Session()

    def complete(self, prompt, cfg, context=None):
        body = {
            "model": cfg.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": cfg.temperature,
            "max_tokens": cfg.max_tokens,
        }
        headers = {"Authorization": f"Bearer {self.api_key}"}
        url = f"{self.base_url}/chat/completions"

        last_error: BackendError | None = None
        for attempt in range(1, cfg.max_attempts + 1):
            if attempt > 1:
                delay = cfg.backoff_s[min(attempt - 2, len(cfg.backoff_s) - 1)]
                time.sleep(delay)
            self._limiter.acquire()
            try:
                response = self._session.post(url, json=body, headers=headers, timeout=cfg.timeout_s)
            except self._requests.exceptions.Timeout:
                last_error = Timeout(f"request timed out after {cfg.timeout_s}s", attempt)
                continue
            except self._requests.exceptions.RequestException as exc:
                last_error = ProtocolError(f"transport failure: {exc}", attempt)
                continue
            if response.status_code in (401, 403):
                raise AuthError(f"endpoint rejected credentials ({response.status_code})", attempt)
            if response.status_code == 429:
                last_error = RateLimited("rate limited (429)", attempt)
                continue
            if response.status_code >= 500:
                last_error = ProtocolError(f"server error ({response.status_code})", attempt)
                continue
            if response.status_code != 200:
                raise ProtocolError(f"unexpected status {response.status_code}", attempt)
            try:
                transcript = response.json()["choices"][0]["message"]["content"]
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                raise ProtocolError(f"malformed completion payload: {exc}", attempt) from exc
            if transcript is None:
                raise ProtocolError("completion payload had no message content", attempt)
            return Completion(transcript, attempt)
        assert last_error is not None
        raise last_error


def make_backend(spec: dict) -> ModelBackend:
    """Build a backend from an experiment spec's backend block."""
    kind = spec.get("kind", "echo")
    if kind == "echo":
        return OracleEchoBackend()
    if kind == "corrupt":
        return CorruptingBackend(p=spec.get("p", 0.0), seed=spec.get("seed", 0))
    if kind == "replay":
        path = spec.get("store")
        if not path:
            raise ValueError("replay backend needs a 'store' run directory")
        return ReplayBackend.from_run(path)
    if kind == "live":
        return LiveBackend(
            base_url=spec.get("base_url"),
            api_key=spec.get("api_key"),
            requests_per_minute=spec.get("requests_per_minute"),
        )
    raise ValueError(f"unknown backend kind {kind!r}")
