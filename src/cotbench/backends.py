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

The live backend needs only the standard library: it speaks HTTP/1.1 over
``http.client`` with kept-alive connections, and imports it when it is built,
after its API-key check.  Importing this package, and running or replaying
on the offline backends, never loads ``http.client`` or ``ssl``.
"""

from __future__ import annotations

import json
import os
import select
import threading
import time
import weakref
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple
from urllib.parse import SplitResult, unquote, urlsplit

from cotbench.extraction import format_result
from cotbench.prompts import prompt_sha256
from cotbench.rundir import CompletionConfig, load_records, load_spec, typed
from cotbench.tasks import Answer, TaskInstance, rng_for

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
    """Per-call binding handed to backends that answer from ground truth.

    ``oracle`` is the instance's answer as the value a record stores.
    """

    instance: TaskInstance
    oracle: Answer


class Completion(NamedTuple):
    """What one call returns: the transcript and the attempts spent on it."""

    text: str
    attempts: int = 1


class ModelBackend:
    """Interface: complete(prompt, cfg, context) -> Completion, or raise a BackendError.

    ``complete`` is the one call method; the runner issues every call through it.
    """

    def complete(
        self, prompt: str, cfg: CompletionConfig, context: CallContext | None = None
    ) -> Completion:
        raise NotImplementedError


def _echo_transcript(oracle: Answer) -> str:
    return (
        "Working through the instructions on the given input.\n"
        "The final output is:\n" + format_result(oracle)
    )


class OracleEchoBackend(ModelBackend):
    """Answers every prompt with its bound oracle answer; accuracy is 1 by construction."""


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

    def __init__(self, p: float, seed: int = 0):
        if not 0.0 <= p <= 1.0:
            raise ValueError("corruption rate must be in [0, 1]")
        self.p = p
        self.seed = seed

    def complete(self, prompt, cfg, context=None):
        if context is None:
            raise ProtocolError("corrupting backend needs a bound instance and oracle")
        rng = rng_for(f"{self.seed}|{prompt}")
        answer = context.oracle
        if rng.random() < self.p:
            if isinstance(answer, bool):
                answer = not answer
            elif isinstance(answer, int):
                answer += rng.choice((-1, 1))
            else:
                answer = _transpose(answer)
        return Completion(_echo_transcript(answer))


class ReplayBackend(ModelBackend):
    """Serves an earlier run's transcripts by prompt sha256; never goes to the network.

    A transcript answers only calls with the recorded run's model, temperature
    and max_tokens; timeout and retry settings do not change what a model says.
    """

    def __init__(self, transcripts: dict[str, str], decoding: CompletionConfig):
        self.transcripts = transcripts
        self.decoding = decoding

    @staticmethod
    def from_run(run_dir: str | Path) -> "ReplayBackend":
        """The transcripts of a run directory's checked records, except calls that ended in an error.

        The records are read through ``load_records``, over the cells of the
        run's spec, as a resume and a report read them, and each transcript
        from the ``data`` of its ``CheckedRecord``.  SpecError if ``run_dir``
        is not a run directory (``load_spec``).
        """
        spec = load_spec(Path(run_dir))
        transcripts = {
            checked.data["prompt_sha256"]: checked.data["transcript"]
            for checked in load_records(run_dir)
            if checked.outcome is not None
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
        key = prompt_sha256(prompt)
        try:
            return Completion(self.transcripts[key])
        except KeyError:
            raise MissingRecording(f"no transcript recorded under {key[:12]}...") from None


class _RateLimiter:
    """Blocking requests-per-minute limiter shared across worker threads; None sets no limit."""

    def __init__(self, per_minute: int | None):
        # a rate below 1 would fail inside the first call
        if per_minute is not None and per_minute < 1:
            raise ValueError(f"requests_per_minute must be positive, got {per_minute!r}")
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
    """Chat-completions HTTP client with retries, a rate limit and kept-alive connections.

    Sends a single user message per call and returns the assistant text.
    Retries transport failures, 429s, and 5xx responses per the config's
    attempt budget; auth failures surface immediately.

    The transport is the standard library's ``http.client``, imported by the
    constructor once the API key is found, so a missing key fails without
    loading it.  Worker threads share one stack of idle connections: an
    attempt takes the most recently used one, or opens a new one, and puts
    it back once the whole response is read unless the server said it would
    close it.  An idle connection the server has already closed is dropped
    before use, so an expired keep-alive costs no attempt.  Idle connections
    are closed when the backend is collected, or at interpreter exit.

    The environment's proxy settings (``http_proxy``, ``https_proxy``,
    ``all_proxy``, ``no_proxy``) are read once, here: an http endpoint is
    reached through the proxy with the absolute URL as target, an https one
    through a CONNECT tunnel.  TLS uses ``http.client``'s default context,
    ``ssl.create_default_context()``, which trusts the system's CA store
    (``SSL_CERT_FILE`` overrides it).
    """

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
        import http.client

        self._http = http.client
        url = f"{self.base_url}/chat/completions"
        endpoint = _http_url(url, "base URL")
        tls = endpoint.scheme == "https"
        self._connection_class = http.client.HTTPSConnection if tls else http.client.HTTPConnection
        self._address = (endpoint.hostname, endpoint.port)
        self._target = endpoint.path + (f"?{endpoint.query}" if endpoint.query else "")
        self._headers = {"Authorization": f"Bearer {self.api_key}", "Content-Type": "application/json"}
        self._tunnel = None
        proxy = _environment_proxy(endpoint)
        if proxy is not None:
            proxy_headers = _proxy_auth(proxy)
            if tls:
                self._tunnel = (self._address, proxy_headers)
            else:
                self._target = url
                self._headers.update(proxy_headers)
            self._address = (proxy.hostname, proxy.port or 80)
        self._idle: list = []
        weakref.finalize(self, _close_all, self._idle)

    def _connect(self):
        conn = self._connection_class(*self._address)
        if self._tunnel:
            (host, port), headers = self._tunnel
            conn.set_tunnel(host, port, headers)
        return conn

    def _idle_connection(self):
        """The most recently used idle connection the server has not closed, or None."""
        while True:
            try:
                conn = self._idle.pop()
            except IndexError:
                return None
            if not _readable(conn.sock):
                return conn
            conn.close()

    def _post(self, payload: bytes, timeout: float) -> tuple[int, bytes]:
        """One request and its whole response: (status, body)."""
        conn = self._idle_connection() or self._connect()
        conn.timeout = timeout
        try:
            if conn.sock is not None:
                conn.sock.settimeout(timeout)
            conn.request("POST", self._target, body=payload, headers=self._headers)
            response = conn.getresponse()
            data = response.read()
        except BaseException:
            conn.close()
            raise
        if not response.will_close:
            self._idle.append(conn)
        return response.status, data

    def complete(self, prompt, cfg, context=None):
        payload = json.dumps(
            {
                "model": cfg.model,
                "messages": [{"role": "user", "content": prompt}],
                "temperature": cfg.temperature,
                "max_tokens": cfg.max_tokens,
            }
        ).encode()

        last_error: BackendError | None = None
        for attempt in range(1, cfg.max_attempts + 1):
            if attempt > 1:
                delay = cfg.backoff_s[min(attempt - 2, len(cfg.backoff_s) - 1)]
                time.sleep(delay)
            self._limiter.acquire()
            try:
                status, data = self._post(payload, cfg.timeout_s)
            except TimeoutError:
                last_error = Timeout(f"request timed out after {cfg.timeout_s}s", attempt)
                continue
            except (OSError, self._http.HTTPException) as exc:
                last_error = ProtocolError(f"transport failure: {type(exc).__name__}: {exc}", attempt)
                continue
            if status in (401, 403):
                raise AuthError(f"endpoint rejected credentials ({status})", attempt)
            if status == 429:
                last_error = RateLimited("rate limited (429)", attempt)
                continue
            if status >= 500:
                last_error = ProtocolError(f"server error ({status})", attempt)
                continue
            if status != 200:
                raise ProtocolError(f"unexpected status {status}", attempt)
            try:
                transcript = json.loads(data)["choices"][0]["message"]["content"]
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                raise ProtocolError(f"malformed completion payload: {exc}", attempt) from exc
            if transcript is None:
                raise ProtocolError("completion payload had no message content", attempt)
            return Completion(transcript, attempt)
        assert last_error is not None
        raise last_error


def _http_url(url: str, what: str) -> SplitResult:
    """``url`` split, or ValueError unless it is an http(s) URL with a host.

    Reading the result's ``port`` raises ValueError for a port that is not a number in range.
    """
    parts = urlsplit(url)
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ValueError(f"{what} must be an http:// or https:// URL with a host, got {url!r}")
    return parts


def _environment_proxy(endpoint: SplitResult) -> SplitResult | None:
    """The http proxy the environment names for ``endpoint``, or None if it names none or bypasses it."""
    import urllib.request

    proxies = urllib.request.getproxies()
    proxy = proxies.get(endpoint.scheme) or proxies.get("all")
    if not proxy or urllib.request.proxy_bypass(endpoint.hostname):
        return None
    parts = _http_url(proxy if "://" in proxy else f"http://{proxy}", "proxy URL")
    if parts.scheme != "http":
        raise ValueError(f"proxy URL must be an http:// URL, got {proxy!r}")
    return parts


def _proxy_auth(proxy: SplitResult) -> dict[str, str]:
    """The Proxy-Authorization header for credentials in a proxy URL, if it carries any."""
    if not proxy.username:
        return {}
    import base64

    credentials = f"{unquote(proxy.username)}:{unquote(proxy.password or '')}".encode()
    return {"Proxy-Authorization": "Basic " + base64.b64encode(credentials).decode()}


def _readable(sock) -> bool:
    """Whether an idle socket has something to read: the server closed it, or spoke unasked."""
    try:
        return bool(select.select([sock], [], [], 0)[0])
    except (OSError, ValueError):
        # a closed socket, or a descriptor past select's limit: do not reuse it
        return True


def _close_all(connections: list) -> None:
    while connections:
        connections.pop().close()


def _option(spec: dict, name: str, like: type, default=None):
    """The backend block's field ``name``, or ``default`` if it is absent or null.

    TypeError unless the field has the JSON type ``like`` (``rundir.typed``).
    """
    value = spec.get(name)
    return default if value is None else typed(value, like, f"backend.{name}")


def make_backend(spec: dict) -> ModelBackend:
    """Build a backend from an experiment spec's backend block.

    TypeError for a field it reads of the wrong JSON type, ValueError for a
    value it refuses, SpecError for a replay store that is not a run
    directory; the fields it does not read are ignored.
    """
    kind = spec.get("kind", "echo")
    if kind == "echo":
        return OracleEchoBackend()
    if kind == "corrupt":
        return CorruptingBackend(p=_option(spec, "p", float, 0.0), seed=_option(spec, "seed", int, 0))
    if kind == "replay":
        path = _option(spec, "store", str)
        if not path:
            raise ValueError("replay backend needs a 'store' run directory")
        return ReplayBackend.from_run(path)
    if kind == "live":
        return LiveBackend(
            base_url=_option(spec, "base_url", str),
            api_key=_option(spec, "api_key", str),
            requests_per_minute=_option(spec, "requests_per_minute", int),
        )
    raise ValueError(f"unknown backend kind {kind!r}")
