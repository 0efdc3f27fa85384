"""Synthetic backend behavior and the live client against a local stub server."""

from __future__ import annotations

import base64
import gc
import hashlib
import json
import os
import select
import shutil
import socket
import threading
import time
import warnings
import weakref
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from cotbench import backends
from cotbench.backends import (
    AuthError,
    CallContext,
    Completion,
    CompletionConfig,
    CorruptingBackend,
    LiveBackend,
    MissingRecording,
    OracleEchoBackend,
    ProtocolError,
    RateLimited,
    ReplayBackend,
    Timeout,
    _RateLimiter,
    make_backend,
)
from cotbench.extraction import Verdict, extract_result, score
from cotbench.tasks import (
    TaskId,
    generate_instance,
    oracle_solve,
)

from conftest import keyed_records

CFG = CompletionConfig(model="test-model", backoff_s=(0.0, 0.0, 0.0), timeout_s=5.0)


def context_for(task: TaskId, length: int, seed_path: str) -> CallContext:
    inst = generate_instance(task, length, seed_path=seed_path)
    return CallContext(inst, oracle_solve(task, inst))


class TestOracleEcho:
    def test_transcript_concludes_with_oracle(self):
        ctx = context_for(TaskId.EVEN_PAIRS, 10, "echo/ep")
        transcript = OracleEchoBackend().complete("prompt", CFG, ctx).text
        got = extract_result(transcript, int)
        assert got.value == ctx.oracle

    def test_text_answer_quoted(self):
        ctx = context_for(TaskId.REVERSE_LIST, 8, "echo/rl")
        transcript = OracleEchoBackend().complete("prompt", CFG, ctx).text
        assert transcript.endswith("{'Result': '%s'}" % ctx.oracle)

    def test_requires_context(self):
        with pytest.raises(ProtocolError):
            OracleEchoBackend().complete("prompt", CFG)


class TestCorrupting:
    def test_p_zero_matches_echo(self):
        ctx = context_for(TaskId.SORTING_LIST, 8, "cor/sl")
        echo = OracleEchoBackend().complete("p", CFG, ctx).text
        corrupt = CorruptingBackend(p=0.0).complete("p", CFG, ctx).text
        assert echo == corrupt

    def test_p_one_always_wrong(self):
        backend = CorruptingBackend(p=1.0, seed=3)
        for i in range(50):
            ctx = context_for(TaskId.PARITY_CHECK, 10, f"cor/pc/{i}")
            transcript = backend.complete(f"prompt {i}", CFG, ctx).text
            verdict = score(extract_result(transcript, bool), ctx.oracle)
            assert verdict is Verdict.INCORRECT

    def test_quarter_rate_concentrates(self):
        backend = CorruptingBackend(p=0.25, seed=11)
        correct = 0
        calls = 10_000
        ctx = context_for(TaskId.PARITY_CHECK, 10, "cor/fixed")
        for i in range(calls):
            transcript = backend.complete(f"prompt {i}", CFG, ctx).text
            if score(extract_result(transcript, bool), ctx.oracle) is Verdict.CORRECT:
                correct += 1
        assert 0.73 <= correct / calls <= 0.77

    def test_deterministic_per_prompt(self):
        backend = CorruptingBackend(p=0.5, seed=7)
        ctx = context_for(TaskId.EVEN_PAIRS, 10, "cor/det")
        a = backend.complete("same prompt", CFG, ctx).text
        b = backend.complete("same prompt", CFG, ctx).text
        assert a == b

    def test_corrupted_text_is_well_typed(self):
        backend = CorruptingBackend(p=1.0, seed=5)
        for i in range(30):
            ctx = context_for(TaskId.DUPLICATE_LIST, 6, f"cor/dl/{i}")
            transcript = backend.complete(f"prompt {i}", CFG, ctx).text
            got = extract_result(transcript, str)
            assert got.value != ctx.oracle
            assert sorted(got.value) == sorted(ctx.oracle) or len(got.value) == len(ctx.oracle)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestReplay:
    def test_serves_transcripts_by_prompt_sha256(self):
        backend = ReplayBackend({sha256("prompt one"): "reply one", sha256("prompt two"): "reply two"}, CFG)
        assert backend.complete("prompt one", CFG) == Completion("reply one")
        assert backend.complete("prompt two", CFG).text == "reply two"

    def test_replay_missing(self):
        backend = ReplayBackend({}, CFG)
        with pytest.raises(MissingRecording):
            backend.complete("never recorded", CFG)

    def test_only_decoding_fields_must_match(self):
        backend = ReplayBackend({sha256("p"): "t"}, CompletionConfig(model="m", timeout_s=1.0, max_attempts=1))
        fast = CompletionConfig(model="m", timeout_s=99.0, max_attempts=9, backoff_s=(0.5,))
        assert backend.complete("p", fast).text == "t"
        for other in (
            CompletionConfig(model="m2"),
            CompletionConfig(model="m", temperature=0.7),
            CompletionConfig(model="m", max_tokens=16),
        ):
            with pytest.raises(MissingRecording):
                backend.complete("p", other)


class StubHandler(BaseHTTPRequestHandler):
    """Scripted chat-completions endpoint: pops one canned response per request."""

    script: list = []
    requests_seen: list = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length) or b"{}")
        type(self).requests_seen.append(body)
        status, payload = self.script.pop(0) if self.script else (200, None)
        if payload is None:
            content = f"echo of: {body['messages'][0]['content']}"
            payload = {"choices": [{"message": {"content": content}}]}
        data = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), StubHandler)
    StubHandler.script = []
    StubHandler.requests_seen = []
    # shutdown() waits up to one poll interval, 0.5 s by default
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/v1"
    server.shutdown()
    server.server_close()


class TestLiveBackend:
    def test_success_returns_content(self, stub_server):
        backend = LiveBackend(base_url=stub_server, api_key="k")
        transcript = backend.complete("hello", CFG).text
        assert transcript == "echo of: hello"
        sent = StubHandler.requests_seen[0]
        assert sent["model"] == "test-model"
        assert sent["messages"] == [{"role": "user", "content": "hello"}]
        assert sent["temperature"] == 0.0

    def test_missing_key_is_auth_error(self, monkeypatch):
        monkeypatch.delenv("COTBENCH_API_KEY", raising=False)
        with pytest.raises(AuthError):
            LiveBackend(base_url="http://127.0.0.1:1")

    def test_unauthorized_is_auth_error(self, stub_server):
        StubHandler.script = [(401, {"error": "bad key"})]
        backend = LiveBackend(base_url=stub_server, api_key="bad")
        with pytest.raises(AuthError):
            backend.complete("hello", CFG)

    def test_three_429s_exhaust_retries(self, stub_server):
        StubHandler.script = [(429, {}), (429, {}), (429, {})]
        backend = LiveBackend(base_url=stub_server, api_key="k")
        with pytest.raises(RateLimited):
            backend.complete("hello", CFG)
        assert len(StubHandler.requests_seen) == 3

    def test_transient_500_then_success(self, stub_server):
        StubHandler.script = [(500, {}), (200, None)]
        backend = LiveBackend(base_url=stub_server, api_key="k")
        assert backend.complete("hello", CFG).text == "echo of: hello"
        assert len(StubHandler.requests_seen) == 2

    def test_completion_counts_attempts(self, stub_server):
        StubHandler.script = [(429, {}), (200, None)]
        backend = LiveBackend(base_url=stub_server, api_key="k")
        assert backend.complete("hello", CFG) == Completion("echo of: hello", attempts=2)

    def test_attempt_budget_respected(self, stub_server):
        StubHandler.script = [(500, {})] * 10
        backend = LiveBackend(base_url=stub_server, api_key="k")
        with pytest.raises(ProtocolError):
            backend.complete("hello", CFG)
        assert len(StubHandler.requests_seen) == CFG.max_attempts

    def test_malformed_payload(self, stub_server):
        StubHandler.script = [(200, {"nonsense": True})]
        backend = LiveBackend(base_url=stub_server, api_key="k")
        with pytest.raises(ProtocolError):
            backend.complete("hello", CFG)


class KeepAliveHandler(BaseHTTPRequestHandler):
    """HTTP/1.1 echo endpoint that logs each request's target, headers and client port.

    Subclasses set ``timeout`` to close connections idle that long, ``close_each``
    to answer ``Connection: close``, and ``delay_s`` to answer late.
    """

    protocol_version = "HTTP/1.1"
    seen: list = []
    close_each = False
    delay_s = 0.0

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).seen.append((self.path, dict(self.headers), self.client_address[1]))
        time.sleep(self.delay_s)
        data = json.dumps({"choices": [{"message": {"content": f"echo of: {body['messages'][0]['content']}"}}]})
        try:
            self.send_response(200)
            if self.close_each:
                self.send_header("Connection", "close")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data.encode())
        except OSError:
            pass  # a client that timed out has closed the connection

    def do_CONNECT(self):
        type(self).seen.append((self.path, dict(self.headers), self.client_address[1]))
        self.send_error(502)

    def log_message(self, *args):
        pass


@pytest.fixture
def serve():
    """Starts KeepAliveHandler servers: ``serve(**attributes) -> (handler class, base URL)``."""
    servers = []

    def start(**attributes):
        handler = type("Handler", (KeepAliveHandler,), {"seen": [], **attributes})
        server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        server.daemon_threads = True
        threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True).start()
        servers.append(server)
        return handler, f"http://127.0.0.1:{server.server_port}/v1"

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


def closed_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.fixture
def proxy_env(monkeypatch):
    """The environment with no proxy settings; the test sets its own."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)
    return monkeypatch


class TestLiveConnections:
    def test_back_to_back_calls_share_one_connection(self, serve):
        handler, url = serve()
        backend = LiveBackend(base_url=url, api_key="k")
        for i in range(3):
            assert backend.complete(f"p{i}", CFG) == Completion(f"echo of: p{i}", attempts=1)
        assert len(handler.seen) == 3
        assert len({port for _, _, port in handler.seen}) == 1
        path, headers, _ = handler.seen[0]
        assert path == "/v1/chat/completions"
        assert headers["Content-Type"] == "application/json"
        assert headers["Authorization"] == "Bearer k"

    def test_server_that_closes_idle_connections_costs_no_attempt(self, serve):
        handler, url = serve(timeout=0.05)
        backend = LiveBackend(base_url=url, api_key="k")
        for i in range(3):
            assert backend.complete(f"p{i}", CFG).attempts == 1
            [idle] = backend._idle
            # wait for the server to close the idle connection
            assert select.select([idle.sock], [], [], 5.0)[0]
        assert len(handler.seen) == 3
        assert len({port for _, _, port in handler.seen}) == 3

    def test_connection_close_answers_cost_no_attempt(self, serve):
        handler, url = serve(close_each=True)
        backend = LiveBackend(base_url=url, api_key="k")
        for i in range(3):
            assert backend.complete(f"p{i}", CFG).attempts == 1
        assert len(handler.seen) == 3
        assert len({port for _, _, port in handler.seen}) == 3
        assert backend._idle == []

    def test_handler_slower_than_the_timeout_is_a_timeout(self, serve):
        handler, url = serve(delay_s=0.5)
        backend = LiveBackend(base_url=url, api_key="k")
        with pytest.raises(Timeout) as caught:
            backend.complete("hello", replace(CFG, timeout_s=0.05))
        assert caught.value.attempts == CFG.max_attempts
        assert len(handler.seen) == CFG.max_attempts

    def test_closed_port_is_a_protocol_error(self):
        backend = LiveBackend(base_url=f"http://127.0.0.1:{closed_port()}/v1", api_key="k")
        with pytest.raises(ProtocolError, match="transport failure: ConnectionRefusedError") as caught:
            backend.complete("hello", CFG)
        assert caught.value.attempts == CFG.max_attempts

    def test_idle_connections_close_when_the_backend_is_collected(self, serve, tmp_path):
        from cotbench.runner import run_experiment

        handler, url = serve()
        backend = LiveBackend(base_url=url, api_key="k")
        run_experiment(small_live_spec({"kind": "live"}), backend, tmp_path / "r", workers=2)
        assert len(handler.seen) == 8 and backend._idle
        collected = weakref.ref(backend)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            del backend
            gc.collect()
        assert collected() is None
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_http_proxy_is_sent_the_absolute_url(self, serve, proxy_env):
        handler, proxy = serve()
        proxy_env.setenv("HTTP_PROXY", proxy.replace("http://", "http://user:p%40ss@").removesuffix("/v1"))
        target = f"127.0.0.1:{closed_port()}"
        backend = LiveBackend(base_url=f"http://{target}/v1", api_key="k")
        assert backend.complete("hello", CFG) == Completion("echo of: hello", attempts=1)
        [(path, headers, _)] = handler.seen
        assert path == f"http://{target}/v1/chat/completions"
        assert headers["Host"] == target
        assert headers["Proxy-Authorization"] == "Basic " + base64.b64encode(b"user:p@ss").decode()

    def test_https_goes_through_a_connect_tunnel(self, serve, proxy_env):
        handler, proxy = serve()
        proxy_env.setenv("HTTPS_PROXY", proxy.removesuffix("/v1"))
        backend = LiveBackend(base_url="https://127.0.0.1:8443/v1", api_key="k")
        with pytest.raises(ProtocolError, match="502"):
            backend.complete("hello", replace(CFG, max_attempts=1))
        assert [path for path, _, _ in handler.seen] == ["127.0.0.1:8443"]

    def test_no_proxy_bypasses_the_proxy(self, serve, proxy_env):
        handler, url = serve()
        proxy_env.setenv("HTTP_PROXY", f"http://127.0.0.1:{closed_port()}")
        proxy_env.setenv("NO_PROXY", "127.0.0.1")
        backend = LiveBackend(base_url=url, api_key="k")
        assert backend.complete("hello", CFG).attempts == 1
        assert [path for path, _, _ in handler.seen] == ["/v1/chat/completions"]

    @pytest.mark.parametrize("base_url", ["ftp://127.0.0.1/v1", "127.0.0.1:8000/v1", "http://127.0.0.1:99999/v1"])
    def test_base_url_that_is_not_http_is_refused(self, base_url):
        with pytest.raises(ValueError):
            LiveBackend(base_url=base_url, api_key="k")


class FakeClock:
    """Stands in for the ``time`` module: ``sleep`` advances ``monotonic`` and is logged."""

    def __init__(self):
        self.now = 0.0
        self.sleeps: list[float] = []

    def monotonic(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds


class TestRateLimiter:
    @pytest.fixture
    def clock(self, monkeypatch):
        clock = FakeClock()
        monkeypatch.setattr(backends, "time", clock)
        return clock

    def test_third_call_in_a_minute_waits_for_the_first_to_age_out(self, clock):
        limiter = _RateLimiter(per_minute=2)
        limiter.acquire()
        clock.now = 10.0
        limiter.acquire()
        assert clock.sleeps == []
        clock.now = 20.0
        limiter.acquire()
        # released once the first stamp, taken at 0 s, is 60 s old
        assert 60.0 <= clock.now < 60.1
        assert sum(clock.sleeps) == pytest.approx(clock.now - 20.0)
        # the stamps are now 10 s and about 60 s: the next call waits for the second
        clock.sleeps.clear()
        limiter.acquire()
        assert 70.0 <= clock.now < 70.1

    def test_no_limit_never_sleeps(self, clock):
        limiter = _RateLimiter(None)
        for _ in range(1000):
            limiter.acquire()
        assert clock.sleeps == []


def small_live_spec(backend: dict):
    from cotbench.prompts import SupervisionKind
    from cotbench.runner import ExperimentSpec
    from cotbench.tasks import InputRendering

    return ExperimentSpec(
        tasks=[TaskId.EVEN_PAIRS],
        lengths={TaskId.EVEN_PAIRS: [10]},
        kinds=list(SupervisionKind),
        rendering=InputRendering.LIST_FIED,
        instances_per_cell=2,
        master_seed=3,
        backend=backend,
        completion=CompletionConfig(model="stub"),
    )


def test_runner_calls_an_overridden_complete(stub_server, tmp_path):
    from cotbench.runner import run_experiment

    class CountingLive(LiveBackend):
        calls = 0

        def complete(self, prompt, cfg, context=None):
            type(self).calls += 1
            return super().complete(prompt, cfg, context)

    backend = CountingLive(base_url=stub_server, api_key="k")
    run_experiment(small_live_spec({"kind": "live"}), backend, tmp_path / "r")
    assert CountingLive.calls == len(StubHandler.requests_seen) == 8


def test_spec_with_retired_live_keys_loads_and_resumes(stub_server, tmp_path):
    from cotbench.runner import ExperimentSpec, run_experiment

    # written before the live block lost its concurrency cap and in-memory recording
    block = {"kind": "live", "base_url": stub_server, "api_key": "k", "max_concurrency": 2, "record": True}
    spec = ExperimentSpec.from_json(small_live_spec(block).to_json())
    run_dir = run_experiment(spec, make_backend(spec.backend), tmp_path / "r", workers=2)
    assert len(keyed_records(run_dir)) == len(StubHandler.requests_seen) == 8
    run_experiment(spec, make_backend(spec.backend), run_dir, workers=2)
    assert len(StubHandler.requests_seen) == 8


class ResultStubHandler(BaseHTTPRequestHandler):
    """Deterministic endpoint that answers with an int derived from the prompt."""

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length) or b"{}")
        prompt = body["messages"][0]["content"]
        content = f"Considering the list.\n{{'Result': {len(prompt) % 7}}}"
        data = json.dumps({"choices": [{"message": {"content": content}}]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


def test_record_then_replay_reproduces_tables(tmp_path):
    from cotbench.prompts import SupervisionKind
    from cotbench.runner import ExperimentSpec, aggregate, run_experiment
    from cotbench.tasks import InputRendering

    server = ThreadingHTTPServer(("127.0.0.1", 0), ResultStubHandler)
    threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True).start()
    try:
        live = LiveBackend(base_url=f"http://127.0.0.1:{server.server_port}/v1", api_key="k")
        spec = ExperimentSpec(
            tasks=[TaskId.EVEN_PAIRS],
            lengths={TaskId.EVEN_PAIRS: [10]},
            kinds=list(SupervisionKind),
            rendering=InputRendering.LIST_FIED,
            instances_per_cell=5,
            master_seed=3,
            backend={"kind": "live"},
            completion=CompletionConfig(model="stub"),
        )
        live_dir = run_experiment(spec, live, tmp_path / "live")
    finally:
        server.shutdown()
        server.server_close()

    live_records = keyed_records(live_dir)
    assert all(r.data["error"] is None for r in live_records.values())

    replay_dir = run_experiment(spec, ReplayBackend.from_run(live_dir), tmp_path / "replay")
    replay_records = keyed_records(replay_dir)
    assert all(r.data["error"] is None for r in replay_records.values())
    for key, record in live_records.items():
        assert replay_records[key].data["transcript"] == record.data["transcript"]
        assert replay_records[key].verdict is record.verdict
    table_live = aggregate(live_dir, write=False)
    table_replay = aggregate(replay_dir, write=False)
    assert table_live.to_json() == table_replay.to_json()


def test_preseeded_case_transcripts_replay_to_expected_verdicts():
    from cotbench.prompts import SupervisionKind, get_template, render_prompt
    from cotbench.tasks import InputRendering, make_instance

    from conftest import CASE_EP_LIST, CASE_ORACLES, CASE_RL_LIST, CASE_STUDIES, load_case

    instances = {
        "ep": make_instance(TaskId.EVEN_PAIRS, CASE_EP_LIST),
        "rl": make_instance(TaskId.REVERSE_LIST, CASE_RL_LIST),
    }
    transcripts = {}
    prompts = {}
    for name, task_code, kind_code, _ in CASE_STUDIES:
        task = TaskId.parse(task_code)
        template = get_template(task, SupervisionKind.parse(kind_code))
        prompt = render_prompt(template, instances[task_code], InputRendering.LIST_FIED)
        prompts[name] = prompt.text
        transcripts[prompt.sha256] = load_case(name)

    replay = ReplayBackend(transcripts, CFG)
    for name, task_code, _, expected_value in CASE_STUDIES:
        task = TaskId.parse(task_code)
        kind = int if task_code == "ep" else str
        transcript = replay.complete(prompts[name], CFG).text
        extracted = extract_result(transcript, kind)
        verdict = score(extracted, CASE_ORACLES[task_code])
        want = Verdict.CORRECT if expected_value == CASE_ORACLES[task_code] else Verdict.INCORRECT
        assert verdict is want, name


def test_replay_refuses_a_store_without_spec_or_records(tmp_path):
    from cotbench.runner import run_experiment

    with pytest.raises(ValueError, match="no spec.json"):
        ReplayBackend.from_run(tmp_path)
    source = run_experiment(small_live_spec({"kind": "echo"}), OracleEchoBackend(), tmp_path / "source")
    shutil.rmtree(source / "records")
    with pytest.raises(ValueError, match="no records directory"):
        ReplayBackend.from_run(source)


def test_replay_answers_only_the_recorded_decoding(tmp_path):
    from cotbench.runner import aggregate, run_experiment

    spec = small_live_spec({"kind": "echo"})
    source = run_experiment(spec, OracleEchoBackend(), tmp_path / "source")
    replay = ReplayBackend.from_run(source)

    other_model = replace(spec, completion=CompletionConfig(model="other"))
    other_dir = run_experiment(other_model, replay, tmp_path / "other-model")
    assert {r.data["error"] for r in keyed_records(other_dir).values()} == {"MissingRecording"}
    assert all(c.n == 0 and c.n_error == 2 for c in aggregate(other_dir, write=False).cells)

    slower = replace(spec, completion=CompletionConfig(model="stub", timeout_s=1.0, max_attempts=1))
    slower_dir = run_experiment(slower, replay, tmp_path / "slower")
    assert aggregate(slower_dir, write=False).to_json() == aggregate(source, write=False).to_json()


def test_replay_does_not_serve_a_call_that_ended_in_an_error(tmp_path):
    from cotbench.runner import aggregate, run_experiment

    class FirstCallFails(OracleEchoBackend):
        calls = 0

        def complete(self, prompt, cfg, context=None):
            type(self).calls += 1
            if self.calls == 1:
                raise ProtocolError("server error (500)")
            return super().complete(prompt, cfg, context)

    spec = small_live_spec({"kind": "echo"})
    source = run_experiment(spec, FirstCallFails(), tmp_path / "source", workers=1)
    failed = [r for r in keyed_records(source).values() if r.data["error"] is not None]
    assert len(failed) == 1 and failed[0].data["transcript"] == ""

    replay = ReplayBackend.from_run(source)
    assert len(replay.transcripts) == 7
    assert failed[0].data["prompt_sha256"] not in replay.transcripts
    replay_dir = run_experiment(spec, replay, tmp_path / "replay")
    replayed = keyed_records(replay_dir)
    key = (failed[0].cell.label, failed[0].index)
    assert replayed[key].data["error"] == "MissingRecording"
    assert aggregate(replay_dir, write=False).to_json() == aggregate(source, write=False).to_json()


class TestFactory:
    def test_echo(self):
        assert isinstance(make_backend({"kind": "echo"}), OracleEchoBackend)

    def test_corrupt(self):
        backend = make_backend({"kind": "corrupt", "p": 0.3, "seed": 2})
        assert backend.p == 0.3

    @pytest.mark.parametrize("per_minute", [None, 30])
    def test_live_passes_requests_per_minute(self, per_minute):
        spec = {"kind": "live", "api_key": "k", "base_url": "http://127.0.0.1:1"}
        if per_minute is not None:
            spec["requests_per_minute"] = per_minute
        assert make_backend(spec)._limiter.per_minute == per_minute

    @pytest.mark.parametrize("per_minute", [0, -1, 2.5, "3", True])
    def test_live_refuses_a_rate_that_is_not_a_positive_int(self, per_minute):
        spec = {"kind": "live", "api_key": "k", "base_url": "http://127.0.0.1:1", "requests_per_minute": per_minute}
        with pytest.raises(ValueError, match="requests_per_minute must be a positive integer"):
            make_backend(spec)

    def test_replay_needs_store(self):
        with pytest.raises(ValueError):
            make_backend({"kind": "replay"})

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"kind": "corrupt", "p": "0.3"}, 'backend.p must be a number, not "0.3"'),
            ({"kind": "corrupt", "p": True}, "backend.p must be a number, not true"),
            ({"kind": "corrupt", "seed": 1.5}, "backend.seed must be an integer, not 1.5"),
            ({"kind": "replay", "store": 5}, "backend.store must be a string, not 5"),
            ({"kind": "live", "api_key": "k", "base_url": 80}, "backend.base_url must be a string, not 80"),
            ({"kind": "live", "api_key": ["k"]}, 'backend.api_key must be a string, not ["k"]'),
        ],
        ids=["text-p", "bool-p", "number-seed", "number-store", "number-base-url", "list-api-key"],
    )
    def test_field_of_wrong_type(self, spec, message):
        with pytest.raises(TypeError) as exc:
            make_backend(spec)
        assert str(exc.value) == message

    def test_null_fields_take_their_defaults(self):
        backend = make_backend({"kind": "corrupt", "p": None, "seed": None})
        assert (backend.p, backend.seed) == (0.0, 0)
        with pytest.raises(ValueError, match="needs a 'store'"):
            make_backend({"kind": "replay", "store": None})

    def test_unknown_fields_are_ignored(self):
        spec = {"kind": "live", "api_key": "k", "base_url": "http://127.0.0.1:1", "max_concurrency": 2}
        assert isinstance(make_backend(spec), LiveBackend)

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_backend({"kind": "quantum"})
