"""Gateway behavior: scripted backend, budget heuristic, and the HTTP
client exercised against a local throwaway server."""

import json
import re
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from policyloop.gateway import (
    RESPONSE_BYTES_MAX,
    BackendHTTPError,
    ChatRequest,
    ContextLengthError,
    GatewayConfig,
    HttpChatBackend,
    MalformedResponseError,
    ScriptedBackend,
    ScriptExhaustedError,
    TransportError,
    completions_url,
    count_budget,
)
from policyloop.loop import LoopConfig, RunStatus, run_batch, run_replication


def _req(text="hello", temperature=0.0, seed=None):
    return ChatRequest(
        model_name="m",
        temperature=temperature,
        messages=[{"role": "user", "content": text}],
        max_tokens=128,
        request_seed=seed,
    )


# -- request validation ------------------------------------------------------


def test_request_requires_user_message():
    with pytest.raises(ValueError, match="user message"):
        ChatRequest(model_name="m", temperature=0.0, messages=[{"role": "system", "content": "x"}])


def test_request_rejects_out_of_range_temperature():
    with pytest.raises(ValueError, match="temperature"):
        _req(temperature=3.3)
    _req(temperature=3.2)  # sweep upper bound is allowed


def test_request_seed_rides_the_wire_body():
    wire = _req(seed=17).to_wire()
    assert wire["seed"] == 17
    assert "seed" not in _req().to_wire()


# -- scripted backend ---------------------------------------------------------


def test_scripted_backend_plays_in_order_then_errors():
    backend = ScriptedBackend(["r1", "r2"])
    assert backend.complete(_req()).text == "r1"
    assert backend.complete(_req()).text == "r2"
    with pytest.raises(ScriptExhaustedError):
        backend.complete(_req())
    assert len(backend.requests) == 3


def test_scripted_backend_is_deterministic_on_replay():
    script = ["a", "b", "c"]
    first = [ScriptedBackend(script).complete(_req(str(i))).text for i in range(3)]
    second = [ScriptedBackend(script).complete(_req(str(i))).text for i in range(3)]
    assert first == second


# -- budget heuristic ----------------------------------------------------------


def test_budget_of_empty_message_list_is_zero():
    request = _req()
    request.messages = []
    assert count_budget(request) == 0


def test_budget_concatenation_monotonicity():
    a = _req("x" * 100)
    ab = _req("x" * 100)
    ab.messages = a.messages + [{"role": "user", "content": "y" * 40}]
    assert count_budget(ab) >= count_budget(a)
    # growing one message's content never shrinks the estimate
    assert count_budget(_req("x" * 141)) >= count_budget(_req("x" * 140))


def test_budget_is_stable_for_fixture_prompt():
    from conftest import fixture_text

    prompt = fixture_text("p1_cartpole_star2.txt")
    budget = count_budget(_req(prompt))
    assert budget == count_budget(_req(prompt))
    # pinned regression: the 1140-char strategy prompt estimates at 384 tokens
    assert budget == 384


# -- URL handling ---------------------------------------------------------------


@pytest.mark.parametrize(
    "base,expected",
    [
        ("http://host:8000", "http://host:8000/v1/chat/completions"),
        ("http://host:8000/", "http://host:8000/v1/chat/completions"),
        ("http://host:8000/v1", "http://host:8000/v1/chat/completions"),
        ("http://host:8000/v1/chat/completions", "http://host:8000/v1/chat/completions"),
        # a query string stays at the end
        ("http://host:8000?api-version=2", "http://host:8000/v1/chat/completions?api-version=2"),
        ("http://host:8000/v1?api-version=2", "http://host:8000/v1/chat/completions?api-version=2"),
        (
            "https://host/openai/chat/completions?api-version=2",
            "https://host/openai/chat/completions?api-version=2",
        ),
    ],
)
def test_completions_url(base, expected):
    assert completions_url(base) == expected


# -- HTTP client against a local server ------------------------------------------


class _Trickle(str):
    """A body that ``_Script`` sends one byte every ``gap_s`` seconds."""

    gap_s = 0.02


class _Stall(_Trickle):
    """A trickle slower than any socket timeout the tests set."""

    gap_s = 0.5


class _CutChunk(str):
    """A body that ``_Script`` sends chunked, as one chunk 10 bytes short of
    its declared size."""


class _Script(BaseHTTPRequestHandler):
    """Answers each POST with the next of ``responses``: (status, body), the
    body a str, raw bytes, a ``_Trickle`` or a ``_CutChunk``, or (status,
    body, declared length) for a body shorter than the Content-Length it is
    sent with."""

    responses = []
    requests = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        _Script.requests.append(json.loads(self.rfile.read(length)))
        status, body, *declared = _Script.responses.pop(0)
        payload = body if isinstance(body, bytes) else body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        if isinstance(body, _CutChunk):
            self.send_header("Transfer-Encoding", "chunked")
            payload = b"%x\r\n" % (len(payload) + 10) + payload
        else:
            self.send_header("Content-Length", str(declared[0] if declared else len(payload)))
        self.end_headers()
        try:
            if isinstance(body, _Trickle):
                for i in range(len(payload)):
                    self.wfile.write(payload[i : i + 1])
                    time.sleep(body.gap_s)
            else:
                self.wfile.write(payload)
        except (BrokenPipeError, ConnectionResetError):
            pass  # the client stopped reading

    def log_message(self, *args):
        pass


@pytest.fixture
def local_server():
    server = HTTPServer(("127.0.0.1", 0), _Script)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _Script.responses = []
    _Script.requests = []
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=2)


def _backend(server, **overrides):
    settings = {"timeout": 5.0, "retries": 2, "backoff": 0.0, **overrides}
    config = GatewayConfig(base_url=f"http://127.0.0.1:{server.server_port}", **settings)
    return HttpChatBackend(config)


def _ok_body(text="fine"):
    return json.dumps(
        {
            "choices": [{"message": {"role": "assistant", "content": text}}],
            "usage": {"prompt_tokens": 5, "completion_tokens": 2},
        }
    )


def test_http_roundtrip(local_server):
    _Script.responses = [(200, _ok_body("the plan"))]
    response = _backend(local_server).complete(_req("hi", seed=9))
    assert response.text == "the plan"
    assert response.prompt_tokens == 5
    assert _Script.requests[0]["model"] == "m"
    assert _Script.requests[0]["seed"] == 9
    assert _Script.requests[0]["messages"][0]["content"] == "hi"


def test_http_retries_5xx_then_succeeds(local_server):
    _Script.responses = [(500, "boom"), (503, "busy"), (200, _ok_body())]
    response = _backend(local_server).complete(_req())
    assert response.text == "fine"
    assert len(_Script.requests) == 3


def test_http_gives_up_after_retry_budget(local_server):
    _Script.responses = [(500, "boom")] * 3
    with pytest.raises(TransportError, match="after 3 attempts"):
        _backend(local_server).complete(_req())
    assert len(_Script.requests) == 3


def test_http_4xx_never_retries(local_server):
    _Script.responses = [(401, json.dumps({"error": "bad key"}))]
    with pytest.raises(BackendHTTPError) as info:
        _backend(local_server).complete(_req())
    assert info.value.status == 401
    assert len(_Script.requests) == 1


def test_http_context_length_rejection_is_distinct(local_server):
    _Script.responses = [
        (400, json.dumps({"error": {"message": "this model's maximum context length is 4096"}}))
    ]
    with pytest.raises(ContextLengthError):
        _backend(local_server).complete(_req())


def test_oversized_request_fails_before_the_wire(local_server):
    # a 30-turn conversation of reflection-sized payloads blows the budget
    from conftest import fixture_text

    payload = fixture_text("p3_iter0_cartpole_star2.txt")
    big = _req(payload)
    for _ in range(29):
        big.messages.append({"role": "user", "content": payload})
    backend = _backend(local_server, context_budget=8192)
    assert count_budget(big) > 8192
    with pytest.raises(ContextLengthError, match="context budget"):
        backend.complete(big)
    assert _Script.requests == []  # never sent


_EMPTY = json.dumps({"choices": [{"message": {"content": "  "}}]})


def test_malformed_body_is_flagged(local_server):
    # retries=2: every one of the three attempts gets a bad body
    _Script.responses = [(200, "not json at all")] * 3
    with pytest.raises(MalformedResponseError, match="unusable body"):
        _backend(local_server).complete(_req())
    assert len(_Script.requests) == 3


_HOSTILE_BODIES = {
    "invalid-utf8": (200, _ok_body().encode("utf-8").replace(b"fine", b"f\xffne")),
    "deep-nesting": (200, "[" * 100_000),
    "short-body": (200, _ok_body(), len(_ok_body()) + 10),
    "short-chunk": (200, _CutChunk(_ok_body())),
    # a usable completion, but for its leading spaces one byte over the cap
    "oversized": (200, _ok_body().rjust(RESPONSE_BYTES_MAX + 1)),
}


@pytest.mark.parametrize("response", _HOSTILE_BODIES.values(), ids=list(_HOSTILE_BODIES))
def test_a_hostile_body_is_a_retried_malformed_response(local_server, response):
    _Script.responses = [response] * 3
    with pytest.raises(MalformedResponseError, match="unreadable body|unusable body"):
        _backend(local_server).complete(_req())
    assert len(_Script.requests) == 3
    # and a usable answer after one is taken
    _Script.responses = [response, (200, _ok_body("second try"))]
    assert _backend(local_server).complete(_req()).text == "second try"


def test_an_error_body_cut_short_is_still_its_status(local_server):
    _Script.responses = [(503, "busy", 100), (200, _ok_body("second try"))]
    assert _backend(local_server).complete(_req()).text == "second try"
    assert len(_Script.requests) == 2
    _Script.responses = [(401, "bad key", 100)]
    with pytest.raises(BackendHTTPError) as info:
        _backend(local_server).complete(_req())
    assert (info.value.status, info.value.body) == (401, "bad key")
    assert len(_Script.requests) == 3


# a usable completion that takes 8 s to arrive, against a 0.5 s timeout
_TRICKLING = _Trickle(_ok_body().rjust(400))


@pytest.mark.parametrize("status", [200, 503, 401], ids=["success", "5xx", "4xx"])
def test_a_trickling_body_is_a_retried_transport_error(local_server, status):
    # each byte comes well within the socket timeout, so only a deadline on
    # the whole attempt stops it; the status of an error body then cannot decide
    _Script.responses = [(status, _TRICKLING)] * 2
    started = time.monotonic()
    with pytest.raises(TransportError, match="after 2 attempts.*deadline"):
        _backend(local_server, timeout=0.5, retries=1).complete(_req())
    assert time.monotonic() - started < 4.0
    assert len(_Script.requests) == 2


def test_an_error_body_that_stalls_is_a_retried_transport_error(local_server):
    # the socket timeout ends the read of the error body
    _Script.responses = [(503, _Stall("busy"))] * 2
    with pytest.raises(TransportError, match="after 2 attempts"):
        _backend(local_server, timeout=0.2, retries=1).complete(_req())


def test_a_batch_records_a_trickling_endpoint_and_runs_the_next_cell(local_server, tmp_path):
    from conftest import scripted_session

    _Script.responses = [(200, _TRICKLING)] * 2
    trickling = _backend(local_server, timeout=0.5, retries=1)
    started = time.monotonic()
    records = run_batch(
        tasks=["CartPoleStar2"],
        backend_factory=lambda task, model, temperature, rep: (
            trickling if rep == 0 else ScriptedBackend(scripted_session()[:3])
        ),
        replications=2,
        temperatures=[0.0],
        out_dir=tmp_path,
        config_overrides={"epochs": 1},
    )
    assert time.monotonic() - started < 4.0
    assert [record.status for record in records] == [
        RunStatus.ABORTED_BACKEND,
        RunStatus.COMPLETED,
    ]
    assert len(_Script.requests) == 2


def test_a_chunked_error_body_cut_short_keeps_all_that_came(local_server):
    _Script.responses = [(503, _CutChunk("busy")), (200, _ok_body("second try"))]
    assert _backend(local_server).complete(_req()).text == "second try"
    _Script.responses = [(401, _CutChunk("bad key"))]
    with pytest.raises(BackendHTTPError) as info:
        _backend(local_server).complete(_req())
    assert (info.value.status, info.value.body) == (401, "bad key")
    assert len(_Script.requests) == 3


def test_empty_completion_is_flagged(local_server):
    _Script.responses = [(200, _EMPTY)] * 3
    with pytest.raises(MalformedResponseError, match="empty"):
        _backend(local_server).complete(_req())
    assert len(_Script.requests) == 3


def test_empty_completion_is_retried(local_server):
    _Script.responses = [(200, _EMPTY), (200, _ok_body("second try"))]
    assert _backend(local_server).complete(_req()).text == "second try"
    assert len(_Script.requests) == 2


@pytest.mark.parametrize(
    "status,sent", [(500, 3), (401, 1)], ids=["5xx-retried", "4xx-sent-once"]
)
def test_failing_stage_makes_at_most_retries_plus_one_requests(local_server, status, sent):
    """The gateway is the only retry layer: the loop adds no attempts of its own."""
    _Script.responses = [(status, json.dumps({"error": "no"}))] * 10
    config = LoopConfig.for_task("CartPoleStar2", epochs=2, eval_episodes=1)
    record = run_replication("CartPoleStar2", config, _backend(local_server))
    assert record.status is RunStatus.ABORTED_BACKEND
    assert len(_Script.requests) == sent


@pytest.mark.parametrize(
    "usage",
    [{"prompt_tokens": None}, [1], {"completion_tokens": "n/a"},
     {"prompt_tokens": True, "completion_tokens": -3}],
    ids=["null-count", "not-an-object", "text-count", "bool-and-negative"],
)
def test_a_usable_completion_survives_its_usage_block(local_server, usage):
    body = {"choices": [{"message": {"content": "the plan"}}], "usage": usage}
    _Script.responses = [(200, json.dumps(body))]
    response = _backend(local_server).complete(_req())
    assert response.text == "the plan"
    assert (response.prompt_tokens, response.completion_tokens) == (0, 0)
    assert len(_Script.requests) == 1


class _Redirecting(BaseHTTPRequestHandler):
    """Records each request in its server's ``seen``, then answers it with
    the server's ``status`` and a completion, or with a redirect to the
    server's ``location`` when it has one."""

    def _answer(self):
        self.server.seen.append((self.command, self.path, self.headers.get("Authorization")))
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        body = b"" if self.server.location else _ok_body("from the redirect").encode("utf-8")
        self.send_response(self.server.status)
        if self.server.location:
            self.send_header("Location", self.server.location)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    do_GET = do_POST = _answer

    def log_message(self, *args):
        pass


@pytest.fixture
def redirecting_server():
    """A server that redirects every call, and the server it redirects to."""
    servers = [HTTPServer(("127.0.0.1", 0), _Redirecting) for _ in range(2)]
    threads = [threading.Thread(target=s.serve_forever, daemon=True) for s in servers]
    for thread in threads:
        thread.start()
    redirecting, recording = servers
    recording.seen, recording.location, recording.status = [], None, 200
    redirecting.seen = []
    redirecting.location = f"http://127.0.0.1:{recording.server_port}/steal"
    yield redirecting, recording
    for server, thread in zip(servers, threads):
        server.shutdown()
        server.server_close()
        thread.join(timeout=2)


@pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
def test_a_redirect_is_a_retried_answer_never_followed(redirecting_server, status):
    redirecting, recording = redirecting_server
    redirecting.status = status
    backend = _backend(redirecting, api_key="sk-secret")
    with pytest.raises(TransportError, match=f"after 3 attempts: HTTP {status}"):
        backend.complete(_req())
    assert [method for method, _, _ in redirecting.seen] == ["POST"] * 3
    assert recording.seen == []


def test_transport_error_when_nothing_listens():
    config = GatewayConfig(base_url="http://127.0.0.1:9", timeout=0.5, retries=1, backoff=0.0)
    with pytest.raises(TransportError):
        HttpChatBackend(config).complete(_req())


# -- config ---------------------------------------------------------------------


def test_gateway_config_env_overrides(monkeypatch, tmp_path):
    path = tmp_path / "gw.json"
    path.write_text(json.dumps({"base_url": "http://file-host", "timeout": 7}))
    monkeypatch.setenv("POLICYLOOP_BASE_URL", "http://env-host")
    monkeypatch.setenv("POLICYLOOP_RETRIES", "5")
    config = GatewayConfig.load(str(path))
    assert config.base_url == "http://env-host"
    assert config.timeout == 7
    assert config.retries == 5


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("retries", -1, "retries must be at least 0, got -1"),
        ("backoff", -0.5, "backoff must be at least 0, got -0.5"),
        ("backoff", float("nan"), "backoff must be at least 0, got nan"),
        ("timeout", 0.0, "timeout must be positive, got 0.0"),
        ("timeout", -1.0, "timeout must be positive, got -1.0"),
        ("context_budget", 0, "context_budget must be at least 1, got 0"),
        # what socket.settimeout and time.sleep cannot take
        ("timeout", float("inf"), f"timeout must be at most {threading.TIMEOUT_MAX}, got inf"),
        ("timeout", 1e10, f"timeout must be at most {threading.TIMEOUT_MAX}, got 10000000000.0"),
        ("backoff", float("inf"), "backoff must be finite, got inf"),
        ("backoff", 1e300, "the longest back-off, backoff * 2 ** (retries - 1), must be at most"),
        # 0.5 * 2 ** 35 seconds; and 2.0 ** 1999 overflows a float
        ("retries", 36, f"at most {threading.TIMEOUT_MAX}, got 17179869184.0"),
        ("retries", 2000, f"at most {threading.TIMEOUT_MAX}, got inf"),
        # what urlopen cannot send to
        ("base_url", "localhost:11434", "base_url must be an http or https URL with a host"),
        ("base_url", "ftp://host/v1", "base_url must be an http or https URL with a host"),
        ("base_url", "http:///v1", "base_url must be an http or https URL with a host"),
        ("base_url", "http://host:port", "base_url must be an http or https URL with a host"),
        ("base_url", "http://[::1/v1", "base_url must be an http or https URL with a host"),
    ],
)
def test_gateway_config_refuses_unusable_values(field, value, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        GatewayConfig(**{field: value})
    # every other way of building a config goes through the same check
    with pytest.raises(ValueError, match=re.escape(message)):
        HttpChatBackend(**{field: value})


@pytest.mark.parametrize(
    "env_name, raw, field",
    [
        ("RETRIES", "-1", "retries"),
        ("TIMEOUT", "0", "timeout"),
        ("CONTEXT_BUDGET", "0", "context_budget"),
    ],
)
def test_gateway_config_refuses_unusable_environment_values(monkeypatch, env_name, raw, field):
    monkeypatch.setenv("POLICYLOOP_" + env_name, raw)
    with pytest.raises(ValueError, match=field):
        GatewayConfig.load()


def test_gateway_config_refuses_unusable_file_values(tmp_path):
    path = tmp_path / "gw.json"
    path.write_text(json.dumps({"backoff": -1}))
    with pytest.raises(ValueError, match="backoff must be at least 0"):
        GatewayConfig.from_file(str(path))


def test_gateway_config_accepts_the_edge_values():
    config = GatewayConfig(retries=0, backoff=0.0, timeout=0.01, context_budget=1)
    assert (config.retries, config.backoff, config.context_budget) == (0, 0.0, 1)


def test_gateway_config_accepts_the_largest_timeout_and_back_off():
    GatewayConfig(timeout=threading.TIMEOUT_MAX, backoff=threading.TIMEOUT_MAX, retries=1)
    GatewayConfig(backoff=threading.TIMEOUT_MAX / 2**33, retries=34)
    GatewayConfig(base_url="https://[::1]:8443/v1?api-version=2")
    # the bound is one the socket layer takes
    with socket.socket() as sock:
        sock.settimeout(threading.TIMEOUT_MAX)
