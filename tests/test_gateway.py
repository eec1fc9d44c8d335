"""Gateway behavior: scripted backend, budget heuristic, and the HTTP
client exercised against a local throwaway server."""

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from policyloop.gateway import (
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
from policyloop.loop import LoopConfig, RunStatus, run_replication


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
    ],
)
def test_completions_url(base, expected):
    assert completions_url(base) == expected


# -- HTTP client against a local server ------------------------------------------


class _Script(BaseHTTPRequestHandler):
    responses = []
    requests = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        _Script.requests.append(json.loads(self.rfile.read(length)))
        status, body = _Script.responses.pop(0)
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

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
    config = GatewayConfig(
        base_url=f"http://127.0.0.1:{server.server_port}",
        timeout=5.0,
        retries=2,
        backoff=0.0,
        **overrides,
    )
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
