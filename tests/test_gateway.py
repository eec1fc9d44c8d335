"""Gateway behavior: scripted backend, budget heuristic, and the HTTP
client exercised against a local throwaway server."""

import dataclasses
import http.client
import json
import os
import re
import shutil
import socket
import socketserver
import ssl
import subprocess
import sys
import threading
import time
import urllib.parse
from http.client import parse_headers
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

from policyloop.gateway import (
    RESPONSE_BYTES_MAX,
    BackendHTTPError,
    ChatRequest,
    ChatResponse,
    ContextLengthError,
    GatewayConfig,
    HttpChatBackend,
    MalformedResponseError,
    ScriptedBackend,
    ScriptExhaustedError,
    TransportError,
    TruncatedCompletionError,
    completions_url,
    count_budget,
)
from policyloop.loop import LoopConfig, RunStatus, run_batch, run_replication

SRC = Path(__file__).resolve().parents[1] / "src"


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
    # no token counts: the script has none to give
    assert backend.complete(_req()) == ChatResponse(text="r1")
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
    # json refuses an integer of over 4,300 digits with a ValueError
    "huge-integer": (200, _ok_body().replace('"prompt_tokens": 5', f'"prompt_tokens": {"9" * 5000}')),
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


@pytest.mark.parametrize(
    "base_url, address",
    [
        ("http://[::1]/v1", ("::1", 80)),
        ("https://[::1]/v1", ("::1", 443)),
        # given no port, http.client would read one off the end of the host
        ("http://[::ffff:127.0.0.1]/v1", ("::ffff:127.0.0.1", 80)),
    ],
)
def test_an_ipv6_host_without_a_port_is_dialled_at_the_scheme_default(
    monkeypatch, base_url, address
):
    dialled = []

    def refuse(address, *args):
        dialled.append(address)
        raise ConnectionRefusedError("nothing listens")

    monkeypatch.setattr(socket, "create_connection", refuse)
    with pytest.raises(TransportError, match="after 1 attempts: nothing listens"):
        HttpChatBackend(GatewayConfig(base_url=base_url, retries=0)).complete(_req())
    assert dialled == [address]


def test_proxy_variables_do_not_divert_a_call(local_server, redirecting_server):
    _, proxy = redirecting_server  # records each request and answers a completion
    # a fresh interpreter, so that the variable is set before the gateway is
    # imported, as it is when a shell exports it
    env = {name: value for name, value in os.environ.items() if name.lower() != "no_proxy"}
    env["http_proxy"] = f"http://127.0.0.1:{proxy.server_port}"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    call = (
        "from policyloop.gateway import ChatRequest, GatewayConfig, HttpChatBackend\n"
        f"config = GatewayConfig(base_url='http://127.0.0.1:{local_server.server_port}',"
        " api_key='sk-secret', retries=0)\n"
        "request = ChatRequest('m', 0.0, [{'role': 'user', 'content': 'hi'}])\n"
        "print(HttpChatBackend(config).complete(request).text)\n"
    )
    _Script.responses = [(200, _ok_body("straight from the endpoint"))]
    done = subprocess.run(
        [sys.executable, "-c", call], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.stdout.strip() == "straight from the endpoint", done.stderr
    assert proxy.seen == []


# -- answers that are no HTTP, from a raw socket ----------------------------------


class _RawServer(socketserver.TCPServer):
    """Reads each request whole, then writes ``answer`` as it is: one byte
    every ``gap_s`` seconds when that is set, then falls silent for
    ``stall_s`` seconds. ``BaseHTTPRequestHandler`` always writes a valid
    status line, so this server writes its own."""

    answer, gap_s, stall_s, requests = b"", 0.0, 0.0, 0

    @property
    def server_port(self):
        return self.server_address[1]


class _RawAnswer(socketserver.StreamRequestHandler):
    def handle(self):
        self.rfile.readline()  # the request line
        headers = parse_headers(self.rfile)
        self.rfile.read(int(headers["Content-Length"]))
        self.server.requests += 1
        try:
            if self.server.gap_s:
                for i in range(len(self.server.answer)):
                    self.wfile.write(self.server.answer[i : i + 1])
                    time.sleep(self.server.gap_s)
            else:
                self.wfile.write(self.server.answer)
        except (BrokenPipeError, ConnectionResetError):
            pass  # the client stopped reading
        time.sleep(self.server.stall_s)


@pytest.fixture
def raw_server():
    server = _RawServer(("127.0.0.1", 0), _RawAnswer)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=2)


_GARBLED = {
    "no-http": b"HELLO THERE\r\n\r\n",
    "101-headers": b"HTTP/1.1 200 OK\r\n" + b"".join(b"X-%d: y\r\n" % i for i in range(101)) + b"\r\n",
    "long-header": b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * 70_000 + b"\r\n\r\n",
}


@pytest.mark.parametrize("answer", _GARBLED.values(), ids=list(_GARBLED))
def test_a_garbled_status_line_or_header_block_is_a_retried_transport_error(raw_server, answer):
    raw_server.answer = answer
    with pytest.raises(TransportError, match="after 3 attempts"):
        _backend(raw_server).complete(_req())
    assert raw_server.requests == 3


def test_a_replication_records_a_garbled_answer_as_a_backend_abort(raw_server):
    raw_server.answer = _GARBLED["no-http"]
    config = LoopConfig.for_task("CartPoleStar2", epochs=2, eval_episodes=1)
    record = run_replication("CartPoleStar2", config, _backend(raw_server))
    assert record.status is RunStatus.ABORTED_BACKEND
    assert raw_server.requests == 3


def test_a_trickling_status_line_and_headers_end_at_the_deadline(raw_server):
    # each byte comes well within the socket timeout; the whole head takes 3.9 s
    header = b"X-Pad: " + b"p" * 51 + b"\r\n"
    assert len(header) == 60
    raw_server.answer, raw_server.gap_s = b"HTTP/1.1 200 OK\r\n" + header + b"\r\n", 0.05
    started = time.monotonic()
    with pytest.raises(TransportError, match="after 2 attempts.*deadline"):
        _backend(raw_server, timeout=0.5, retries=1).complete(_req())
    assert time.monotonic() - started < 4.0
    assert raw_server.requests == 2


def test_a_read_that_starts_before_the_deadline_ends_at_it(raw_server):
    # the status line takes 0.8 s, then the server falls silent: the read
    # that waits then ends at the deadline, not a whole timeout later (1.8 s)
    raw_server.answer, raw_server.gap_s, raw_server.stall_s = b"HTTP/1.1 200 OK\r\n", 0.05, 2.0
    started = time.monotonic()
    with pytest.raises(TransportError, match="deadline"):
        _backend(raw_server, timeout=1.0, retries=0).complete(_req())
    assert time.monotonic() - started < 1.4


# -- HTTPS ------------------------------------------------------------------------


@pytest.fixture(scope="session")
def certificate(tmp_path_factory):
    """A self-signed certificate for 127.0.0.1 and its key, made for this run."""
    if shutil.which("openssl") is None:
        if os.environ.get("CI"):
            pytest.fail("the HTTPS tests need openssl")
        pytest.skip("openssl is not installed")
    folder = tmp_path_factory.mktemp("tls")
    cert, key = folder / "cert.pem", folder / "key.pem"
    subprocess.run(
        ["openssl", "req", "-x509", "-newkey", "rsa:2048", "-nodes", "-days", "2",
         "-subj", "/CN=127.0.0.1", "-addext", "subjectAltName=IP:127.0.0.1",
         "-addext", "basicConstraints=critical,CA:TRUE",
         "-addext", "keyUsage=critical,keyCertSign,digitalSignature",
         "-keyout", str(key), "-out", str(cert)],
        check=True,
        capture_output=True,
    )
    return cert, key


@pytest.fixture
def tls_server(certificate, monkeypatch):
    """``_Script`` served over TLS, with the client trusting its certificate."""
    cert, key = certificate
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(cert, key)
    server = HTTPServer(("127.0.0.1", 0), _Script)
    server.socket = context.wrap_socket(server.socket, server_side=True)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _Script.responses = []
    _Script.requests = []
    monkeypatch.setenv("SSL_CERT_FILE", str(cert))
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=2)


def _tls_backend(server, **overrides):
    settings = {"timeout": 5.0, "retries": 2, "backoff": 0.0, **overrides}
    config = GatewayConfig(base_url=f"https://127.0.0.1:{server.server_port}", **settings)
    return HttpChatBackend(config)


def test_https_roundtrip(tls_server):
    _Script.responses = [(200, _ok_body("over tls"))]
    assert _tls_backend(tls_server).complete(_req()).text == "over tls"
    assert len(_Script.requests) == 1


def test_a_trickling_body_over_https_ends_at_the_deadline(tls_server):
    _Script.responses = [(200, _TRICKLING)] * 2
    started = time.monotonic()
    with pytest.raises(TransportError, match="after 2 attempts.*deadline"):
        _tls_backend(tls_server, timeout=0.5, retries=1).complete(_req())
    assert time.monotonic() - started < 4.0
    assert len(_Script.requests) == 2


def test_an_untrusted_certificate_is_refused_before_the_request(tls_server, monkeypatch):
    monkeypatch.delenv("SSL_CERT_FILE")
    # a client that skipped the check would get this completion
    _Script.responses = [(200, _ok_body())] * 3
    with pytest.raises(TransportError, match="CERTIFICATE_VERIFY_FAILED"):
        _tls_backend(tls_server).complete(_req())
    assert _Script.requests == []


# -- a completion cut at max_tokens -----------------------------------------------


_CUT = json.dumps(
    {
        "choices": [
            {
                "message": {"content": "", "reasoning_content": "First, the pole angle..."},
                "finish_reason": "length",
            }
        ]
    }
)


def test_an_empty_completion_cut_at_max_tokens_is_not_retried(local_server):
    _Script.responses = [(200, _CUT)] * 3
    with pytest.raises(TruncatedCompletionError, match="max_tokens of 128"):
        _backend(local_server, backoff=5.0).complete(_req())
    assert len(_Script.requests) == 1
    # an empty completion that says it stopped is still retried
    stopped = {"choices": [{"message": {"content": ""}, "finish_reason": "stop"}]}
    _Script.responses = [(200, json.dumps(stopped)), (200, _ok_body("second try"))]
    assert _backend(local_server).complete(_req()).text == "second try"
    assert len(_Script.requests) == 3


def test_a_batch_records_a_completion_cut_at_max_tokens_as_a_backend_abort(local_server, tmp_path):
    _Script.responses = [(200, _CUT)] * 4
    records = run_batch(
        tasks=["CartPoleStar2"],
        backend_factory=lambda task, model, temperature, rep: _backend(local_server),
        replications=1,
        temperatures=[0.0],
        out_dir=tmp_path,
        config_overrides={"epochs": 1},
    )
    assert [record.status for record in records] == [RunStatus.ABORTED_BACKEND]
    assert len(_Script.requests) == 1


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
        # what a connection cannot be opened to
        ("base_url", "localhost:11434", "base_url must be an http or https URL with a host"),
        ("base_url", "ftp://host/v1", "base_url must be an http or https URL with a host"),
        ("base_url", "http:///v1", "base_url must be an http or https URL with a host"),
        ("base_url", "http://host:port", "base_url must be an http or https URL with a host"),
        ("base_url", "http://[::1/v1", "base_url must be an http or https URL with a host"),
        # what urlsplit would delete or strip without a word
        *[
            ("base_url", url, "base_url must hold no tab, CR or LF and start with no control "
             f"character or space, got {url!r}")
            for url in (
                "http://127.0.0.1:9/v\t1",
                "http://127.0.0.1:9/v1\n",
                " http://127.0.0.1:9/v1",
                "\x01http://127.0.0.1:9",
            )
        ],
        # what http.client refuses to send: InvalidURL, or UnicodeEncodeError
        ("base_url", "http://a b:8000",
         "http.client cannot send to base_url 'http://a b:8000': "
         "URL can't contain control characters"),
        # UnicodeError from the Host header of a host IDNA cannot encode, in
        # words that differ between Python versions
        ("base_url", "http://\u00fc..b:8000",
         "http.client cannot send to base_url 'http://\u00fc..b:8000': "),
        ("base_url", "http://\u00fc" + "a" * 63 + ".example",
         "http.client cannot send to base_url 'http://\u00fc" + "a" * 63 + ".example': "),
        ("base_url", "http://127.0.0.1:9/x y",
         "http.client cannot send to base_url 'http://127.0.0.1:9/x y': "
         "URL can't contain control characters"),
        ("base_url", "http://127.0.0.1:9/x\x7f",
         "http.client cannot send to base_url 'http://127.0.0.1:9/x\\x7f': "
         "URL can't contain control characters"),
        ("base_url", "http://127.0.0.1:9/\u00fc",
         "http.client cannot send to base_url 'http://127.0.0.1:9/\u00fc': "
         "'ascii' codec can't encode character"),
        ("base_url", "http://127.0.0.1:9/v1?a=\u00fc",
         "http.client cannot send to base_url 'http://127.0.0.1:9/v1?a=\u00fc': "
         "'ascii' codec can't encode character"),
    ],
)
def test_gateway_config_refuses_unusable_values(field, value, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        GatewayConfig(**{field: value})


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
        GatewayConfig.load(str(path))


def test_a_checked_gateway_config_cannot_be_changed():
    config = GatewayConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.base_url = "http://a b:8000"
    # a changed copy is checked again
    with pytest.raises(ValueError, match="http.client cannot send to base_url"):
        dataclasses.replace(config, base_url="http://a b:8000")


def test_gateway_config_checks_the_merged_settings_once(monkeypatch, tmp_path):
    """A file value that a variable replaces is never checked."""
    path = tmp_path / "gw.json"
    path.write_text(json.dumps({"base_url": "localhost:11434", "timeout": 7}))
    monkeypatch.setenv("POLICYLOOP_BASE_URL", "http://env-host")
    assert GatewayConfig.load(str(path)) == GatewayConfig(base_url="http://env-host", timeout=7)


def test_gateway_config_accepts_the_edge_values():
    config = GatewayConfig(retries=0, backoff=0.0, timeout=0.01, context_budget=1)
    assert (config.retries, config.backoff, config.context_budget) == (0, 0.0, 1)


@pytest.mark.parametrize(
    "base_url, usable",
    [
        ("http://b\u00fccher.example:8000", True),
        ("http://a..b:8000", True),  # ASCII goes out as it is
        ("http://\u00fc..b:8000", False),
        ("http://\u00fc" + "a" * 63 + ".example", False),
    ],
)
def test_a_host_is_refused_exactly_when_http_client_cannot_encode_it(base_url, usable):
    url = urllib.parse.urlsplit(base_url)
    # putrequest builds the Host header without opening a connection
    conn = http.client.HTTPConnection(url.hostname, url.port)
    try:
        conn.putrequest("POST", "/v1/chat/completions")
        sent = True
    except UnicodeError:
        sent = False
    finally:
        conn.close()
    assert sent is usable
    if usable:
        GatewayConfig(base_url=base_url)
    else:
        with pytest.raises(ValueError, match="http.client cannot send to base_url"):
            GatewayConfig(base_url=base_url)


def test_gateway_config_accepts_the_largest_timeout_and_back_off():
    GatewayConfig(timeout=threading.TIMEOUT_MAX, backoff=threading.TIMEOUT_MAX, retries=1)
    GatewayConfig(backoff=threading.TIMEOUT_MAX / 2**33, retries=34)
    GatewayConfig(base_url="https://[::1]:8443/v1?api-version=2")
    # an IPv6 host without a port
    GatewayConfig(base_url="http://[::1]/v1")
    GatewayConfig(base_url="http://[::ffff:127.0.0.1]/v1")
    # http.client sends a host that is not ASCII IDNA-encoded
    GatewayConfig(base_url="http://b\u00fccher.invalid:8000/v1?a=%C3%BC")
    GatewayConfig(base_url="http://b\u00fccher.example:8000")
    # the bound is one the socket layer takes
    with socket.socket() as sock:
        sock.settimeout(threading.TIMEOUT_MAX)
