"""Answers an endpoint should never give: whatever bytes come back, a call
with one retry returns a completion whose text is not blank or raises a
``GatewayError``, and ends within two attempts' deadlines and one back-off.
A raw-socket server writes each answer from drawn pieces: a status line, a
header block, ``Content-Length`` or chunked framing, a cut point, bytes that
are not UTF-8, and JSON with huge integers, deep nesting, wrong types and
``NaN``. Derandomized, so every run draws the same examples."""

import json
import socket
import threading
import time

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from policyloop.gateway import ChatRequest, ChatResponse, GatewayConfig, GatewayError, HttpChatBackend

ANSWERS = settings(derandomize=True, database=None, deadline=None, max_examples=100)

TIMEOUT, BACKOFF = 0.05, 0.01
# for thread start-up and a loaded host; an attempt's own wait is its timeout
MARGIN = 1.0

STATUS_LINES = [
    b"HTTP/1.1 200 OK", b"HTTP/1.0 200 OK", b"HTTP/1.1 200", b"HTTP/1.1 201 Created",
    b"HTTP/1.1 204 No Content", b"HTTP/1.1 101 Switching Protocols", b"HTTP/1.1 400 Bad Request",
    b"HTTP/1.1 413 Payload Too Large", b"HTTP/1.1 503 Service Unavailable", b"HTTP/1.1 99 Low",
    b"HTTP/1.1 1000 High", b"HTTP/1.1 abc OK", b"HTTP/2 200", b"ICY 200 OK", b"", b"\xff\xfe 200",
]
HEADERS = [
    b"Content-Type: application/json", b"Connection: keep-alive", b"X-Junk: \xff\xfe\x00",
    b"no colon here", b" folded continuation", b"X-Long: " + b"a" * 70_000,
    b"".join(b"X-%d: y\r\n" % i for i in range(101)).rstrip(),
]

# placeholders json.dumps writes as strings, then swapped for raw JSON text
HUGE, DEEP = "<huge>", "<deep>"
VALUES = [None, True, 0, -1, 2.5, float("nan"), float("inf"), "", "  ", "x", [], {}, HUGE, DEEP]
CONTENTS = ["the plan", "  \n", "", "é ünïcode", "a\x00b", *VALUES]


def _json(value) -> bytes:
    text = json.dumps(value).replace(json.dumps(HUGE), "9" * 5000)
    return text.replace(json.dumps(DEEP), "[" * 100_000 + "]" * 100_000).encode("utf-8")


@st.composite
def bodies(draw):
    """A completion with drawn fields, one with a part of the wrong type,
    or raw bytes that are no completion at all."""
    kind = draw(st.sampled_from(["completion", "wrong-type", "raw"]))
    if kind == "raw":
        return draw(st.sampled_from([
            b"", b"not json", b"NaN", b"9" * 5000, b"[" * 100_000, b'{"choices": [',
            b'\xff\xfe{"choices": []}', _json({"choices": [{"message": {"content": "ok"}}]})[:-3],
        ]))
    message = {"role": "assistant", "content": draw(st.sampled_from(CONTENTS))}
    choice = {"message": message}
    if draw(st.booleans()):
        choice["finish_reason"] = draw(st.sampled_from(["stop", "length", None, 7]))
    data = {"choices": [choice]}
    if draw(st.booleans()):
        tokens = st.sampled_from([5, -1, "5", 1.5, float("nan"), HUGE])
        data["usage"] = draw(st.one_of(st.sampled_from(VALUES), st.fixed_dictionaries(
            {"prompt_tokens": tokens, "completion_tokens": tokens})))
    if kind == "wrong-type":
        where = draw(st.sampled_from(["root", "choices", "choice", "message"]))
        value = draw(st.sampled_from(VALUES))
        if where == "root":
            data = value
        elif where == "choices":
            data["choices"] = value
        elif where == "choice":
            data["choices"] = [value]
        else:
            choice["message"] = value
    body = _json(data)
    if draw(st.booleans()):  # not UTF-8
        at = draw(st.integers(0, len(body)))
        body = body[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + body[at:]
    return body


def _chunked(body: bytes, size: int, end: bytes) -> bytes:
    pieces = [body[i : i + size] for i in range(0, len(body), size)]
    return b"".join(b"%x\r\n%s\r\n" % (len(p), p) for p in pieces) + end


@st.composite
def answers(draw):
    """The bytes of one answer, and whether the server then holds the
    connection open instead of closing it."""
    body = draw(bodies())
    headers = draw(st.lists(st.sampled_from(HEADERS), max_size=2))
    framing = draw(st.sampled_from(["length", "length", "none", "chunked", "chunked"]))
    if framing == "length":
        declared = draw(st.sampled_from([b"%d" % len(body)] * 3 + [
            b"%d" % (len(body) + 5), b"%d" % max(len(body) - 1, 0), b"-5", b"abc", b"",
        ]))
        headers.append(b"Content-Length: " + declared)
    elif framing == "chunked":
        headers.append(b"Transfer-Encoding: chunked")
        end = draw(st.sampled_from([b"0\r\n\r\n", b"0\r\n\r\n", b"", b"zz\r\n", b"5\r\nab"]))
        body = _chunked(body, draw(st.sampled_from([1, 7, 4096, 1 << 20])), end)
    data = draw(st.sampled_from(STATUS_LINES)) + b"\r\n"
    data += b"".join(h + b"\r\n" for h in headers) + b"\r\n" + body
    # each in about one answer of four
    if draw(st.sampled_from([False, False, False, True])):
        data = data[: draw(st.integers(0, len(data)))]
    return data, draw(st.sampled_from([False, False, False, True]))


class _Endpoint:
    """Reads each request whole, then answers connection i with
    ``answers[i]`` (the last one from then on): its bytes, then a close, or
    a hold until the client hangs up."""

    def __init__(self, script):
        self.script = script
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(0.002)
        self.port = self.listener.getsockname()[1]
        self.stop = threading.Event()
        self.thread = threading.Thread(target=self._serve, daemon=True)

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc_info):
        self.stop.set()
        self.thread.join(timeout=5)
        self.listener.close()

    def _serve(self):
        served = 0
        while not self.stop.is_set():
            try:
                conn, _ = self.listener.accept()
            except TimeoutError:
                continue
            with conn:
                conn.settimeout(0.01)
                data, hold = self.script[min(served, len(self.script) - 1)]
                served += 1
                try:
                    self._read_request(conn)
                    conn.sendall(data)
                    while hold and not self.stop.is_set() and self._recv(conn) != b"":
                        pass
                except OSError:
                    pass  # the client hung up, or stopped reading

    def _recv(self, conn):
        """What the client sent next; None when nothing came in time."""
        try:
            return conn.recv(65536)
        except TimeoutError:
            return None

    def _read_request(self, conn):
        received = b""
        while not self.stop.is_set():
            head, ended, body = received.partition(b"\r\n\r\n")
            if ended and b"content-length: %d" % len(body) in head.lower():
                return
            chunk = self._recv(conn)
            if chunk == b"":
                return
            received += chunk or b""


REQUEST = ChatRequest(
    model_name="m", temperature=0.0, messages=[{"role": "user", "content": "hello"}], max_tokens=64
)


@ANSWERS
@given(st.lists(answers(), min_size=1, max_size=2))
def test_any_answer_is_a_completion_or_a_gateway_error_within_the_deadlines(script):
    with _Endpoint(script) as endpoint:
        config = GatewayConfig(
            base_url=f"http://127.0.0.1:{endpoint.port}", timeout=TIMEOUT, retries=1, backoff=BACKOFF
        )
        started = time.monotonic()
        try:
            response = HttpChatBackend(config).complete(REQUEST)
        except GatewayError:
            pass
        else:
            assert isinstance(response, ChatResponse) and response.text.strip()
        assert time.monotonic() - started < TIMEOUT * 2 + BACKOFF + MARGIN
