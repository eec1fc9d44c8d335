"""Chat backends: an HTTP client for chat-completions-style endpoints (the
API dialect served by local model hosts) and a scripted backend for
deterministic tests.

Every prompt is sent as a self-contained exchange; the client holds no
conversation state. The HTTP client is the only retry layer: transport
failures (a garbled status line or headers among them), 5xx responses and
empty or unusable completions (a body that is not UTF-8, nests too deep
for ``json``, holds an integer of over 4,300 digits, is cut short of its
Content-Length or is longer than ``RESPONSE_BYTES_MAX`` among them) retry
with exponential backoff up to ``retries`` times, so one call makes at most
``retries + 1`` attempts; 4xx responses and an empty completion cut at
``max_tokens`` never retry. Each attempt opens its own connection to the
host and port resolved once from ``base_url`` (no ``*_proxy`` variable is
read) and follows no redirect: a 3xx retries as a 5xx does. One deadline,
``timeout`` seconds after the attempt began, bounds its status line,
headers and body, so a slow server cannot hold a call open. Requests whose
estimated size exceeds the configured context budget fail fast with a
distinct error so callers can shrink their payload (e.g. use a smaller
sensory-motor window).

``GatewayConfig.load`` is the one way in from outside: a JSON file's
values, each POLICYLOOP_* variable that is set in place of its value.
``GatewayConfig`` checks every value, once, and refuses any that a call
could not use, such as a base URL ``http.client`` cannot send to.
"""

from __future__ import annotations

import http.client
import io
import json
import math
import os
import re
import threading
import time
import urllib.parse
from dataclasses import dataclass
from typing import Optional

TEMPERATURE_MAX = 3.2

# the most bytes of a response body that are read: far above any completion
# of a few thousand tokens; an error body is cut here, a longer success body
# is unusable
RESPONSE_BYTES_MAX = 8 * 1024 * 1024
# the most bytes one read of a body asks for
_CHUNK_BYTES = 64 * 1024

_TYPES = {
    "an int": int,
    "a number": (int, float),
    "a bool": bool,
    "a string": str,
    "a list": (list, tuple),
}


def require_type(kind: str, **values) -> None:
    """Raise TypeError naming the first of ``values`` that is not ``kind``,
    one of the keys of ``_TYPES``. A bool is not taken for an int or a
    number, though Python counts it as one, and a number that a float
    cannot hold is a ValueError."""
    for name, value in values.items():
        if not isinstance(value, _TYPES[kind]) or (isinstance(value, bool) and kind != "a bool"):
            raise TypeError(f"{name} must be {kind}, got {value!r}")
        if kind == "a number" and type(value) is int:
            try:
                float(value)
            except OverflowError:
                raise ValueError(f"{name} is too large for a float") from None


class GatewayError(Exception):
    """Base class for backend failures."""


class TransportError(GatewayError):
    """Network-level failure that persisted through all retries."""


class BackendHTTPError(GatewayError):
    def __init__(self, status: int, body: str):
        self.status = status
        self.body = body
        super().__init__(f"HTTP {status}: {body[:200]}")


class ContextLengthError(GatewayError):
    """The request does not fit the model's context window."""


class MalformedResponseError(GatewayError):
    """The endpoint answered but not with a usable completion."""


class TruncatedCompletionError(GatewayError):
    """The model spent the request's ``max_tokens`` before any content; a retry would too."""


class ScriptExhaustedError(GatewayError):
    """A scripted backend ran out of queued responses."""


@dataclass
class ChatRequest:
    model_name: str
    temperature: float
    messages: list[dict]  # {"role": "system"|"user"|"assistant", "content": str}
    max_tokens: int = 2048
    request_seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not any(m.get("role") == "user" for m in self.messages):
            raise ValueError("a chat request needs at least one user message")
        if not 0.0 <= self.temperature <= TEMPERATURE_MAX:
            raise ValueError(
                f"temperature {self.temperature} outside [0, {TEMPERATURE_MAX}]"
            )

    def to_wire(self) -> dict:
        body = {
            "model": self.model_name,
            "messages": self.messages,
            "temperature": self.temperature,
            "max_tokens": self.max_tokens,
            "stream": False,
        }
        if self.request_seed is not None:
            body["seed"] = self.request_seed
        return body


@dataclass
class ChatResponse:
    text: str
    prompt_tokens: int = 0
    completion_tokens: int = 0
    latency: float = 0.0


def count_budget(request: ChatRequest) -> int:
    """Conservative token upper bound for a request.

    Heuristic: one token per three characters of message content, rounded
    up, plus four tokens of per-message framing overhead. Monotone under
    concatenation by construction; an empty message list costs zero.
    """
    total = 0
    for message in request.messages:
        content = message.get("content", "")
        total += 4 + math.ceil(len(content) / 3)
    return total


# what urlsplit deletes (a tab, CR or LF anywhere) or strips (a C0 control or
# space at the start), so that the URL it reads is not the one given
_DROPPED_BY_URLSPLIT = re.compile(r"\A[\x00-\x20]|[\t\r\n]")

# each variable GatewayConfig.load reads: (the field it sets, its type)
_ENV_SETTINGS = {
    "POLICYLOOP_BASE_URL": ("base_url", str),
    "POLICYLOOP_API_KEY": ("api_key", str),
    "POLICYLOOP_TIMEOUT": ("timeout", float),
    "POLICYLOOP_RETRIES": ("retries", int),
    "POLICYLOOP_CONTEXT_BUDGET": ("context_budget", int),
}


# frozen, so the values __post_init__ checked are the values every call uses
@dataclass(frozen=True)
class GatewayConfig:
    base_url: str = "http://localhost:11434"
    api_key: Optional[str] = None
    timeout: float = 120.0
    retries: int = 3
    backoff: float = 0.5
    context_budget: int = 32768

    def __post_init__(self) -> None:
        require_type("a string", base_url=self.base_url)
        require_type("an int", retries=self.retries, context_budget=self.context_budget)
        require_type("a number", timeout=self.timeout, backoff=self.backoff)
        # written so that NaN fails each test too
        if not self.retries >= 0:
            raise ValueError(f"retries must be at least 0, got {self.retries}")
        if not self.backoff >= 0:
            raise ValueError(f"backoff must be at least 0, got {self.backoff}")
        if not self.timeout > 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        if not self.context_budget >= 1:
            raise ValueError(f"context_budget must be at least 1, got {self.context_budget}")
        # the most that socket.settimeout and time.sleep take
        if not self.timeout <= threading.TIMEOUT_MAX:
            raise ValueError(f"timeout must be at most {threading.TIMEOUT_MAX}, got {self.timeout}")
        if not math.isfinite(self.backoff):
            raise ValueError(f"backoff must be finite, got {self.backoff}")
        try:  # the float power of a huge retries overflows at once
            longest = self.backoff * 2.0 ** (self.retries - 1) if self.retries else 0.0
        except OverflowError:  # so would the sleep before attempt 1025
            longest = math.inf
        if not longest <= threading.TIMEOUT_MAX:
            raise ValueError(
                f"the longest back-off, backoff * 2 ** (retries - 1), must be at most "
                f"{threading.TIMEOUT_MAX}, got {longest} (backoff {self.backoff}, "
                f"retries {self.retries})"
            )
        if _DROPPED_BY_URLSPLIT.search(self.base_url):
            raise ValueError(
                "base_url must hold no tab, CR or LF and start with no control character "
                f"or space, got {self.base_url!r}"
            )
        try:
            url = urllib.parse.urlsplit(self.base_url)
            # reading the port refuses one that is no number in 0-65535, which
            # each attempt would raise past every retry; nothing listens on port 0
            usable = url.scheme in ("http", "https") and url.hostname and url.port != 0
        except ValueError:  # that port, or a bracketed host that is no IPv6 address
            usable = False
        if not usable:
            raise ValueError(
                f"base_url must be an http or https URL with a host, got {self.base_url!r}"
            )
        # what each attempt would raise past every retry, http.client refuses in a dry
        # request line and Host header (no socket; an HTTPSConnection loads the CA bundle)
        _, host, port, target = _endpoint(self.base_url)
        try:
            http.client.HTTPConnection(host, port).putrequest("POST", target)
        except (http.client.InvalidURL, UnicodeError) as exc:
            raise ValueError(
                f"http.client cannot send to base_url {self.base_url!r}: {exc}"
            ) from None

    @classmethod
    def load(cls, path: Optional[str] = None) -> "GatewayConfig":
        """The settings in the JSON object at ``path`` (when given) with each
        POLICYLOOP_* variable that is set in place of its value, checked once."""
        values = {}
        if path:
            with open(path, "r", encoding="utf-8") as fh:
                values = json.load(fh)
            if not isinstance(values, dict):
                raise TypeError(f"expected a JSON object, got {type(values).__name__}")
        for name, (field, cast) in _ENV_SETTINGS.items():
            raw = os.environ.get(name)
            if raw is not None:
                try:
                    values[field] = cast(raw)
                except ValueError:
                    raise ValueError(f"{name} must be {cast.__name__}, got {raw!r}") from None
        # an unknown key in the file is refused by __init__, with its name
        return cls(**values)


def completions_url(base_url: str) -> str:
    """``base_url`` with its path extended to end in /v1/chat/completions;
    a query string stays at the end."""
    url = urllib.parse.urlsplit(base_url)
    path = url.path.rstrip("/")
    if not path.endswith("/chat/completions"):
        path += "/chat/completions" if path.endswith("/v1") else "/v1/chat/completions"
    return urllib.parse.urlunsplit(url._replace(path=path))


def _endpoint(base_url: str) -> tuple[type, str, int, str]:
    """The connection class, host, port and request target of ``base_url``'s
    completions URL. The port is always given: given none, http.client reads
    one off the end of an IPv6 host."""
    url = urllib.parse.urlsplit(completions_url(base_url))
    connection = http.client.HTTPSConnection if url.scheme == "https" else http.client.HTTPConnection
    target = url.path + (f"?{url.query}" if url.query else "")
    return connection, url.hostname, url.port or connection.default_port, target


_CONTEXT_HINTS = ("context length", "context_length", "maximum context", "too many tokens")


def _token_count(value) -> int:
    """A token count from a completion's ``usage`` block; anything but an
    int of at least 0 reads as 0, so the completion is still used."""
    return value if type(value) is int and value >= 0 else 0


class _DeadlineSocket(io.RawIOBase):
    """A connection's socket as ``http.client.HTTPResponse`` reads it, which
    is only through ``makefile("rb")``: no read of the status line, headers
    or body waits past ``deadline``, a ``time.monotonic`` time."""

    def __init__(self, sock, deadline: float):
        self._sock, self._deadline = sock, deadline

    def makefile(self, mode):
        return io.BufferedReader(self)

    def readable(self):
        return True

    def readinto(self, buffer):
        try:
            left = self._deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError
            self._sock.settimeout(left)
            return self._sock.recv_into(buffer)
        except TimeoutError:
            raise TimeoutError("the attempt's deadline passed before its response had come") from None


def _read_capped(resp) -> tuple[bytes, bool]:
    """The first ``RESPONSE_BYTES_MAX`` + 1 bytes of a response body,
    whatever its status, and whether they came whole. A body cut short of
    its Content-Length or of a chunk keeps all that came."""
    chunks, size = [], 0
    try:
        while size <= RESPONSE_BYTES_MAX:
            chunk = resp.read1(min(RESPONSE_BYTES_MAX + 1 - size, _CHUNK_BYTES))
            if not chunk:
                break
            chunks.append(chunk)
            size += len(chunk)
    except http.client.IncompleteRead as short:  # a chunked body
        return b"".join(chunks) + short.partial, False
    # a read that met the closed connection leaves the declared bytes still
    # missing in ``length``
    return b"".join(chunks), not resp.length


class HttpChatBackend:
    """Stateless client for an OpenAI-compatible /v1/chat/completions endpoint."""

    def __init__(self, config: Optional[GatewayConfig] = None):
        self.config = config or GatewayConfig()
        self._connection, self._host, self._port, self._target = _endpoint(self.config.base_url)

    def complete(self, request: ChatRequest) -> ChatResponse:
        if count_budget(request) > self.config.context_budget:
            raise ContextLengthError(
                f"estimated prompt size {count_budget(request)} tokens exceeds the "
                f"configured context budget of {self.config.context_budget}"
            )
        payload = json.dumps(request.to_wire()).encode("utf-8")
        headers = {"Content-Type": "application/json", "Connection": "close"}
        if self.config.api_key:
            headers["Authorization"] = f"Bearer {self.config.api_key}"

        last_error: Optional[Exception] = None
        for attempt in range(self.config.retries + 1):
            if attempt:
                time.sleep(self.config.backoff * 2 ** (attempt - 1))
            started = time.monotonic()
            # an HTTPSConnection's default context verifies the certificate and the host name
            conn = self._connection(self._host, self._port, timeout=self.config.timeout)
            try:
                conn.request("POST", self._target, payload, headers)
                sock = _DeadlineSocket(conn.sock, started + self.config.timeout)
                with http.client.HTTPResponse(sock, method="POST") as resp:
                    resp.begin()
                    raw, whole = _read_capped(resp)
                if 200 <= resp.status < 300:
                    if len(raw) > RESPONSE_BYTES_MAX:
                        problem = f"over {RESPONSE_BYTES_MAX} bytes"
                    elif not whole:
                        problem = f"cut short after {len(raw)} bytes"
                    else:
                        try:
                            body = raw.decode("utf-8")
                            return self._parse(body, time.monotonic() - started, request.max_tokens)
                        except UnicodeDecodeError as exc:
                            problem = str(exc)
                    raise MalformedResponseError(f"endpoint returned an unreadable body: {problem}")
            except (OSError, http.client.HTTPException, MalformedResponseError) as exc:
                last_error = exc
                continue
            finally:
                conn.close()
            # a body cut short is what came: the status still decides
            body = raw[:RESPONSE_BYTES_MAX].decode("utf-8", errors="replace")
            if 400 <= resp.status < 500:
                if any(hint in body.lower() for hint in _CONTEXT_HINTS):
                    raise ContextLengthError(body[:500])
                raise BackendHTTPError(resp.status, body)
            last_error = BackendHTTPError(resp.status, body)
        if isinstance(last_error, MalformedResponseError):
            raise last_error
        raise TransportError(
            f"request failed after {self.config.retries + 1} attempts: {last_error}"
        )

    @staticmethod
    def _parse(body: str, latency: float, max_tokens: int) -> ChatResponse:
        try:
            data = json.loads(body)
            text = data["choices"][0]["message"]["content"]
        except (ValueError, RecursionError, KeyError, IndexError, TypeError):
            raise MalformedResponseError(
                f"endpoint returned an unusable body: {body[:200]}"
            ) from None
        if not isinstance(text, str) or not text.strip():
            if data["choices"][0].get("finish_reason") == "length":
                raise TruncatedCompletionError(
                    f"the model reached the request's max_tokens of {max_tokens} before any content"
                )
            raise MalformedResponseError("endpoint returned an empty completion")
        usage = data.get("usage")
        usage = usage if isinstance(usage, dict) else {}
        return ChatResponse(
            text=text,
            prompt_tokens=_token_count(usage.get("prompt_tokens")),
            completion_tokens=_token_count(usage.get("completion_tokens")),
            latency=latency,
        )


class ScriptedBackend:
    """Replays a fixed queue of response texts; records every request.

    Identical scripts make every run that consumes them bit-reproducible,
    which is how end-to-end tests and record replay stay deterministic.
    """

    def __init__(self, responses: list[str]):
        self._responses = list(responses)
        self._cursor = 0
        self.requests: list[ChatRequest] = []

    @property
    def remaining(self) -> int:
        return len(self._responses) - self._cursor

    def complete(self, request: ChatRequest) -> ChatResponse:
        self.requests.append(request)
        if self._cursor >= len(self._responses):
            raise ScriptExhaustedError(
                f"scripted backend exhausted after {self._cursor} responses"
            )
        text = self._responses[self._cursor]
        self._cursor += 1
        return ChatResponse(text=text)
