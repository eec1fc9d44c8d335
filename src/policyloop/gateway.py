"""Chat backends: an HTTP client for chat-completions-style endpoints (the
API dialect served by local model hosts) and a scripted backend for
deterministic tests.

Every prompt is sent as a self-contained exchange; the client holds no
conversation state. The HTTP client is the only retry layer: transport
failures, 5xx responses and empty or unusable completions retry with
exponential backoff up to ``retries`` times, so one call makes at most
``retries + 1`` attempts; 4xx responses never retry. Requests whose
estimated size exceeds the configured context budget fail fast with a
distinct error so callers can shrink their payload (e.g. use a smaller
sensory-motor window).
"""

from __future__ import annotations

import json
import math
import os
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, replace
from typing import Optional

TEMPERATURE_MAX = 3.2


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


@dataclass
class GatewayConfig:
    base_url: str = "http://localhost:11434"
    api_key: Optional[str] = None
    timeout: float = 120.0
    retries: int = 3
    backoff: float = 0.5
    context_budget: int = 32768

    ENV_PREFIX = "POLICYLOOP_"

    @classmethod
    def from_file(cls, path: str) -> "GatewayConfig":
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        return cls(**{k: v for k, v in data.items() if k in cls.__dataclass_fields__})

    def with_env_overrides(self) -> "GatewayConfig":
        """Environment variables beat file values (POLICYLOOP_BASE_URL etc.)."""
        mapping = {
            "BASE_URL": ("base_url", str),
            "API_KEY": ("api_key", str),
            "TIMEOUT": ("timeout", float),
            "RETRIES": ("retries", int),
            "CONTEXT_BUDGET": ("context_budget", int),
        }
        values = {}
        for env_name, (attr, cast) in mapping.items():
            raw = os.environ.get(self.ENV_PREFIX + env_name)
            if raw is not None:
                values[attr] = cast(raw)
        return replace(self, **values)

    @classmethod
    def load(cls, path: Optional[str] = None) -> "GatewayConfig":
        config = cls.from_file(path) if path else cls()
        return config.with_env_overrides()


def completions_url(base_url: str) -> str:
    base = base_url.rstrip("/")
    if base.endswith("/chat/completions"):
        return base
    if base.endswith("/v1"):
        return base + "/chat/completions"
    return base + "/v1/chat/completions"


_CONTEXT_HINTS = ("context length", "context_length", "maximum context", "too many tokens")


class HttpChatBackend:
    """Stateless client for an OpenAI-compatible /v1/chat/completions endpoint."""

    def __init__(self, config: Optional[GatewayConfig] = None, **overrides):
        self.config = replace(config or GatewayConfig(), **overrides)
        self.url = completions_url(self.config.base_url)

    def complete(self, request: ChatRequest) -> ChatResponse:
        if count_budget(request) > self.config.context_budget:
            raise ContextLengthError(
                f"estimated prompt size {count_budget(request)} tokens exceeds the "
                f"configured context budget of {self.config.context_budget}"
            )
        payload = json.dumps(request.to_wire()).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if self.config.api_key:
            headers["Authorization"] = f"Bearer {self.config.api_key}"

        last_error: Optional[Exception] = None
        for attempt in range(self.config.retries + 1):
            if attempt:
                time.sleep(self.config.backoff * 2 ** (attempt - 1))
            started = time.monotonic()
            try:
                req = urllib.request.Request(self.url, data=payload, headers=headers)
                with urllib.request.urlopen(req, timeout=self.config.timeout) as resp:
                    body = resp.read().decode("utf-8")
                return self._parse(body, time.monotonic() - started)
            except urllib.error.HTTPError as exc:
                body = exc.read().decode("utf-8", errors="replace")
                if 400 <= exc.code < 500:
                    lowered = body.lower()
                    if any(hint in lowered for hint in _CONTEXT_HINTS):
                        raise ContextLengthError(body[:500]) from None
                    raise BackendHTTPError(exc.code, body) from None
                last_error = BackendHTTPError(exc.code, body)
            except (urllib.error.URLError, TimeoutError, OSError, MalformedResponseError) as exc:
                last_error = exc
        if isinstance(last_error, MalformedResponseError):
            raise last_error
        raise TransportError(
            f"request failed after {self.config.retries + 1} attempts: {last_error}"
        )

    @staticmethod
    def _parse(body: str, latency: float) -> ChatResponse:
        try:
            data = json.loads(body)
            text = data["choices"][0]["message"]["content"]
        except (json.JSONDecodeError, KeyError, IndexError, TypeError):
            raise MalformedResponseError(
                f"endpoint returned an unusable body: {body[:200]}"
            ) from None
        if not isinstance(text, str) or not text.strip():
            raise MalformedResponseError("endpoint returned an empty completion")
        usage = data.get("usage") or {}
        return ChatResponse(
            text=text,
            prompt_tokens=int(usage.get("prompt_tokens", 0)),
            completion_tokens=int(usage.get("completion_tokens", 0)),
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
        return ChatResponse(text=text, completion_tokens=len(text) // 4)
