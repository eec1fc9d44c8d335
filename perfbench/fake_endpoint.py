"""An OpenAI-compatible ``/v1/chat/completions`` endpoint on localhost.

It stands in for the model host in the ``live-http`` workload. Each batch
cell has its own queue of responses, selected through the path of the cell's
``base_url`` (``/cell/<cell>/v1``). The server answers every request after a
fixed latency. On the first attempt at a call, a seeded share of requests get
a transient 503 and a smaller share an empty completion. Either one leaves
the queue where it was, so the client's retry gets the response that was due.
The schedule is a pure function of (seed, cell, call index, attempt).

Requests from one replication are sequential, so a plain single-threaded
``HTTPServer`` on one background thread is enough. The server counts the
attempts it served and the time it spent handling them, so the client's own
share of a call (JSON, HTTP, retry back-off) can be separated from the
stand-in model's.
"""

from __future__ import annotations

import hashlib
import json
import socketserver
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Mapping, Sequence

_PREFIX = "/cell/"
_SUFFIX = "/v1/chat/completions"


class _Server(HTTPServer):
    def server_bind(self) -> None:
        # HTTPServer would look its own address up by name; no lookup is needed.
        socketserver.TCPServer.server_bind(self)
        self.server_name, self.server_port = self.server_address[:2]


def _draw(seed: int, cell: str, call: int, attempt: int) -> float:
    digest = hashlib.sha256(f"{seed}/{cell}/{call}/{attempt}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


class FakeChatServer:
    """Serves scripted completions per cell; use as a context manager."""

    def __init__(
        self,
        sessions: Mapping[str, Sequence[str]],
        seed: int,
        latency_s: float,
        share_503: float,
        share_empty: float,
    ):
        self.sessions = {cell: list(responses) for cell, responses in sessions.items()}
        self.seed = seed
        self.latency_s = latency_s
        self.share_503 = share_503
        self.share_empty = share_empty
        self._lock = threading.Lock()
        self._cursor = {cell: 0 for cell in self.sessions}
        self._tries = {cell: 0 for cell in self.sessions}
        self.attempts = 0
        self.handling_s = 0.0
        self._httpd: _Server | None = None
        self._thread: threading.Thread | None = None

    # -- lifetime --------------------------------------------------------------

    def start(self) -> "FakeChatServer":
        handler = type("Handler", (_Handler,), {"fake": self})
        self._httpd = _Server(("127.0.0.1", 0), handler)
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._thread.start()
        return self

    def close(self) -> None:
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=10)
        if self._thread.is_alive():
            raise RuntimeError("fake endpoint thread did not stop")
        self._httpd = None

    def __enter__(self) -> "FakeChatServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    def base_url(self, cell: str) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}{_PREFIX}{cell}/v1"

    # -- state -----------------------------------------------------------------

    def outcome(self, cell: str, call: int, attempt: int) -> str:
        """``"503"``, ``"empty"`` or ``"ok"`` for one attempt at one call."""
        if attempt > 0:
            return "ok"
        u = _draw(self.seed, cell, call, attempt)
        if u < self.share_503:
            return "503"
        if u < self.share_503 + self.share_empty:
            return "empty"
        return "ok"

    def served(self, cell: str) -> int:
        """Responses of ``cell`` delivered so far."""
        with self._lock:
            return self._cursor[cell]

    def stats(self) -> tuple[int, float]:
        """(attempts served, seconds spent handling them)."""
        with self._lock:
            return self.attempts, self.handling_s

    def _answer(self, cell: str) -> tuple[int, dict]:
        with self._lock:
            if cell not in self._cursor:
                return 404, {"error": {"message": f"unknown cell {cell!r}"}}
            call = self._cursor[cell]
            if call >= len(self.sessions[cell]):
                return 404, {"error": {"message": f"cell {cell!r} has no responses left"}}
            attempt = self._tries[cell]
            kind = self.outcome(cell, call, attempt)
            if kind == "ok":
                self._cursor[cell] = call + 1
                self._tries[cell] = 0
            else:
                self._tries[cell] = attempt + 1
        if kind == "503":
            return 503, {"error": {"message": "model host overloaded, retry later"}}
        text = self.sessions[cell][call] if kind == "ok" else ""
        return 200, {
            "id": f"{cell}-{call}-{attempt}",
            "object": "chat.completion",
            "choices": [
                {"index": 0, "message": {"role": "assistant", "content": text}, "finish_reason": "stop"}
            ],
            "usage": {"prompt_tokens": 0, "completion_tokens": len(text) // 4},
        }

    def _record(self, started: float) -> None:
        with self._lock:
            self.attempts += 1
            self.handling_s += time.perf_counter() - started


class _Handler(BaseHTTPRequestHandler):
    fake: FakeChatServer

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        started = time.perf_counter()
        try:
            body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            request = json.loads(body)
            if self.path.startswith(_PREFIX) and self.path.endswith(_SUFFIX):
                cell = self.path[len(_PREFIX) : -len(_SUFFIX)]
            else:
                cell = ""
            if not request.get("messages"):
                status, payload = 400, {"error": {"message": "request has no messages"}}
            else:
                status, payload = self.fake._answer(cell)
            time.sleep(self.fake.latency_s)
            data = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)
            self.wfile.flush()
        finally:
            self.fake._record(started)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass
