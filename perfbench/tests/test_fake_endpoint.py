import pytest

from perfbench.fake_endpoint import FakeChatServer
from policyloop.gateway import BackendHTTPError, ChatRequest, GatewayConfig, HttpChatBackend, MalformedResponseError


def _request():
    return ChatRequest(model_name="m", temperature=0.0, messages=[{"role": "user", "content": "hi"}])


def _client(server, cell):
    return HttpChatBackend(GatewayConfig(base_url=server.base_url(cell), backoff=0.0, timeout=10.0))


def test_queues_advance_only_on_success_and_attempts_are_counted():
    script = [f"answer {i}" for i in range(40)]
    with FakeChatServer({"a": script, "b": ["other"]}, seed=3, latency_s=0.0, share_503=0.3, share_empty=0.1) as server:
        client = _client(server, "a")
        got, empties = [], 0
        while len(got) < len(script):
            try:
                got.append(client.complete(_request()).text)
            except MalformedResponseError:
                empties += 1
        assert got == script
        assert server.served("a") == len(script)
        assert server.served("b") == 0
        failures = [server.outcome("a", call, 0) for call in range(len(script))]
        assert empties == failures.count("empty") > 0
        attempts, handling = server.stats()
        assert attempts == len(script) + failures.count("503") + failures.count("empty")
        assert handling > 0


def test_schedule_is_a_pure_function_of_its_inputs():
    kwargs = dict(latency_s=0.0, share_503=0.2, share_empty=0.05)
    one = FakeChatServer({"c": []}, seed=1, **kwargs)
    two = FakeChatServer({"c": []}, seed=1, **kwargs)
    other = FakeChatServer({"c": []}, seed=2, **kwargs)
    first = [one.outcome("c", k, 0) for k in range(200)]
    assert first == [two.outcome("c", k, 0) for k in range(200)]
    assert first != [other.outcome("c", k, 0) for k in range(200)]
    assert all(one.outcome("c", k, 1) == "ok" for k in range(200))


def test_unknown_cells_and_drained_queues_are_client_errors():
    with FakeChatServer({"a": ["only"]}, seed=0, latency_s=0.0, share_503=0.0, share_empty=0.0) as server:
        client = _client(server, "a")
        assert client.complete(_request()).text == "only"
        with pytest.raises(BackendHTTPError):
            client.complete(_request())
        with pytest.raises(BackendHTTPError):
            _client(server, "missing").complete(_request())
