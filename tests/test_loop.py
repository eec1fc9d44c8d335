"""Refinement-loop behavior: initialization, strategy memory, stopping
rules, seed purity, determinism, aborts and the batch runner."""

import json
import math
import weakref
from pathlib import Path

import pytest

from policyloop.dsl.parser import parse as parse_policy
from policyloop.envs import TaskId, derive_seed, get_spec
from policyloop.gateway import GatewayError, ScriptedBackend
from policyloop.loop import (
    LoopConfig,
    RunRecord,
    RunStatus,
    default_record_name,
    replay,
    run_batch,
    run_replication,
)
from policyloop.loop import runner
from policyloop.prompts import render_p2

from conftest import big_int_expression, scripted_session, transcript_text

BAD = "no code here"
NO_RULES = "Keep the pole upright by reacting to its lean."


def _config(**overrides):
    defaults = dict(epochs=5, seed_root=3, model_name="scripted-model")
    defaults.update(overrides)
    return LoopConfig.for_task("CartPoleStar2", **defaults)


def _step(history, config, backend):
    """The strategy of the iteration after ``history``."""
    strategy, _program = runner._next_strategy(
        history, TaskId.CARTPOLE_STAR2, config, backend, 0, 0.0
    )
    return strategy


def _session_record(**overrides):
    config = _config(**overrides)
    return run_replication(
        TaskId.CARTPOLE_STAR2, config, ScriptedBackend(scripted_session()), 0, 0.0
    )


# -- config ------------------------------------------------------------------


def test_config_defaults_per_task():
    cartpole = LoopConfig.for_task("CartPole")
    assert (cartpole.epochs, cartpole.eval_episodes, cartpole.stop_on_max) == (100, 20, True)
    invpend = LoopConfig.for_task("InvertedPendulum")
    assert (invpend.epochs, invpend.eval_episodes, invpend.stop_on_max) == (500, 20, False)
    pendulum = LoopConfig.for_task("Pendulum")
    assert (pendulum.epochs, pendulum.eval_episodes, pendulum.stop_on_max) == (50, 10, False)


def test_config_accepts_reported_temperature_sweep():
    config = LoopConfig.for_task("CartPoleStar1", temperatures=(0.0, 0.4, 0.8, 1.6, 3.2))
    assert config.temperatures == (0.0, 0.4, 0.8, 1.6, 3.2)


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        LoopConfig.for_task("CartPole", epochs=0)
    with pytest.raises(ValueError):
        LoopConfig.for_task("CartPole", eval_episodes=0)
    with pytest.raises(ValueError):
        LoopConfig.for_task("CartPole", temperatures=(4.0,))


def test_config_refuses_an_empty_temperature_set():
    """Every replication runs at one of the config's temperatures; with none
    there is nothing to run, not an empty batch or an IndexError."""
    with pytest.raises(ValueError, match="at least one temperature"):
        LoopConfig.for_task("CartPole", temperatures=())
    with pytest.raises(ValueError, match="at least one temperature"):
        run_batch(["CartPole"], lambda *cell: ScriptedBackend([]), temperatures=[])


@pytest.mark.parametrize("budget", [0, -3])
def test_config_refuses_a_repair_budget_below_one(budget):
    with pytest.raises(ValueError, match=f"repair_budget must be at least 1, got {budget}"):
        LoopConfig.for_task("CartPole", repair_budget=budget)


# -- iteration 0 ----------------------------------------------------------------


def test_initialize_builds_iteration_zero():
    backend = ScriptedBackend(scripted_session()[:3])
    strategy = _step([], _config(), backend)
    assert strategy.iteration_index == 0
    assert strategy.strategy_text == transcript_text("strategy_iter0.txt")
    assert strategy.rules_text == transcript_text("rules_iter0.txt")
    assert strategy.repair_attempts == 1
    assert len(strategy.per_episode_returns) == 20
    assert strategy.mean_reward == pytest.approx(
        sum(strategy.per_episode_returns) / 20
    )
    # the window is drawn from this evaluation's worst episode
    worst = min(range(20), key=lambda i: strategy.per_episode_returns[i])
    assert strategy.window.source_episode == worst
    assert strategy.window.episode_return == strategy.per_episode_returns[worst]


def test_initialize_single_episode_mean():
    backend = ScriptedBackend(scripted_session()[:3])
    strategy = _step([], _config(eval_episodes=1), backend)
    assert strategy.mean_reward == strategy.per_episode_returns[0]


def test_initialize_with_optimal_policy_means_500():
    script = [
        transcript_text("strategy_iter3.txt"),
        transcript_text("rules_iter3.txt"),
        transcript_text("code_optimal.py"),
    ]
    strategy = _step([], _config(), ScriptedBackend(script))
    assert strategy.mean_reward == 500.0


def test_twenty_trial_mean_matches_reference_average():
    # the reference transcript's twenty trial rewards average to 49.85
    trials = [49, 47, 46, 39, 57, 58, 35, 47, 38, 56, 34, 40, 51, 46, 44, 77, 55, 65, 64, 49]
    assert sum(trials) / len(trials) == 49.85


def _neumaier_sum(values, start=0):
    """Python 3.12's sum() of floats: Neumaier's compensated summation."""
    total, compensation = float(start), 0.0
    for value in values:
        t = total + value
        if abs(total) >= abs(value):
            compensation += (total - t) + value
        else:
            compensation += (value - t) + total
        total = t
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


def test_a_stored_mean_does_not_depend_on_the_python_version(monkeypatch):
    """Each mean_reward is the left-to-right mean of its returns, even where
    3.12's sum() would round otherwise, so a record made on 3.11 replays on
    3.12 and later."""
    from policyloop.loop import records

    for module in (runner, records):
        monkeypatch.setattr(module, "sum", _neumaier_sum, raising=False)
    program = parse_policy(
        "def get_action(x, y, angular_velocity):\n"
        "    if angular_velocity > 1.0:\n"
        "        return -2.0\n"
        "    return random.uniform(-2.0, 2.0)\n",
        expected_params=get_spec(TaskId.PENDULUM).obs_names,
    )
    config = LoopConfig.for_task("Pendulum")
    misses = []
    for iteration in range(20):
        reward, returns, _ = runner.evaluate_program(program, TaskId.PENDULUM, config, 0, iteration)
        total = 0.0
        for value in returns:
            total += value
        if reward != total / len(returns):
            misses.append(iteration)
    assert misses == []


@pytest.mark.parametrize("size", [5, 20, 50, 100])
def test_window_size_bounds_the_window(size):
    backend = ScriptedBackend(scripted_session()[:3])
    strategy = _step([], _config(window_size=size), backend)
    assert len(strategy.window.lines) <= size


def test_evaluation_keeps_only_the_worst_trace_alive(monkeypatch):
    # each trace holds every observation of its episode
    refs = []
    most = 0

    def spy(*args, **kwargs):
        nonlocal most
        trace = real_run_episode(*args, **kwargs)
        refs.append(weakref.ref(trace))
        most = max(most, sum(ref() is not None for ref in refs))
        return trace

    real_run_episode = runner.run_episode
    monkeypatch.setattr(runner, "run_episode", spy)
    backend = ScriptedBackend(scripted_session()[:3])
    strategy = _step([], _config(), backend)
    assert len(refs) == len(strategy.per_episode_returns) == 20
    assert most <= 2


def test_the_window_comes_from_the_earliest_of_equal_worst_returns():
    program = parse_policy(
        "def get_action(cart_position, cart_velocity, pole_angle, pole_angular_velocity):\n"
        "    pass\n"
    )
    mean, returns, window = runner.evaluate_program(
        program, TaskId.CARTPOLE_STAR2, _config(), 0, 0
    )
    assert returns == [0.0] * 20
    assert (window.source_episode, window.invalid_value_text) == (0, "None")


# -- reflection and strategy memory --------------------------------------------------


def test_refine_appends_next_iteration():
    script = scripted_session()
    backend = ScriptedBackend(script[:6])
    config = _config()
    first = _step([], config, backend)
    second = _step([first], config, backend)
    assert second.iteration_index == 1
    assert second.rules_text == transcript_text("rules_iter1.txt")


def test_first_reflection_prompt_has_no_history_blocks():
    script = scripted_session()
    backend = ScriptedBackend(script[:6])
    config = _config()
    first = _step([], config, backend)
    _step([first], config, backend)
    reflect_prompt = backend.requests[3].messages[0]["content"]
    assert "Your current overall strategy was this one:" in reflect_prompt
    assert "Your previous overall strategy" not in reflect_prompt
    assert "The best overall strategy" not in reflect_prompt


def test_best_block_survives_regression():
    record = _session_record()
    rewards = record.per_iteration_rewards
    assert len(rewards) == 4
    assert rewards[1] < rewards[0]  # the gappy revision regressed
    backend = ScriptedBackend(["unused strategy", "unused rules"])
    config = _config()
    with pytest.raises(Exception):
        # only the P4 request matters; the script runs out afterwards
        _step(record.strategies[:2], config, backend)
    prompt = backend.requests[0].messages[0]["content"]
    # current is the regressed strategy, best shows iteration 0's rules
    assert "Your current overall strategy was this one:" in prompt
    assert "The best overall strategy so far was this one:" in prompt
    best_section = prompt.split("The best overall strategy so far was this one:")[1]
    assert "1. If Pole Angle > 0 Then Move Right (2)" in best_section


def test_continuous_task_replication_end_to_end():
    pendulum_code = (
        "def get_action(x, y, angular_velocity):\n"
        "    if y > 0 or y < 0:\n"
        "        return -2 * y - 0.5 * angular_velocity\n"
        "    return random.uniform(-2.0, 2.0)\n"
    )
    script = [
        "Apply torque against the swing: negative torque when the tip leans positive.",
        "1. If y > 0 Then torque = -2 * y - 0.5 * angular_velocity\n"
        "2. Else torque = -2 * y - 0.5 * angular_velocity",
        pendulum_code,
        "Keep the same controller; the gains already damp the swing.",
        "1. If y > 0 Then torque = -2 * y - 0.5 * angular_velocity\n"
        "2. Else torque = -2 * y - 0.5 * angular_velocity",
        pendulum_code,
    ]
    config = LoopConfig.for_task("Pendulum", epochs=2, seed_root=1, model_name="scripted-model")
    backend = ScriptedBackend(script)
    record = run_replication("Pendulum", config, backend, 0, 0.0)
    assert record.status is RunStatus.COMPLETED
    assert len(record.strategies) == 2
    assert len(record.strategies[0].per_episode_returns) == 10
    assert all(r <= 0.0 for r in record.strategies[0].per_episode_returns)
    # the reflection prompt shows a bare mean (no task maximum to report against)
    reflect_prompt = backend.requests[3].messages[0]["content"]
    assert "trials was -" in reflect_prompt and "/" not in reflect_prompt.split("trials was ")[1].split("\n")[0]
    # window lines render float observations and actions
    assert record.strategies[0].window.lines[0].startswith("[")
    matches, _ = replay(record)
    assert matches


def test_previous_block_is_exactly_the_last_strategy():
    record = _session_record()
    backend = ScriptedBackend([])
    with pytest.raises(Exception):
        _step(record.strategies[:3], _config(), backend)
    prompt = backend.requests[0].messages[0]["content"]
    previous_section = prompt.split("Your previous overall strategy was this one:")[1]
    previous_section = previous_section.split("The best overall strategy")[0]
    # at iteration 3 the previous block carries strategy 1's rules verbatim
    assert record.strategies[1].rules_text in previous_section
    assert record.strategies[0].rules_text not in previous_section


def test_identical_responses_over_http_match_the_scripted_record():
    """The loop's behavior depends only on response texts, not on which
    backend produced them."""
    import json as jsonlib
    import threading
    from http.server import BaseHTTPRequestHandler, HTTPServer

    from policyloop.gateway import GatewayConfig, HttpChatBackend

    responses = iter(scripted_session())

    class Replayer(BaseHTTPRequestHandler):
        def do_POST(self):
            self.rfile.read(int(self.headers.get("Content-Length", 0)))
            body = jsonlib.dumps(
                {"choices": [{"message": {"content": next(responses)}}]}
            ).encode()
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Replayer)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        backend = HttpChatBackend(
            GatewayConfig(base_url=f"http://127.0.0.1:{server.server_port}", timeout=10)
        )
        over_http = run_replication(TaskId.CARTPOLE_STAR2, _config(), backend, 0, 0.0)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=2)

    scripted = _session_record()
    assert over_http.canonical_json() == scripted.canonical_json()


def test_reflection_prompt_reports_invalid_action():
    record = _session_record()
    # iteration 1's program is gappy: its evaluation ended on a None action,
    # so the following reflection carries the feedback line
    assert record.strategies[1].window.invalid_value_text == "None"
    responses = ScriptedBackend(scripted_session())
    rerun = run_replication(TaskId.CARTPOLE_STAR2, _config(), responses, 0, 0.0)
    prompts = [r.messages[0]["content"] for r in responses.requests]
    reflect_after_gappy = prompts[6]
    assert reflect_after_gappy.endswith(
        "Your previous reasoning generated an invalid action, it should be "
        "1 (left) or 2 (right) but it was None"
    )
    assert rerun.per_iteration_rewards == record.per_iteration_rewards


# -- run_replication ---------------------------------------------------------------


def test_replication_stops_on_max():
    record = _session_record()
    assert record.status is RunStatus.COMPLETED
    assert len(record.strategies) == 4  # epochs=5, stopped early at 500
    assert record.per_iteration_rewards[-1] == 500.0
    assert [s.iteration_index for s in record.strategies] == [0, 1, 2, 3]


def test_replication_retests_unchanged_strategy_at_max(monkeypatch):
    """Without early stop, a maximal strategy is re-evaluated on fresh seeds
    instead of being sent back for revision, so no extra responses are used.
    A retest runs the program the loop already holds: the only programs
    compiled are the four accepted code answers, not one more per retest."""
    from policyloop.dsl import parser

    compiled = []
    real_compile = parser._compile

    def spy(*args):
        compiled.append(args)
        return real_compile(*args)

    monkeypatch.setattr(parser, "_compile", spy)
    backend = ScriptedBackend(scripted_session())
    record = run_replication(
        TaskId.CARTPOLE_STAR2, _config(epochs=6, stop_on_max=False), backend, 0, 0.0
    )
    assert backend.remaining == 0
    assert [s.repair_attempts for s in record.strategies] == [1, 1, 1, 1, 0, 0]
    assert len(compiled) == 4
    maximal = record.strategies[3]
    for retested in record.strategies[4:]:
        assert retested.program_source == maximal.program_source
        assert retested.per_episode_returns == [500.0] * 20
    matches, _ = replay(record)
    assert matches


def test_replication_keeps_refining_at_max_when_retest_disabled():
    script = scripted_session()
    script = script + script[9:12]  # one more full refinement cycle
    record = run_replication(
        TaskId.CARTPOLE_STAR2,
        _config(stop_on_max=False, retest_at_max=False),
        ScriptedBackend(script),
        0,
        0.0,
    )
    assert len(record.strategies) == 5
    assert record.strategies[4].repair_attempts == 1  # a real prompt round ran
    assert record.per_iteration_rewards[-2:] == [500.0, 500.0]


def test_two_runs_are_byte_identical():
    a = _session_record()
    b = _session_record()
    assert a.canonical_json() == b.canonical_json()


def test_seed_root_changes_the_outcome():
    a = _session_record()
    b = _session_record(seed_root=4)
    assert a.per_iteration_rewards != b.per_iteration_rewards


def test_episode_seeds_are_pure_functions(monkeypatch, iter0_program):
    """Each episode's env seed and policy seed are derived from its
    (seed_root, replication, iteration, episode) and nothing else: the same
    parts give the same seeds, and no two seeds of 27 episodes are equal."""
    derived = []

    def spy(*parts):
        derived.append((parts, derive_seed(*parts)))
        return derived[-1][1]

    monkeypatch.setattr(runner, "derive_seed", spy)
    for _ in range(2):
        for r in range(3):
            for i in range(3):
                for _trace in runner.seeded_episodes(iter0_program, TaskId.CARTPOLE_STAR2, 3, r, i, 3):
                    pass
    first, second = derived[:54], derived[54:]
    assert first == second
    assert sorted(parts for parts, _ in first) == sorted(
        (3, r, i, e, key) for r in range(3) for i in range(3) for e in range(3)
        for key in ("env", "policy")
    )
    assert len({seed for _, seed in first}) == 54


def test_repair_budget_exhaustion_aborts_with_status():
    script = scripted_session()[:2] + [BAD] * 10
    record = run_replication(
        TaskId.CARTPOLE_STAR2, _config(), ScriptedBackend(script), 0, 0.0
    )
    assert record.status is RunStatus.ABORTED_REPAIR_BUDGET
    assert record.strategies == []
    # the transcript still holds every attempt
    assert record.responses.count(BAD) == 10


def test_rules_are_asked_again_when_the_answer_has_none():
    session = scripted_session()
    script = session[:1] + [NO_RULES] + session[1:]
    backend = ScriptedBackend(script)
    record = run_replication(TaskId.CARTPOLE_STAR2, _config(), backend, 0, 0.0)
    assert record.status is RunStatus.COMPLETED
    assert record.responses == script
    first, second = backend.requests[1:3]  # iteration 0's two Prompt-2 requests
    strategy = transcript_text("strategy_iter0.txt")
    assert first.messages[0]["content"] == render_p2(get_spec("CartPoleStar2"), strategy)
    assert second.messages[0]["content"] == first.messages[0]["content"] + (
        "\n\nYour previous response did not contain any rules. "
        "Your response should contain only the rules, no other explanation."
    )
    assert first.request_seed == derive_seed(3, 0, 0, "p2#1") & 0x7FFFFFFF
    assert second.request_seed == derive_seed(3, 0, 0, "p2#2") & 0x7FFFFFFF
    assert second.request_seed != first.request_seed
    assert record.strategies[0].rules_text == transcript_text("rules_iter0.txt")
    matches, _ = replay(record)
    assert matches


def test_every_request_carries_its_stage_seed():
    """Each Prompt-2 re-ask has a seed of its own; every code repair keeps the
    one Prompt-3 seed of its iteration. Each request's token limit is its
    stage's: iteration 0 opens with Prompt 1, every later one with Prompt 4."""
    session = scripted_session()
    script = session[:1] + [NO_RULES] + session[1:2] + [BAD] + session[2:6]
    backend = ScriptedBackend(script)
    record = run_replication(TaskId.CARTPOLE_STAR2, _config(epochs=2), backend, 0, 0.0)
    assert record.status is RunStatus.COMPLETED
    assert backend.remaining == 0
    stages = [(0, "p1", 2048), (0, "p2#1", 1024), (0, "p2#2", 1024), (0, "p3", 1024),
              (0, "p3", 1024), (1, "p4", 4096), (1, "p2#1", 1024), (1, "p3", 1024)]
    assert [(request.request_seed, request.max_tokens) for request in backend.requests] == [
        (derive_seed(3, 0, iteration, stage) & 0x7FFFFFFF, max_tokens)
        for iteration, stage, max_tokens in stages
    ]


@pytest.mark.parametrize("budget", [1, 3])
def test_rule_less_answers_exhaust_the_repair_budget(budget):
    rules = transcript_text("rules_iter0.txt")  # never asked for
    script = [transcript_text("strategy_iter0.txt")] + [NO_RULES] * budget + [rules]
    backend = ScriptedBackend(script)
    record = run_replication(
        TaskId.CARTPOLE_STAR2, _config(repair_budget=budget), backend, 0, 0.0
    )
    assert record.status is RunStatus.ABORTED_REPAIR_BUDGET
    assert record.strategies == []
    # Prompt 1, then exactly ``budget`` Prompt-2 requests and no Prompt 3
    assert len(backend.requests) == 1 + budget
    assert backend.remaining == 1
    assert record.responses == script[:-1]


def test_backend_exhaustion_aborts_with_status():
    truncated = scripted_session()[:11]  # stops before the final code response
    record = run_replication(
        TaskId.CARTPOLE_STAR2, _config(), ScriptedBackend(truncated), 0, 0.0
    )
    assert record.status is RunStatus.ABORTED_BACKEND
    assert len(record.strategies) == 3  # everything before the failure is kept


def test_gateway_error_aborts_without_a_second_call():
    class FailsOnFifthCall:
        """Raises on one call, as a gateway does once its own retries are spent."""

        def __init__(self, responses):
            self.inner = ScriptedBackend(responses)
            self.calls = 0

        def complete(self, request):
            self.calls += 1
            if self.calls == 5:  # iteration 1's rules; calls 1-3 built iteration 0
                raise GatewayError("backend down")
            return self.inner.complete(request)

    backend = FailsOnFifthCall(scripted_session())
    record = run_replication(TaskId.CARTPOLE_STAR2, _config(), backend, 0, 0.0)
    assert record.status is RunStatus.ABORTED_BACKEND
    assert backend.calls == 5  # nothing above the gateway asks again
    assert len(record.strategies) == 1
    assert record.responses == scripted_session()[:4]


@pytest.mark.parametrize(
    "script, epochs",
    [(["   "], 1), (scripted_session()[:3] + ["   "], 5)],
    ids=["p1", "p4"],
)
def test_blank_strategy_answer_aborts_with_backend_status(script, epochs):
    # over HTTP the gateway refuses a blank completion and the run ends the same way
    config = LoopConfig.for_task("CartPoleStar2", epochs=epochs)
    record = run_replication("CartPoleStar2", config, ScriptedBackend(script))
    assert record.status is RunStatus.ABORTED_BACKEND
    assert record.responses == script
    assert len(record.strategies) == len(script) // 3
    matches, _ = replay(record)
    assert matches  # byte-identical canonical JSON


def test_too_deeply_nested_code_is_repaired():
    deep = (
        "def get_action(cart_position, cart_velocity, pole_angle, pole_angular_velocity):\n"
        "    return " + "(pole_angle + " * 60 + "1" + ")" * 60 + "\n"
    )
    session = scripted_session()
    script = session[:2] + [deep] + session[2:]
    record = run_replication(TaskId.CARTPOLE_STAR2, _config(), ScriptedBackend(script), 0, 0.0)
    assert record.status is RunStatus.COMPLETED
    assert record.strategies[0].repair_attempts == 2
    assert len(record.strategies) == 4


def test_loop_config_refuses_the_wrong_types():
    with pytest.raises(TypeError, match="epochs must be an int, got True"):
        LoopConfig(epochs=True, eval_episodes=1)
    with pytest.raises(TypeError, match="temperatures must be a list, got '0.5'"):
        LoopConfig(epochs=1, eval_episodes=1, temperatures="0.5")
    assert LoopConfig(epochs=1, eval_episodes=1, temperatures=[0, 0.5]).temperatures == (0.0, 0.5)


# -- records and replay ---------------------------------------------------------------


def test_record_round_trips_through_json(tmp_path):
    record = _session_record()
    path = record.save(tmp_path / "record.json")
    loaded = RunRecord.load(path)
    assert loaded.canonical_json() == record.canonical_json()
    assert loaded.config.epochs == record.config.epochs
    raw = json.loads(path.read_text())
    assert "wall_clock" in raw  # informational field survives saving


def test_failed_save_keeps_the_previous_record(tmp_path, monkeypatch):
    record = _session_record()
    path = record.save(tmp_path / "record.json")
    before = path.read_bytes()

    def write_half_then_fail(self, text, *args, **kwargs):
        with open(self, "w", encoding="utf-8") as fh:
            fh.write(text[: len(text) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", write_half_then_fail)
    record.wall_clock += 1.0
    with pytest.raises(OSError, match="disk full"):
        record.save(path)
    assert path.read_bytes() == before
    assert RunRecord.load(path).canonical_json() == record.canonical_json()
    assert [p.name for p in tmp_path.iterdir()] == ["record.json"]


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_save_refuses_non_finite_values_and_keeps_the_previous_record(tmp_path, bad):
    record = _session_record()
    path = record.save(tmp_path / "record.json")
    before = path.read_bytes()
    record.strategies[0].per_episode_returns[0] = bad
    with pytest.raises(ValueError, match="JSON compliant"):
        record.save(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["record.json"]


@pytest.mark.parametrize("bad", [float("nan"), float("-inf")])
def test_canonical_json_refuses_non_finite_values(bad):
    record = _session_record()
    record.strategies[-1].mean_reward = bad
    with pytest.raises(ValueError, match="JSON compliant"):
        record.canonical_json()


def test_replay_reproduces_the_record():
    record = _session_record()
    matches, rerun = replay(record)
    assert matches
    assert rerun.per_iteration_rewards == record.per_iteration_rewards


def test_bracketed_slot_names_in_model_text_do_not_break_the_run():
    """Model text is filled into the prompts as it is: a strategy or rule
    text that holds a task-description slot name in brackets renders, and
    the run completes and replays."""
    script = scripted_session()
    script[0] = "[Agent] " + script[0]
    first_rule, rest = script[1].split("\n", 1)
    script[1] = f"{first_rule}\n[Goal and Reward]\n{rest}"
    record = run_replication(
        TaskId.CARTPOLE_STAR2, _config(epochs=2), ScriptedBackend(script), 0, 0.0
    )
    assert record.status is RunStatus.COMPLETED
    assert len(record.strategies) == 2
    assert record.strategies[0].strategy_text.startswith("[Agent] ")
    assert "\n[Goal and Reward]\n" in record.strategies[0].rules_text
    matches, _ = replay(record)
    assert matches


def test_replay_detects_divergence():
    record = _session_record()
    tampered = RunRecord.from_dict(record.to_dict())
    tampered.responses[2] = transcript_text("code_optimal.py")  # swap iteration-0 code
    matches, _ = replay(tampered)
    assert not matches


# -- run_batch ---------------------------------------------------------------


def test_batch_survives_a_policy_that_overflows(tmp_path):
    overflow = (
        "def get_action(cart_position, pole_angle, cart_velocity, pole_angular_velocity):\n"
        f"    return pole_angle * {big_int_expression(400)}\n"
    )
    script = ["Push toward the lean.", "1. If Pole Angle > 0 Then push right", overflow]

    records = run_batch(
        tasks=["InvertedPendulum"],
        backend_factory=lambda *cell: ScriptedBackend(script),
        replications=1,
        out_dir=tmp_path,
        seed_root=3,
        config_overrides={"epochs": 1},
    )
    (record,) = records
    assert record.status is RunStatus.COMPLETED
    assert record.strategies[0].per_episode_returns == [0.0] * record.config.eval_episodes
    assert record.strategies[0].window.invalid_value_text == "None"


def test_batch_contains_an_unexpected_error_in_one_cell(tmp_path, monkeypatch):
    from policyloop.loop import records, runner

    def batch(out_dir):
        return run_batch(
            tasks=["CartPoleStar2"],
            backend_factory=lambda *cell: ScriptedBackend(scripted_session()),
            replications=2,
            out_dir=out_dir,
            seed_root=3,
            config_overrides={"epochs": 3},
        )

    clean = batch(tmp_path / "clean")
    evaluate_program = runner.evaluate_program

    def boom_in_cell_0(program, task_id, config, replication, iteration):
        if replication == 0:
            raise RuntimeError("boom")
        return evaluate_program(program, task_id, config, replication, iteration)

    monkeypatch.setattr(runner, "evaluate_program", boom_in_cell_0)
    failed, kept = batch(tmp_path / "patched")

    loaded = RunRecord.load(next((tmp_path / "patched").glob("*_r000.json")))
    for record in (failed, loaded):
        assert record.status is RunStatus.ABORTED_ERROR
        assert record.error == "RuntimeError: boom"
        assert record.strategies == []
    assert loaded.canonical_json() == failed.canonical_json()
    assert kept.canonical_json() == clean[1].canonical_json()
    # a record without an error keeps the old form: no "error" key
    assert "error" not in clean[1].to_dict()
    matches, rerun = replay(loaded)
    assert matches and rerun.canonical_json() == loaded.canonical_json()


def test_interrupts_are_not_contained(monkeypatch):
    from policyloop.loop import records, runner

    def interrupt(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(runner, "evaluate_program", interrupt)
    with pytest.raises(KeyboardInterrupt):
        _session_record()


def test_batch_cardinality_and_persistence(tmp_path):
    def factory(task, model, temperature, replication):
        return ScriptedBackend(scripted_session())

    records = run_batch(
        tasks=["CartPoleStar2"],
        backend_factory=factory,
        replications=2,
        model_names=["scripted-model"],
        temperatures=[0.0, 0.8],
        out_dir=tmp_path,
        seed_root=3,
        config_overrides={"epochs": 5},
    )
    assert len(records) == 4  # 2 temperatures x 2 replications
    assert len(list(tmp_path.glob("*.json"))) == 4
    assert all(r.status is RunStatus.COMPLETED for r in records)
    temps = sorted({r.temperature for r in records})
    assert temps == [0.0, 0.8]


@pytest.mark.parametrize("under_a_file", [False, True])
def test_batch_makes_out_dir_before_the_first_backend(tmp_path, under_a_file):
    taken = tmp_path / "taken"
    taken.write_text("kept")
    made = []

    def factory(*cell):
        made.append(cell)
        return ScriptedBackend(scripted_session())

    with pytest.raises(OSError):
        run_batch(
            tasks=["CartPoleStar2"],
            backend_factory=factory,
            replications=2,
            out_dir=taken / "runs" if under_a_file else taken,
            config_overrides={"epochs": 1},
        )
    assert made == []
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert taken.read_text() == "kept"
    # an out_dir not there yet is made before any cell runs
    out_dir = tmp_path / "new" / "runs"

    def factory_after_out_dir(*cell):
        made.append(out_dir.is_dir())
        return ScriptedBackend(scripted_session())

    run_batch(
        tasks=["CartPoleStar2"],
        backend_factory=factory_after_out_dir,
        replications=1,
        out_dir=out_dir,
        config_overrides={"epochs": 1},
    )
    assert made == [True]


@pytest.mark.parametrize(
    "model, file_model",
    [
        ("meta-llama/Llama-3.1-70B-Instruct", "meta-llama_Llama-3.1-70B-Instruct"),
        ("../../x", ".._.._x"),
        ("a\\b\0c", "a_b_c"),
        # ids without a separator keep the name they always had
        ("qwen2.5:72b", "qwen2.5:72b"),
        ("local-model", "local-model"),
    ],
    ids=["slash", "dot-dot", "backslash-nul", "colon", "plain"],
)
def test_batch_saves_one_file_per_cell_inside_out_dir(tmp_path, model, file_model):
    out_dir = tmp_path / "records"
    (record,) = run_batch(
        tasks=["CartPoleStar2"],
        backend_factory=lambda *cell: ScriptedBackend(scripted_session()),
        replications=1,
        model_names=[model],
        temperatures=[0.0],
        out_dir=out_dir,
        seed_root=3,
        config_overrides={"epochs": 1},
    )
    name = f"CartPoleStar2_{file_model}_t0_0_r000.json"
    assert [p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file()] == [
        Path("records") / name
    ]
    assert RunRecord.load(out_dir / name).canonical_json() == record.canonical_json()
    assert record.model_name == model


def test_batch_refuses_a_record_path_that_is_a_directory(tmp_path):
    def factory(*cell):
        raise AssertionError("a cell ran")

    taken = tmp_path / "records" / "CartPoleStar2_local-model_t0_0_r001.json"
    taken.mkdir(parents=True)
    with pytest.raises(ValueError) as info:
        run_batch(
            tasks=["CartPoleStar2"],
            backend_factory=factory,
            replications=3,
            temperatures=[0.0],
            out_dir=tmp_path / "records",
            config_overrides={"epochs": 1},
        )
    assert str(info.value) == (
        "cell (CartPoleStar2, 'local-model', temperature 0.0, replication 1) "
        f"would write {taken}, which is a directory"
    )
    assert list((tmp_path / "records").iterdir()) == [taken]
    assert list(taken.iterdir()) == []


def test_batch_refuses_a_record_name_outside_out_dir(tmp_path, monkeypatch):
    from policyloop.loop import batch

    monkeypatch.setattr(batch, "cell_record_name", lambda *cell: "../escaped.json")
    with pytest.raises(ValueError, match="outside"):
        run_batch(
            tasks=["CartPoleStar2"],
            backend_factory=lambda *cell: ScriptedBackend(scripted_session()),
            replications=1,
            out_dir=tmp_path / "records",
            seed_root=3,
            config_overrides={"epochs": 1},
        )
    assert not (tmp_path / "escaped.json").exists()


@pytest.mark.parametrize(
    "models, temperatures",
    [
        (["org/model", "org_model"], [0.0]),
        (["org/model", "org\\model"], [0.0]),
        (["local-model", "local-model"], [0.0]),
        (["local-model"], [0.5, 0.5]),
    ],
    ids=["slash-underscore", "slash-backslash", "repeated-model", "repeated-temperature"],
)
def test_batch_refuses_two_cells_with_one_record_file(tmp_path, models, temperatures):
    def factory(*cell):
        raise AssertionError("a cell ran")

    with pytest.raises(ValueError, match="would both write") as info:
        run_batch(
            tasks=["CartPole"],
            backend_factory=factory,
            replications=1,
            model_names=models,
            temperatures=temperatures,
            out_dir=tmp_path,
        )
    # both cells are named
    assert f"{models[0]!r}" in str(info.value) and f"{models[-1]!r}" in str(info.value)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("key", ["seed_root", "model_name", "temperatures"])
def test_batch_refuses_overrides_it_sets_itself(tmp_path, key):
    made = []
    with pytest.raises(ValueError, match=f"may not set {key}"):
        run_batch(
            tasks=["CartPole"],
            backend_factory=lambda *cell: made.append(cell),
            replications=1,
            out_dir=tmp_path / "runs",
            config_overrides={key: 1},
        )
    assert made == []  # refused before any backend was made
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize(
    "settings, message",
    [
        ({"tasks": []}, "tasks must name at least one task"),
        ({"model_names": []}, "model_names must name at least one model"),
        ({"replications": 0}, "replications must be at least 1, got 0"),
        ({"replications": True}, "replications must be an int, got True"),
    ],
    ids=["no-tasks", "no-models", "zero-replications", "bool-replications"],
)
def test_batch_refuses_a_matrix_without_cells(tmp_path, settings, message):
    made = []
    with pytest.raises((TypeError, ValueError), match=message):
        run_batch(
            **{"tasks": ["CartPole"], "replications": 1, **settings},
            backend_factory=lambda *cell: made.append(cell),
            out_dir=tmp_path / "runs",
        )
    assert made == [] and not (tmp_path / "runs").exists()


def test_batch_saves_a_distinct_matrix_one_file_per_cell(tmp_path):
    tasks = ["CartPoleStar2", "CartPoleStar1"]
    models, temperatures = ["org/model", "a-b"], [0.0, 0.5]
    records = run_batch(
        tasks=tasks,
        backend_factory=lambda *cell: ScriptedBackend(scripted_session()),
        replications=2,
        # generators are read once, and serve every task and model
        model_names=(m for m in models),
        temperatures=(t for t in temperatures),
        out_dir=tmp_path,
        seed_root=3,
        config_overrides={"epochs": 1},
    )
    cells = [(t, m, x, r) for t in tasks for m in models for x in temperatures for r in range(2)]
    got = [(r.task_id.value, r.model_name, r.temperature, r.replication_index) for r in records]
    assert got == cells
    assert len(list(tmp_path.glob("*.json"))) == len(cells)


def test_each_batch_record_is_saved_under_its_default_record_name(tmp_path):
    """``default_record_name`` names the file a batch wrote for a record, as
    perfbench relies on when it reads a batch back."""
    records = run_batch(
        tasks=["CartPoleStar2"],
        backend_factory=lambda *cell: ScriptedBackend(scripted_session()),
        replications=2,
        model_names=["meta-llama/Llama-3.1-70B-Instruct", "local-model"],
        temperatures=[0.7, 0.0],
        out_dir=tmp_path,
        seed_root=3,
        config_overrides={"epochs": 1},
    )
    names = [default_record_name(record) for record in records]
    assert sorted(names) == sorted(p.name for p in tmp_path.iterdir())
    assert "CartPoleStar2_meta-llama_Llama-3.1-70B-Instruct_t0_7_r001.json" in names
    for name, record in zip(names, records):
        assert RunRecord.load(tmp_path / name).canonical_json() == record.canonical_json()


def test_ten_identical_scripted_replications_all_succeed():
    from policyloop.metrics import success

    def factory(task, model, temperature, replication):
        return ScriptedBackend(scripted_session())

    records = run_batch(
        tasks=["CartPoleStar2"],
        backend_factory=factory,
        replications=10,
        seed_root=3,
        config_overrides={"epochs": 5, "eval_episodes": 5},
    )
    assert len(records) == 10
    assert success([r.per_iteration_rewards for r in records], 500.0, 5) == 1.0


def test_batch_isolates_failures(tmp_path):
    calls = {"n": 0}

    def factory(task, model, temperature, replication):
        calls["n"] += 1
        if replication == 1:
            return ScriptedBackend(scripted_session()[:2] + [BAD] * 10)
        return ScriptedBackend(scripted_session())

    records = run_batch(
        tasks=["CartPoleStar2"],
        backend_factory=factory,
        replications=3,
        out_dir=tmp_path,
        seed_root=3,
        config_overrides={"epochs": 5},
    )
    statuses = [r.status for r in records]
    assert statuses.count(RunStatus.COMPLETED) == 2
    assert statuses.count(RunStatus.ABORTED_REPAIR_BUDGET) == 1
    assert len(list(tmp_path.glob("*.json"))) == 3


# task -> (epochs, eval_episodes, stop_on_max)
LOOP_DEFAULTS = {
    "CartPole": (100, 20, True),
    "CartPoleStar1": (100, 20, True),
    "CartPoleStar2": (100, 20, True),
    "InvertedPendulum": (500, 20, False),
    "Acrobot": (50, 10, False),
    "Pendulum": (50, 10, False),
    "MountainCarDiscrete": (50, 10, False),
    "MountainCarContinuous": (50, 10, False),
}


def test_config_defaults_for_every_task():
    assert sorted(LOOP_DEFAULTS) == sorted(task.value for task in TaskId)
    for task, expected in LOOP_DEFAULTS.items():
        config = LoopConfig.for_task(task)
        assert (config.epochs, config.eval_episodes, config.stop_on_max) == expected
