"""The package's ``run_replication`` against the frozen straight-line loop
of ``tests/reference_loop.py``, on drawn tasks, configs and model answers:
the records must be equal in canonical JSON, and the two must send the same
requests in the same order. A request's stage shows in its prompt text and
token limit, so each is compared whole, as it goes on the wire (prompt,
seed, token limit, model and temperature). Derandomized, so every run draws
the same examples."""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from policyloop.envs import ALL_TASKS, TaskId, get_spec
from policyloop.gateway import ScriptedBackend
from policyloop.loop import LoopConfig, run_replication
from policyloop.prompts import Ablation

from reference_loop import run_replication_reference
from test_replication_property import BAD_RETURNS, PIECES, PROSE, RULES, STRATEGY, _answers, _policy

LOOPS = settings(derandomize=True, database=None, deadline=None, max_examples=400)

SCORE = "0.02 * cart_position + 0.1 * cart_velocity + 0.5 * pole_angle + pole_angular_velocity"
FORCE = "20 * pole_angle + 3 * pole_angular_velocity + 0.5 * cart_velocity + 0.1 * cart_position"


def _maximal(spec):
    """A policy that earns the task maximum from every start: a fixed-gain
    controller of the cart-pole family, or none on the other tasks."""
    if spec.task_id is TaskId.INVERTED_PENDULUM:
        return [_policy(spec, f"return {FORCE}")]
    if spec.r_max is None:
        return []
    left, right = spec.action.labels
    return [_policy(spec, f"if {SCORE} > 0:\n        return {right}\n    return {left}")]


def _iteration(spec):
    """One iteration's answers: a strategy; rule-less answers, then rules;
    unparsable answers, then a policy. Several rule texts and policies whose
    returns tie (every unusable first action earns 0) make the choice of the
    best strategy show in the prompts."""
    first = spec.obs_names[0]
    rules = [
        RULES,
        f"IF {first} < 0 THEN return 0",
        f"1. If {first} > 0 then apply action 2",
        f"1. When {first} > 1 then push right\n2. Otherwise push left",
        f"If {first} <= 0 then apply action 1",
    ]
    policies = [
        _policy(spec, spec.random_default_text),
        _policy(spec, f"if {first} > 0:\n        return 1\n    return 0"),
        *(_policy(spec, body) for body in BAD_RETURNS),
    ]
    # weighted, so that runs often reach the maximum and stop or retest there
    policies += _maximal(spec) * 3
    no_code = st.sampled_from([PROSE, RULES, *PIECES])
    return st.tuples(
        st.sampled_from([STRATEGY, PROSE]).map(lambda text: [text]),
        st.lists(st.just(PROSE), max_size=1),
        st.sampled_from(rules).map(lambda text: [text]),
        st.lists(no_code, max_size=1),
        st.sampled_from(policies).map(lambda text: [text]),
    ).map(lambda parts: [answer for part in parts for answer in part])


@LOOPS
@given(data=st.data())
def test_the_runner_is_the_reference_loop(data):
    task = data.draw(st.sampled_from(ALL_TASKS), label="task")
    spec = get_spec(task)
    epochs = data.draw(st.integers(1, 4), label="epochs")
    config = LoopConfig.for_task(
        task,
        epochs=epochs,
        eval_episodes=data.draw(st.integers(1, 3), label="eval_episodes"),
        repair_budget=data.draw(st.integers(1, 3), label="repair_budget"),
        stop_on_max=data.draw(st.booleans(), label="stop_on_max"),
        retest_at_max=data.draw(st.booleans(), label="retest_at_max"),
        ablation=data.draw(st.sampled_from(list(Ablation)), label="ablation"),
        window_size=data.draw(st.integers(1, 30), label="window_size"),
        seed_root=data.draw(st.integers(0, 3), label="seed_root"),
    )
    replication = data.draw(st.integers(0, 2), label="replication")
    # answers for every epoch, or all but the last
    iterations = data.draw(
        st.lists(_iteration(spec), min_size=max(epochs - 1, 1), max_size=epochs), label="iterations"
    )
    script = [answer for answers in iterations for answer in answers]
    script += data.draw(st.lists(_answers(spec), max_size=3), label="tail")

    runner_backend = ScriptedBackend(script)
    record = run_replication(task, config, runner_backend, replication)
    reference, requests = run_replication_reference(
        task, config, ScriptedBackend(script), replication
    )

    sent = [request.to_wire() for request in runner_backend.requests]
    assert sent == [request.to_wire() for _, request in requests], [stage for stage, _ in requests]
    assert record.canonical_json() == json.dumps(reference, sort_keys=True, allow_nan=False)
