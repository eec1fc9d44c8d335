"""Reset/step contracts, observation encodings and termination rules of the
eight control tasks."""

import dataclasses
import math
import random

import numpy as np
import pytest

from policyloop import envs
from policyloop.dsl import InvalidReason, PolicyProgram, evaluate, parse, run_episode
from policyloop.envs import ALL_TASKS, StepResult, TaskId, describe, get_spec, make
from policyloop.envs.core import TerminationCause, UnknownTaskError

from conftest import reference_step_forms
from reference_dynamics import (
    continuous_coerce_min_max_form,
    discrete_coerce_original,
    tip_above_goal_form,
)


def random_action(spec, rng):
    if spec.is_discrete:
        return rng.choice(spec.action.labels)
    return rng.uniform(spec.action.lo, spec.action.hi)


# -- reset ---------------------------------------------------------------


@pytest.mark.parametrize("task", ALL_TASKS)
def test_reset_is_deterministic(task):
    a = envs.reset(task, 1234)
    b = envs.reset(task, 1234)
    assert np.array_equal(a, b)
    c = envs.reset(task, 1235)
    assert not np.array_equal(a, c)


def test_star2_reset_is_integer_grid():
    for seed in range(50):
        obs = envs.reset(TaskId.CARTPOLE_STAR2, seed)
        assert len(obs) == 4
        assert all(type(v) is int and abs(v) <= 50 for v in obs), obs


def test_pendulum_reset_on_unit_circle():
    for seed in range(50):
        obs = envs.reset(TaskId.PENDULUM, seed)
        assert abs(obs[0] ** 2 + obs[1] ** 2 - 1.0) < 1e-9
        assert -8.0 <= obs[2] <= 8.0


def test_unknown_task_rejected():
    with pytest.raises(UnknownTaskError):
        envs.reset("CartPoleStar3", 0)


# -- step ----------------------------------------------------------------


def test_pendulum_reward_zero_at_upright_rest():
    # a task with no terminal_cause steps, and its reward keeps its sign:
    # -0.0, where a sum of the one reward from 0.0 would read 0.0
    env = make(TaskId.PENDULUM)
    env.reset(0)
    env._state = (0.0, 0.0)
    result = env.step(0.0)
    assert not hasattr(env, "terminal_cause")
    assert result == StepResult((1.0, 0.0, 0.0), 0.0, False, False)
    assert math.copysign(1.0, result.reward) == -1.0
    assert env.state == (0.0, 0.0) and env.steps == 1


def test_pendulum_reward_at_downward_rest():
    env = make(TaskId.PENDULUM)
    env.reset(0)
    env._state = (math.pi, 0.0)
    # -(pi^2) from the angle term alone
    assert env.step(0.0).reward == pytest.approx(-math.pi**2, abs=1e-9)


def test_cartpole_terminates_past_angle_limit():
    env = make(TaskId.CARTPOLE)
    env.reset(0)
    env._state = (0.0, 0.0, 0.207, 3.0)  # one tick pushes the angle past 0.2095
    result = env.step(1)
    assert result.terminated
    assert result.cause is TerminationCause.BOUNDS_EXCEEDED
    assert abs(env.state[2]) > 0.2095


def test_cartpole_reward_one_per_step_including_terminal():
    env = make(TaskId.CARTPOLE)
    env.reset(3)
    total, done = 0.0, False
    while not done:
        result = env.step(1)  # constant push fails fast
        total += result.reward
        done = result.done
    assert total == env.steps  # +1 every step, terminal included
    assert 1 <= total <= 500


def test_cartpole_truncates_at_500():
    prog = parse(
        "def get_action(cart_position, cart_velocity, pole_angle, pole_angular_velocity):\n"
        "    if 0.02 * cart_position + 0.1 * cart_velocity + 6.0 * pole_angle + pole_angular_velocity > 0:\n"
        "        return 1\n"
        "    return 0\n"
    )
    trace = run_episode(prog, TaskId.CARTPOLE, seed=5, rng=random.Random(0))
    assert trace.length == 500
    assert trace.total_reward == 500.0
    assert trace.cause is TerminationCause.STEP_LIMIT


def test_mountain_car_discrete_reward_bounds():
    env = make(TaskId.MOUNTAIN_CAR_DISCRETE)
    rng = random.Random(0)
    for seed in range(5):
        env.reset(seed)
        total, done = 0.0, False
        while not done:
            result = env.step(rng.choice((0, 1, 2)))
            total += result.reward
            done = result.done
        assert -200.0 <= total <= -1.0


def test_mountain_car_discrete_goal_termination():
    env = make(TaskId.MOUNTAIN_CAR_DISCRETE)
    env.reset(0)
    env._state = (0.49, 0.05)
    result = env.step(2)
    assert result.terminated
    assert result.cause is TerminationCause.GOAL_REACHED
    assert result.reward == -1.0


def test_mountain_car_continuous_goal_bonus():
    env = make(TaskId.MOUNTAIN_CAR_CONTINUOUS)
    env.reset(0)
    env._state = (0.44, 0.05)
    result = env.step(1.0)
    assert result.terminated
    assert result.reward == pytest.approx(100.0 - 0.1)


def test_inverted_pendulum_uses_reordered_observation():
    env = make(TaskId.INVERTED_PENDULUM)
    env.reset(0)
    env._state = (0.5, -0.25, 0.1, 0.7)  # internal: x, x_dot, theta, theta_dot
    obs = env.observe()
    assert obs == pytest.approx([0.5, 0.1, -0.25, 0.7])


def test_inverted_pendulum_fails_only_on_angle():
    env = make(TaskId.INVERTED_PENDULUM)
    env.reset(0)
    env._state = (9.0, 0.0, 0.0, 0.0)  # far from origin but upright
    assert not env.step(0.0).terminated
    env._state = (0.0, 0.0, 0.199, 3.0)
    assert env.step(0.0).terminated


def test_acrobot_reward_and_goal():
    env = make(TaskId.ACROBOT)
    env.reset(0)
    result = env.step(1)
    assert result.reward == -1.0
    # both links horizontal-ish above the bar -> goal condition holds
    env._state = (math.pi - 0.05, 0.0, 0.0, 0.0)
    result = env.step(1)
    assert result.terminated
    assert result.cause is TerminationCause.GOAL_REACHED
    assert result.reward == 0.0


def test_acrobot_full_episode_return_minus_500():
    env = make(TaskId.ACROBOT)
    env.reset(11)
    total, done = 0.0, False
    while not done:
        result = env.step(1)  # no torque never reaches the goal
        total += result.reward
        done = result.done
    assert total == -500.0
    assert result.truncated


# -- star2 encoding -------------------------------------------------------


def _star2_observation(native):
    """The observation a CartPoleStar2 env reports in the native state ``native``."""
    env = make(TaskId.CARTPOLE_STAR2)
    env.reset(0)
    env._state = native
    return env.observe()


@pytest.mark.parametrize(
    "native,expected",
    [
        ((0.0, 0.0, 0.0, 0.0), (0, 0, 0, 0)),
        ((4.8, 0.0, 0.0, 0.0), (50, 0, 0, 0)),
        ((2.4, 1.0, -0.209, 0.0), (25, 10, -25, 0)),
    ],
)
def test_star2_observation_examples(native, expected):
    out = _star2_observation(native)
    assert out == expected
    assert all(type(v) is int for v in out)


def test_star2_observation_saturates_velocities():
    out = _star2_observation((0.0, 7.5, 0.0, -9.0))
    assert out == (0, 50, 0, -50)
    assert all(type(v) is int for v in out)


def test_star2_rounding_half_away_from_zero():
    # 0.048 m -> 0.5 on the grid -> rounds to 1; symmetric for negatives
    assert _star2_observation((0.048, 0.0, 0.0, 0.0)) == (1, 0, 0, 0)
    assert _star2_observation((-0.048, 0.0, 0.0, 0.0)) == (-1, 0, 0, 0)


# -- trajectory invariants -------------------------------------------------


@pytest.mark.parametrize("task", ALL_TASKS)
def test_replay_is_bit_identical(task):
    spec = get_spec(task)
    rng = random.Random(99)
    actions = [random_action(spec, rng) for _ in range(60)]

    def rollout():
        env = make(task)
        env.reset(321)
        rows = []
        for action in actions:
            result = env.step(action)
            rows.append(
                (
                    np.asarray(result.observation, dtype=np.float64).tobytes(),
                    result.reward,
                    result.terminated,
                    result.truncated,
                )
            )
            if result.done:
                break
        return rows

    assert rollout() == rollout()


def test_acrobot_observation_bounds():
    env = make(TaskId.ACROBOT)
    rng = random.Random(5)
    env.reset(5)
    for _ in range(300):
        result = env.step(rng.choice((0, 1, 2)))
        obs = result.observation
        assert np.all(np.abs(obs[:4]) <= 1.0 + 1e-12)
        assert abs(obs[4]) <= 4 * math.pi + 1e-12
        assert abs(obs[5]) <= 9 * math.pi + 1e-12
        if result.done:
            env.reset(rng.randint(0, 10_000))


def test_pendulum_reward_never_positive():
    env = make(TaskId.PENDULUM)
    rng = random.Random(7)
    env.reset(7)
    for _ in range(200):
        assert env.step(rng.uniform(-2, 2)).reward <= 0.0


def test_cartpole_termination_soundness_under_random_play():
    # terminated is set on exactly the steps whose post-step state violates
    # a failure bound
    env = make(TaskId.CARTPOLE)
    rng = random.Random(13)
    for episode in range(30):
        env.reset(episode)
        done = False
        while not done:
            result = env.step(rng.choice((0, 1)))
            x, _, theta, _ = env.state
            failed = abs(x) > 2.4 or abs(theta) > 12.0 * 2.0 * math.pi / 360.0
            assert result.terminated == failed
            done = result.done


def test_acrobot_ends_exactly_when_the_frozen_goal_test_holds():
    # from set states around the goal height, each step terminates with the
    # goal's cause exactly when the frozen tip test holds on the state it
    # leaves, which is the frozen generator-form step's
    env = make(TaskId.ACROBOT)
    coerce, tick, _ = reference_step_forms(env)
    rng = random.Random(17)
    ends = 0
    for _ in range(2_000):
        state = (
            rng.choice((-1.0, 1.0)) * rng.uniform(2.0, math.pi),
            rng.uniform(-1.5, 1.5),
            rng.uniform(-4.0, 4.0),
            rng.uniform(-4.0, 4.0),
        )
        action = rng.choice((0, 1, 2))
        env.reset(0)
        env._state = state
        result = env.step(action)
        expected, _, _ = tick(state, coerce(action))
        assert repr(env.state) == repr(expected), state
        theta1, theta2, _, _ = env.state
        assert result.terminated == tip_above_goal_form(theta1, theta2), state
        if result.terminated:
            assert result.cause is TerminationCause.GOAL_REACHED and result.reward == 0.0
        ends += result.terminated
    assert 200 < ends < 1_800, ends


EXPECTED_SHAPE = {
    # task -> (obs_dim, labels or None, max_steps)
    TaskId.CARTPOLE: (4, (0, 1), 500),
    TaskId.CARTPOLE_STAR1: (4, (1, 2), 500),
    TaskId.CARTPOLE_STAR2: (4, (1, 2), 500),
    TaskId.INVERTED_PENDULUM: (4, None, 1000),
    TaskId.ACROBOT: (6, (0, 1, 2), 500),
    TaskId.PENDULUM: (3, None, 200),
    TaskId.MOUNTAIN_CAR_DISCRETE: (2, (0, 1, 2), 200),
    TaskId.MOUNTAIN_CAR_CONTINUOUS: (2, None, 1000),
}


@pytest.mark.parametrize("task", ALL_TASKS)
def test_spec_table(task):
    spec = get_spec(task)
    obs_dim, labels, max_steps = EXPECTED_SHAPE[task]
    assert spec.obs_dim == obs_dim
    assert len(spec.obs_names) == obs_dim
    assert spec.max_steps == max_steps
    if labels is None:
        assert not spec.is_discrete
    else:
        assert spec.action.labels == labels


_CARTPOLE_FAMILY = (
    TaskId.CARTPOLE, TaskId.CARTPOLE_STAR1, TaskId.CARTPOLE_STAR2, TaskId.INVERTED_PENDULUM
)


@pytest.mark.parametrize("task", _CARTPOLE_FAMILY, ids=lambda task: task.value)
def test_cartpole_tasks_declare_data_not_hooks(task):
    """The family's hooks and fused loop live once, on their shared base;
    a task says only what its spec and class data cannot."""
    cls = envs.ENV_CLASSES[task]
    own = set(vars(cls))
    hooks = {"_reset_state", "_step_state", "_observe", "_rollout"}
    assert not own & hooks


def test_no_env_class_has_step_or_observe_hooks():
    """Each task's observation and physics are written once, inline in its
    own or its family's _rollout; no class, the base included, keeps a
    hook for them, and the base's _rollout is no driver."""
    classes = {
        cls for env_class in envs.ENV_CLASSES.values() for cls in env_class.__mro__
    } - {object}
    assert envs.Environment in classes
    for cls in classes:
        assert not {"_step_state", "_observe"} & set(vars(cls)), cls
    for env_class in envs.ENV_CLASSES.values():
        assert env_class._rollout is not envs.Environment._rollout, env_class
    with pytest.raises(NotImplementedError):
        envs.Environment()._rollout(lambda rng, obs: None, None, 1, [], [])


@pytest.mark.parametrize("task", ALL_TASKS)
def test_spec_refuses_action_names_of_the_wrong_length(task):
    spec = get_spec(task)
    for names in (spec.action_names[:-1], spec.action_names + ("spare",)):
        with pytest.raises(ValueError, match="action_names must have"):
            dataclasses.replace(spec, action_names=names)


@pytest.mark.parametrize(
    "variant, base, differences, slots",
    [
        ("CartPoleStar1", "CartPole", {"action"}, {"Action Vector"}),
        (
            "CartPoleStar2",
            "CartPoleStar1",
            {"integer_observations"},
            {"Observation Vector", "Termination Conditions"},
        ),
    ],
)
def test_star_variants_re_encode_the_spec_before_them(variant, base, differences, slots):
    """A variant is the task before it with only its encoding changed: the
    same actions' names, limits and goal, other labels or observations."""
    new, old = get_spec(variant), get_spec(base)
    changed = {
        field.name
        for field in dataclasses.fields(new)
        if getattr(new, field.name) != getattr(old, field.name)
    }
    assert changed == {"task_id", "description_slots"} | differences
    assert {
        name for name, text in new.description_slots.items()
        if text != old.description_slots[name]
    } == slots


@pytest.mark.parametrize("task", ALL_TASKS)
def test_terminated_and_truncated_are_exclusive(task):
    spec = get_spec(task)
    env = make(task)
    rng = random.Random(23)
    for episode in range(3):
        env.reset(episode)
        done = False
        while not done:
            result = env.step(random_action(spec, rng))
            assert not (result.terminated and result.truncated)
            done = result.done


@pytest.mark.parametrize("task", ALL_TASKS)
def test_step_is_the_reference_step_bit_for_bit(task):
    """``step``'s whole result, the state and the step count, against one
    step of ``reference_step_forms``: truncated at ``max_steps`` and on past
    it, terminated with the task's own cause. Continuous actions include
    -0.0 and values to clamp."""
    spec = get_spec(task)
    env = make(task)
    coerce, tick, observe = reference_step_forms(env)
    rng = random.Random(29)
    for seed in range(3):
        env.reset(seed)
        state = env.state
        for steps in range(1, spec.max_steps + 3):
            if spec.is_discrete or steps % 4:
                value = random_action(spec, rng)
            else:
                value = rng.choice((0.0, -0.0, 2 * spec.action.lo, 2 * spec.action.hi))
            state, reward, terminated = tick(state, coerce(value))
            if terminated:
                expected = StepResult(observe(state), reward, True, False, env.terminal_cause)
            elif steps >= spec.max_steps:
                expected = StepResult(
                    observe(state), reward, False, True, TerminationCause.STEP_LIMIT
                )
            else:
                expected = StepResult(observe(state), reward, False, False)
            result = env.step(value)
            assert repr(result) == repr(expected), (seed, steps)
            assert repr(env.state) == repr(state) and env.steps == steps
            if terminated:
                break


@pytest.mark.parametrize("task", ALL_TASKS)
def test_nothing_reads_or_steps_an_env_before_reset(task):
    env = make(task)
    with pytest.raises(RuntimeError, match=r"observe\(\) before reset\(\)"):
        env.observe()
    with pytest.raises(RuntimeError, match=r"step\(\) before reset\(\)"):
        env.step(random_action(get_spec(task), random.Random(0)))
    with pytest.raises(RuntimeError, match=r"before reset\(\)"):
        env.state
    assert env.reset(0) == env.observe()


# -- action validity -------------------------------------------------------

_ACTION_VALUES = (
    ("-1", -1),
    ("7", 7),
    ("True", True),
    ("False", False),
    ("1.0", 1.0),
    ("1.5", 1.5),
    ("nan", math.nan),
    ("inf", math.inf),
    ("-inf", -math.inf),
    ("10**400", 10**400),
)


def _action_cases():
    for task in ALL_TASKS:
        spec = get_spec(task)
        ends = spec.action.labels if spec.is_discrete else (spec.action.lo, spec.action.hi)
        for value in ends:
            yield pytest.param(task, value, id=f"{task.value}-end-{value}")
        for name, value in _ACTION_VALUES:
            yield pytest.param(task, value, id=f"{task.value}-{name}")


@pytest.mark.parametrize("task, value", _action_cases())
def test_policy_and_step_agree_on_which_actions_are_valid(task, value):
    """A value a policy returns is a valid action exactly when the frozen
    coerce form takes it, and then the rollout's action check, ``evaluate``
    and ``env.step`` all turn it into that action; ``env.step`` refuses
    the others. NaN and infinities are refused on every task, bools on the
    discrete ones, and an int too large for a float raises OverflowError."""
    spec = get_spec(task)
    try:
        if spec.is_discrete:
            expected = discrete_coerce_original(spec.action.labels, value)
        else:
            expected = continuous_coerce_min_max_form(spec.action.lo, spec.action.hi, value)
    except OverflowError:
        expected = OverflowError
    program = PolicyProgram("get_action", spec.obs_names, "", lambda rng, *obs: value)
    trace = run_episode(program, task, 0, random.Random(0))
    outcome = evaluate(program, make(task).reset(0), random.Random(0), spec)
    env, other = make(task), make(task)
    env.reset(0)
    other.reset(0)
    if expected is OverflowError:
        assert not spec.is_discrete and value == 10**400
        assert outcome.reason is InvalidReason.RUNTIME_ERROR
        assert trace.invalid_outcome == outcome
        with pytest.raises(OverflowError):
            env.step(value)
    elif expected is None:
        assert outcome.reason is InvalidReason.OUT_OF_RANGE
        assert trace.invalid_outcome == outcome and trace.actions == []
        with pytest.raises(ValueError, match="is not a valid action"):
            env.step(value)
    else:
        assert type(expected) is (int if spec.is_discrete else float)
        # repr tells -0.0 from 0.0 and an int from an equal float
        assert repr(trace.actions[0]) == repr(outcome.action) == repr(expected)
        assert env.step(value) == other.step(expected)
        assert env.state == other.state
    if isinstance(value, bool) and spec.is_discrete:
        assert expected is None
    if not (isinstance(value, int) or math.isfinite(value)):
        assert expected is None


# -- describe --------------------------------------------------------------


@pytest.mark.parametrize("task", ALL_TASKS)
def test_describe_slots_complete(task):
    slots = describe(task)
    assert set(slots) == {
        "Agent",
        "Goal and Reward",
        "Observation Vector",
        "Action Vector",
        "Termination Conditions",
    }
    assert all(text.strip() for text in slots.values())


def test_describe_star2_action_labels():
    slots = describe(TaskId.CARTPOLE_STAR2)
    assert "1=move left" in slots["Action Vector"]
    assert "2=move right" in slots["Action Vector"]


def test_describe_pendulum_contains_reward_formula():
    slots = describe(TaskId.PENDULUM)
    assert "-(theta^2 + 0.1*angular_velocity^2 + 0.001*torque^2)" in slots["Goal and Reward"]


def test_describe_unknown_task():
    with pytest.raises(UnknownTaskError):
        describe("NoSuchTask")
