"""Reset/step contracts, observation encodings and termination rules of the
seven control tasks."""

import dataclasses
import math
import random

import numpy as np
import pytest

from policyloop import envs
from policyloop.dsl import InvalidReason, PolicyProgram, evaluate, parse, run_episode
from policyloop.envs import (
    ALL_TASKS,
    TaskId,
    denormalize_star2,
    describe,
    get_spec,
    make,
    normalize_star2,
)
from policyloop.envs.core import TerminationCause, UnknownTaskError


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
    env = make(TaskId.PENDULUM)
    env.reset(0)
    env._state = (0.0, 0.0)
    assert env.step(0.0).reward == 0.0


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


@pytest.mark.parametrize(
    "native,expected",
    [
        ((0.0, 0.0, 0.0, 0.0), (0, 0, 0, 0)),
        ((4.8, 0.0, 0.0, 0.0), (50, 0, 0, 0)),
        ((2.4, 1.0, -0.209, 0.0), (25, 10, -25, 0)),
    ],
)
def test_normalize_star2_examples(native, expected):
    out = normalize_star2(native)
    assert out == expected
    assert all(type(v) is int for v in out)


def test_normalize_star2_saturates_velocities():
    out = normalize_star2((0.0, 7.5, 0.0, -9.0))
    assert out == (0, 50, 0, -50)
    assert all(type(v) is int for v in out)


def test_star2_round_trip_is_identity_on_grid():
    rng = np.random.default_rng(0)
    for _ in range(500):
        native = np.array(
            [
                rng.uniform(-4.8, 4.8),
                rng.uniform(-6, 6),
                rng.uniform(-0.418, 0.418),
                rng.uniform(-6, 6),
            ]
        )
        grid = normalize_star2(native)
        again = normalize_star2(denormalize_star2(grid))
        assert np.array_equal(grid, again)


def test_star2_rounding_half_away_from_zero():
    # 0.048 m -> 0.5 on the grid -> rounds to 1; symmetric for negatives
    assert normalize_star2((0.048, 0.0, 0.0, 0.0)) == (1, 0, 0, 0)
    assert normalize_star2((-0.048, 0.0, 0.0, 0.0)) == (-1, 0, 0, 0)


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


def test_acrobot_termination_soundness_under_random_play():
    from policyloop.envs.acrobot import tip_above_goal

    env = make(TaskId.ACROBOT)
    rng = random.Random(17)
    for episode in range(5):
        env.reset(episode)
        done = False
        while not done:
            result = env.step(rng.choice((0, 1, 2)))
            theta1, theta2, _, _ = env.state
            assert result.terminated == tip_above_goal(theta1, theta2)
            done = result.done


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
    hooks = {"_reset_state", "_step_state", "_observe", "_rollout", "_force_by_label"}
    assert not own & hooks


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
    """A value a policy returns is a valid action exactly when ``env.step``
    takes it, and both turn it into the same action. NaN and infinities are
    refused on every task, bools on the discrete ones."""
    spec = get_spec(task)
    program = PolicyProgram("get_action", spec.obs_names, "", lambda rng, *obs: value)
    env, other = make(task), make(task)
    outcome = evaluate(program, env.reset(0), random.Random(0), spec)
    other.reset(0)
    if outcome.is_valid:
        assert type(outcome.action) is (int if spec.is_discrete else float)
        assert env.step(value) == other.step(outcome.action)
    elif outcome.reason is InvalidReason.RUNTIME_ERROR:
        # an int too large for a float, on a continuous task
        assert not spec.is_discrete and value == 10**400
        with pytest.raises(OverflowError):
            env.step(value)
    else:
        with pytest.raises(ValueError, match="is not a valid action"):
            env.step(value)
    if isinstance(value, bool) and spec.is_discrete:
        assert not outcome.is_valid
    if not (isinstance(value, int) or math.isfinite(value)):
        assert not outcome.is_valid


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
