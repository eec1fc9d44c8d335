"""Reset and rollout contracts, observation encodings and termination rules
of the eight control tasks."""

import dataclasses
import math
import random

import numpy as np
import pytest

from policyloop import envs
from policyloop.dsl import InvalidReason, PolicyProgram, parse, run_episode
from policyloop.envs import ALL_TASKS, TaskId, describe, get_spec, make
from policyloop.envs.core import STEP_LIMIT, TerminationCause, UnknownTaskError

import reference_dynamics as ref
from conftest import reference_step_forms, step
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


# -- one step -------------------------------------------------------------


def test_pendulum_reward_zero_at_upright_rest():
    # a task with no terminal_cause steps, and its reward keeps its sign:
    # -0.0, where a sum of the one reward from 0.0 would read 0.0
    env = make(TaskId.PENDULUM)
    env.reset(0)
    env._state = (0.0, 0.0)
    result = step(env, 0.0)
    assert not hasattr(env, "terminal_cause")
    assert result == ((1.0, 0.0, 0.0), 0.0, STEP_LIMIT)
    assert math.copysign(1.0, result[1]) == -1.0
    assert env.state == (0.0, 0.0)


def test_pendulum_reward_at_downward_rest():
    env = make(TaskId.PENDULUM)
    env.reset(0)
    env._state = (math.pi, 0.0)
    # -(pi^2) from the angle term alone
    _, reward, _ = step(env, 0.0)
    assert reward == pytest.approx(-math.pi**2, abs=1e-9)


def test_cartpole_terminates_past_angle_limit():
    env = make(TaskId.CARTPOLE)
    env.reset(0)
    env._state = (0.0, 0.0, 0.207, 3.0)  # one tick pushes the angle past 0.2095
    _, _, cause = step(env, 1)
    assert cause is TerminationCause.BOUNDS_EXCEEDED
    assert abs(env.state[2]) > 0.2095


def test_cartpole_reward_one_per_step_including_terminal():
    env = make(TaskId.CARTPOLE)
    env.reset(3)
    total = 0.0
    for steps in range(1, 501):
        _, reward, cause = step(env, 1)  # constant push fails fast
        total += reward
        if cause is not STEP_LIMIT:
            break
    assert cause is TerminationCause.BOUNDS_EXCEEDED
    assert total == steps  # +1 every step, terminal included


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
        total = 0.0
        for _ in range(200):
            _, reward, cause = step(env, rng.choice((0, 1, 2)))
            total += reward
            if cause is not STEP_LIMIT:
                break
        assert -200.0 <= total <= -1.0


def test_mountain_car_discrete_goal_termination():
    env = make(TaskId.MOUNTAIN_CAR_DISCRETE)
    env.reset(0)
    env._state = (0.49, 0.05)
    _, reward, cause = step(env, 2)
    assert cause is TerminationCause.GOAL_REACHED
    assert reward == -1.0


def test_mountain_car_continuous_goal_bonus():
    env = make(TaskId.MOUNTAIN_CAR_CONTINUOUS)
    env.reset(0)
    env._state = (0.44, 0.05)
    _, reward, cause = step(env, 1.0)
    assert cause is TerminationCause.GOAL_REACHED
    assert reward == pytest.approx(100.0 - 0.1)


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
    assert step(env, 0.0)[2] is STEP_LIMIT
    env._state = (0.0, 0.0, 0.199, 3.0)
    assert step(env, 0.0)[2] is TerminationCause.BOUNDS_EXCEEDED


def test_acrobot_reward_and_goal():
    env = make(TaskId.ACROBOT)
    env.reset(0)
    assert step(env, 1)[1:] == (-1.0, STEP_LIMIT)
    # both links horizontal-ish above the bar -> goal condition holds
    env._state = (math.pi - 0.05, 0.0, 0.0, 0.0)
    assert step(env, 1)[1:] == (0.0, TerminationCause.GOAL_REACHED)


def test_acrobot_full_episode_return_minus_500():
    spec = get_spec(TaskId.ACROBOT)
    # no torque never reaches the goal
    program = parse(f"def get_action({', '.join(spec.obs_names)}):\n    return 1\n")
    trace = run_episode(program, TaskId.ACROBOT, seed=11, rng=random.Random(0))
    assert trace.total_reward == -500.0
    assert trace.cause is TerminationCause.STEP_LIMIT


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
            obs, reward, cause = step(env, action)
            rows.append((np.asarray(obs, dtype=np.float64).tobytes(), reward, cause))
            if cause is not STEP_LIMIT:
                break
        return rows

    assert rollout() == rollout()


def test_acrobot_observation_bounds():
    env = make(TaskId.ACROBOT)
    rng = random.Random(5)
    env.reset(5)
    for _ in range(300):
        obs, _, cause = step(env, rng.choice((0, 1, 2)))
        assert np.all(np.abs(obs[:4]) <= 1.0 + 1e-12)
        assert abs(obs[4]) <= 4 * math.pi + 1e-12
        assert abs(obs[5]) <= 9 * math.pi + 1e-12
        if cause is not STEP_LIMIT:
            env.reset(rng.randint(0, 10_000))


def test_pendulum_reward_never_positive():
    env = make(TaskId.PENDULUM)
    rng = random.Random(7)
    env.reset(7)
    for _ in range(200):
        assert step(env, rng.uniform(-2, 2))[1] <= 0.0


def test_cartpole_termination_soundness_under_random_play():
    # a step terminates exactly when its post-step state violates a failure
    # bound
    env = make(TaskId.CARTPOLE)
    rng = random.Random(13)
    for episode in range(30):
        env.reset(episode)
        for _ in range(500):
            _, _, cause = step(env, rng.choice((0, 1)))
            x, _, theta, _ = env.state
            failed = abs(x) > 2.4 or abs(theta) > 12.0 * 2.0 * math.pi / 360.0
            assert (cause is TerminationCause.BOUNDS_EXCEEDED) == failed
            if failed:
                break


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
        _, reward, cause = step(env, action)
        expected, _, _ = tick(state, coerce(action))
        assert repr(env.state) == repr(expected), state
        theta1, theta2, _, _ = env.state
        terminated = cause is not STEP_LIMIT
        assert terminated == tip_above_goal_form(theta1, theta2), state
        if terminated:
            assert cause is TerminationCause.GOAL_REACHED and reward == 0.0
        ends += terminated
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


def _env_classes():
    """Every class in every env's MRO, ``Environment`` included."""
    return {
        cls for env_class in envs.ENV_CLASSES.values() for cls in env_class.__mro__
    } - {object}


def test_tasks_declare_data_not_hooks():
    """A task is a spec, class data and its own or its family's _rollout:
    the reset draw and the label tables are built once, by the base, and a
    task that shares its family's loop has none of its own."""
    mechanism = {"_reset_state", "__init_subclass__"}
    for cls in _env_classes():
        own = mechanism & set(vars(cls))
        assert own == (mechanism if cls is envs.Environment else set()), cls
    for env_class in envs.ENV_CLASSES.values():
        if env_class.__base__ is not envs.Environment:
            assert "_rollout" not in vars(env_class), env_class


@pytest.mark.parametrize("task", ALL_TASKS)
def test_reset_ranges_have_one_pair_per_state_variable(task):
    env = make(task)
    env.reset(7)
    ranges = type(env)._reset_ranges
    assert len(ranges) == len(env.state)
    for low, high in ranges:
        assert type(low) is float and type(high) is float
        assert low <= high


def _frozen_effect(task, label):
    """The force, push or torque that the frozen step form of ``task``
    applies for ``label``, each as that form computes it."""
    if task.value in ref.CARTPOLE_FAMILY_TASKS:
        labels = ref.CARTPOLE_FAMILY_TASKS[task.value][0]
        return 10.0 if label == labels[1] else -10.0  # cartpole_family_step_form
    if task is TaskId.ACROBOT:
        return ref._ACROBOT_TORQUES[label]  # acrobot_step_form
    assert task is TaskId.MOUNTAIN_CAR_DISCRETE
    return (label - 1) * 0.001  # mountain_car_discrete_step_form


@pytest.mark.parametrize("task", ALL_TASKS)
def test_label_tables_are_the_spec_labels_and_the_frozen_effects(task):
    cls = envs.ENV_CLASSES[task]
    if not cls.spec.is_discrete:
        assert cls._labels == {} and cls._effect_of == {}
        return
    labels = cls.spec.action.labels
    assert cls._labels == {label: label for label in labels}
    assert list(cls._effect_of) == list(labels)
    assert {label: effect.hex() for label, effect in cls._effect_of.items()} == {
        label: float(_frozen_effect(task, label)).hex() for label in labels
    }


@pytest.mark.parametrize("task", ALL_TASKS)
@pytest.mark.parametrize("body", ["if {0} > 1e300:\n        return 0", "return 1 / ({0} - {0})"],
                         ids=["returns-none", "raises"])
def test_a_rollout_refused_at_step_0_returns_minus_zero(task, body):
    """The rollout's return is the sum of its rewards from -0.0, on every
    task; the episode's is that plus 0.0."""
    spec = get_spec(task)
    params = ", ".join(spec.obs_names)
    program = parse(f"def get_action({params}):\n    {body.format(spec.obs_names[0])}\n")
    env = make(task)
    env.reset(11)
    total_reward, cause, _ = env._rollout(program.compiled, random.Random(0), 5, [], [])
    assert cause is TerminationCause.INVALID_ACTION
    assert total_reward == 0.0 and math.copysign(1.0, total_reward) == -1.0
    trace = run_episode(program, task, seed=11, rng=random.Random(0))
    assert trace.length == 1 and trace.ended_invalid
    assert trace.total_reward == 0.0 and math.copysign(1.0, trace.total_reward) == 1.0


def test_no_env_class_has_step_or_observe_hooks():
    """Each task's observation and physics are written once, inline in its
    own or its family's _rollout; no class, the base included, keeps a
    hook for them, and the base's _rollout is no driver."""
    classes = _env_classes()
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
    """A rollout under random play ends with the task's terminal cause
    exactly when ``reference_step_forms`` terminates, and with
    ``STEP_LIMIT`` only at the step limit without a termination. Cut at the
    step that terminates, the same rollout still reports the termination."""
    spec = get_spec(task)
    env = make(task)
    _, tick, _ = reference_step_forms(env)
    rng = random.Random(23)
    for seed in range(3):
        env.reset(seed)
        state = env.state
        actions = []
        policy = lambda _rng, _obs: random_action(spec, rng)
        _, cause, _ = env._rollout(policy, None, spec.max_steps, [], actions)
        terminated = False
        for taken, action in enumerate(actions, 1):
            state, _, terminated = tick(state, action)
            if terminated:
                break
        assert taken == len(actions), (seed, taken)
        if terminated:
            assert cause is env.terminal_cause, seed
            env.reset(seed)
            replay = iter(actions)
            _, cut, _ = env._rollout(lambda _rng, _obs: next(replay), None, taken, [], [])
            assert cut is env.terminal_cause, seed
        else:
            assert cause is STEP_LIMIT and len(actions) == spec.max_steps, seed


@pytest.mark.parametrize("task", ALL_TASKS)
def test_step_is_the_reference_step_bit_for_bit(task):
    """A one-step rollout's whole result and the state it leaves, against
    one step of ``reference_step_forms``, for an episode's worth of steps:
    terminated with the task's own cause. Continuous actions include -0.0
    and values to clamp."""
    spec = get_spec(task)
    env = make(task)
    coerce, tick, observe = reference_step_forms(env)
    rng = random.Random(29)
    for seed in range(3):
        env.reset(seed)
        state = env.state
        for steps in range(1, spec.max_steps + 1):
            if spec.is_discrete or steps % 4:
                value = random_action(spec, rng)
            else:
                value = rng.choice((0.0, -0.0, 2 * spec.action.lo, 2 * spec.action.hi))
            state, reward, terminated = tick(state, coerce(value))
            cause = env.terminal_cause if terminated else STEP_LIMIT
            result = step(env, value)
            assert repr(result) == repr((observe(state), reward, cause)), (seed, steps)
            assert repr(env.state) == repr(state)
            if terminated:
                break


@pytest.mark.parametrize("task", ALL_TASKS)
def test_nothing_reads_an_env_before_reset(task):
    env = make(task)
    with pytest.raises(RuntimeError, match=r"observe\(\) before reset\(\)"):
        env.observe()
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
def test_policy_actions_are_valid_exactly_as_the_frozen_check_says(task, value):
    """A value a policy returns is a valid action exactly when the frozen
    coerce form takes it, and then the rollout turns it into that action
    and steps as under that action; the episode of any other value ends
    invalid on its first step. NaN and infinities are refused on every
    task, bools on the discrete ones, and an int too large for a float is
    a runtime error, which the frozen form raises as OverflowError."""
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
    if expected is OverflowError:
        assert not spec.is_discrete and value == 10**400
        assert trace.invalid_outcome.reason is InvalidReason.RUNTIME_ERROR
        assert trace.actions == []
    elif expected is None:
        assert trace.invalid_outcome.reason is InvalidReason.OUT_OF_RANGE
        assert trace.actions == []
    else:
        assert type(expected) is (int if spec.is_discrete else float)
        # repr tells -0.0 from 0.0 and an int from an equal float
        assert repr(trace.actions[0]) == repr(expected)
        env, other = make(task), make(task)
        env.reset(0)
        other.reset(0)
        assert step(env, value) == step(other, expected)
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
