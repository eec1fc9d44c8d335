"""Cross-checks every task's dynamics against independently coded reference
integrators, step by step over full episodes."""

import math
import random

import numpy as np
import pytest

from policyloop.envs import ALL_TASKS, TaskId, get_spec, make
from policyloop.envs.acrobot import (
    MAX_VEL_1,
    MAX_VEL_2,
    TORQUES,
    rk4_step,
)
from policyloop.envs.cartpole import (
    FORCE_MAG,
    STAR2_GRID,
    THETA_OBS_BOUND,
    VELOCITY_CLAMP,
    X_OBS_BOUND,
)
from policyloop.envs.core import RAISED, ContinuousAction, DiscreteActions, TerminationCause

from reference_dynamics import (
    CARTPOLE_FAMILY_TASKS,
    acrobot_ref,
    cartpole_family_observation_form,
    cartpole_family_step_form,
    cartpole_ref,
    cartpole_step_two_call_form,
    continuous_coerce_min_max_form,
    discrete_coerce_original,
    normalize_star2_copysign_form,
    mountain_car_ref,
    pendulum_ref,
    pendulum_ref_reward,
    rk4_step_generator_form,
    star2_encode_ref,
)

TOL = 1e-9
SEQUENCES_PER_TASK = 10


def _random_actions(spec, rng, n):
    if spec.is_discrete:
        return [rng.choice(spec.action.labels) for _ in range(n)]
    return [rng.uniform(spec.action.lo, spec.action.hi) for _ in range(n)]


def _reference_step(task, state, action):
    """Advance the reference model; returns (state, observation)."""
    if task is TaskId.CARTPOLE:
        state = cartpole_ref(state, FORCE_MAG if action == 1 else -FORCE_MAG)
        return state, np.array(state)
    if task is TaskId.CARTPOLE_STAR1:
        state = cartpole_ref(state, FORCE_MAG if action == 2 else -FORCE_MAG)
        return state, np.array(state)
    if task is TaskId.CARTPOLE_STAR2:
        state = cartpole_ref(state, FORCE_MAG if action == 2 else -FORCE_MAG)
        return state, np.array(star2_encode_ref(state), dtype=np.float64)
    if task is TaskId.INVERTED_PENDULUM:
        state = cartpole_ref(state, float(action))
        x, xd, th, thd = state
        return state, np.array([x, th, xd, thd])
    if task is TaskId.PENDULUM:
        state = pendulum_ref(state, float(action))
        th, thd = state
        return state, np.array([np.cos(th), np.sin(th), thd])
    if task is TaskId.ACROBOT:
        state = acrobot_ref(state, float(action) - 1.0)
        t1, t2, w1, w2 = state
        return state, np.array([np.cos(t1), np.sin(t1), np.cos(t2), np.sin(t2), w1, w2])
    if task is TaskId.MOUNTAIN_CAR_DISCRETE:
        state = mountain_car_ref(state, (int(action) - 1) * 0.001)
        return state, np.array(state)
    if task is TaskId.MOUNTAIN_CAR_CONTINUOUS:
        state = mountain_car_ref(state, float(action) * 0.0015)
        return state, np.array(state)
    raise AssertionError(task)


@pytest.mark.parametrize("task", ALL_TASKS)
def test_dynamics_agree_with_reference(task):
    spec = get_spec(task)
    for sequence_idx in range(SEQUENCES_PER_TASK):
        rng = random.Random(1000 * sequence_idx + 7)
        env = make(task)
        env.reset(sequence_idx)
        ref_state = tuple(env.state)
        actions = _random_actions(spec, rng, spec.max_steps)
        for step_idx, action in enumerate(actions):
            result = env.step(action)
            ref_state, ref_obs = _reference_step(task, ref_state, action)
            np.testing.assert_allclose(
                np.asarray(result.observation, dtype=np.float64),
                ref_obs,
                rtol=0,
                atol=TOL,
                err_msg=f"{task} sequence {sequence_idx} step {step_idx}",
            )
            if result.done:
                break


def test_pendulum_rewards_agree_with_reference():
    env = make(TaskId.PENDULUM)
    for sequence_idx in range(SEQUENCES_PER_TASK):
        rng = random.Random(sequence_idx)
        env.reset(sequence_idx)
        state = tuple(env.state)
        for _ in range(200):
            torque = rng.uniform(-2.0, 2.0)
            expected = pendulum_ref_reward(state, torque)
            result = env.step(torque)
            assert result.reward == pytest.approx(expected, abs=TOL)
            state = pendulum_ref(state, torque)


def test_acrobot_rk4_is_bitwise_equal_to_the_generator_form():
    # exact equality, not a tolerance: the straight-line integrator must round
    # every operation as the original did, or replayed Acrobot traces drift
    rng = random.Random(20240)
    for _ in range(10_000):
        state = (
            rng.uniform(-math.pi, math.pi),
            rng.uniform(-math.pi, math.pi),
            rng.uniform(-MAX_VEL_1, MAX_VEL_1),
            rng.uniform(-MAX_VEL_2, MAX_VEL_2),
        )
        for torque in TORQUES:
            assert rk4_step(state, torque) == rk4_step_generator_form(state, torque), state


# -- cart-pole step, Star2 encoding and coerce: bit for bit -----------------
#
# The cart-pole physics and the Star2 encoding are written once, inline in
# the family's _rollout, which env.step and env.observe() run. These tests
# drive them from set states, on the forces a task can apply: +/-10 through
# CartPole's labels, and [-3, 3], signed zeros included, through
# InvertedPendulum's continuous action.


def _exact(value):
    """A value with its type and, for floats, every bit, so that ``==``
    tells 0.0 from -0.0 and an int from an equal float."""
    if isinstance(value, tuple):
        return tuple(_exact(v) for v in value)
    if isinstance(value, float):
        return (type(value), value.hex())
    return (type(value), value)


def _outcome(fn, *args):
    """What ``fn`` returns, exactly, or the type of what it raises."""
    try:
        return ("returned", _exact(fn(*args)))
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return ("raised", type(exc))


def _env_at(task, state):
    env = make(task)
    env.reset(0)
    env._state = tuple(state)
    return env


def _stepped_state(task, state, action):
    """The native state ``env.step(action)`` leaves from ``state``."""
    env = _env_at(task, state)
    env.step(action)
    return env.state


def _observation(task, state):
    return _env_at(task, state).observe()


def _random_cartpole_states(seed, n):
    # velocities well beyond the +/-5 saturation of the Star2 encoding, and
    # positions and angles beyond the native bounds
    rng = random.Random(seed)
    return [
        (
            rng.uniform(-6.0, 6.0),
            rng.uniform(-12.0, 12.0),
            rng.uniform(-math.pi, math.pi),
            rng.uniform(-12.0, 12.0),
        )
        for _ in range(n)
    ]


_SIGNED_ZERO_STATES = [
    (a, b, c, d) for a in (0.0, -0.0) for b in (0.0, -0.0) for c in (0.0, -0.0) for d in (0.0, -0.0)
]

# (task, action, the force it applies)
_CARTPOLE_PUSHES = [
    (TaskId.CARTPOLE, 0, -FORCE_MAG),
    (TaskId.CARTPOLE, 1, FORCE_MAG),
    (TaskId.INVERTED_PENDULUM, 0.0, 0.0),
    (TaskId.INVERTED_PENDULUM, -0.0, -0.0),
    (TaskId.INVERTED_PENDULUM, 3.0, 3.0),
    (TaskId.INVERTED_PENDULUM, -3.0, -3.0),
]


def test_cartpole_step_is_bitwise_equal_to_the_two_call_form():
    rng = random.Random(7331)
    states = _random_cartpole_states(7330, 10_000) + _SIGNED_ZERO_STATES
    for state in states:
        drawn = rng.uniform(-3.0, 3.0)
        for task, action, force in _CARTPOLE_PUSHES + [(TaskId.INVERTED_PENDULUM, drawn, drawn)]:
            assert _exact(_stepped_state(task, state, action)) == _exact(
                cartpole_step_two_call_form(state, force)
            ), (task, state, action)


def test_cartpole_step_on_non_finite_states_matches_the_two_call_form():
    for special in (math.nan, math.inf, -math.inf):
        for i in range(4):
            state = [0.01, -0.02, 0.03, -0.04]
            state[i] = special
            for task, action, force in _CARTPOLE_PUSHES:
                assert _outcome(_stepped_state, task, tuple(state), action) == _outcome(
                    cartpole_step_two_call_form, tuple(state), force
                ), (task, state, action)


def _edges(limit):
    """The values of x or theta at which the bounds test may turn: each
    side of the limit, one ulp beyond it, the non-finite values and the
    two zeros."""
    return [
        limit,
        -limit,
        math.nextafter(limit, math.inf),
        math.nextafter(-limit, -math.inf),
        math.nan,
        math.inf,
        -math.inf,
        0.0,
        -0.0,
    ]


def _step_ending(task, state, action):
    result = _env_at(task, state).step(action)
    return result.terminated, result.cause


def _reference_step_ending(task, state, action):
    # a step is a one-step rollout, which encodes the state it starts from
    cartpole_family_observation_form(task.value, state)
    state, _, terminated = cartpole_family_step_form(task.value, state, action)
    cartpole_family_observation_form(task.value, state)
    return terminated, TerminationCause.BOUNDS_EXCEEDED if terminated else TerminationCause.NONE


@pytest.mark.parametrize("component", [0, 2], ids=["cart_position", "pole_angle"])
@pytest.mark.parametrize("task", [TaskId(name) for name in CARTPOLE_FAMILY_TASKS])
def test_cartpole_bounds_test_at_its_edges_matches_the_step_form(task, component):
    # with both velocities zero the tick leaves x and theta as they are set,
    # so the bounds test sees each edge value itself; a NaN ends no episode,
    # and on CartPoleStar2 a non-finite position or angle raises in the encoding
    labels, x_limit, theta_limit, _ = CARTPOLE_FAMILY_TASKS[task.value]
    action = 0.0 if labels is None else labels[0]
    for value in _edges(x_limit if component == 0 else theta_limit):
        state = [0.0, 0.0, 0.0, 0.0]
        state[component] = value
        assert _outcome(_step_ending, task, tuple(state), action) == _outcome(
            _reference_step_ending, task, tuple(state), action
        ), (task, state)


def test_star2_observation_is_exactly_the_copysign_form_on_random_states():
    for state in _random_cartpole_states(5050, 10_000) + _SIGNED_ZERO_STATES:
        new = _observation(TaskId.CARTPOLE_STAR2, state)
        assert _exact(new) == _exact(normalize_star2_copysign_form(state)), state
        assert all(type(v) is int for v in new), state


def _raws_around_ties(bound, limit):
    """Raw values whose scaled value ``v * STAR2_GRID / bound`` is a half-grid
    tie in [-limit, limit] or one of its two ``nextafter`` neighbours.

    Each tie is approached by walking the raw floats around ``tie * bound /
    STAR2_GRID`` one ulp at a time; a scaled value no float maps onto never
    reaches the rounding, so it cannot be fed in. Also returns how many ties
    were hit exactly.
    """
    raws, exact_ties = [], 0
    for doubled in range(-2 * limit + 1, 2 * limit, 2):
        tie = doubled / 2
        wanted = {math.nextafter(tie, -math.inf), tie, math.nextafter(tie, math.inf)}
        raw = tie * bound / STAR2_GRID
        for _ in range(40):
            raw = math.nextafter(raw, -math.inf)
        for _ in range(81):
            scaled = raw * STAR2_GRID / bound
            if scaled in wanted:
                raws.append(raw)
                exact_ties += scaled == tie
            raw = math.nextafter(raw, math.inf)
    return raws, exact_ties


@pytest.mark.parametrize(
    "component, bound, limit",
    [
        (0, X_OBS_BOUND, 60),
        (1, VELOCITY_CLAMP, 50),  # the +/-5 saturation caps the grid at 50
        (2, THETA_OBS_BOUND, 60),
        (3, VELOCITY_CLAMP, 50),
    ],
    ids=["cart_position", "cart_velocity", "pole_angle", "pole_angular_velocity"],
)
def test_star2_observation_rounds_every_half_grid_tie_as_the_copysign_form(
    component, bound, limit
):
    raws, exact_ties = _raws_around_ties(bound, limit)
    # most ties are reachable exactly; a test that fed none would pin nothing
    assert exact_ties >= limit * 2 * 3 // 4
    for raw in raws:
        for sign_zero in (0.0, -0.0):
            state = [sign_zero] * 4
            state[component] = raw
            new = _observation(TaskId.CARTPOLE_STAR2, state)
            assert _exact(new) == _exact(normalize_star2_copysign_form(state)), raw
            assert all(type(v) is int for v in new), raw


@pytest.mark.parametrize("special", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("component", range(4))
def test_star2_observation_of_non_finite_states_matches_the_copysign_form(special, component):
    # NaN raises ValueError and a position or angle infinity OverflowError;
    # an infinite velocity saturates to the grid edge
    state = [0.1, -0.2, 0.03, -0.4]
    state[component] = special
    assert _outcome(_observation, TaskId.CARTPOLE_STAR2, state) == _outcome(
        normalize_star2_copysign_form, state
    )


_HUGE_INT = 10**400  # too large for a float

_COERCE_VALUES = [
    True,
    False,
    1.0,
    2.0,
    np.int64(2),
    np.float64(1.5),
    3,
    0,
    None,
    0.0,
    -0.0,
    1.5,
    -2.0,
    3.0,
    -3.0,
    2.0000000000000004,
    -1.0000000000000002,
    math.nextafter(3.0, math.inf),
    math.nextafter(-3.0, -math.inf),
    4.5,
    -1e300,
    1e300,
    math.nan,
    math.inf,
    -math.inf,
    _HUGE_INT,
    -_HUGE_INT,
]

_ACTION_SPACES = sorted({get_spec(task).action for task in ALL_TASKS}, key=repr)


def _space_id(space):
    if isinstance(space, DiscreteActions):
        return "labels-" + "-".join(map(str, space.labels))
    return f"range-{space.hi:g}"


def _rollout_action(task, value):
    """The action a one-step rollout of ``task`` takes when its policy
    returns ``value``, or None when it refuses the value. A check that
    raised, which the rollout reports as RAISED, raises OverflowError here,
    the one error the coerce forms raise."""
    env = make(task)
    env.reset(0)
    actions = []
    _, _, refused = env._rollout(lambda rng, obs: value, None, 1, [], actions)
    if refused is RAISED:
        raise OverflowError
    return actions[0] if actions else None


@pytest.mark.parametrize("space", _ACTION_SPACES, ids=_space_id)
def test_coerce_is_exactly_the_original_form(space):
    # and so is the action check of the rollout of every task with this
    # space, which the cart-pole family writes out inline
    tasks = [task for task in ALL_TASKS if get_spec(task).action == space]
    for value in _COERCE_VALUES:
        if isinstance(space, DiscreteActions):
            expected = _outcome(discrete_coerce_original, space.labels, value)
        else:
            expected = _outcome(continuous_coerce_min_max_form, space.lo, space.hi, value)
        assert _outcome(space.coerce, value) == expected, value
        for task in tasks:
            assert _outcome(_rollout_action, task, value) == expected, (task, value)


def test_continuous_coerce_of_an_int_too_large_for_a_float_raises_overflow():
    space = ContinuousAction(lo=-3.0, hi=3.0)
    with pytest.raises(OverflowError):
        space.coerce(_HUGE_INT)
    assert _outcome(space.coerce, -0.0) == ("returned", (float, "-0x0.0p+0"))
    assert _outcome(DiscreteActions(labels=(1, 2)).coerce, np.int64(2)) == ("returned", (int, 2))
