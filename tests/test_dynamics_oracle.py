"""Cross-checks every task's dynamics against independently coded reference
integrators, step by step over full episodes."""

import itertools
import math
import random

import numpy as np
import pytest

from policyloop.envs import ALL_TASKS, TaskId, get_spec, make
from policyloop.envs.cartpole import (
    FORCE_MAG,
    STAR2_GRID,
    THETA_OBS_BOUND,
    VELOCITY_CLAMP,
    X_OBS_BOUND,
)
from policyloop.envs.core import POLICY_ERRORS, DiscreteActions

from conftest import reference_step_forms, step
from reference_dynamics import (
    ACROBOT_MAX_VEL_1,
    ACROBOT_MAX_VEL_2,
    CARTPOLE_FAMILY_TASKS,
    MOUNTAIN_CAR_MAX_POSITION,
    MOUNTAIN_CAR_MAX_SPEED,
    MOUNTAIN_CAR_MIN_POSITION,
    PENDULUM_MAX_SPEED,
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
            obs, _, terminated = step(env, action)
            ref_state, ref_obs = _reference_step(task, ref_state, action)
            np.testing.assert_allclose(
                np.asarray(obs, dtype=np.float64),
                ref_obs,
                rtol=0,
                atol=TOL,
                err_msg=f"{task} sequence {sequence_idx} step {step_idx}",
            )
            if terminated:
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
            _, reward, _ = step(env, torque)
            assert reward == pytest.approx(expected, abs=TOL)
            state = pendulum_ref(state, torque)


# -- cart-pole step, Star2 encoding and coerce: bit for bit -----------------
#
# The cart-pole physics and the Star2 encoding are written once, inline in
# the family's _rollout, which env.observe() and conftest's step helper
# run. These tests drive them from set states, on the forces a task can
# apply: +/-10 through CartPole's labels, and [-3, 3], signed zeros
# included, through InvertedPendulum's continuous action.


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
    """The native state one step under ``action`` leaves from ``state``."""
    env = _env_at(task, state)
    step(env, action)
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
    return step(_env_at(task, state), action)[2]


def _reference_step_ending(task, state, action):
    # a step encodes the state it starts from, and the one it leaves
    cartpole_family_observation_form(task.value, state)
    state, _, terminated = cartpole_family_step_form(task.value, state, action)
    cartpole_family_observation_form(task.value, state)
    return terminated


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
    raised, which the rollout reports as no action and the value None for a
    value that was not None, raises OverflowError here, the one error the
    coerce forms raise."""
    env = make(task)
    env.reset(0)
    actions = []
    _, refused = env._rollout(lambda rng, obs: value, None, 1, [], actions)
    if not actions and refused is None and value is not None:
        raise OverflowError
    return actions[0] if actions else None


@pytest.mark.parametrize("space", _ACTION_SPACES, ids=_space_id)
def test_action_check_is_exactly_the_original_coerce_form(space):
    """The action check of this space in envs/core.py, which the rollout of
    every task with this space calls, takes each value exactly as the frozen
    coerce form does: the same action, type and sign, or the same refusal."""
    tasks = [task for task in ALL_TASKS if get_spec(task).action == space]
    for value in _COERCE_VALUES:
        if isinstance(space, DiscreteActions):
            expected = _outcome(discrete_coerce_original, space.labels, value)
        else:
            expected = _outcome(continuous_coerce_min_max_form, space.lo, space.hi, value)
        for task in tasks:
            assert _outcome(_rollout_action, task, value) == expected, (task, value)


# -- Acrobot, Pendulum and MountainCar: bit for bit ---------------------------
#
# Each of these tasks' observation, physics and termination test are
# written once, inline in its (or its family's) _rollout, which calls the
# action check of envs/core.py. These
# tests drive one-step and whole rollouts from set states and compare every
# result and the state with the frozen step forms of
# tests/reference_dynamics.py, which the package's hooks were: Acrobot's
# RK4 is the generator form.

_FLOAT_TASKS = (
    TaskId.ACROBOT,
    TaskId.PENDULUM,
    TaskId.MOUNTAIN_CAR_DISCRETE,
    TaskId.MOUNTAIN_CAR_CONTINUOUS,
)


def _step_actions(task):
    """Every label; or the ends of the range, both zeros, a value inside
    and two to clamp."""
    action = get_spec(task).action
    if isinstance(action, DiscreteActions):
        return list(action.labels)
    return [action.lo, action.hi, 0.0, -0.0, 0.37 * action.hi, 2 * action.lo, 2 * action.hi]


def _step_result(task, state, action):
    """One step under ``action`` from ``state``: its result and the state it
    leaves."""
    env = _env_at(task, state)
    return step(env, action), env.state


def _reference_step_result(task, state, action):
    env = make(task)
    coerce, tick, observe = reference_step_forms(env)
    # a step encodes the state it starts from, and the one it leaves
    observe(state)
    state, reward, terminated = tick(state, coerce(action))
    return (observe(state), reward, terminated), state


def _assert_steps_match(task, states):
    for state in states:
        for action in _step_actions(task):
            assert _outcome(_step_result, task, state, action) == _outcome(
                _reference_step_result, task, state, action
            ), (task, state, action)


def _random_states(task, seed, n, wide=False):
    """States drawn where the task goes; ``wide`` draws every component in
    +/-40, beyond every wrap and clamp."""
    rng = random.Random(seed)
    if wide:
        env = make(task)
        env.reset(0)
        dim = len(env.state)
        return [tuple(rng.uniform(-40.0, 40.0) for _ in range(dim)) for _ in range(n)]
    if task is TaskId.ACROBOT:
        return [
            (
                rng.uniform(-math.pi, math.pi),
                rng.uniform(-math.pi, math.pi),
                rng.uniform(-ACROBOT_MAX_VEL_1, ACROBOT_MAX_VEL_1),
                rng.uniform(-ACROBOT_MAX_VEL_2, ACROBOT_MAX_VEL_2),
            )
            for _ in range(n)
        ]
    if task is TaskId.PENDULUM:
        return [(rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)) for _ in range(n)]
    return [(rng.uniform(-1.3, 0.7), rng.uniform(-0.1, 0.1)) for _ in range(n)]


def test_acrobot_step_is_bitwise_equal_to_the_generator_form():
    # exact equality, not a tolerance: the fused step must round every
    # operation as the original did, or replayed Acrobot traces drift
    states = _random_states(TaskId.ACROBOT, 20240, 10_000)
    _assert_steps_match(TaskId.ACROBOT, states)
    _assert_steps_match(TaskId.ACROBOT, _random_states(TaskId.ACROBOT, 20241, 3_000, wide=True))


@pytest.mark.parametrize("task", _FLOAT_TASKS[1:], ids=lambda task: task.value)
def test_float_task_step_is_bitwise_equal_to_the_frozen_form(task):
    _assert_steps_match(task, _random_states(task, 4040, 3_000))
    _assert_steps_match(task, _random_states(task, 4041, 1_000, wide=True))


@pytest.mark.parametrize("task", _FLOAT_TASKS, ids=lambda task: task.value)
def test_float_task_step_on_special_states_matches_the_frozen_form(task):
    # a NaN passes the wraps and clamps; an infinite angle or position
    # raises ValueError in cos or sin; each signed zero keeps its sign
    # where the frozen form keeps it
    base = _random_states(task, 99, 1)[0]
    states = []
    for i in range(len(base)):
        for special in (math.nan, math.inf, -math.inf, 0.0, -0.0):
            state = list(base)
            state[i] = special
            states.append(tuple(state))
    states += itertools.product((0.0, -0.0), repeat=len(base))
    _assert_steps_match(task, states)


def _landing(edge, image, lo, hi, walk=16):
    """Inputs x in about [lo, hi] at which ``image(x)`` is ``edge`` or one
    ulp from it: each crossing of ``edge`` that a 64-point scan finds is
    bisected down to adjacent floats, and the floats within ``walk`` ulps
    of it are kept when their image is one of the three."""
    xs = [lo + (hi - lo) * k / 64 for k in range(65)]
    above = [image(x) > edge for x in xs]
    wanted = {math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)}
    found = []
    for a, b, a_above, b_above in zip(xs, xs[1:], above, above[1:]):
        if a_above == b_above:
            continue
        while math.nextafter(a, b) != b:
            middle = (a + b) / 2
            if (image(middle) > edge) == a_above:
                a = middle
            else:
                b = middle
        for _ in range(walk):
            a = math.nextafter(a, -math.inf)
        for _ in range(2 * walk + 1):
            if image(a) in wanted:
                found.append(a)
            a = math.nextafter(a, math.inf)
    return found


def _edge_states(task, seed):
    """(states, exact): states whose step hands each clamp (and
    MountainCar's goal and left wall) a value on its edge or one ulp from
    it, and how many of those values were the edge itself.

    The value the clamp or test sees is written out here from the frozen
    forms, before the clamp, as ``image`` of the one state component
    varied.
    """
    rng = random.Random(seed)
    states, exact = [], 0

    def collect(base, component, edge, image, width):
        nonlocal exact
        for x in _landing(edge, image, edge - width, edge + width):
            state = list(base)
            state[component] = x
            states.append(tuple(state))
            exact += image(x) == edge

    if task is TaskId.ACROBOT:
        for component, limit in ((2, ACROBOT_MAX_VEL_1), (3, ACROBOT_MAX_VEL_2)):
            for edge in (limit, -limit):
                for k in range(12):
                    base = [rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), 0.0, 0.0]
                    torque = (-1.0, 0.0, 1.0)[k % 3]

                    def image(x, base=base, component=component, torque=torque):
                        state = list(base)
                        state[component] = x
                        return rk4_step_generator_form(tuple(state), torque)[component]

                    collect(base, component, edge, image, 4.0)
    elif task is TaskId.PENDULUM:
        for edge in (PENDULUM_MAX_SPEED, -PENDULUM_MAX_SPEED):
            for k in range(12):
                theta = 0.0 if k == 0 else rng.uniform(-math.pi, math.pi)
                torque = rng.uniform(-2.0, 2.0)

                def image(x, theta=theta, torque=torque):
                    return x + (15.0 * math.sin(theta) + 3.0 * torque) * 0.05

                collect((theta, 0.0), 1, edge, image, 4.0)
    else:
        push = 0.0  # the middle label, and a force of 0.0

        def velocity(position, velocity):
            return velocity + (push - 0.0025 * math.cos(3.0 * position))

        def clamped(value):
            return min(max(value, -MOUNTAIN_CAR_MAX_SPEED), MOUNTAIN_CAR_MAX_SPEED)

        for edge in (MOUNTAIN_CAR_MAX_SPEED, -MOUNTAIN_CAR_MAX_SPEED):
            for _ in range(12):
                position = rng.uniform(-1.1, 0.5)
                collect(
                    (position, 0.0), 1, edge,
                    lambda x, position=position: velocity(position, x), 0.05,
                )
        # the right and left walls, the goals; on the left wall with a
        # negative velocity, which stops the car, and with a positive one
        goal = 0.5 if task is TaskId.MOUNTAIN_CAR_DISCRETE else 0.45
        for edge, speeds in (
            (MOUNTAIN_CAR_MAX_POSITION, (0.01, 0.06)),
            (goal, (0.0, 0.01, 0.06, -0.01)),
            (MOUNTAIN_CAR_MIN_POSITION, (-0.06, -0.01, 0.0, 0.01)),
        ):
            for speed in speeds:
                collect(
                    (edge, speed), 0, edge,
                    lambda x, speed=speed: x + clamped(velocity(x, speed)), 0.1,
                )
    return states, exact


@pytest.mark.parametrize("task", _FLOAT_TASKS, ids=lambda task: task.value)
def test_float_task_clamps_at_their_edges_match_the_frozen_form(task):
    states, exact = _edge_states(task, 515)
    # a test that reached no edge itself would pin nothing
    assert exact >= 4, exact
    _assert_steps_match(task, states)


# A policy that returns an unusable value, or raises, on its call ``at``:
# before it, valid actions drawn from its own rng. An exception class is
# raised: the rollout ends on each of POLICY_ERRORS, and lets TypeError out.
_EXCEPTIONS = [ZeroDivisionError, OverflowError, ValueError, TypeError]
_BAD_VALUES = {
    "discrete": [7, True, None, 2.5, math.nan] + _EXCEPTIONS,
    "continuous": [None, math.nan, math.inf, -math.inf, 10**400] + _EXCEPTIONS,
}


def _policy(task, bad, at, seed):
    spec = get_spec(task)
    draws = random.Random(seed)
    calls = 0

    def policy(rng, obs):
        nonlocal calls
        calls += 1
        if calls - 1 == at:
            if isinstance(bad, type):
                raise bad("the policy failed")
            return bad
        if spec.is_discrete:
            return draws.choice(spec.action.labels)
        return draws.uniform(2 * spec.action.lo, 2 * spec.action.hi)

    return policy


def _reference_rollout(task, state, policy, limit):
    """The rollout as a loop of frozen reference steps: (return, the last
    value the policy returned, observations, actions, state), the lists as
    tuples."""
    env = make(task)
    coerce, tick, observe = reference_step_forms(env)
    observations, actions, total_reward, value = [], [], -0.0, None
    for _ in range(limit):
        obs = observe(state)
        observations.append(obs)
        try:
            value = policy(None, obs)
            action = coerce(value)
        except POLICY_ERRORS:
            value, action = None, None
        if action is None:
            break
        actions.append(action)
        state, reward, terminated = tick(state, action)
        total_reward += reward
        if terminated:
            break
    return total_reward, value, tuple(observations), tuple(actions), state


def _rollout(task, state, policy, limit):
    env = _env_at(task, state)
    observations, actions = [], []
    total_reward, value = env._rollout(policy, None, limit, observations, actions)
    return total_reward, value, tuple(observations), tuple(actions), env.state


@pytest.mark.parametrize("task", _FLOAT_TASKS, ids=lambda task: task.value)
def test_float_task_rollout_with_a_bad_policy_matches_the_frozen_form(task):
    spec = get_spec(task)
    kind = "discrete" if spec.is_discrete else "continuous"
    ended_by_the_bad_value = 0
    for seed in range(4):
        env = make(task)
        env.reset(seed)
        state = env.state
        for bad in _BAD_VALUES[kind]:
            for at in (0, 1, 37):
                got = _outcome(_rollout, task, state, _policy(task, bad, at, seed), spec.max_steps)
                expected = _outcome(
                    _reference_rollout, task, state, _policy(task, bad, at, seed), spec.max_steps
                )
                assert got == expected, (state, bad, at)
                # only the bad value ends an episode invalid, on its step:
                # the one observation with no action
                if got[0] == "returned" and len(got[1][2]) > len(got[1][3]):
                    assert len(got[1][3]) == at
                    ended_by_the_bad_value += 1
    # from a reset state the physics ends few of these episodes first
    assert ended_by_the_bad_value >= 3 * 4 * (len(_BAD_VALUES[kind]) - 1) * 3 // 4
