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
from policyloop.envs.cartpole import FORCE_MAG

from reference_dynamics import (
    acrobot_ref,
    cartpole_ref,
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
