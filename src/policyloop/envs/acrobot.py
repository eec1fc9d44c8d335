"""Acrobot: a two-link arm with torque on the first joint only.

Standard two-link book dynamics integrated with a single RK4 step of 0.2 s
per tick. Reward is -1 per step until the tip rises above the target height
(-cos(theta1) - cos(theta1 + theta2) > 1.0), 0 on the goal step. Only the
goal or the 500-step limit ends an episode, so a policy that never reaches
the goal scores -500.

The env's one driver is its ``_rollout``, which ``reset`` and ``observe``
run for one step, to read the observation, and ``dsl.run_episode`` for a
whole episode.
Each step of it encodes the observation, calls the policy once, then the
action check of ``envs/core.py`` (a label, never a bool), and runs inline
the RK4 step, the wrap of both angles to [-pi, pi), the velocity clamps
and the goal test; a
refused value and the goal each end the loop with a plain ``break``. The
RK4 step calls one stage function, ``_accelerations``, four times. It
performs the textbook's float operations in the textbook's order, on
constant sub-products computed once, so a step rounds bit for bit as the
plain transcription of the equations does. Tests pin it to a frozen copy of
that transcription.
"""

from __future__ import annotations

import math

from .core import POLICY_ERRORS, DiscreteActions, Environment, EnvSpec, TaskId

LINK_LENGTH_1 = 1.0
LINK_MASS_1 = 1.0
LINK_MASS_2 = 1.0
LINK_COM_1 = 0.5
LINK_COM_2 = 0.5
LINK_MOI = 1.0
GRAVITY = 9.8
DT = 0.2
MAX_VEL_1 = 4.0 * math.pi  # ~12.567
MAX_VEL_2 = 9.0 * math.pi  # ~28.274


# Constant sub-products of the equations, each one a product or sum that
# left-to-right evaluation computes before any state enters it, so the
# hoisted form rounds exactly as the textbook expressions do. The stage
# function leaves out the textbook's two ``m2 *`` that hold state: with
# m2 = 1.0 they change no float. Each ``+ LINK_MOI`` is kept.
_M1_LC1_SQ = LINK_MASS_1 * LINK_COM_1**2
_L1_SQ_PLUS_LC2_SQ = LINK_LENGTH_1**2 + LINK_COM_2**2
_TWO_L1_LC2 = 2 * LINK_LENGTH_1 * LINK_COM_2
_LC2_SQ = LINK_COM_2**2
_L1_LC2 = LINK_LENGTH_1 * LINK_COM_2
_M2_LC2_G = LINK_MASS_2 * LINK_COM_2 * GRAVITY
_NEG_M2_L1_LC2 = -LINK_MASS_2 * LINK_LENGTH_1 * LINK_COM_2
_TWO_M2_L1_LC2 = 2 * LINK_MASS_2 * LINK_LENGTH_1 * LINK_COM_2
_LINK1_GRAVITY = (LINK_MASS_1 * LINK_COM_1 + LINK_MASS_2 * LINK_LENGTH_1) * GRAVITY
_M2_L1_LC2 = LINK_MASS_2 * LINK_LENGTH_1 * LINK_COM_2
_M2_LC2_SQ_PLUS_I2 = LINK_MASS_2 * LINK_COM_2**2 + LINK_MOI
_HALF_PI = math.pi / 2.0


def _accelerations(x1, x2, a, b, torque):
    """The book's angular accelerations (theta1'', theta2'') at the angles
    x1, x2 and the velocities a, b; m11 and m12 are the book's d1 and d2."""
    cos2 = math.cos(x2)
    sin2 = math.sin(x2)
    m11 = _M1_LC1_SQ + (_L1_SQ_PLUS_LC2_SQ + _TWO_L1_LC2 * cos2) + LINK_MOI + LINK_MOI
    m12 = _LC2_SQ + _L1_LC2 * cos2 + LINK_MOI
    phi2 = _M2_LC2_G * math.cos(x1 + x2 - _HALF_PI)
    phi1 = (
        _NEG_M2_L1_LC2 * b**2 * sin2
        - _TWO_M2_L1_LC2 * b * a * sin2
        + _LINK1_GRAVITY * math.cos(x1 - _HALF_PI)
        + phi2
    )
    d = (torque + m12 / m11 * phi1 - _M2_L1_LC2 * a**2 * sin2 - phi2) / (
        _M2_LC2_SQ_PLUS_I2 - m12**2 / m11
    )
    return -(m12 * d + phi1) / m11, d


class AcrobotEnv(Environment):
    spec = EnvSpec(
        task_id=TaskId.ACROBOT,
        obs_names=(
            "cos_theta1",
            "sin_theta1",
            "cos_theta2",
            "sin_theta2",
            "angular_velocity_theta1",
            "angular_velocity_theta2",
        ),
        action=DiscreteActions(labels=(0, 1, 2)),
        action_names=("-1 torque", "no torque", "+1 torque"),
        max_steps=500,
        description_slots={
            "Agent": (
                "Two connected bars: the first bar is connected to a fixed pivot "
                "via an actuated joint, and the second bar is connected to the end "
                "of the first via an unactuated joint. A fixed-intensity torque "
                "can be applied to the actuated joint."
            ),
            "Goal and Reward": (
                "Raise the tip of the second bar above the target height. At each "
                "time step in which the goal has not been achieved you receive a "
                "reward of -1."
            ),
            "Observation Vector": (
                "A 6D vector in the following order:\n"
                "\n"
                "cos_theta1, sin_theta1, cos_theta2, sin_theta2, "
                "angular_velocity_theta1, angular_velocity_theta2\n"
                "\n"
                "The cosine and sine values are in the range [-1, 1]; "
                "angular_velocity_theta1 is in the range [-12.567, 12.567] and "
                "angular_velocity_theta2 is in the range [-28.274, 28.274]. "
                "theta1 is the angle of the first bar relative to the downward "
                "vertical and theta2 is the angle of the second bar relative to "
                "the first."
            ),
            "Action Vector": (
                "Discrete:\n0=apply -1 torque(0)\n1=apply no torque(1)\n2=apply +1 torque(2)"
            ),
            "Termination Conditions": (
                "- The tip of the second bar reaches the target height\n"
                "- The episode lasts 500 time steps"
            ),
        },
        improve_goal_text="raising the tip above the target height sooner",
    )

    # both angles and both angular velocities start in [-0.1, 0.1]
    _reset_ranges = ((-0.1, 0.1),) * 4
    # the torque on the first joint
    _effects = (-1.0, 0.0, 1.0)

    def _rollout(self, policy, rng, limit, observations, actions):
        action_of, torques = self._action_of, self._effect_of
        append_obs, append_action = observations.append, actions.append
        # the names every step reads, as locals read once per rollout
        cos, sin, pi, two_pi = math.cos, math.sin, math.pi, 2.0 * math.pi
        dt, half, sixth = DT, DT / 2.0, DT / 6.0
        max_vel_1, max_vel_2 = MAX_VEL_1, MAX_VEL_2
        neg_max_vel_1, neg_max_vel_2 = -MAX_VEL_1, -MAX_VEL_2
        t1, t2, w1, w2 = self._state
        # the goal test of each step computes the next observation's cos(t1)
        cos_t1 = cos(t1)
        total_reward = -0.0
        value = None
        for _ in range(limit):
            obs = (cos_t1, sin(t1), cos(t2), sin(t2), w1, w2)
            append_obs(obs)
            try:
                value = policy(rng, obs)
                action = action_of(value)
            except POLICY_ERRORS:
                value = None
                action = None
            if action is None:
                break
            append_action(action)
            torque = torques[action]
            # One RK4 step: stage k's derivatives are the velocities a{k},
            # b{k} and the accelerations c{k}, d{k}; stage 1 is at the state.
            c1, d1 = _accelerations(t1, t2, w1, w2, torque)
            a2 = w1 + half * c1
            b2 = w2 + half * d1
            c2, d2 = _accelerations(t1 + half * w1, t2 + half * w2, a2, b2, torque)
            a3 = w1 + half * c2
            b3 = w2 + half * d2
            c3, d3 = _accelerations(t1 + half * a2, t2 + half * b2, a3, b3, torque)
            a4 = w1 + dt * c3
            b4 = w2 + dt * d3
            c4, d4 = _accelerations(t1 + dt * a3, t2 + dt * b3, a4, b4, torque)
            # the angles wrap to [-pi, pi), the velocities are clamped; a NaN
            # passes both
            t1 = (t1 + sixth * (w1 + 2.0 * a2 + 2.0 * a3 + a4) + pi) % two_pi - pi
            t2 = (t2 + sixth * (w2 + 2.0 * b2 + 2.0 * b3 + b4) + pi) % two_pi - pi
            w1 = w1 + sixth * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
            w2 = w2 + sixth * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
            if w1 > max_vel_1:
                w1 = max_vel_1
            elif w1 < neg_max_vel_1:
                w1 = neg_max_vel_1
            if w2 > max_vel_2:
                w2 = max_vel_2
            elif w2 < neg_max_vel_2:
                w2 = neg_max_vel_2
            # the tip above the target height
            cos_t1 = cos(t1)
            if -cos_t1 - cos(t2 + t1) > 1.0:
                # the goal step earns 0.0, which turns a return of -0.0 into 0.0
                total_reward += 0.0
                break
            total_reward -= 1.0
        self._state = (t1, t2, w1, w2)
        return total_reward, value
