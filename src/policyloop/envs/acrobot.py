"""Acrobot: a two-link arm with torque on the first joint only.

Standard two-link book dynamics integrated with a single RK4 step of 0.2 s
per tick. Reward is -1 per step until the tip rises above the target height
(-cos(theta1) - cos(theta1 + theta2) > 1.0), 0 on the goal step. Only the
goal or the 500-step limit ends an episode, so a policy that never reaches
the goal scores -500.

The env's one driver is its ``_rollout``, which ``reset`` and ``observe``
run for one step, to read the observation, and ``dsl.run_episode`` for a
whole episode.
Each step of it encodes the observation, calls the policy once, then runs
inline the action check (a label, never a bool), the RK4 step, the wrap
of both angles to [-pi, pi), the velocity clamps and the goal test. The
four RK4 stages are straight-line scalar code with constant sub-products
computed once; each performs the textbook's float operations in the
textbook's order, so a step rounds bit for bit as the plain transcription
of the equations does. Tests pin it to a frozen copy of that transcription.
"""

from __future__ import annotations

import math

from .core import (
    INVALID_ACTION,
    POLICY_ERRORS,
    RAISED,
    STEP_LIMIT,
    DiscreteActions,
    Environment,
    EnvSpec,
    TaskId,
    TerminationCause,
)

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
# hoisted form rounds exactly as the textbook expressions do. The rollout
# leaves out the textbook's two ``m2 *`` that hold state: with m2 = 1.0
# they change no float. Each ``+ i`` is kept.
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

    terminal_cause = TerminationCause.GOAL_REACHED
    # both angles and both angular velocities start in [-0.1, 0.1]
    _reset_ranges = ((-0.1, 0.1),) * 4
    # the torque on the first joint
    _effects = (-1.0, 0.0, 1.0)

    def _rollout(self, policy, rng, limit, observations, actions):
        labels, torques = self._labels, self._effect_of
        append_obs, append_action = observations.append, actions.append
        # the names every step reads, as locals read once per rollout
        cos, sin, pi, two_pi = math.cos, math.sin, math.pi, 2.0 * math.pi
        dt, half, sixth = DT, DT / 2.0, DT / 6.0
        i, half_pi = LINK_MOI, _HALF_PI
        m1_lc1_sq, l1_sq_plus_lc2_sq, two_l1_lc2 = _M1_LC1_SQ, _L1_SQ_PLUS_LC2_SQ, _TWO_L1_LC2
        lc2_sq, l1_lc2, m2_lc2_g = _LC2_SQ, _L1_LC2, _M2_LC2_G
        neg_m2_l1_lc2, two_m2_l1_lc2 = _NEG_M2_L1_LC2, _TWO_M2_L1_LC2
        link1_gravity, m2_l1_lc2, m2_lc2_sq_plus_i2 = _LINK1_GRAVITY, _M2_L1_LC2, _M2_LC2_SQ_PLUS_I2
        max_vel_1, max_vel_2 = MAX_VEL_1, MAX_VEL_2
        neg_max_vel_1, neg_max_vel_2 = -MAX_VEL_1, -MAX_VEL_2
        t1, t2, w1, w2 = self._state
        # the goal test of each step computes the next observation's cos(t1)
        cos_t1 = cos(t1)
        total_reward = -0.0
        cause = STEP_LIMIT
        for _ in range(limit):
            cos_t2 = cos(t2)
            sin_t2 = sin(t2)
            obs = (cos_t1, sin(t1), cos_t2, sin_t2, w1, w2)
            append_obs(obs)
            try:
                value = policy(rng, obs)
                # a label, never a bool (reference_dynamics.discrete_coerce_original)
                action = None if value.__class__ is bool else labels.get(value)
            except POLICY_ERRORS:
                value = RAISED
                action = None
            if action is None:
                cause = INVALID_ACTION
                break
            append_action(action)
            torque = torques[action]
            # One RK4 step. Stage k's derivatives are the velocities a{k},
            # b{k} and the accelerations c{k}, d{k} of the book equations at
            # the angles x1, x2; m11 and m12 are the book's d1 and d2.
            # Stage 1 is at the state itself, whose cos(t2), sin(t2) the
            # observation holds.
            m11 = m1_lc1_sq + (l1_sq_plus_lc2_sq + two_l1_lc2 * cos_t2) + i + i
            m12 = lc2_sq + l1_lc2 * cos_t2 + i
            phi2 = m2_lc2_g * cos(t1 + t2 - half_pi)
            phi1 = (
                neg_m2_l1_lc2 * w2**2 * sin_t2
                - two_m2_l1_lc2 * w2 * w1 * sin_t2
                + link1_gravity * cos(t1 - half_pi)
                + phi2
            )
            d1 = (torque + m12 / m11 * phi1 - m2_l1_lc2 * w1**2 * sin_t2 - phi2) / (
                m2_lc2_sq_plus_i2 - m12**2 / m11
            )
            c1 = -(m12 * d1 + phi1) / m11
            a2 = w1 + half * c1
            b2 = w2 + half * d1
            x1 = t1 + half * w1
            x2 = t2 + half * w2
            cos2 = cos(x2)
            sin2 = sin(x2)
            m11 = m1_lc1_sq + (l1_sq_plus_lc2_sq + two_l1_lc2 * cos2) + i + i
            m12 = lc2_sq + l1_lc2 * cos2 + i
            phi2 = m2_lc2_g * cos(x1 + x2 - half_pi)
            phi1 = (
                neg_m2_l1_lc2 * b2**2 * sin2
                - two_m2_l1_lc2 * b2 * a2 * sin2
                + link1_gravity * cos(x1 - half_pi)
                + phi2
            )
            d2 = (torque + m12 / m11 * phi1 - m2_l1_lc2 * a2**2 * sin2 - phi2) / (
                m2_lc2_sq_plus_i2 - m12**2 / m11
            )
            c2 = -(m12 * d2 + phi1) / m11
            a3 = w1 + half * c2
            b3 = w2 + half * d2
            x1 = t1 + half * a2
            x2 = t2 + half * b2
            cos2 = cos(x2)
            sin2 = sin(x2)
            m11 = m1_lc1_sq + (l1_sq_plus_lc2_sq + two_l1_lc2 * cos2) + i + i
            m12 = lc2_sq + l1_lc2 * cos2 + i
            phi2 = m2_lc2_g * cos(x1 + x2 - half_pi)
            phi1 = (
                neg_m2_l1_lc2 * b3**2 * sin2
                - two_m2_l1_lc2 * b3 * a3 * sin2
                + link1_gravity * cos(x1 - half_pi)
                + phi2
            )
            d3 = (torque + m12 / m11 * phi1 - m2_l1_lc2 * a3**2 * sin2 - phi2) / (
                m2_lc2_sq_plus_i2 - m12**2 / m11
            )
            c3 = -(m12 * d3 + phi1) / m11
            a4 = w1 + dt * c3
            b4 = w2 + dt * d3
            x1 = t1 + dt * a3
            x2 = t2 + dt * b3
            cos2 = cos(x2)
            sin2 = sin(x2)
            m11 = m1_lc1_sq + (l1_sq_plus_lc2_sq + two_l1_lc2 * cos2) + i + i
            m12 = lc2_sq + l1_lc2 * cos2 + i
            phi2 = m2_lc2_g * cos(x1 + x2 - half_pi)
            phi1 = (
                neg_m2_l1_lc2 * b4**2 * sin2
                - two_m2_l1_lc2 * b4 * a4 * sin2
                + link1_gravity * cos(x1 - half_pi)
                + phi2
            )
            d4 = (torque + m12 / m11 * phi1 - m2_l1_lc2 * a4**2 * sin2 - phi2) / (
                m2_lc2_sq_plus_i2 - m12**2 / m11
            )
            c4 = -(m12 * d4 + phi1) / m11
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
                cause = self.terminal_cause
                break
            total_reward -= 1.0
        self._state = (t1, t2, w1, w2)
        return total_reward, cause, value if cause is INVALID_ACTION else None
