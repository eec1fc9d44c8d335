"""Torque-controlled pendulum swing-up.

State is (angle, angular velocity) with the angle measured from upright.
Per-step reward is -(theta^2 + 0.1*theta_dot^2 + 0.001*torque^2) with theta
wrapped to [-pi, pi]; episodes run a fixed 200 steps with no failure state.

The env's one driver is its ``_rollout``, which ``reset`` and ``observe``
run for one step, to read the observation, and ``dsl.run_episode`` for a
whole episode. Each step of it encodes the observation, calls the policy
once, then the action check of ``envs/core.py`` (a finite number, clamped
to [-2, 2]), and runs inline the reward and the Euler tick, with the
operations of the frozen step form that tests pin it to, in its order.
Only a refused value ends the loop before the step limit.
"""

from __future__ import annotations

import math

from .core import POLICY_ERRORS, ContinuousAction, Environment, EnvSpec, TaskId

G = 10.0
MASS = 1.0
LENGTH = 1.0
DT = 0.05
MAX_TORQUE = 2.0
MAX_SPEED = 8.0

# 3g/(2l) and 3/(ml^2), as the step's left-to-right evaluation computes
# them before any state enters
_GRAVITY_TERM = 3.0 * G / (2.0 * LENGTH)
_TORQUE_TERM = 3.0 / (MASS * LENGTH * LENGTH)

REWARD_FORMULA_TEXT = "-(theta^2 + 0.1*angular_velocity^2 + 0.001*torque^2)"


class PendulumEnv(Environment):
    spec = EnvSpec(
        task_id=TaskId.PENDULUM,
        obs_names=("x", "y", "angular_velocity"),
        action=ContinuousAction(lo=-MAX_TORQUE, hi=MAX_TORQUE),
        action_names=("torque",),
        max_steps=200,
        description_slots={
            "Agent": (
                "A bar connected to a fixed pivot via an actuated joint. A torque "
                "can be applied to the joint to swing and balance the bar."
            ),
            "Goal and Reward": (
                "Bring the bar to an upright position and stabilize it. The reward "
                f"at each time step is {REWARD_FORMULA_TEXT}, where theta is the "
                "angle of the bar normalized to the range [-pi, pi] (0 indicates "
                "the upright position)."
            ),
            "Observation Vector": (
                "A 3D vector in the following order:\n"
                "\n"
                "x, y, angular_velocity\n"
                "\n"
                "x = cos(theta) and y = sin(theta) give the coordinates of the free "
                "end of the bar, with x in [-1.0, 1.0] and y in [-1.0, 1.0]; "
                "angular_velocity is in the range [-8.0, 8.0] rad/s."
            ),
            "Action Vector": (
                "Continuous: a single torque value in the range [-2.0, 2.0]."
            ),
            "Termination Conditions": "- The episode lasts 200 time steps",
        },
        improve_goal_text="bringing the bar upright and keeping it there",
    )

    # any angle, and an angular velocity in [-1, 1]
    _reset_ranges = ((-math.pi, math.pi), (-1.0, 1.0))

    def _rollout(self, policy, rng, limit, observations, actions):
        action_of = self._action_of
        append_obs, append_action = observations.append, actions.append
        # the names every step reads, as locals read once per rollout
        cos, sin, pi, two_pi = math.cos, math.sin, math.pi, 2.0 * math.pi
        gravity_term, torque_term, dt = _GRAVITY_TERM, _TORQUE_TERM, DT
        max_speed, neg_max_speed = MAX_SPEED, -MAX_SPEED
        theta, theta_dot = self._state
        total_reward = -0.0
        value = None
        for _ in range(limit):
            sin_t = sin(theta)
            obs = (cos(theta), sin_t, theta_dot)
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
            # the cost of the angle wrapped to [-pi, pi)
            angle = (theta + pi) % two_pi - pi
            total_reward -= angle * angle + 0.1 * theta_dot * theta_dot + 0.001 * action * action
            theta_dot = theta_dot + (gravity_term * sin_t + torque_term * action) * dt
            if theta_dot > max_speed:
                theta_dot = max_speed
            elif theta_dot < neg_max_speed:
                theta_dot = neg_max_speed
            theta = theta + theta_dot * dt
        self._state = (theta, theta_dot)
        return total_reward, value
