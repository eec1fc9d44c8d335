"""Torque-controlled pendulum swing-up.

State is (angle, angular velocity) with the angle measured from upright.
Per-step reward is -(theta^2 + 0.1*theta_dot^2 + 0.001*torque^2) with theta
wrapped to [-pi, pi]; episodes run a fixed 200 steps with no failure state.
"""

from __future__ import annotations

import math

from .core import ContinuousAction, Environment, EnvSpec, TaskId, wrap_angle
from .seeding import UniformStream

G = 10.0
MASS = 1.0
LENGTH = 1.0
DT = 0.05
MAX_TORQUE = 2.0
MAX_SPEED = 8.0

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

    def _reset_state(self, rng: UniformStream) -> tuple[float, ...]:
        return (rng.uniform(-math.pi, math.pi), rng.uniform(-1.0, 1.0))

    def _step_state(self, state, torque):
        theta, theta_dot = state
        angle = wrap_angle(theta)
        cost = angle * angle + 0.1 * theta_dot * theta_dot + 0.001 * torque * torque

        new_theta_dot = theta_dot + (
            3.0 * G / (2.0 * LENGTH) * math.sin(theta)
            + 3.0 / (MASS * LENGTH * LENGTH) * torque
        ) * DT
        new_theta_dot = min(max(new_theta_dot, -MAX_SPEED), MAX_SPEED)
        new_theta = theta + new_theta_dot * DT
        return (new_theta, new_theta_dot), -cost, False

    def _observe(self, state):
        theta, theta_dot = state
        return (math.cos(theta), math.sin(theta), theta_dot)
