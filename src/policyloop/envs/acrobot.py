"""Acrobot: a two-link arm with torque on the first joint only.

Standard two-link book dynamics integrated with a single RK4 step of 0.2 s
per tick. Reward is -1 per step until the tip rises above the target height
(-cos(theta1) - cos(theta1 + theta2) > 1.0), 0 on the goal step. Only the
goal or the 500-step limit ends an episode, so a policy that never reaches
the goal scores -500.
"""

from __future__ import annotations

import math

import numpy as np

from .core import DiscreteActions, Environment, EnvSpec, TaskId, TerminationCause, wrap_angle

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
TORQUES = (-1.0, 0.0, 1.0)


def acrobot_derivatives(s: tuple[float, float, float, float], torque: float):
    """Time derivatives of (theta1, theta2, dtheta1, dtheta2)."""
    m1, m2 = LINK_MASS_1, LINK_MASS_2
    l1 = LINK_LENGTH_1
    lc1, lc2 = LINK_COM_1, LINK_COM_2
    i1 = i2 = LINK_MOI
    g = GRAVITY
    theta1, theta2, dtheta1, dtheta2 = s

    d1 = m1 * lc1**2 + m2 * (l1**2 + lc2**2 + 2 * l1 * lc2 * math.cos(theta2)) + i1 + i2
    d2 = m2 * (lc2**2 + l1 * lc2 * math.cos(theta2)) + i2
    phi2 = m2 * lc2 * g * math.cos(theta1 + theta2 - math.pi / 2.0)
    phi1 = (
        -m2 * l1 * lc2 * dtheta2**2 * math.sin(theta2)
        - 2 * m2 * l1 * lc2 * dtheta2 * dtheta1 * math.sin(theta2)
        + (m1 * lc1 + m2 * l1) * g * math.cos(theta1 - math.pi / 2.0)
        + phi2
    )
    ddtheta2 = (
        torque + d2 / d1 * phi1 - m2 * l1 * lc2 * dtheta1**2 * math.sin(theta2) - phi2
    ) / (m2 * lc2**2 + i2 - d2**2 / d1)
    ddtheta1 = -(d2 * ddtheta2 + phi1) / d1
    return (dtheta1, dtheta2, ddtheta1, ddtheta2)


def rk4_step(s: tuple[float, float, float, float], torque: float, dt: float = DT):
    """One classic Runge-Kutta step of the acrobot equations."""
    k1 = acrobot_derivatives(s, torque)
    s2 = tuple(si + dt / 2.0 * ki for si, ki in zip(s, k1))
    k2 = acrobot_derivatives(s2, torque)
    s3 = tuple(si + dt / 2.0 * ki for si, ki in zip(s, k2))
    k3 = acrobot_derivatives(s3, torque)
    s4 = tuple(si + dt * ki for si, ki in zip(s, k3))
    k4 = acrobot_derivatives(s4, torque)
    return tuple(
        si + dt / 6.0 * (a + 2 * b + 2 * c + d)
        for si, a, b, c, d in zip(s, k1, k2, k3, k4)
    )


def tip_above_goal(theta1: float, theta2: float) -> bool:
    return -math.cos(theta1) - math.cos(theta2 + theta1) > 1.0


class AcrobotEnv(Environment):
    spec = EnvSpec(
        task_id=TaskId.ACROBOT,
        obs_dim=6,
        obs_names=(
            "cos_theta1",
            "sin_theta1",
            "cos_theta2",
            "sin_theta2",
            "angular_velocity_theta1",
            "angular_velocity_theta2",
        ),
        action=DiscreteActions(labels=(0, 1, 2)),
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
        action_choice_text="-1 torque(0), no torque(1) or +1 torque(2)",
        action_returns_text="0 for -1 torque; 1 for no torque; or 2 for +1 torque",
        action_invalid_text="0 (-1 torque), 1 (no torque) or 2 (+1 torque)",
        random_default_text="return random.randint(0, 2)",
        improve_goal_text="raising the tip above the target height sooner",
    )

    terminal_cause = TerminationCause.GOAL_REACHED

    def _reset_state(self, rng: np.random.Generator) -> tuple[float, ...]:
        return tuple(rng.uniform(-0.1, 0.1, size=4).tolist())

    def _step_state(self, state, action):
        theta1, theta2, dtheta1, dtheta2 = rk4_step(state, TORQUES[action])
        theta1 = wrap_angle(theta1)
        theta2 = wrap_angle(theta2)
        dtheta1 = min(max(dtheta1, -MAX_VEL_1), MAX_VEL_1)
        dtheta2 = min(max(dtheta2, -MAX_VEL_2), MAX_VEL_2)
        new_state = (theta1, theta2, dtheta1, dtheta2)

        if tip_above_goal(theta1, theta2):
            return new_state, 0.0, True
        return new_state, -1.0, False

    def _observe(self, state):
        theta1, theta2, dtheta1, dtheta2 = state
        return (
            math.cos(theta1),
            math.sin(theta1),
            math.cos(theta2),
            math.sin(theta2),
            dtheta1,
            dtheta2,
        )
