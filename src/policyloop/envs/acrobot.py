"""Acrobot: a two-link arm with torque on the first joint only.

Standard two-link book dynamics integrated with a single RK4 step of 0.2 s
per tick. Reward is -1 per step until the tip rises above the target height
(-cos(theta1) - cos(theta1 + theta2) > 1.0), 0 on the goal step. Only the
goal or the 500-step limit ends an episode, so a policy that never reaches
the goal scores -500.

The integrator is straight-line scalar code: no tuples per RK4 stage, and
constant sub-products computed once. It performs the textbook's float
operations in the textbook's order, so it rounds bit for bit as the plain
transcription of the equations does.
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


# Constant sub-products of the equations below, each one a product or sum
# that left-to-right evaluation computes before any state enters it, so the
# hoisted form rounds exactly as the textbook expressions do.
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


def _accelerations(theta1, theta2, dtheta1, dtheta2, torque):
    """(ddtheta1, ddtheta2) of the two-link book equations, in the textbook's
    operation order (each ``* m2`` and ``+ i`` kept, even where it is exact)."""
    m2 = LINK_MASS_2
    i1 = i2 = LINK_MOI
    cos2 = math.cos(theta2)
    sin2 = math.sin(theta2)
    d1 = _M1_LC1_SQ + m2 * (_L1_SQ_PLUS_LC2_SQ + _TWO_L1_LC2 * cos2) + i1 + i2
    d2 = m2 * (_LC2_SQ + _L1_LC2 * cos2) + i2
    phi2 = _M2_LC2_G * math.cos(theta1 + theta2 - _HALF_PI)
    phi1 = (
        _NEG_M2_L1_LC2 * dtheta2**2 * sin2
        - _TWO_M2_L1_LC2 * dtheta2 * dtheta1 * sin2
        + _LINK1_GRAVITY * math.cos(theta1 - _HALF_PI)
        + phi2
    )
    ddtheta2 = (torque + d2 / d1 * phi1 - _M2_L1_LC2 * dtheta1**2 * sin2 - phi2) / (
        _M2_LC2_SQ_PLUS_I2 - d2**2 / d1
    )
    ddtheta1 = -(d2 * ddtheta2 + phi1) / d1
    return ddtheta1, ddtheta2


def rk4_step(s: tuple[float, float, float, float], torque: float, dt: float = DT):
    """One classic Runge-Kutta step of the acrobot equations.

    Straight-line scalar code: stage k's derivatives are the four locals
    ``a{k}``/``b{k}`` (velocities) and ``c{k}``/``d{k}`` (accelerations).
    """
    half = dt / 2.0
    t1, t2, w1, w2 = s
    a1, b1 = w1, w2
    c1, d1 = _accelerations(t1, t2, w1, w2, torque)
    a2, b2 = w1 + half * c1, w2 + half * d1
    c2, d2 = _accelerations(t1 + half * a1, t2 + half * b1, a2, b2, torque)
    a3, b3 = w1 + half * c2, w2 + half * d2
    c3, d3 = _accelerations(t1 + half * a2, t2 + half * b2, a3, b3, torque)
    a4, b4 = w1 + dt * c3, w2 + dt * d3
    c4, d4 = _accelerations(t1 + dt * a3, t2 + dt * b3, a4, b4, torque)
    sixth = dt / 6.0
    return (
        t1 + sixth * (a1 + 2 * a2 + 2 * a3 + a4),
        t2 + sixth * (b1 + 2 * b2 + 2 * b3 + b4),
        w1 + sixth * (c1 + 2 * c2 + 2 * c3 + c4),
        w2 + sixth * (d1 + 2 * d2 + 2 * d3 + d4),
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
