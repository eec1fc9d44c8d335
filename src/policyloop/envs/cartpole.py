"""Cart-pole family: the classic discrete task, two re-encoded variants used
to defeat memorized solutions, and a continuous-force inverted pendulum
approximation.

Dynamics follow the canonical classic-control formulation: a pole of half
length 0.5 on a 1.0 kg cart, 0.1 kg pole mass, 10 N bang-bang force,
Euler-integrated at dt = 0.02.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    ContinuousAction,
    DiscreteActions,
    Environment,
    EnvSpec,
    TaskId,
    TerminationCause,
)

GRAVITY = 9.8
MASS_CART = 1.0
MASS_POLE = 0.1
TOTAL_MASS = MASS_CART + MASS_POLE
HALF_POLE_LENGTH = 0.5
POLE_MASS_LENGTH = MASS_POLE * HALF_POLE_LENGTH
FORCE_MAG = 10.0
DT = 0.02

X_LIMIT = 2.4
THETA_LIMIT = 12.0 * 2.0 * math.pi / 360.0  # ~0.2095 rad

# Bounds used by the integer re-encoding. Positions and angles use the native
# observation bounds; velocities are unbounded natively, so they saturate at
# +/-5 before mapping onto the grid.
X_OBS_BOUND = 4.8
THETA_OBS_BOUND = 0.418
VELOCITY_CLAMP = 5.0
STAR2_GRID = 50.0


def _cartpole_derivatives(x_dot: float, theta: float, theta_dot: float, force: float):
    cos_t = math.cos(theta)
    sin_t = math.sin(theta)
    temp = (force + POLE_MASS_LENGTH * theta_dot * theta_dot * sin_t) / TOTAL_MASS
    theta_acc = (GRAVITY * sin_t - cos_t * temp) / (
        HALF_POLE_LENGTH * (4.0 / 3.0 - MASS_POLE * cos_t * cos_t / TOTAL_MASS)
    )
    x_acc = temp - POLE_MASS_LENGTH * theta_acc * cos_t / TOTAL_MASS
    return x_acc, theta_acc


def cartpole_step(state: tuple[float, ...], force: float) -> tuple[float, ...]:
    """One Euler tick of the cart-pole equations under the given force."""
    x, x_dot, theta, theta_dot = state
    x_acc, theta_acc = _cartpole_derivatives(x_dot, theta, theta_dot, force)
    x = x + DT * x_dot
    x_dot = x_dot + DT * x_acc
    theta = theta + DT * theta_dot
    theta_dot = theta_dot + DT * theta_acc
    return (x, x_dot, theta, theta_dot)


def cartpole_failed(state: tuple[float, ...]) -> bool:
    x, _, theta, _ = state
    return abs(x) > X_LIMIT or abs(theta) > THETA_LIMIT


class _CartPoleBase(Environment):
    """Shared mechanics for the three discrete cart-pole variants."""

    # label -> force sign; set per variant
    _force_by_label: dict[int, float] = {}
    terminal_cause = TerminationCause.BOUNDS_EXCEEDED

    def _reset_state(self, rng: np.random.Generator) -> tuple[float, ...]:
        return tuple(rng.uniform(-0.05, 0.05, size=4).tolist())

    def _step_state(self, state, action):
        new_state = cartpole_step(state, self._force_by_label[action] * FORCE_MAG)
        # The step that leaves the allowed region still earns its +1.
        return new_state, 1.0, cartpole_failed(new_state)


_CARTPOLE_OBS_NAMES = ("cart_position", "cart_velocity", "pole_angle", "pole_angular_velocity")


def _cartpole_slots(obs_text: str, action_text: str, failure_text: str) -> dict[str, str]:
    return {
        "Agent": (
            "A cart over a track that has an unactuated pole attached to it. "
            "A force can be applied to the cart, left or right, to counteract "
            "the passive movement of the pole."
        ),
        "Goal and Reward": (
            "Keep the pole balanced upright as long as possible to a maximum of "
            "500 time steps."
        ),
        "Observation Vector": obs_text,
        "Action Vector": action_text,
        "Termination Conditions": failure_text,
    }


_NATIVE_OBS_TEXT = (
    "A 4D vector in the following order:\n"
    "\n"
    "Cart position, Cart velocity, Pole angle, Pole angular velocity\n"
    "\n"
    "Cart position is in meters in the range [-4.8, 4.8]; cart velocity is in m/s; "
    "pole angle is in radians in the range [-0.418, 0.418]; pole angular velocity "
    "is in rad/s."
)

_NATIVE_FAILURE_TEXT = (
    "- Pole angle exceeds the range [-0.2095, 0.2095] rad\n"
    "- Cart position exceeds the range [-2.4, 2.4] m"
)


class CartPoleEnv(_CartPoleBase):
    _force_by_label = {0: -1.0, 1: +1.0}

    spec = EnvSpec(
        task_id=TaskId.CARTPOLE,
        obs_dim=4,
        obs_names=_CARTPOLE_OBS_NAMES,
        action=DiscreteActions(labels=(0, 1)),
        max_steps=500,
        description_slots=_cartpole_slots(
            _NATIVE_OBS_TEXT,
            "Discrete:\n0=move left(0)\n1=move right(1)",
            _NATIVE_FAILURE_TEXT,
        ),
        r_max=500.0,
        action_choice_text="either left(0) or right(1)",
        action_returns_text="0 for left; or 1 for right",
        action_invalid_text="0 (left) or 1 (right)",
        random_default_text="return random.randint(0, 1)",
        improve_goal_text="keeping the pole balanced for longer",
    )


class CartPoleStar1Env(_CartPoleBase):
    """CartPole with the action encoding shifted to {1, 2}."""

    _force_by_label = {1: -1.0, 2: +1.0}

    spec = EnvSpec(
        task_id=TaskId.CARTPOLE_STAR1,
        obs_dim=4,
        obs_names=_CARTPOLE_OBS_NAMES,
        action=DiscreteActions(labels=(1, 2)),
        max_steps=500,
        description_slots=_cartpole_slots(
            _NATIVE_OBS_TEXT,
            "Discrete:\n1=move left(1)\n2=move right(2)\n\n"
            "Negative values mean left direction, positive values right direction.",
            _NATIVE_FAILURE_TEXT,
        ),
        r_max=500.0,
        action_choice_text="either left(1) or right(2)",
        action_returns_text="1 for left; or 2 for right",
        action_invalid_text="1 (left) or 2 (right)",
        random_default_text="return random.randint(1, 2)",
        improve_goal_text="keeping the pole balanced for longer",
    )


def normalize_star2(raw) -> tuple[int, int, int, int]:
    """Map a native cart-pole observation onto the integer grid [-50, 50].

    Positions and angles scale from their native bounds; velocities saturate
    at +/-5 (m/s, rad/s) first because they are unbounded natively. Rounding
    is half away from zero.
    """
    x, x_dot, theta, theta_dot = raw
    x_dot = min(max(x_dot, -VELOCITY_CLAMP), VELOCITY_CLAMP)
    theta_dot = min(max(theta_dot, -VELOCITY_CLAMP), VELOCITY_CLAMP)
    x = x * STAR2_GRID / X_OBS_BOUND
    x_dot = x_dot * STAR2_GRID / VELOCITY_CLAMP
    theta = theta * STAR2_GRID / THETA_OBS_BOUND
    theta_dot = theta_dot * STAR2_GRID / VELOCITY_CLAMP
    copysign, floor = math.copysign, math.floor
    return (
        int(copysign(floor(abs(x) + 0.5), x)),
        int(copysign(floor(abs(x_dot) + 0.5), x_dot)),
        int(copysign(floor(abs(theta) + 0.5), theta)),
        int(copysign(floor(abs(theta_dot) + 0.5), theta_dot)),
    )


def denormalize_star2(grid_obs) -> tuple[float, float, float, float]:
    """Inverse of :func:`normalize_star2` up to rounding."""
    gx, gxd, gt, gtd = grid_obs
    return (
        gx * X_OBS_BOUND / STAR2_GRID,
        gxd * VELOCITY_CLAMP / STAR2_GRID,
        gt * THETA_OBS_BOUND / STAR2_GRID,
        gtd * VELOCITY_CLAMP / STAR2_GRID,
    )


class CartPoleStar2Env(_CartPoleBase):
    """CartPole with {1, 2} actions and integer observations in [-50, 50]."""

    _force_by_label = {1: -1.0, 2: +1.0}

    spec = EnvSpec(
        task_id=TaskId.CARTPOLE_STAR2,
        obs_dim=4,
        obs_names=_CARTPOLE_OBS_NAMES,
        action=DiscreteActions(labels=(1, 2)),
        max_steps=500,
        description_slots=_cartpole_slots(
            "A 4D vector in the following order:\n"
            "\n"
            "Cart position, Cart velocity, Pole angle, Pole angular velocity\n"
            "\n"
            "All observation variables are integer values between -50 and 50;",
            "Discrete:\n1=move left(1)\n2=move right(2)\n\n"
            "Negative values mean left direction, positive values right direction.",
            "- Pole angle exceeds the range [-25,25]\n"
            "- Cart position exceeds the range [-25,25]",
        ),
        r_max=500.0,
        integer_observations=True,
        action_choice_text="either left(1) or right(2)",
        action_returns_text="1 for left; or 2 for right",
        action_invalid_text="1 (left) or 2 (right)",
        random_default_text="return random.randint(1, 2)",
        improve_goal_text="keeping the pole balanced for longer",
    )

    def _observe(self, state):
        return normalize_star2(state)


class InvertedPendulumEnv(Environment):
    """Pole balancing with a continuous force in [-3, 3] N.

    Built on the same cart-pole equations: identical geometry, +1 per step
    while the pole stays within 0.2 rad, up to 1000 steps. Note the
    observation order differs from CartPole: position, angle, then the two
    velocities.
    """

    spec = EnvSpec(
        task_id=TaskId.INVERTED_PENDULUM,
        obs_dim=4,
        obs_names=("cart_position", "pole_angle", "cart_velocity", "pole_angular_velocity"),
        action=ContinuousAction(lo=-3.0, hi=3.0),
        max_steps=1000,
        description_slots={
            "Agent": (
                "A cart over a track that has an unactuated pole attached to it. "
                "A continuous force can be applied to the cart to counteract the "
                "passive movement of the pole."
            ),
            "Goal and Reward": (
                "Bring the pole upright as fast as possible and keep it there as "
                "long as possible, up to a maximum of 1000 time steps. You are "
                "rewarded +1 for every time step the pole remains within the "
                "allowed angular range."
            ),
            "Observation Vector": (
                "A 4D vector in the following order:\n"
                "\n"
                "Cart position, Pole angle, Cart velocity, Pole angular velocity\n"
                "\n"
                "Cart position is in meters; pole angle is in radians; cart velocity "
                "is in m/s; pole angular velocity is in rad/s."
            ),
            "Action Vector": (
                "Continuous: a single force value in the range [-3.0, 3.0] N.\n"
                "\n"
                "Negative values push the cart left, positive values push it right."
            ),
            "Termination Conditions": "- Pole angle exceeds the range [-0.2, 0.2] rad",
        },
        r_max=1000.0,
        action_choice_text="a continuous force value in the range [-3.0, 3.0]",
        action_returns_text="a continuous force value in the range [-3.0, 3.0]",
        action_invalid_text="a number in the range [-3.0, 3.0]",
        random_default_text="return random.uniform(-3.0, 3.0)",
        improve_goal_text="keeping the pole upright for longer",
    )

    THETA_FAIL = 0.2
    terminal_cause = TerminationCause.BOUNDS_EXCEEDED

    def _reset_state(self, rng: np.random.Generator) -> tuple[float, ...]:
        return tuple(rng.uniform(-0.01, 0.01, size=4).tolist())

    def _step_state(self, state, force):
        new_state = cartpole_step(state, force)
        return new_state, 1.0, abs(new_state[2]) > self.THETA_FAIL

    def _observe(self, state):
        x, x_dot, theta, theta_dot = state
        return (x, theta, x_dot, theta_dot)
