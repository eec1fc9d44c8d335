"""Cart-pole family: the classic discrete task, two re-encoded variants used
to defeat memorized solutions, and a continuous-force inverted pendulum
approximation. A variant's spec is the one it re-encodes (CartPole's for
CartPoleStar1, CartPoleStar1's for CartPoleStar2) with its differences replaced.

Dynamics follow the canonical classic-control formulation: a pole of half
length 0.5 on a 1.0 kg cart, 0.1 kg pole mass, 10 N bang-bang force,
Euler-integrated at dt = 0.02.

CartPoleStar2 reports the state on an integer grid in [-50, 50], rounded
half away from zero: ``floor(v + 0.5)`` when ``v >= 0.0``, else
``-floor(0.5 - v)``. For a negative ``v``, ``0.5 - v`` is the same IEEE sum
as ``abs(v) + 0.5``, so this is ``copysign`` of the rounded magnitude, as an
int, and ``-0.0`` gives 0.

The four tasks share one class, ``_CartPoleFamily``, and each says its
facts once: the grid comes from its spec, the reset ranges (which
``Environment`` draws), the labels' forces, the bounds and the observation
order from class attributes. The family's ``_rollout`` is the only
driver of these envs: ``reset`` and ``observe`` run it for one step, to
read the observation, and ``dsl.run_episode`` for a whole episode.
Each step of it encodes the observation, calls the policy once as
``policy(rng, obs)``, then runs inline the action check (a label maps to
its force and a bool is refused; or a finite number is clamped to [-3, 3]),
the Euler tick and the bounds test. Tests pin the tick, the encoding and
the action check bit for bit to frozen copies of their earlier forms.
"""

from __future__ import annotations

import math
from dataclasses import replace

from .core import (
    INVALID_ACTION,
    POLICY_ERRORS,
    RAISED,
    STEP_LIMIT,
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


class _CartPoleFamily(Environment):
    """The four cart-pole tasks and the one episode loop they share. It
    reads the grid from ``spec.integer_observations`` and the rest from
    the class attributes below; a continuous action is the force itself.

    ``_rollout`` writes out, per step, the observation encoding, one call
    of the policy, the action check, the Euler tick and the bounds test,
    with the state in four locals. The module constants and functions every step reads are
    locals, read once per rollout; the tick assigns the four state
    variables one after another, and the bounds test compares with both
    signs of each limit. Each float expression has the operands and the
    order of the frozen reference forms, so a rollout is bit for bit theirs.
    """

    terminal_cause = TerminationCause.BOUNDS_EXCEEDED
    # the episode ends when abs(x) or abs(theta) exceeds its limit; a NaN
    # exceeds neither
    _x_limit = X_LIMIT
    _theta_limit = THETA_LIMIT
    _reset_ranges = ((-0.05, 0.05),) * 4
    # the observation is the state in the order (x, theta, x_dot, theta_dot)
    _reordered = False
    # a discrete task's first label pushes left, the second right
    _effects = (-FORCE_MAG, FORCE_MAG)

    def _rollout(self, policy, rng, limit, observations, actions):
        spec = self.spec
        # label -> force, empty when the action is the force itself
        forces, labels = self._effect_of, self._labels
        lo, hi = (None, None) if forces else (spec.action.lo, spec.action.hi)
        x_limit, theta_limit = self._x_limit, self._theta_limit
        x_floor, theta_floor = -x_limit, -theta_limit
        grid, reordered = spec.integer_observations, self._reordered
        append_obs, append_action = observations.append, actions.append
        # the names every step reads, as locals read once per rollout
        cos, sin, floor, inf, neg_inf = math.cos, math.sin, math.floor, math.inf, -math.inf
        gravity, mass_pole, total_mass = GRAVITY, MASS_POLE, TOTAL_MASS
        half_pole_length, pole_mass_length, dt = HALF_POLE_LENGTH, POLE_MASS_LENGTH, DT
        star2_grid, x_obs_bound, theta_obs_bound = STAR2_GRID, X_OBS_BOUND, THETA_OBS_BOUND
        velocity_clamp, neg_velocity_clamp = VELOCITY_CLAMP, -VELOCITY_CLAMP
        x, x_dot, theta, theta_dot = self._state
        cause = STEP_LIMIT
        for _ in range(limit):
            if grid:
                # velocities saturate at +/-5 first: they are unbounded natively
                v = x_dot
                if v > velocity_clamp:
                    v = velocity_clamp
                elif v < neg_velocity_clamp:
                    v = neg_velocity_clamp
                w = theta_dot
                if w > velocity_clamp:
                    w = velocity_clamp
                elif w < neg_velocity_clamp:
                    w = neg_velocity_clamp
                p = x * star2_grid / x_obs_bound
                v = v * star2_grid / velocity_clamp
                a = theta * star2_grid / theta_obs_bound
                w = w * star2_grid / velocity_clamp
                # half away from zero; NaN raises ValueError here, an infinite
                # position or angle OverflowError
                obs = (
                    floor(p + 0.5) if p >= 0.0 else -floor(0.5 - p),
                    floor(v + 0.5) if v >= 0.0 else -floor(0.5 - v),
                    floor(a + 0.5) if a >= 0.0 else -floor(0.5 - a),
                    floor(w + 0.5) if w >= 0.0 else -floor(0.5 - w),
                )
            elif reordered:
                obs = (x, theta, x_dot, theta_dot)
            else:
                obs = (x, x_dot, theta, theta_dot)
            append_obs(obs)
            try:
                value = policy(rng, obs)
                if forces:
                    # a label, never a bool (reference_dynamics.discrete_coerce_original)
                    action = None if value.__class__ is bool else labels.get(value)
                elif value is None:
                    action = None
                else:
                    # a finite number, clamped (reference_dynamics.continuous_coerce_min_max_form)
                    action = float(value)
                    if not neg_inf < action < inf:
                        action = None
                    elif action < lo:
                        action = lo
                    elif action > hi:
                        action = hi
            except POLICY_ERRORS:
                value = RAISED
                action = None
            if action is None:
                cause = INVALID_ACTION
                break
            append_action(action)
            force = forces[action] if forces else action
            cos_t = cos(theta)
            sin_t = sin(theta)
            temp = (force + pole_mass_length * theta_dot * theta_dot * sin_t) / total_mass
            theta_acc = (gravity * sin_t - cos_t * temp) / (
                half_pole_length * (4.0 / 3.0 - mass_pole * cos_t * cos_t / total_mass)
            )
            x_acc = temp - pole_mass_length * theta_acc * cos_t / total_mass
            # each line reads only values the lines before it left alone
            x = x + dt * x_dot
            x_dot = x_dot + dt * x_acc
            theta = theta + dt * theta_dot
            theta_dot = theta_dot + dt * theta_acc
            # abs(x) > x_limit or abs(theta) > theta_limit. The step that
            # leaves the allowed region still earns its +1.
            if x > x_limit or x < x_floor or theta > theta_limit or theta < theta_floor:
                cause = self.terminal_cause
                break
        self._state = (x, x_dot, theta, theta_dot)
        # +1 per step taken: the sum of that many 1.0s from -0.0
        total_reward = float(len(actions)) if actions else -0.0
        return total_reward, cause, value if cause is INVALID_ACTION else None


class CartPoleEnv(_CartPoleFamily):
    spec = EnvSpec(
        task_id=TaskId.CARTPOLE,
        obs_names=("cart_position", "cart_velocity", "pole_angle", "pole_angular_velocity"),
        action=DiscreteActions(labels=(0, 1)),
        action_names=("left", "right"),
        max_steps=500,
        description_slots={
            "Agent": (
                "A cart over a track that has an unactuated pole attached to it. "
                "A force can be applied to the cart, left or right, to counteract "
                "the passive movement of the pole."
            ),
            "Goal and Reward": (
                "Keep the pole balanced upright as long as possible to a maximum of "
                "500 time steps."
            ),
            "Observation Vector": (
                "A 4D vector in the following order:\n"
                "\n"
                "Cart position, Cart velocity, Pole angle, Pole angular velocity\n"
                "\n"
                "Cart position is in meters in the range [-4.8, 4.8]; cart velocity is in "
                "m/s; pole angle is in radians in the range [-0.418, 0.418]; pole angular "
                "velocity is in rad/s."
            ),
            "Action Vector": "Discrete:\n0=move left(0)\n1=move right(1)",
            "Termination Conditions": (
                "- Pole angle exceeds the range [-0.2095, 0.2095] rad\n"
                "- Cart position exceeds the range [-2.4, 2.4] m"
            ),
        },
        r_max=500.0,
        improve_goal_text="keeping the pole balanced for longer",
    )


class CartPoleStar1Env(_CartPoleFamily):
    """CartPole with the action encoding shifted to {1, 2}."""

    spec = replace(
        CartPoleEnv.spec,
        task_id=TaskId.CARTPOLE_STAR1,
        action=DiscreteActions(labels=(1, 2)),
        description_slots={
            **CartPoleEnv.spec.description_slots,
            "Action Vector": (
                "Discrete:\n1=move left(1)\n2=move right(2)\n\n"
                "Negative values mean left direction, positive values right direction."
            ),
        },
    )


class CartPoleStar2Env(_CartPoleFamily):
    """CartPoleStar1 with integer observations in [-50, 50]."""

    spec = replace(
        CartPoleStar1Env.spec,
        task_id=TaskId.CARTPOLE_STAR2,
        integer_observations=True,
        description_slots={
            **CartPoleStar1Env.spec.description_slots,
            "Observation Vector": (
                "A 4D vector in the following order:\n"
                "\n"
                "Cart position, Cart velocity, Pole angle, Pole angular velocity\n"
                "\n"
                "All observation variables are integer values between -50 and 50;"
            ),
            "Termination Conditions": (
                "- Pole angle exceeds the range [-25,25]\n"
                "- Cart position exceeds the range [-25,25]"
            ),
        },
    )


class InvertedPendulumEnv(_CartPoleFamily):
    """Pole balancing with a continuous force in [-3, 3] N.

    Built on the same cart-pole equations: identical geometry, +1 per step
    while the pole stays within 0.2 rad, up to 1000 steps. Note the
    observation order differs from CartPole: position, angle, then the two
    velocities.
    """

    spec = EnvSpec(
        task_id=TaskId.INVERTED_PENDULUM,
        obs_names=("cart_position", "pole_angle", "cart_velocity", "pole_angular_velocity"),
        action=ContinuousAction(lo=-3.0, hi=3.0),
        action_names=("force",),
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
        improve_goal_text="keeping the pole upright for longer",
    )

    _x_limit = math.inf
    _theta_limit = 0.2
    _reset_ranges = ((-0.01, 0.01),) * 4
    _reordered = True
