"""Cart-pole family: the classic discrete task, two re-encoded variants used
to defeat memorized solutions, and a continuous-force inverted pendulum
approximation.

Dynamics follow the canonical classic-control formulation: a pole of half
length 0.5 on a 1.0 kg cart, 0.1 kg pole mass, 10 N bang-bang force,
Euler-integrated at dt = 0.02. One tick is one call, ``cartpole_step``, and
the bounds test sits inline in ``_step_state``.

CartPoleStar2 reports the state on an integer grid in [-50, 50], rounded
half away from zero; ``normalize_star2`` rounds the magnitude with
``floor(abs(v) + 0.5)`` and puts the sign back with a ``v < 0.0`` test,
which is equivalent to ``copysign`` on the int it produces.

``env.step`` runs these through the ``_step_state``/``_observe`` hooks.
Whole episodes (``dsl.run_episode``) run through one fused loop that the
four tasks share, ``_CartPoleFamily._rollout``: each step calls the policy
once as ``policy(rng, obs)``, then runs inline the action check (a label
maps to -10 or +10 N and a bool is refused; or a finite number is clamped
to [-3, 3]), the body of ``cartpole_step`` in the same expressions and
order, the bounds test and the observation encoding (the state as it is,
``normalize_star2``'s grid, or InvertedPendulum's reordering). It takes
the same steps, bit for bit, as the public ``step`` loop, which the tests
keep as its reference.
"""

from __future__ import annotations

import math

from .core import (
    RAISED,
    ContinuousAction,
    DiscreteActions,
    Environment,
    EnvSpec,
    TaskId,
    TerminationCause,
)
from .seeding import UniformStream

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


def cartpole_step(state: tuple[float, ...], force: float) -> tuple[float, ...]:
    """One Euler tick of the cart-pole equations under the given force."""
    x, x_dot, theta, theta_dot = state
    cos_t = math.cos(theta)
    sin_t = math.sin(theta)
    temp = (force + POLE_MASS_LENGTH * theta_dot * theta_dot * sin_t) / TOTAL_MASS
    theta_acc = (GRAVITY * sin_t - cos_t * temp) / (
        HALF_POLE_LENGTH * (4.0 / 3.0 - MASS_POLE * cos_t * cos_t / TOTAL_MASS)
    )
    x_acc = temp - POLE_MASS_LENGTH * theta_acc * cos_t / TOTAL_MASS
    return (
        x + DT * x_dot,
        x_dot + DT * x_acc,
        theta + DT * theta_dot,
        theta_dot + DT * theta_acc,
    )


class _CartPoleFamily(Environment):
    """The four cart-pole tasks, and the one episode loop they share.

    ``_rollout`` is ``Environment._rollout`` with the hooks inlined: per step
    one call of the policy, then the action check, the body of
    ``cartpole_step``, the bounds test and the observation encoding, with
    the state in four locals. The class attributes below say what a task's
    ``_step_state`` and ``_observe`` do, and the loop does the same.
    """

    terminal_cause = TerminationCause.BOUNDS_EXCEEDED
    # label -> force sign, set per discrete variant; empty on InvertedPendulum
    _force_by_label: dict[int, float] = {}
    # the episode ends when abs(x) or abs(theta) exceeds its limit
    _x_limit = X_LIMIT
    _theta_limit = THETA_LIMIT
    # the observation is normalize_star2 of the state (CartPoleStar2), or the
    # state in the order (x, theta, x_dot, theta_dot) (InvertedPendulum)
    _grid = False
    _reordered = False

    def _rollout(self, policy, rng, obs, observations, actions, errors):
        spec = self.spec
        forces = {label: sign * FORCE_MAG for label, sign in self._force_by_label.items()}
        # the label a returned value equals, as the int coerce records (2.0 -> 2)
        labels = {label: label for label in forces}
        lo, hi = (None, None) if forces else (spec.action.lo, spec.action.hi)
        x_limit, theta_limit = self._x_limit, self._theta_limit
        grid, reordered = self._grid, self._reordered
        append_obs, append_action = observations.append, actions.append
        cos, sin, floor, inf = math.cos, math.sin, math.floor, math.inf
        x, x_dot, theta, theta_dot = self._state
        cause = TerminationCause.STEP_LIMIT
        for _ in range(spec.max_steps):
            append_obs(obs)
            try:
                value = policy(rng, obs)
                if forces:
                    # as DiscreteActions.coerce: a label, never a bool
                    action = None if value.__class__ is bool else labels.get(value)
                elif value is None:
                    action = None
                else:
                    # as ContinuousAction.coerce: a finite number, clamped
                    action = float(value)
                    if not -inf < action < inf:
                        action = None
                    elif action < lo:
                        action = lo
                    elif action > hi:
                        action = hi
            except errors:
                value = RAISED
                action = None
            if action is None:
                cause = TerminationCause.INVALID_ACTION
                break
            append_action(action)
            force = forces[action] if forces else action
            # cartpole_step
            cos_t = cos(theta)
            sin_t = sin(theta)
            temp = (force + POLE_MASS_LENGTH * theta_dot * theta_dot * sin_t) / TOTAL_MASS
            theta_acc = (GRAVITY * sin_t - cos_t * temp) / (
                HALF_POLE_LENGTH * (4.0 / 3.0 - MASS_POLE * cos_t * cos_t / TOTAL_MASS)
            )
            x_acc = temp - POLE_MASS_LENGTH * theta_acc * cos_t / TOTAL_MASS
            x, x_dot, theta, theta_dot = (
                x + DT * x_dot,
                x_dot + DT * x_acc,
                theta + DT * theta_dot,
                theta_dot + DT * theta_acc,
            )
            # The step that leaves the allowed region still earns its +1.
            if abs(x) > x_limit or abs(theta) > theta_limit:
                cause = self.terminal_cause
                break
            if grid:
                # normalize_star2
                v = x_dot
                if v > VELOCITY_CLAMP:
                    v = VELOCITY_CLAMP
                elif v < -VELOCITY_CLAMP:
                    v = -VELOCITY_CLAMP
                w = theta_dot
                if w > VELOCITY_CLAMP:
                    w = VELOCITY_CLAMP
                elif w < -VELOCITY_CLAMP:
                    w = -VELOCITY_CLAMP
                p = x * STAR2_GRID / X_OBS_BOUND
                v = v * STAR2_GRID / VELOCITY_CLAMP
                a = theta * STAR2_GRID / THETA_OBS_BOUND
                w = w * STAR2_GRID / VELOCITY_CLAMP
                gp = floor(abs(p) + 0.5)
                gv = floor(abs(v) + 0.5)
                ga = floor(abs(a) + 0.5)
                gw = floor(abs(w) + 0.5)
                obs = (
                    -gp if p < 0.0 else gp,
                    -gv if v < 0.0 else gv,
                    -ga if a < 0.0 else ga,
                    -gw if w < 0.0 else gw,
                )
            elif reordered:
                obs = (x, theta, x_dot, theta_dot)
            else:
                obs = (x, x_dot, theta, theta_dot)
        self._state = (x, x_dot, theta, theta_dot)
        self._steps = len(actions)
        # +1 per step taken: the sum of that many 1.0s
        total_reward = float(len(actions))
        return total_reward, cause, value if cause is TerminationCause.INVALID_ACTION else None


class _CartPoleBase(_CartPoleFamily):
    """Shared mechanics for the three discrete cart-pole variants."""

    def _reset_state(self, rng: UniformStream) -> tuple[float, ...]:
        uniform = rng.uniform
        return (
            uniform(-0.05, 0.05),
            uniform(-0.05, 0.05),
            uniform(-0.05, 0.05),
            uniform(-0.05, 0.05),
        )

    def _step_state(self, state, action):
        new_state = cartpole_step(state, self._force_by_label[action] * FORCE_MAG)
        x, _, theta, _ = new_state
        # The step that leaves the allowed region still earns its +1.
        return new_state, 1.0, abs(x) > X_LIMIT or abs(theta) > THETA_LIMIT


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
    is half away from zero: ``floor(abs(v) + 0.5)`` rounds the magnitude to
    an int, and the sign test ``v < 0.0`` negates it; on that int this is
    equivalent to ``int(copysign(n, v))`` (a -0.0 gives 0 either way). NaN
    raises ValueError and an infinite position or angle OverflowError, both
    from ``floor``.
    """
    x, x_dot, theta, theta_dot = raw
    if x_dot > VELOCITY_CLAMP:
        x_dot = VELOCITY_CLAMP
    elif x_dot < -VELOCITY_CLAMP:
        x_dot = -VELOCITY_CLAMP
    if theta_dot > VELOCITY_CLAMP:
        theta_dot = VELOCITY_CLAMP
    elif theta_dot < -VELOCITY_CLAMP:
        theta_dot = -VELOCITY_CLAMP
    x = x * STAR2_GRID / X_OBS_BOUND
    x_dot = x_dot * STAR2_GRID / VELOCITY_CLAMP
    theta = theta * STAR2_GRID / THETA_OBS_BOUND
    theta_dot = theta_dot * STAR2_GRID / VELOCITY_CLAMP
    floor = math.floor
    gx = floor(abs(x) + 0.5)
    gxd = floor(abs(x_dot) + 0.5)
    gt = floor(abs(theta) + 0.5)
    gtd = floor(abs(theta_dot) + 0.5)
    return (
        -gx if x < 0.0 else gx,
        -gxd if x_dot < 0.0 else gxd,
        -gt if theta < 0.0 else gt,
        -gtd if theta_dot < 0.0 else gtd,
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

    _observe = staticmethod(normalize_star2)
    _grid = True


class InvertedPendulumEnv(_CartPoleFamily):
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
    _x_limit = math.inf
    _theta_limit = THETA_FAIL
    _reordered = True

    def _reset_state(self, rng: UniformStream) -> tuple[float, ...]:
        uniform = rng.uniform
        return (
            uniform(-0.01, 0.01),
            uniform(-0.01, 0.01),
            uniform(-0.01, 0.01),
            uniform(-0.01, 0.01),
        )

    def _step_state(self, state, force):
        new_state = cartpole_step(state, force)
        return new_state, 1.0, abs(new_state[2]) > self.THETA_FAIL

    def _observe(self, state):
        x, x_dot, theta, theta_dot = state
        return (x, theta, x_dot, theta_dot)
