"""Independently coded reference integrators for the dynamics oracle tests.

Each function advances one task's native state by one tick, written from
the equations of motion directly (scalar math, no shared code with the
package) so that agreement with the package dynamics is meaningful.
"""

import math


def cartpole_ref(state, force):
    x, xd, th, thd = state
    g, mc, mp, half_len = 9.8, 1.0, 0.1, 0.5
    mt = mc + mp
    pml = mp * half_len
    dt = 0.02
    ct, st = math.cos(th), math.sin(th)
    tmp = (force + pml * thd * thd * st) / mt
    thacc = (g * st - ct * tmp) / (half_len * (4.0 / 3.0 - mp * ct * ct / mt))
    xacc = tmp - pml * thacc * ct / mt
    return (x + dt * xd, xd + dt * xacc, th + dt * thd, thd + dt * thacc)


def pendulum_ref(state, torque):
    th, thd = state
    g, m, length, dt = 10.0, 1.0, 1.0, 0.05
    u = max(-2.0, min(2.0, torque))
    thd_new = thd + (1.5 * g / length * math.sin(th) + 3.0 / (m * length * length) * u) * dt
    thd_new = max(-8.0, min(8.0, thd_new))
    return (th + thd_new * dt, thd_new)


def pendulum_ref_reward(state, torque):
    th, thd = state
    u = max(-2.0, min(2.0, torque))
    wrapped = math.fmod(th + math.pi, 2.0 * math.pi)
    if wrapped < 0:
        wrapped += 2.0 * math.pi
    wrapped -= math.pi
    return -(wrapped * wrapped + 0.1 * thd * thd + 0.001 * u * u)


def mountain_car_ref(state, push):
    """Shared hill update; ``push`` is the already-scaled applied force."""
    pos, vel = state
    vel = vel + push - 0.0025 * math.cos(3.0 * pos)
    vel = max(-0.07, min(0.07, vel))
    pos = pos + vel
    pos = max(-1.2, min(0.6, pos))
    if pos == -1.2 and vel < 0.0:
        vel = 0.0
    return (pos, vel)


def _acrobot_dsdt_ref(s, tau):
    t1, t2, w1, w2 = s
    g = 9.8
    # all masses/lengths/inertias are 1.0 or 0.5; substitute numerically
    d1 = 1.0 * 0.25 + 1.0 * (1.0 + 0.25 + 2.0 * 0.5 * math.cos(t2)) + 2.0
    d2 = 1.0 * (0.25 + 0.5 * math.cos(t2)) + 1.0
    phi2 = 0.5 * g * math.cos(t1 + t2 - math.pi / 2.0)
    phi1 = (
        -0.5 * w2 * w2 * math.sin(t2)
        - 1.0 * w1 * w2 * math.sin(t2)
        + (0.5 + 1.0) * g * math.cos(t1 - math.pi / 2.0)
        + phi2
    )
    acc2 = (tau + (d2 / d1) * phi1 - 0.5 * w1 * w1 * math.sin(t2) - phi2) / (
        0.25 + 1.0 - d2 * d2 / d1
    )
    acc1 = -(d2 * acc2 + phi1) / d1
    return (w1, w2, acc1, acc2)


def _wrap_pi(a):
    out = math.fmod(a + math.pi, 2.0 * math.pi)
    if out < 0:
        out += 2.0 * math.pi
    return out - math.pi


def acrobot_ref(state, torque):
    """One RK4 step of 0.2 s followed by the wrap/clip conventions."""
    h = 0.2
    s0 = tuple(state)
    k1 = _acrobot_dsdt_ref(s0, torque)
    s1 = tuple(s0[i] + 0.5 * h * k1[i] for i in range(4))
    k2 = _acrobot_dsdt_ref(s1, torque)
    s2 = tuple(s0[i] + 0.5 * h * k2[i] for i in range(4))
    k3 = _acrobot_dsdt_ref(s2, torque)
    s3 = tuple(s0[i] + h * k3[i] for i in range(4))
    k4 = _acrobot_dsdt_ref(s3, torque)
    out = [
        s0[i] + h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]) for i in range(4)
    ]
    out[0] = _wrap_pi(out[0])
    out[1] = _wrap_pi(out[1])
    out[2] = max(-4.0 * math.pi, min(4.0 * math.pi, out[2]))
    out[3] = max(-9.0 * math.pi, min(9.0 * math.pi, out[3]))
    return tuple(out)


def star2_encode_ref(native):
    """Integer-grid encoding done with plain arithmetic."""
    x, xd, th, thd = native
    xd = max(-5.0, min(5.0, xd))
    thd = max(-5.0, min(5.0, thd))
    out = []
    for value in (x * 50.0 / 4.8, xd * 10.0, th * 50.0 / 0.418, thd * 10.0):
        out.append(int(math.floor(abs(value) + 0.5) * (1 if value >= 0 else -1)))
    return out


# Frozen copy of the package's original generator-form Acrobot integrator.
# The package's straight-line ``rk4_step`` must equal it bit for bit; unlike
# ``acrobot_ref`` above, this is the same arithmetic in the same order, not
# an independent derivation.

_ACROBOT_DT = 0.2


def acrobot_derivatives_generator_form(s, torque):
    m1, m2 = 1.0, 1.0
    l1 = 1.0
    lc1, lc2 = 0.5, 0.5
    i1 = i2 = 1.0
    g = 9.8
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


def rk4_step_generator_form(s, torque, dt=_ACROBOT_DT):
    k1 = acrobot_derivatives_generator_form(s, torque)
    s2 = tuple(si + dt / 2.0 * ki for si, ki in zip(s, k1))
    k2 = acrobot_derivatives_generator_form(s2, torque)
    s3 = tuple(si + dt / 2.0 * ki for si, ki in zip(s, k2))
    k3 = acrobot_derivatives_generator_form(s3, torque)
    s4 = tuple(si + dt * ki for si, ki in zip(s, k3))
    k4 = acrobot_derivatives_generator_form(s4, torque)
    return tuple(
        si + dt / 6.0 * (a + 2 * b + 2 * c + d)
        for si, a, b, c, d in zip(s, k1, k2, k3, k4)
    )


# Frozen copies of the package's original cart-pole step, CartPoleStar2
# encoding and action-space coercion. The package's cart-pole tick and
# sign-test encoding, both inline in the family's rollout, and its
# comparison-clamp ``coerce`` must equal them bit for bit; again the same
# arithmetic in the same order, not independent derivations.

_GRAVITY = 9.8
_MASS_POLE = 0.1
_TOTAL_MASS = 1.0 + _MASS_POLE
_HALF_POLE_LENGTH = 0.5
_POLE_MASS_LENGTH = _MASS_POLE * _HALF_POLE_LENGTH
_CARTPOLE_DT = 0.02


def cartpole_derivatives_two_call_form(x_dot, theta, theta_dot, force):
    cos_t = math.cos(theta)
    sin_t = math.sin(theta)
    temp = (force + _POLE_MASS_LENGTH * theta_dot * theta_dot * sin_t) / _TOTAL_MASS
    theta_acc = (_GRAVITY * sin_t - cos_t * temp) / (
        _HALF_POLE_LENGTH * (4.0 / 3.0 - _MASS_POLE * cos_t * cos_t / _TOTAL_MASS)
    )
    x_acc = temp - _POLE_MASS_LENGTH * theta_acc * cos_t / _TOTAL_MASS
    return x_acc, theta_acc


def cartpole_step_two_call_form(state, force):
    x, x_dot, theta, theta_dot = state
    x_acc, theta_acc = cartpole_derivatives_two_call_form(x_dot, theta, theta_dot, force)
    x = x + _CARTPOLE_DT * x_dot
    x_dot = x_dot + _CARTPOLE_DT * x_acc
    theta = theta + _CARTPOLE_DT * theta_dot
    theta_dot = theta_dot + _CARTPOLE_DT * theta_acc
    return (x, x_dot, theta, theta_dot)


_X_OBS_BOUND = 4.8
_THETA_OBS_BOUND = 0.418
_VELOCITY_CLAMP = 5.0
_STAR2_GRID = 50.0


def normalize_star2_copysign_form(raw):
    x, x_dot, theta, theta_dot = raw
    x_dot = min(max(x_dot, -_VELOCITY_CLAMP), _VELOCITY_CLAMP)
    theta_dot = min(max(theta_dot, -_VELOCITY_CLAMP), _VELOCITY_CLAMP)
    x = x * _STAR2_GRID / _X_OBS_BOUND
    x_dot = x_dot * _STAR2_GRID / _VELOCITY_CLAMP
    theta = theta * _STAR2_GRID / _THETA_OBS_BOUND
    theta_dot = theta_dot * _STAR2_GRID / _VELOCITY_CLAMP
    copysign, floor = math.copysign, math.floor
    return (
        int(copysign(floor(abs(x) + 0.5), x)),
        int(copysign(floor(abs(x_dot) + 0.5), x_dot)),
        int(copysign(floor(abs(theta) + 0.5), theta)),
        int(copysign(floor(abs(theta_dot) + 0.5), theta_dot)),
    )


def discrete_coerce_original(labels, value):
    if isinstance(value, bool) or value not in labels:
        return None
    return int(value)


def continuous_coerce_min_max_form(lo, hi, value):
    try:
        number = float(value)
    except TypeError:
        return None
    if not math.isfinite(number):
        return None
    return min(max(number, lo), hi)


# The cart-pole family's step, composed of the frozen forms above: one
# tick, the bounds test and the observation. Per task: its labels (None
# for the continuous force), its limits on abs(x) and abs(theta), and how
# it reports the state.

_CARTPOLE_THETA_LIMIT = 12.0 * 2.0 * math.pi / 360.0
CARTPOLE_FAMILY_TASKS = {
    "CartPole": ((0, 1), 2.4, _CARTPOLE_THETA_LIMIT, "native"),
    "CartPoleStar1": ((1, 2), 2.4, _CARTPOLE_THETA_LIMIT, "native"),
    "CartPoleStar2": ((1, 2), 2.4, _CARTPOLE_THETA_LIMIT, "grid"),
    "InvertedPendulum": (None, math.inf, 0.2, "reordered"),
}


def cartpole_family_observation_form(task, state):
    kind = CARTPOLE_FAMILY_TASKS[task][3]
    if kind == "grid":
        return normalize_star2_copysign_form(state)
    x, x_dot, theta, theta_dot = state
    if kind == "reordered":
        return (x, theta, x_dot, theta_dot)
    return (x, x_dot, theta, theta_dot)


def cartpole_family_step_form(task, state, action):
    """(next state, reward, terminated) under an action the coerce form took."""
    labels, x_limit, theta_limit, _ = CARTPOLE_FAMILY_TASKS[task]
    if labels is None:
        force = action
    else:
        force = 10.0 if action == labels[1] else -10.0
    state = cartpole_step_two_call_form(state, force)
    x, _, theta, _ = state
    return state, 1.0, abs(x) > x_limit or abs(theta) > theta_limit


# Frozen copy of the package's original numpy-based reset: every task drew
# its initial state from ``Generator(PCG64(seed))``. The package's
# plain-Python ``UniformStream`` must give the same states bit for bit.
# numpy is imported here only, so the other references load without it.

_RESET_BOUNDS_4 = {
    "CartPole": 0.05,
    "CartPoleStar1": 0.05,
    "CartPoleStar2": 0.05,
    "InvertedPendulum": 0.01,
    "Acrobot": 0.1,
}


def reset_state_numpy_form(task, seed):
    """The native initial state ``make(task).reset(seed)`` drew through numpy."""
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(seed & 0xFFFFFFFFFFFFFFFF))
    if task in _RESET_BOUNDS_4:
        bound = _RESET_BOUNDS_4[task]
        return tuple(rng.uniform(-bound, bound, size=4).tolist())
    if task == "Pendulum":
        theta = float(rng.uniform(-math.pi, math.pi))
        theta_dot = float(rng.uniform(-1.0, 1.0))
        return (theta, theta_dot)
    if task in ("MountainCarDiscrete", "MountainCarContinuous"):
        return (float(rng.uniform(-0.6, -0.4)), 0.0)
    raise KeyError(task)
