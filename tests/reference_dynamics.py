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
# The RK4 step of the package's ``AcrobotEnv._rollout`` must equal it bit
# for bit; unlike ``acrobot_ref`` above, this is the same arithmetic in the
# same order, not an independent derivation.

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


# Frozen copies of the steps of Acrobot, Pendulum and the two MountainCars
# as the package wrote them before their rollouts were fused: each task's
# ``_step_state`` and ``_observe`` hooks, and the helpers they called
# (``wrap_angle``, ``tip_above_goal``, ``_slide``). Acrobot's integrator is
# the generator form above, which the package's RK4 step equals bit for
# bit. Each fused rollout must equal these forms bit for bit: the same
# arithmetic in the same order.


def wrap_angle_form(theta):
    """Map an angle to [-pi, pi)."""
    return ((theta + math.pi) % (2.0 * math.pi)) - math.pi


def tip_above_goal_form(theta1, theta2):
    return -math.cos(theta1) - math.cos(theta2 + theta1) > 1.0


_ACROBOT_TORQUES = (-1.0, 0.0, 1.0)
ACROBOT_MAX_VEL_1 = 4.0 * math.pi
ACROBOT_MAX_VEL_2 = 9.0 * math.pi


def acrobot_step_form(state, action):
    """(next state, reward, terminated) under a label the coerce form took."""
    theta1, theta2, dtheta1, dtheta2 = rk4_step_generator_form(state, _ACROBOT_TORQUES[action])
    theta1 = wrap_angle_form(theta1)
    theta2 = wrap_angle_form(theta2)
    dtheta1 = min(max(dtheta1, -ACROBOT_MAX_VEL_1), ACROBOT_MAX_VEL_1)
    dtheta2 = min(max(dtheta2, -ACROBOT_MAX_VEL_2), ACROBOT_MAX_VEL_2)
    new_state = (theta1, theta2, dtheta1, dtheta2)
    if tip_above_goal_form(theta1, theta2):
        return new_state, 0.0, True
    return new_state, -1.0, False


def acrobot_observation_form(state):
    theta1, theta2, dtheta1, dtheta2 = state
    return (
        math.cos(theta1),
        math.sin(theta1),
        math.cos(theta2),
        math.sin(theta2),
        dtheta1,
        dtheta2,
    )


_PENDULUM_G = 10.0
_PENDULUM_MASS = 1.0
_PENDULUM_LENGTH = 1.0
_PENDULUM_DT = 0.05
PENDULUM_MAX_SPEED = 8.0


def pendulum_step_form(state, torque):
    """(next state, reward, terminated) under a torque the coerce form took."""
    theta, theta_dot = state
    angle = wrap_angle_form(theta)
    cost = angle * angle + 0.1 * theta_dot * theta_dot + 0.001 * torque * torque

    new_theta_dot = theta_dot + (
        3.0 * _PENDULUM_G / (2.0 * _PENDULUM_LENGTH) * math.sin(theta)
        + 3.0 / (_PENDULUM_MASS * _PENDULUM_LENGTH * _PENDULUM_LENGTH) * torque
    ) * _PENDULUM_DT
    new_theta_dot = min(max(new_theta_dot, -PENDULUM_MAX_SPEED), PENDULUM_MAX_SPEED)
    new_theta = theta + new_theta_dot * _PENDULUM_DT
    return (new_theta, new_theta_dot), -cost, False


def pendulum_observation_form(state):
    theta, theta_dot = state
    return (math.cos(theta), math.sin(theta), theta_dot)


MOUNTAIN_CAR_MIN_POSITION = -1.2
MOUNTAIN_CAR_MAX_POSITION = 0.6
MOUNTAIN_CAR_MAX_SPEED = 0.07
_MOUNTAIN_CAR_GRAVITY = 0.0025


def slide_form(position, velocity, push):
    """Common hill dynamics: apply the push, then gravity along the slope."""
    velocity += push - _MOUNTAIN_CAR_GRAVITY * math.cos(3.0 * position)
    velocity = min(max(velocity, -MOUNTAIN_CAR_MAX_SPEED), MOUNTAIN_CAR_MAX_SPEED)
    position += velocity
    position = min(max(position, MOUNTAIN_CAR_MIN_POSITION), MOUNTAIN_CAR_MAX_POSITION)
    if position == MOUNTAIN_CAR_MIN_POSITION and velocity < 0.0:
        velocity = 0.0
    return position, velocity


def mountain_car_discrete_step_form(state, action):
    position, velocity = state
    position, velocity = slide_form(position, velocity, (action - 1) * 0.001)
    terminated = position >= 0.5 and velocity >= 0.0
    return (position, velocity), -1.0, terminated


def mountain_car_continuous_step_form(state, force):
    position, velocity = state
    position, velocity = slide_form(position, velocity, force * 0.0015)
    terminated = position >= 0.45 and velocity >= 0.0
    reward = -0.1 * force * force + (100.0 if terminated else 0.0)
    return (position, velocity), reward, terminated


def mountain_car_observation_form(state):
    return state


# task -> (step form, observation form)
FLOAT_TASK_FORMS = {
    "Acrobot": (acrobot_step_form, acrobot_observation_form),
    "Pendulum": (pendulum_step_form, pendulum_observation_form),
    "MountainCarDiscrete": (mountain_car_discrete_step_form, mountain_car_observation_form),
    "MountainCarContinuous": (mountain_car_continuous_step_form, mountain_car_observation_form),
}


# Frozen copies of the package's original cart-pole step, CartPoleStar2
# encoding and action-space coercion (the ``coerce`` methods the action
# spaces had). The package's cart-pole tick and sign-test encoding, both
# inline in the family's rollout, and the action check inline in every
# rollout must equal them bit for bit; again the same arithmetic in the
# same order, not independent derivations.

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
# plain-Python ``uniform_draws`` must give the same states bit for bit.
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
