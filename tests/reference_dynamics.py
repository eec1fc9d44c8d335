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
