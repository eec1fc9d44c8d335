"""How fast the host runs right now, read from a fixed reference loop.

The benchmark shares a few CPUs of a host whose speed moves between states
that last from seconds to minutes, longer than a run. A timing taken alone
then spreads across runs with the host, not with the program. So each
workload runs :func:`reference` next to every piece of its timed part (a
replication, a report, a set-up) and scales that piece's time by how slowly
the reference ran beside it::

    scaled = measured * REFERENCE_S / reference_time_nearby

A scaled time is in seconds of the reference machine at its usual speed.
The reference is benchmark code that no program change touches, so a slower
program still shows as a longer scaled time while a slower host does not.
It is pure-Python float arithmetic and calls, like the simulators and the
policy evaluator, and allocates no container, so it never sets off the
garbage collector for garbage the program left.
"""

from __future__ import annotations

import math
import statistics
import time

# About the median time of one reference() on the reference machine (2 CPUs of
# a shared host, Python 3.11.7); only the scale of scaled times depends on it.
REFERENCE_S = 0.005
# A piece is scaled by the median of the 2 * NEIGHBOURS reference readings
# nearest to it, so a single preemption during a reading does not count.
NEIGHBOURS = 4

_TICKS = 7500


def _force(angle: float, rate: float, velocity: float, position: float) -> float:
    return 10.0 if 20.0 * angle + 3.0 * rate + 0.5 * velocity + 0.1 * position > 0.0 else -10.0


def _reference_loop(ticks: int) -> float:
    """Euler ticks of a cart-pole under a linear controller."""
    x = v = w = 0.0
    theta = 0.05
    for _ in range(ticks):
        force = _force(theta, w, v, x)
        cos_t = math.cos(theta)
        sin_t = math.sin(theta)
        temp = (force + 0.05 * w * w * sin_t) / 1.1
        theta_acc = (9.8 * sin_t - cos_t * temp) / (0.5 * (4.0 / 3.0 - 0.1 * cos_t * cos_t / 1.1))
        x_acc = temp - 0.05 * theta_acc * cos_t / 1.1
        x += 0.02 * v
        v += 0.02 * x_acc
        theta += 0.02 * w
        w += 0.02 * theta_acc
    return x + theta


def reference() -> float:
    """Seconds one fixed piece of reference work takes now."""
    started = time.perf_counter()
    _reference_loop(_TICKS)
    return time.perf_counter() - started


class Meter:
    """The pieces of a timed part, each read beside the reference.

    Call :meth:`mark` before each piece and once after the last. A piece runs
    from one mark to the next, without the references read in the marks.
    ``fixed``, when given, reads the seconds so far that the host's speed
    does not set (the stand-in model's fixed latency); that part of a piece
    is kept as measured and only the rest is scaled.
    """

    def __init__(self, fixed=None):
        self._fixed = fixed
        self._marks: list = []  # (perf_counter, fixed seconds so far)
        self._refs: list = []  # one reading per mark: the median of its references
        self._spent: list = []  # seconds each mark spent on references

    def mark(self, readings: int = 1) -> None:
        started = time.perf_counter()
        refs = [reference() for _ in range(readings)]
        self._spent.append(time.perf_counter() - started)
        self._refs.append(statistics.median(refs))
        self._marks.append((time.perf_counter(), self._fixed() if self._fixed else 0.0))

    def __len__(self) -> int:
        return len(self._marks)

    def raw(self) -> list:
        """Seconds each piece took."""
        marks, spent = self._marks, self._spent
        return [marks[i + 1][0] - marks[i][0] - spent[i + 1] for i in range(len(marks) - 1)]

    def fixed(self) -> list:
        """Seconds of each piece that are not scaled."""
        marks = self._marks
        return [b[1] - a[1] for a, b in zip(marks, marks[1:])]

    def scales(self) -> list:
        """For each piece, REFERENCE_S over the median reading around it."""
        refs = self._refs
        return [
            REFERENCE_S / statistics.median(refs[max(0, i + 1 - NEIGHBOURS) : i + 1 + NEIGHBOURS])
            for i in range(len(refs) - 1)
        ]

    def scaled(self) -> list:
        """Seconds each piece would take on the reference machine."""
        return [f + (t - f) * s for t, f, s in zip(self.raw(), self.fixed(), self.scales())]

    def host_speed(self) -> float:
        """REFERENCE_S over the median reading: above 1 when the host ran
        faster than the reference machine's usual state."""
        return REFERENCE_S / statistics.median(self._refs)
