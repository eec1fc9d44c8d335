"""Reset seeding without numpy: ``uniform_draws`` against numpy's
``Generator(PCG64(seed)).uniform``, and every task's reset against the frozen
numpy-based reset in ``reference_dynamics``. numpy is the reference here and
nowhere in the package."""

import math
import random

import numpy as np
import pytest

from policyloop.envs import ALL_TASKS, make
from policyloop.envs.core import derive_seed
from policyloop.envs.seeding import uniform_draws

from reference_dynamics import reset_state_numpy_form

M64 = 2**64 - 1

# Word boundaries of SeedSequence's 32-bit split, and the ends of the range
EDGE_SEEDS = [0, 1, 2, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**63 - 1, 2**63, M64 - 1, M64]


def _bits(values):
    return [float(v).hex() for v in values]


def _seeds(count, rng):
    """Seeds of every bit length up to 64, plus the package's own derived ones."""
    seeds = list(EDGE_SEEDS)
    while len(seeds) < count:
        if len(seeds) % 4 == 0:
            seeds.append(derive_seed("seeding", len(seeds)))
        else:
            seeds.append(rng.getrandbits(rng.randint(1, 64)))
    return seeds


def test_uniform_draws_match_numpy_on_20000_seeds():
    bounds = [(-0.05, 0.05), (-1.0, 1.0), (-0.6, -0.4), (0.0, 1.0), (-math.pi, math.pi)]
    mismatches = []
    for seed in _seeds(20_000, random.Random(12)):
        low, high = bounds[seed % len(bounds)]
        expected = np.random.Generator(np.random.PCG64(seed)).uniform(low, high, size=5).tolist()
        got = uniform_draws(seed, [(low, high)] * 5)
        if _bits(got) != _bits(expected):
            mismatches.append(seed)
    assert mismatches == []


def test_long_streams_match_numpy():
    """The LCG keeps matching far past the handful of draws a reset makes."""
    for seed in EDGE_SEEDS[:4]:
        expected = np.random.Generator(np.random.PCG64(seed)).uniform(-2.0, 5.0, size=1000).tolist()
        assert _bits(uniform_draws(seed, [(-2.0, 5.0)] * 1000)) == _bits(expected)


@pytest.mark.parametrize("task", ALL_TASKS)
def test_reset_matches_the_numpy_based_reset(task):
    rng = random.Random(task.value)
    seeds = EDGE_SEEDS + [derive_seed("reset", task.value, i) for i in range(300)]
    # reset takes any int modulo 2**64, as numpy's seeding did after the mask
    seeds += [-1, -2, -(2**63), -(2**64) + 1, 2**64, 2**64 + 5, 2**100 + 3]
    seeds += [-rng.getrandbits(64) for _ in range(50)]
    env = make(task)
    for seed in seeds:
        env.reset(seed)
        expected = reset_state_numpy_form(task.value, seed)
        assert _bits(env.state) == _bits(expected), seed
        assert all(type(v) is float for v in env.state)
