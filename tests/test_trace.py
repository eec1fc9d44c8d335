"""Trace-line rendering: ``render_observation`` prints every observation
exactly as numpy's default ``array2string`` does (floats after rounding to
three decimals), without consulting numpy's print options. The property
tests are derandomized, so every run draws the same examples."""

import math
import random

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from policyloop.dsl import parse, run_episode
from policyloop.envs import ALL_TASKS, get_spec, render_observation
from policyloop.gateway import ScriptedBackend
from policyloop.loop import LoopConfig, replay, run_replication

from conftest import scripted_session, transcript_text
from test_episode import GOLDEN, _header

DTYPES = [np.int64, np.float64, np.float32]
DIFFERENTIAL = settings(derandomize=True, database=None, deadline=None, max_examples=600)


def numpy_text(obs) -> str:
    """How trace lines were rendered with numpy: integer arrays as they are,
    anything else as float64 rounded to three decimals."""
    arr = np.asarray(obs)
    if np.issubdtype(arr.dtype, np.integer):
        return np.array2string(arr)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.array2string(np.round(arr.astype(np.float64), 3))


def _golden_episodes():
    for task in ALL_TASKS:
        spec = get_spec(task)
        sources = {
            "random": _header(spec) + f"    {spec.random_default_text}\n",
            "optimal": transcript_text("code_optimal.py"),
        }
        for policy, seed, _, _ in GOLDEN[task]:
            program = parse(sources[policy], expected_params=spec.obs_names)
            yield task, run_episode(program, task, seed=seed, rng=random.Random(seed))


@pytest.mark.parametrize(
    "obs, text",
    [
        ((1, -3, 9, 6), "[ 1 -3  9  6]"),
        ((-120, 5, 0, 7), "[-120    5    0    7]"),
        ((1.0, -0.5, 0.25, 2.0), "[ 1.   -0.5   0.25  2.  ]"),
        ((-0.0004, 0.0004, 0.5), "[-0.   0.   0.5]"),
        ((0.001, 1.5, 0.02, -0.3), "[ 1.0e-03  1.5e+00  2.0e-02 -3.0e-01]"),
        # rounding first: 5e-05 is 0. and never the magnitude under 1e-4 that
        # would switch to exponent form
        ((0.00005, 1.0), "[0. 1.]"),
        ((0.0015, 2.0), "[0.002 2.   ]"),
        ((0.0015, 2.5), "[2.0e-03 2.5e+00]"),
        ((1e8, 1.0), "[1.e+08 1.e+00]"),
        ((1e300, 1e-3), "[1.e+300 1.e-003]"),
        ((math.nan, 1.5, -math.inf), "[ nan  1.5 -inf]"),
        ((math.inf, math.nan), "[inf nan]"),
        (
            (-3.14159, 0.99917, -2.71828, 10.12345, -28.27433, 12.56637),
            "[ -3.142   0.999  -2.718  10.123 -28.274  12.566]",
        ),
        (
            (1234567.8915, -0.001, 3.5, 4.25, -12345.678, 0.75),
            "[ 1.23456789e+06 -1.00000000e-03  3.50000000e+00  4.25000000e+00\n"
            " -1.23456780e+04  7.50000000e-01]",
        ),
        ((), "[]"),
    ],
)
def test_known_vectors(obs, text):
    assert numpy_text(obs) == text
    assert render_observation(obs) == text


ints = st.integers(-(2**63), 2**63 - 1)
magnitudes = st.floats(-7, 300).map(lambda e: 10.0**e)
signed = st.tuples(st.sampled_from([-1.0, 1.0]), magnitudes).map(lambda p: p[0] * p[1])
floats = st.one_of(
    signed,
    st.floats(-10.0, 10.0),
    # values that round to a three-decimal tie or to a signed zero
    st.integers(-(10**7), 10**7).map(lambda k: k / 2000),
    st.floats(-0.0005, 0.0005),
    st.sampled_from([0.0, -0.0, 1e8, 99999999.9996, 1e-4, math.nan, math.inf, -math.inf]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@DIFFERENTIAL
@given(st.one_of(st.lists(ints, min_size=1, max_size=8), st.lists(st.integers(-999, 999), min_size=1, max_size=8)))
def test_int_vectors_match_numpy(values):
    obs = tuple(values)
    assert render_observation(obs) == numpy_text(obs)


@DIFFERENTIAL
@given(st.lists(floats, min_size=1, max_size=8))
def test_float_vectors_match_numpy(values):
    obs = tuple(values)
    assert render_observation(obs) == numpy_text(obs)


@DIFFERENTIAL
@given(st.lists(st.floats(-40.0, 40.0), min_size=6, max_size=6))
def test_six_value_vectors_wrap_like_numpy(values):
    """Acrobot-sized vectors; those in exponent form pass 75 columns."""
    obs = tuple(values)
    assert render_observation(obs) == numpy_text(obs)


@pytest.mark.parametrize("dtype", DTYPES)
def test_arrays_render_like_tuples(dtype):
    rng = np.random.default_rng(0)
    for size in range(1, 9):
        arr = (rng.standard_normal(size) * 10.0 ** rng.integers(0, 6)).astype(dtype)
        assert render_observation(arr) == numpy_text(arr)
        assert render_observation(arr) == render_observation(tuple(arr.tolist()))


def test_golden_episode_observations_match_numpy():
    for task, trace in _golden_episodes():
        for obs in trace.observations:
            assert render_observation(obs) == numpy_text(obs), (task, obs)


def test_trace_lines_ignore_numpy_print_options():
    config = LoopConfig.for_task("CartPoleStar2", epochs=5, seed_root=3, model_name="scripted-model")
    record = run_replication("CartPoleStar2", config, ScriptedBackend(scripted_session()), 0, 0.0)

    def rendered():
        lines = [trace.lines() for _, trace in _golden_episodes()]
        lines += [render_observation(np.array([0.25, -1.0, 3.0], dtype=dtype)) for dtype in DTYPES]
        matches, rerun = replay(record)
        assert matches
        return lines, rerun.canonical_json()

    plain = rendered()
    with np.printoptions(precision=1, linewidth=30, suppress=True, sign=" ", floatmode="fixed"):
        assert rendered() == plain
