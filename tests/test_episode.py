"""Episode rollouts: invalid-action semantics, trace rendering, replay."""

import random

import pytest

from policyloop.dsl import InvalidReason, parse, run_episode
from policyloop.envs import TaskId, get_spec
from policyloop.envs.core import TerminationCause

from conftest import transcript_text


def test_gappy_program_ends_with_literal_none_line(star2_spec):
    program = parse(transcript_text("code_iter1.py"), expected_params=star2_spec.obs_names)
    trace = run_episode(program, TaskId.CARTPOLE_STAR2, seed=1, rng=random.Random(0))
    assert trace.cause is TerminationCause.INVALID_ACTION
    last = trace.lines()[-1]
    assert last.endswith(";None")
    # the invalid step contributes no reward
    assert trace.steps[-1].reward == 0.0
    assert trace.total_reward == trace.length - 1


def test_optimal_program_runs_full_episode(star2_spec):
    program = parse(transcript_text("code_optimal.py"), expected_params=star2_spec.obs_names)
    trace = run_episode(program, TaskId.CARTPOLE_STAR2, seed=9, rng=random.Random(0))
    assert trace.length == 500
    assert trace.total_reward == 500.0
    assert trace.cause is TerminationCause.STEP_LIMIT


def test_empty_body_program_is_one_invalid_step():
    program = parse(
        "def get_action(cart_position, cart_velocity, pole_angle, pole_angular_velocity):\n"
        "    pass\n"
    )
    trace = run_episode(program, TaskId.CARTPOLE_STAR2, seed=0, rng=random.Random(0))
    assert trace.length == 1
    assert trace.total_reward == 0.0
    assert trace.ended_invalid


def test_replay_bit_identical_given_same_seeds(iter0_program):
    def play():
        trace = run_episode(
            iter0_program, TaskId.CARTPOLE_STAR2, seed=77, rng=random.Random(5)
        )
        return trace.lines(), trace.total_reward, trace.cause

    assert play() == play()


def test_trace_lines_match_integer_rendering(iter0_program):
    trace = run_episode(iter0_program, TaskId.CARTPOLE_STAR2, seed=3, rng=random.Random(1))
    line = trace.lines()[0]
    obs_part, action_part = line.rsplit(";", 1)
    assert obs_part.startswith("[") and obs_part.endswith("]")
    assert action_part in ("1", "2")
    # numpy integer-vector rendering: no commas, no decimal points
    assert "," not in obs_part and "." not in obs_part


def test_window_lines_take_the_tail(iter0_program):
    trace = run_episode(iter0_program, TaskId.CARTPOLE_STAR2, seed=3, rng=random.Random(1))
    window = trace.window_lines(20)
    assert window == trace.lines()[-20:]
    assert trace.window_lines(10_000) == trace.lines()


@pytest.mark.parametrize(
    "task", [TaskId.INVERTED_PENDULUM, TaskId.PENDULUM, TaskId.MOUNTAIN_CAR_CONTINUOUS]
)
def test_nan_action_ends_the_episode_invalid(task):
    spec = get_spec(task)
    program = parse(
        f"def get_action({', '.join(spec.obs_names)}):\n"
        "    return 1e308 * 10 - 1e308 * 10\n"
    )
    trace = run_episode(program, task, seed=0, rng=random.Random(0))
    assert trace.ended_invalid
    assert trace.length == 1
    assert trace.total_reward == 0.0
    assert trace.invalid_outcome.reason is InvalidReason.OUT_OF_RANGE
    assert trace.lines()[0].endswith(";nan")


def test_continuous_episode_records_float_actions():
    program = parse(
        "def get_action(x, y, angular_velocity):\n"
        "    return -2 * y - 0.5 * angular_velocity\n"
    )
    trace = run_episode(program, TaskId.PENDULUM, seed=4, rng=random.Random(0))
    assert trace.length == 200
    action = trace.lines()[0].rsplit(";", 1)[1]
    float(action)  # parses as a number
