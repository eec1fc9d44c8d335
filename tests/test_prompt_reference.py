"""The reflection prompt against its frozen earlier assembly
(``reference_prompts``): every ablation, with and without a previous and a
best strategy, three kinds of window, zero to three prior rewards, on every
task. Replaying a record cannot catch a prompt change, since scripted
backends ignore the request text, so this is the check that the ablation
table keeps exactly the blocks each condition kept before."""

import itertools

import pytest

from policyloop.envs import ALL_TASKS, get_spec
from policyloop.loop import Strategy
from policyloop.prompts import (
    Ablation,
    SensoryMotorWindow,
    p4_blocks,
    render_p4,
)

from reference_prompts import p4_blocks_reference, render_p4_reference

_LINES = ("[-1 -3  9  6];2", "[-1  0 10  1];1")

WINDOWS = {
    "lines": SensoryMotorWindow(_LINES, source_episode=3, episode_return=116.0),
    "invalid-None": SensoryMotorWindow(
        _LINES + ("[-1  6 26  5];None",),
        source_episode=1,
        episode_return=5.0,
        invalid_value_text="None",
    ),
    "empty-invalid-7": SensoryMotorWindow(
        (), source_episode=0, episode_return=0.0, invalid_value_text="7"
    ),
}

HISTORY = (12.5, -3.25, 116.1)


def _summary(rules, reward, episodes, window):
    return Strategy(
        iteration_index=0,
        strategy_text="",
        rules_text=rules,
        program_source="",
        mean_reward=reward,
        per_episode_returns=[reward] * episodes,
        window=window,
    )


def _cases(window):
    """(current, previous, best, history) for every optional-block combination.

    Previous and best carry the current window too, as the loop hands them
    over; only the current strategy's window may reach the prompt.
    """
    current = _summary("1. If Pole Angle > 0 Then Move Right (2)", 116.1, 20, window)
    previous = _summary("1. If Pole Angle < 0 Then Move Left (0)", 49.85, 10, window)
    best = _summary("1. If Cart Velocity > 0 Then Move Left (0)", 500.0, 20, window)
    for with_previous, with_best, n_history in itertools.product(
        (False, True), (False, True), range(4)
    ):
        yield (
            current,
            previous if with_previous else None,
            best if with_best else None,
            HISTORY[:n_history],
        )


@pytest.mark.parametrize("ablation", list(Ablation), ids=lambda a: a.value)
@pytest.mark.parametrize("task", ALL_TASKS, ids=lambda t: t.value)
def test_reflection_prompt_matches_frozen_reference(task, ablation):
    spec = get_spec(task)
    compared = 0
    for window_name, window in WINDOWS.items():
        for current, previous, best, history in _cases(window):
            where = (window_name, previous is not None, best is not None, len(history))
            blocks = p4_blocks(spec, current, previous, best, ablation, history)
            expected = p4_blocks_reference(spec, current, previous, best, 20, ablation, history)
            assert blocks == expected, where
            text = render_p4(spec, current, previous, best, history, ablation)
            assert text == render_p4_reference(
                spec, current, previous, best, history, 20, ablation
            ), where
            compared += 1
    assert compared == len(WINDOWS) * 16
