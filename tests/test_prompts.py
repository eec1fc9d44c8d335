"""Prompt rendering (pinned against fixtures), the reflection prompt's block
structure under ablations, and response extraction."""

import pytest

from policyloop.dsl import PolicyParseError
from policyloop.envs import ALL_TASKS, get_spec
from policyloop.gateway import MalformedResponseError
from policyloop.loop import Strategy
from policyloop.prompts import (
    Ablation,
    NoRulesError,
    SensoryMotorWindow,
    extract_code,
    extract_rules,
    extract_strategy,
    format_reward,
    p4_blocks,
    render_p1,
    render_p2,
    render_p3,
    render_p4,
)

from conftest import assert_same_policy, fixture_text, transcript_text


# -- renders pinned against fixtures ----------------------------------------


def test_p1_render_matches_fixture(star2_spec):
    assert render_p1(star2_spec) == fixture_text("p1_cartpole_star2.txt")


def test_p2_render_matches_fixture(star2_spec):
    rendered = render_p2(star2_spec, transcript_text("strategy_iter0.txt"))
    assert rendered == fixture_text("p2_iter0_cartpole_star2.txt")


def test_p3_render_matches_fixture(star2_spec):
    rendered = render_p3(star2_spec, transcript_text("rules_iter0.txt"))
    assert rendered == fixture_text("p3_iter0_cartpole_star2.txt")


_SLOT_MARKERS = (
    "[Agent]",
    "[Goal and Reward]",
    "[Observation Vector]",
    "[Action Vector]",
    "[Termination Conditions]",
)


@pytest.mark.parametrize("task", ALL_TASKS)
def test_all_tasks_render_without_unresolved_markers(task):
    """Every template slot resolves, in every prompt and, for the reflection
    prompt, under every ablation with every optional block present."""
    spec = get_spec(task)
    texts = [render_p1(spec), render_p2(spec, "s"), render_p3(spec, "r"), render_p3(spec, "r", "e")]
    for ablation in Ablation:
        texts.append(
            render_p4(
                spec,
                _summary(116.1, window=("[-1 -3  9  6];2",), invalid="None"),
                previous=_summary(49.85),
                best=_summary(49.85),
                history_rewards=[49.85, 116.1],
                ablation=ablation,
            )
        )
    for text in texts:
        assert "{" not in text and "}" not in text
        for marker in _SLOT_MARKERS:
            assert marker not in text


def test_p3_repair_suffix_contains_error(star2_spec):
    text = render_p3(star2_spec, "rules", error="line 2, column 3: loops are not allowed")
    assert text.endswith(
        "Generate the function again following the same requirements. Your response "
        "should contain only the function definition using python code. No other text "
        "or explanation, neither formatting characters, only plain python code."
    )
    assert "line 2, column 3: loops are not allowed" in text


def test_rendering_is_idempotent(star2_spec):
    summary = _summary(50.0, window=("[0 0 1 0];2", "[0 2 1 -3];1"))
    args = dict(
        current=summary,
        previous=_summary(40.0),
        best=_summary(60.0),
        history_rewards=[40.0, 50.0],
    )
    assert render_p4(star2_spec, **args) == render_p4(star2_spec, **args)


# -- reflection prompt structure ---------------------------------------------


def _summary(reward, window=None, invalid=None, episodes=20):
    win = None
    if window is not None:
        win = SensoryMotorWindow(
            lines=tuple(window),
            source_episode=0,
            episode_return=min(0.0, reward),
            invalid_value_text=invalid,
        )
    return Strategy(
        iteration_index=0,
        strategy_text="",
        rules_text=f"1. If Pole Angle > 0 Then Move Right (2)  # reward {reward}",
        program_source="",
        mean_reward=reward,
        per_episode_returns=[reward] * episodes,
        window=win,
    )


def _names(blocks):
    return [name for name, _ in blocks]


def test_first_reflection_has_no_previous_or_best(star2_spec):
    blocks = p4_blocks(
        star2_spec,
        _summary(49.85, window=("[0 0 1 0];2",)),
        previous=None,
        best=None,
    )
    assert _names(blocks) == ["task_description", "current_strategy", "current_window", "instruction"]


def test_baseline_reflection_block_order(star2_spec):
    blocks = p4_blocks(
        star2_spec,
        _summary(116.1, window=("[-1 -3  9  6];2",)),
        previous=_summary(49.85),
        best=_summary(49.85),
        history_rewards=[49.85, 116.1],
    )
    assert _names(blocks) == [
        "task_description",
        "reward_sequence",
        "current_strategy",
        "current_window",
        "previous_strategy",
        "best_strategy",
        "instruction",
    ]
    text = "\n\n".join(t for _, t in blocks)
    assert "You already tried 2 different strategies, and the sequence of rewards was: [49.85, 116.1]" in text
    assert "Last 1 steps from a trial using this strategy. The average reward in 20 trials was 116.1/500" in text


def test_reward_sequence_formatting():
    assert format_reward(49.85) == "49.85"
    assert format_reward(116.1) == "116.1"
    assert format_reward(500.0) == "500"
    assert format_reward(-108.2399) == "-108.24"
    # a value that rounds to zero prints without a sign
    for value in (-0.004, -0.0, 0.0, 0.004, -0.00499):
        assert format_reward(value) == "0"
    assert format_reward(-0.005) == "-0.01"


def test_invalid_action_feedback_line_appended(star2_spec):
    blocks = p4_blocks(
        star2_spec,
        _summary(5.0, window=("[-1  6 26  5];None",), invalid="None"),
        previous=None,
        best=None,
    )
    assert _names(blocks)[-1] == "error_feedback"
    assert blocks[-1][1] == (
        "Your previous reasoning generated an invalid action, it should be "
        "1 (left) or 2 (right) but it was None"
    )


def test_window_fidelity_lines_are_byte_equal(star2_spec):
    import random

    from policyloop.dsl import parse, run_episode
    from policyloop.envs import TaskId

    program = parse(transcript_text("code_iter0.py"), expected_params=star2_spec.obs_names)
    trace = run_episode(program, TaskId.CARTPOLE_STAR2, seed=3, rng=random.Random(1))
    window_lines = trace.window_lines(20)
    blocks = p4_blocks(
        star2_spec,
        _summary(42.0, window=window_lines),
        previous=None,
        best=None,
    )
    window_block = dict(blocks)["current_window"]
    assert "\n".join(window_lines) in window_block


ABLATION_EXPECTED_REMOVED = {
    Ablation.NO_DATA: {"reward_sequence", "current_strategy", "current_window", "previous_strategy", "best_strategy"},
    Ablation.NO_SENSORY_MOTOR_DATA: {"current_window"},
    Ablation.NO_PREVIOUS_STRATEGY: {"previous_strategy"},
    Ablation.NO_BEST_STRATEGY: {"best_strategy"},
    Ablation.ONLY_CURRENT_STRATEGY: {"reward_sequence", "previous_strategy", "best_strategy"},
    Ablation.ONLY_BEST_STRATEGY_DATA: {
        "reward_sequence",
        "current_strategy",
        "current_window",
        "previous_strategy",
    },
}
ABLATION_EXPECTED_ADDED = {
    Ablation.NO_DATA: set(),
    Ablation.NO_SENSORY_MOTOR_DATA: {"current_reward"},
    Ablation.NO_PREVIOUS_STRATEGY: set(),
    Ablation.NO_BEST_STRATEGY: set(),
    Ablation.ONLY_CURRENT_STRATEGY: set(),
    Ablation.ONLY_BEST_STRATEGY_DATA: set(),
}


def _ablation_blocks(star2_spec, ablation):
    return p4_blocks(
        star2_spec,
        _summary(116.1, window=("[-1 -3  9  6];2", "[-1  0 10  1];1")),
        previous=_summary(49.85),
        best=_summary(49.85),
        ablation=ablation,
        history_rewards=[49.85, 116.1],
    )


@pytest.mark.parametrize("ablation", list(ABLATION_EXPECTED_REMOVED))
def test_each_ablation_differs_from_baseline_by_its_blocks(star2_spec, ablation):
    baseline = dict(_ablation_blocks(star2_spec, Ablation.BASELINE))
    ablated = dict(_ablation_blocks(star2_spec, ablation))
    removed = set(baseline) - set(ablated)
    added = set(ablated) - set(baseline)
    assert removed == ABLATION_EXPECTED_REMOVED[ablation]
    assert added == ABLATION_EXPECTED_ADDED[ablation]
    for name in set(baseline) & set(ablated):
        assert baseline[name] == ablated[name], f"shared block {name} changed"


def test_no_dangling_headers_under_ablation(star2_spec):
    for ablation in Ablation:
        text = render_p4(
            star2_spec,
            _summary(116.1, window=("[-1 -3  9  6];2",)),
            previous=_summary(49.85),
            best=_summary(49.85),
            history_rewards=[49.85, 116.1],
                ablation=ablation,
        )
        assert "Your experience with this strategy was:\n\n\n" not in text
        assert not text.endswith(":")
        if ablation is Ablation.NO_SENSORY_MOTOR_DATA:
            assert "];" not in text  # no observation/action lines at all
            assert "The average reward in 20 trials was 116.1/500" in text


# -- extraction ----------------------------------------------------------------


def test_extract_strategy_is_verbatim():
    text = transcript_text("strategy_iter0.txt")
    assert extract_strategy("  " + text + "\n\n") == text
    # markdown formatting is preserved, not stripped
    assert "**If the Pole Angle is Positive (leaning right):**" in extract_strategy(text)


def test_extract_strategy_rejects_whitespace_only():
    with pytest.raises(MalformedResponseError, match="empty strategy response"):
        extract_strategy("   \n\t  ")


def test_extract_rules_returns_rule_block_verbatim():
    rules = transcript_text("rules_iter0.txt")
    assert extract_rules(rules) == rules


def test_extract_rules_trims_surrounding_prose():
    rules = transcript_text("rules_iter0.txt")
    wrapped = "Sure! Here are the rules you asked for:\n\n" + rules + "\n\nLet me know if you need anything else."
    assert extract_rules(wrapped) == rules


def test_extract_rules_strips_code_fences():
    rules = transcript_text("rules_iter0.txt")
    fenced = "```\n" + rules + "\n```"
    assert extract_rules(fenced) == rules


def test_extract_rules_apology_is_an_error():
    with pytest.raises(NoRulesError):
        extract_rules("I am sorry, but I cannot help with that request.")


def test_extract_code_parses_fixture(star2_spec, iter0_program):
    program = extract_code(transcript_text("code_iter0.py"), star2_spec)
    assert_same_policy(program, iter0_program)


def test_extract_code_handles_fences_and_trailing_prose(star2_spec, iter0_program):
    source = transcript_text("code_iter0.py")
    decorated = (
        "Here is the function:\n\n```python\n"
        + source
        + "\n```\n\nThis function implements the rules faithfully."
    )
    program = extract_code(decorated, star2_spec)
    assert_same_policy(program, iter0_program)


def test_extract_code_unfenced_with_trailing_prose(star2_spec, iter0_program):
    source = transcript_text("code_iter0.py")
    decorated = source + "\n\nThis function checks the pole angle first."
    program = extract_code(decorated, star2_spec)
    assert_same_policy(program, iter0_program)


def test_extract_code_renamed_parameter_is_an_error(star2_spec):
    bad = transcript_text("code_iter0.py").replace("pole_angle", "angle_of_pole")
    with pytest.raises(PolicyParseError, match="parameters must be exactly"):
        extract_code(bad, star2_spec)


def test_extract_code_tolerates_uniformly_indented_function(star2_spec, iter0_program):
    import textwrap

    indented = textwrap.indent(transcript_text("code_iter0.py"), "    ")
    assert_same_policy(extract_code(indented, star2_spec), iter0_program)


def test_extract_code_empty_response_is_an_error(star2_spec):
    with pytest.raises(PolicyParseError, match="empty"):
        extract_code("   \n  ", star2_spec)


def test_extract_code_overlong_integer_is_a_parse_error(star2_spec):
    source = transcript_text("code_iter0.py").replace("return 2", "return " + "2" * 5000, 1)
    with pytest.raises(PolicyParseError, match="integer literal is too long; write it with an exponent"):
        extract_code(source, star2_spec)
