"""The bounded code-repair loop: budget boundaries and prompt content."""

import pytest

from policyloop.dsl import PolicyParseError
from policyloop.gateway import ScriptedBackend
from policyloop.prompts import RepairBudgetExhausted, extract_code, generate_program

from conftest import transcript_text

BAD = "I could not produce the function, sorry."
ALSO_BAD = (
    "def get_action(cart_position, cart_velocity, pole_angle, pole_angular_velocity):\n"
    "    while True:\n"
    "        return 1\n"
)


def good():
    return transcript_text("code_optimal.py")


def _generate(backend, spec, budget=10):
    return generate_program(backend, spec, "1. If Pole Angle > 0 Then Move Right (2)",
                            model_name="m", temperature=0.0, budget=budget)


def test_first_response_good_means_one_attempt(star2_spec):
    backend = ScriptedBackend([good()])
    _, attempts = _generate(backend, star2_spec)
    assert attempts == 1
    assert len(backend.requests) == 1
    # no repair prompt was sent
    assert "previous response produced" not in backend.requests[0].messages[0]["content"]


def test_nine_bad_then_good_succeeds_at_attempts_ten(star2_spec):
    backend = ScriptedBackend([BAD] * 9 + [good()])
    _, attempts = _generate(backend, star2_spec)
    assert attempts == 10
    assert len(backend.requests) == 10


def test_ten_bad_exhausts_the_budget(star2_spec):
    backend = ScriptedBackend([BAD] * 10 + [good()])
    with pytest.raises(RepairBudgetExhausted) as info:
        _generate(backend, star2_spec)
    assert info.value.attempts == 10
    assert len(info.value.errors) == 10
    assert len(backend.requests) == 10  # the 11th response was never requested


def test_repair_prompt_carries_error_and_rules(star2_spec):
    backend = ScriptedBackend([ALSO_BAD, good()])
    _, attempts = _generate(backend, star2_spec)
    assert attempts == 2
    repair_prompt = backend.requests[1].messages[0]["content"]
    assert "loops are not allowed" in repair_prompt
    # the basic information needed to regenerate: description + rules
    assert "The task description is:" in repair_prompt
    assert "1. If Pole Angle > 0 Then Move Right (2)" in repair_prompt


def test_repair_loop_entry_counts_the_failed_attempt(star2_spec):
    backend = ScriptedBackend([ALSO_BAD, good()])
    _, attempts = _generate(backend, star2_spec)
    assert attempts == 2  # the prior failure plus this success
    with pytest.raises(PolicyParseError) as first_error:
        extract_code(ALSO_BAD, star2_spec)
    assert str(first_error.value) in backend.requests[1].messages[0]["content"]


def test_custom_budget_respected(star2_spec):
    backend = ScriptedBackend([BAD] * 3)
    with pytest.raises(RepairBudgetExhausted) as info:
        _generate(backend, star2_spec, budget=3)
    assert info.value.attempts == 3


@pytest.mark.parametrize("budget", [0, 1])
def test_budget_below_two_still_asks_once(star2_spec, budget):
    backend = ScriptedBackend([BAD, good()])
    with pytest.raises(RepairBudgetExhausted) as info:
        _generate(backend, star2_spec, budget=budget)
    assert info.value.attempts == 1
    assert len(backend.requests) == 1
