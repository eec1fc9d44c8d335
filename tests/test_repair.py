"""The bounded code-repair loop: budget boundaries and prompt content, on
the code requests of one iteration-0 step of the loop."""

import pytest

from policyloop.dsl import PolicyParseError
from policyloop.envs import TaskId
from policyloop.gateway import ChatRequest, ScriptedBackend
from policyloop.loop import LoopConfig, runner
from policyloop.prompts import RepairBudgetExhausted, ask_until_parsed, extract_code

from conftest import transcript_text

RULES = "1. If Pole Angle > 0 Then Move Right (2)"
BAD = "I could not produce the function, sorry."
ALSO_BAD = (
    "def get_action(cart_position, cart_velocity, pole_angle, pole_angular_velocity):\n"
    "    while True:\n"
    "        return 1\n"
)


def good():
    return transcript_text("code_optimal.py")


def _backend(code_answers):
    """A strategy answer, a rules answer, then ``code_answers``."""
    return ScriptedBackend([transcript_text("strategy_iter0.txt"), RULES, *code_answers])


def _generate(backend, budget=10):
    """The repair attempts of the first strategy of a CartPoleStar2 run
    under ``budget``; ``RepairBudgetExhausted`` propagates."""
    config = LoopConfig.for_task("CartPoleStar2", eval_episodes=1, repair_budget=budget)
    strategy, _ = runner._next_strategy([], TaskId.CARTPOLE_STAR2, config, backend, 0, 0.0)
    return strategy.repair_attempts


def _code_requests(backend):
    return backend.requests[2:]


def test_first_response_good_means_one_attempt():
    backend = _backend([good()])
    assert _generate(backend) == 1
    assert len(_code_requests(backend)) == 1
    # no repair prompt was sent
    assert "previous response produced" not in _code_requests(backend)[0].messages[0]["content"]


def test_nine_bad_then_good_succeeds_at_attempts_ten():
    backend = _backend([BAD] * 9 + [good()])
    assert _generate(backend) == 10
    assert len(_code_requests(backend)) == 10
    # every repair keeps the iteration's one code seed
    assert len({request.request_seed for request in _code_requests(backend)}) == 1


def test_ten_bad_exhausts_the_budget():
    backend = _backend([BAD] * 10 + [good()])
    with pytest.raises(RepairBudgetExhausted) as info:
        _generate(backend)
    assert info.value.attempts == 10
    assert len(info.value.errors) == 10
    assert len(_code_requests(backend)) == 10  # the 11th response was never requested


def test_repair_prompt_carries_error_and_rules():
    backend = _backend([ALSO_BAD, good()])
    assert _generate(backend) == 2
    repair_prompt = _code_requests(backend)[1].messages[0]["content"]
    assert "loops are not allowed" in repair_prompt
    # the basic information needed to regenerate: description + rules
    assert "The task description is:" in repair_prompt
    assert RULES in repair_prompt


def test_repair_loop_entry_counts_the_failed_attempt(star2_spec):
    backend = _backend([ALSO_BAD, good()])
    assert _generate(backend) == 2  # the prior failure plus this success
    with pytest.raises(PolicyParseError) as first_error:
        extract_code(ALSO_BAD, star2_spec)
    assert str(first_error.value) in _code_requests(backend)[1].messages[0]["content"]


def test_custom_budget_respected():
    backend = _backend([BAD] * 3)
    with pytest.raises(RepairBudgetExhausted) as info:
        _generate(backend, budget=3)
    assert info.value.attempts == 3


@pytest.mark.parametrize("budget", [0, 1])
def test_budget_below_two_still_asks_once(star2_spec, budget):
    """``LoopConfig`` refuses a budget below 1, so budget 0 goes to the
    re-ask loop itself."""
    if budget:
        backend = _backend([BAD, good()])
        generate = lambda: _generate(backend, budget=budget)
    else:
        backend = ScriptedBackend([BAD, good()])
        request = ChatRequest(model_name="m", temperature=0.0, messages=[{"role": "user", "content": "x"}])
        generate = lambda: ask_until_parsed(
            backend, budget, lambda *_: request, lambda text: extract_code(text, star2_spec)
        )
    with pytest.raises(RepairBudgetExhausted) as info:
        generate()
    assert info.value.attempts == 1
    assert backend.remaining == 1  # the good answer was never asked for
