"""Whole replications on model answers built from fragments: whatever the
model sends after a usable first answer, a replication ends in a known
status (never ``aborted_error``), earns no reward it could not earn, and
its record saves, loads and replays byte for byte. Derandomized, so every
run draws the same examples."""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from policyloop.envs import ALL_TASKS, get_spec
from policyloop.gateway import ScriptedBackend
from policyloop.loop import LoopConfig, RunRecord, RunStatus, replay, run_replication

REPLICATIONS = settings(derandomize=True, database=None, deadline=None, max_examples=20)

ENDINGS = {RunStatus.COMPLETED, RunStatus.ABORTED_REPAIR_BUDGET, RunStatus.ABORTED_BACKEND}

STRATEGY = "Push toward the side the pole leans to, harder when it falls faster."
RULES = "1. If the first observation > 0 then apply action 1\n2. Otherwise apply action 0"
PROSE = "I would keep things steady and react calmly to whatever happens."
# returns a policy may produce: None, NaN, an overflow and a division by zero
BAD_RETURNS = ["return None", "return 1e308 * 10 - 1e308 * 10", "return 1e308*10", "return 0.0/0.0"]


def _policy(spec, body: str) -> str:
    return f"import random\n\ndef get_action({', '.join(spec.obs_names)}):\n    {body}\n"


# pieces that are no answer of their own: fences, a NUL, a lone surrogate,
# a 5,000-digit literal and a cut-off definition
PIECES = ["```python\n", "```", "\x00", "\ud800", "9" * 5000, "def get_action(", "\n"]


def _answers(spec):
    """Whole answers of each stage, and mixes of 1-4 of them and the pieces."""
    first = spec.obs_names[0]
    whole = [
        STRATEGY,
        RULES,
        f"IF {first} < 0 THEN return 0",
        PROSE,
        _policy(spec, spec.random_default_text),
        _policy(spec, f"if {first} > 0:\n        return 1\n    return 0"),
        *(_policy(spec, body) for body in BAD_RETURNS),
    ]
    mixes = st.lists(st.sampled_from(whole + PIECES), min_size=1, max_size=4).map("".join)
    return st.one_of(st.sampled_from(whole), mixes)


@REPLICATIONS
@pytest.mark.parametrize("task", ALL_TASKS, ids=lambda task: task.value)
@given(data=st.data())
def test_any_answers_end_a_replication_in_a_known_status(tmp_path_factory, task, data):
    spec = get_spec(task)
    config = LoopConfig.for_task(
        task,
        epochs=data.draw(st.integers(1, 3)),
        eval_episodes=2,
        repair_budget=2,
        stop_on_max=data.draw(st.booleans()),
    )
    first = [STRATEGY, RULES, _policy(spec, spec.random_default_text)]
    script = first + data.draw(st.lists(_answers(spec), max_size=12))
    record = run_replication(task, config, ScriptedBackend(script))
    assert record.status in ENDINGS, record.error
    for strategy in record.strategies:
        for value in strategy.per_episode_returns:
            assert math.isfinite(value)
            assert spec.r_max is None or value <= spec.r_max
    path = tmp_path_factory.mktemp("record") / "record.json"
    record.save(path)
    loaded = RunRecord.load(path)
    assert loaded.canonical_json() == record.canonical_json()
    matches, _ = replay(loaded)
    assert matches
