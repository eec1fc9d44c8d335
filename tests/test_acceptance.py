"""Acceptance gate: one test per shipping criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see them).

The scripted end-to-end replication uses the canned CartPoleStar2 session
from tests/fixtures/transcripts. That session's prose quotes reward figures
from the original interactive sessions it was captured from; the means
asserted here are the ones this implementation's dynamics and seeds
produce, which is why the sequence checks are structural (best-so-far
monotone, final 500) rather than value-for-value.
"""

import os
import random
import time
from dataclasses import replace

import numpy as np
import pytest

from policyloop.dsl import parse
from policyloop.envs import ALL_TASKS, TaskId, get_spec, make
from policyloop.gateway import HttpChatBackend, GatewayConfig, ScriptedBackend
from policyloop.loop import LoopConfig, RunStatus, replay, run_replication, runner
from policyloop.metrics import (
    figure_of_merit,
    improvement_ratio,
    learning_time,
    robustness_from_returns,
    success,
    average_reward,
    successful_set,
)
from policyloop.prompts import Ablation, RepairBudgetExhausted

import test_dsl_evaluator as dsl_tests
import test_dynamics_oracle as dyn_tests
import test_metrics as metric_tests
import test_prompts as prompt_tests
from conftest import (
    assert_same_policy,
    fixture_text,
    scripted_session,
    step,
    transcript_text,
)
from reference_dynamics import discrete_coerce_original


def _report(number: int, label: str) -> None:
    print(f"ACCEPTANCE {number} PASS: {label}")


def test_criterion_1_metrics_oracle_equivalence():
    """Eqs. for reward/success/learning-time/robustness/FoM match brute-force
    transcriptions on 25 randomized 10x100 matrices, within 1e-9, in < 5 s."""
    started = time.perf_counter()
    rng = random.Random(77)
    for _ in range(25):
        matrix = metric_tests.synthetic_matrix(rng)
        assert average_reward(matrix) == pytest.approx(
            metric_tests.brute_eq1(matrix), abs=1e-9
        )
        succ = success(matrix, 500.0, 100)
        assert succ == pytest.approx(metric_tests.brute_eq2(matrix, 500.0, 100), abs=1e-9)

        lt = learning_time(matrix, 500.0, 100)
        expected_lt = metric_tests.brute_eq4(matrix, 500.0, 100)
        assert (lt is None) == (expected_lt is None)
        if lt is not None:
            assert lt == pytest.approx(expected_lt, abs=1e-9)

        returns = metric_tests.synthetic_eval_returns(
            rng, successful_set(matrix, 500.0, 100)
        )
        rob = robustness_from_returns(returns, 500.0)
        expected_rob = metric_tests.brute_eq3(returns, 500.0)
        assert (rob is None) == (expected_rob is None)
        if rob is not None:
            assert rob == pytest.approx(expected_rob, abs=1e-9)
            assert figure_of_merit(rob, succ, lt) == pytest.approx(
                metric_tests.brute_eq5(expected_rob, succ, expected_lt), abs=1e-9
            )
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"oracle sweep took {elapsed:.2f}s"
    _report(1, f"metrics match brute force on 25 matrices in {elapsed:.2f}s")


def test_criterion_2_reported_value_regression():
    """Pinned reference values: the learning-time floor, a 7-of-10 success
    fraction, and a full improvement ratio."""
    assert learning_time([[500.0] + [0.0] * 99], 500.0, 100) == pytest.approx(0.01)
    seven_of_ten = [[500.0 if j < 7 else 99.0] * 100 for j in range(10)]
    assert success(seven_of_ten, 500.0, 100) == pytest.approx(0.7)
    assert improvement_ratio([[18.31, 499.0, 500.0]], r_max=500.0) == pytest.approx(1.00)
    _report(2, "learning-time floor 0.01, success 0.7, improvement ratio 1.00")


def test_criterion_3_scripted_end_to_end_replication(star2_spec, iter0_program):
    """A scripted backend drives a full replication: pinned prompt renders,
    a first program that acts as the fixture program, a literal None trace
    line, best-so-far monotone rewards, and a final optimal policy reaching 500."""
    backend = ScriptedBackend(scripted_session())
    config = LoopConfig.for_task("CartPoleStar2", epochs=5, seed_root=3, model_name="scripted-model")
    record = run_replication("CartPoleStar2", config, backend, 0, 0.0)
    assert record.status is RunStatus.COMPLETED

    # prompt renders byte-match the pinned fixtures
    prompts = [r.messages[0]["content"] for r in backend.requests]
    assert prompts[0] == fixture_text("p1_cartpole_star2.txt")
    assert prompts[1] == fixture_text("p2_iter0_cartpole_star2.txt")
    assert prompts[2] == fixture_text("p3_iter0_cartpole_star2.txt")

    # the first iteration's program acts as the fixture program does
    parsed = parse(record.strategies[0].program_source, expected_params=star2_spec.obs_names)
    assert_same_policy(parsed, iter0_program)

    # the gappy revision produced an episode ending in a literal None line
    gappy = record.strategies[1]
    assert gappy.window.invalid_value_text == "None"
    assert gappy.window.lines[-1].endswith(";None")

    # reward structure: best-so-far never decreases and the run ends at 500
    rewards = record.per_iteration_rewards
    best_so_far = np.maximum.accumulate(rewards)
    assert list(best_so_far) == sorted(best_so_far)
    assert rewards[-1] == 500.0
    assert all(r == 500.0 for r in record.strategies[-1].per_episode_returns)
    _report(3, f"scripted session replays end to end, rewards {rewards}")


def test_criterion_4_dynamics_oracle():
    """Ten random action sequences per task agree with independently coded
    reference integrators on every observation component, < 10 s."""
    started = time.perf_counter()
    for task in ALL_TASKS:
        spec = get_spec(task)
        for sequence_idx in range(10):
            rng = random.Random(5000 + 31 * sequence_idx)
            env = make(task)
            env.reset(sequence_idx + 100)
            ref_state = tuple(env.state)
            for _ in range(spec.max_steps):
                action = dyn_tests._random_actions(spec, rng, 1)[0]
                obs, _, terminated = step(env, action)
                ref_state, ref_obs = dyn_tests._reference_step(task, ref_state, action)
                np.testing.assert_allclose(
                    np.asarray(obs, dtype=np.float64),
                    ref_obs,
                    rtol=0,
                    atol=1e-9,
                )
                if terminated:
                    break
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"oracle replay took {elapsed:.2f}s"
    _report(4, f"dynamics agree with reference integrators in {elapsed:.2f}s")


def test_criterion_5_dsl_brute_force_grid(star2_spec, iter0_program):
    """The first session program equals a hand-transcribed rule chain on the
    full stride-10 integer grid, fallback reachability included."""
    grid = range(-50, 51, 10)
    points = 0
    for cp in grid:
        for cv in grid:
            for pa in grid:
                for pav in grid:
                    expected = dsl_tests._hand_transcribed_iter0(cp, cv, pa, pav, "random")
                    rng = random.Random(points)
                    before = rng.getstate()
                    value = iter0_program.compiled(rng, (cp, cv, pa, pav))
                    action = discrete_coerce_original(star2_spec.action.labels, value)
                    drew = rng.getstate() != before
                    if expected == "random":
                        assert drew and action in (1, 2)
                    else:
                        assert not drew and action == expected
                    points += 1
    assert points == 14_641
    _report(5, "the compiled policy matches the hand transcription on all 14641 grid points")


def test_criterion_6_repair_loop_boundaries():
    """Nine bad responses then a good one succeed with attempts=10; ten bad
    responses abort the replication with the dedicated status."""
    bad = "cannot help"
    good = transcript_text("code_optimal.py")
    config = LoopConfig.for_task("CartPoleStar2", eval_episodes=1, repair_budget=10)

    def first_strategy(code_answers):
        backend = ScriptedBackend(scripted_session()[:2] + code_answers)
        return runner._next_strategy([], TaskId.CARTPOLE_STAR2, config, backend, 0, 0.0)[0]

    assert first_strategy([bad] * 9 + [good]).repair_attempts == 10
    with pytest.raises(RepairBudgetExhausted) as info:
        first_strategy([bad] * 10 + [good])
    assert info.value.attempts == 10

    script = scripted_session()[:2] + [bad] * 10
    record = run_replication(
        "CartPoleStar2",
        LoopConfig.for_task("CartPoleStar2", epochs=5, seed_root=3),
        ScriptedBackend(script),
        0,
        0.0,
    )
    assert record.status is RunStatus.ABORTED_REPAIR_BUDGET
    _report(6, "repair budget boundary: 10 attempts to succeed, 10 to abort")


def test_criterion_7_ablation_differentials(star2_spec):
    """Each ablation's reflection prompt differs from baseline by exactly its
    documented excised (or substituted) blocks; shared blocks byte-match."""
    baseline = dict(prompt_tests._ablation_blocks(star2_spec, Ablation.BASELINE))
    for ablation, removed in prompt_tests.ABLATION_EXPECTED_REMOVED.items():
        ablated = dict(prompt_tests._ablation_blocks(star2_spec, ablation))
        assert set(baseline) - set(ablated) == removed, ablation
        assert set(ablated) - set(baseline) == prompt_tests.ABLATION_EXPECTED_ADDED[ablation]
        for name in set(baseline) & set(ablated):
            assert baseline[name] == ablated[name], (ablation, name)
    _report(7, "all six ablations are exact block excisions of the baseline prompt")


def test_criterion_8_record_replay_determinism():
    """A record replayed against its stored transcript with the same seeds is
    byte-identical in canonical form."""
    backend = ScriptedBackend(scripted_session())
    config = LoopConfig.for_task("CartPoleStar2", epochs=5, seed_root=3)
    record = run_replication("CartPoleStar2", config, backend, 0, 0.0)
    matches, rerun = replay(record)
    assert matches
    assert rerun.canonical_json() == record.canonical_json()
    _report(8, "replayed record is byte-identical")


@pytest.mark.skipif(
    not os.environ.get("POLICYLOOP_SMOKE_URL"),
    reason="live smoke runs only when POLICYLOOP_SMOKE_URL points at a chat endpoint",
)
def test_criterion_9_optional_live_smoke(tmp_path):
    """Non-gating: a 5-epoch CartPoleStar1 run against a real endpoint must
    produce at least one parsed policy and a persisted record."""
    config = LoopConfig.for_task(
        "CartPoleStar1",
        epochs=5,
        eval_episodes=5,
        model_name=os.environ.get("POLICYLOOP_SMOKE_MODEL", "llama3"),
        seed_root=1,
    )
    # the named smoke URL wins over POLICYLOOP_BASE_URL
    backend = HttpChatBackend(
        replace(GatewayConfig.load(), base_url=os.environ["POLICYLOOP_SMOKE_URL"])
    )
    record = run_replication("CartPoleStar1", config, backend, 0, 0.0)
    path = record.save(tmp_path / "smoke.json")
    assert path.exists()
    assert len(record.strategies) >= 1
    _report(9, f"live smoke: {len(record.strategies)} policies, status {record.status.value}")
