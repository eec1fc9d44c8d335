import random

import pytest

from perfbench import sessions
from perfbench.workloads import LIVE_TASKS, REFINE_TASKS
from policyloop.dsl import PolicyParseError, parse, run_episode
from policyloop.envs import TaskId, derive_seed, get_spec
from policyloop.gateway import ScriptedBackend
from policyloop.loop import LoopConfig, RunStatus, run_replication
from policyloop.prompts import extract_code


def _session(task, seed, counts):
    return sessions.session(get_spec(task), random.Random(seed), counts, fallback_share=0.5)


def test_same_seed_gives_same_bytes():
    for task in REFINE_TASKS + LIVE_TASKS:
        first = _session(task, f"s/{task.value}", [1, 0, 2])
        assert first == _session(task, f"s/{task.value}", [1, 0, 2])
        assert first != _session(task, f"t/{task.value}", [1, 0, 2])


@pytest.mark.parametrize("task", REFINE_TASKS + LIVE_TASKS)
def test_every_session_completes_within_the_repair_budget(task):
    for seed in range(3):
        rng = random.Random(f"complete/{task.value}/{seed}")
        counts = sessions.spread_broken(3, 3, rng)
        script = sessions.session(get_spec(task), rng, counts, fallback_share=0.5)
        config = LoopConfig.for_task(task, epochs=len(counts), eval_episodes=1, seed_root=seed)
        backend = ScriptedBackend(script)
        record = run_replication(task, config, backend, seed)
        assert record.status is RunStatus.COMPLETED
        assert [s.repair_attempts for s in record.strategies] == [c + 1 for c in counts]
        assert backend.remaining == 0
        assert record.responses == script


@pytest.mark.parametrize("task", REFINE_TASKS + LIVE_TASKS)
def test_broken_answers_fail_to_parse_and_good_ones_parse(task):
    spec = get_spec(task)
    rng = random.Random(f"formats/{task.value}")
    for _ in range(12):
        code, _ = sessions.weak_program(spec, rng)
        program = extract_code(sessions.code_response(code, rng), spec)
        assert program.params == spec.obs_names
        with pytest.raises(PolicyParseError):
            extract_code(sessions.broken_response(code, rng), spec)


def test_weak_cartpole_programs_end_episodes_early():
    spec = get_spec(TaskId.CARTPOLE_STAR1)
    rng = random.Random("weak")
    for k in range(10):
        code, _ = sessions.weak_program(spec, rng)
        program = parse(code, expected_params=spec.obs_names)
        trace = run_episode(program, spec.task_id, derive_seed("weak", k), random.Random(k))
        assert trace.length < 100


@pytest.mark.parametrize("task", [TaskId.CARTPOLE_STAR2, TaskId.INVERTED_PENDULUM])
def test_maximal_programs_reach_the_task_maximum(task):
    spec = get_spec(task)
    for k, gains in enumerate(sessions._MAXIMAL_GAINS[task]):
        code, _ = sessions.maximal_program(spec, random.Random(k))
        program = parse(code, expected_params=spec.obs_names)
        trace = run_episode(program, task, derive_seed("maximal", k), random.Random(k))
        assert trace.total_reward == spec.r_max
