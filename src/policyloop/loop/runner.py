"""One replication of the refinement loop.

Initialization runs Prompts 1-3 (rules and code each re-asked within the
repair budget) and evaluates the resulting policy; every following epoch
reflects with Prompt 4, re-derives rules and code, and evaluates again. Strategy memory
feeds the reflection prompt with the current, previous and best strategies.

All episode seeds are pure functions of (seed_root, replication, iteration,
episode), so a record plus its response transcript replays bit-for-bit.
"""

from __future__ import annotations

import random
import time
from dataclasses import replace
from typing import Optional, Union

from ..dsl.episode import EpisodeTrace, run_episode
from ..dsl.parser import parse as parse_policy
from ..envs import get_spec, make
from ..envs.core import TaskId, derive_seed, parse_task_id
from ..gateway import ChatRequest, ChatResponse, GatewayError, ScriptedBackend
from ..prompts import (
    RepairBudgetExhausted,
    SensoryMotorWindow,
    Stage,
    StrategySummary,
    ask_until_parsed,
    build_request,
    extract_rules,
    extract_strategy,
    generate_program,
    render_p1,
    render_p2,
    render_p4,
)
from ..prompts.pipeline import EmptyResponseError
from .config import LoopConfig
from .records import RunRecord, RunStatus, Strategy

class _Recorder:
    """Captures every raw response so the record can be replayed."""

    def __init__(self, backend):
        self._backend = backend
        self.transcript: list[str] = []

    def complete(self, request: ChatRequest) -> ChatResponse:
        response = self._backend.complete(request)
        self.transcript.append(response.text)
        return response


def episode_seed(seed_root: int, replication: int, iteration: int, episode: int) -> int:
    return derive_seed(seed_root, replication, iteration, episode, "env")


def policy_rng_seed(seed_root: int, replication: int, iteration: int, episode: int) -> int:
    return derive_seed(seed_root, replication, iteration, episode, "policy")


def evaluate_program(
    program,
    task_id: TaskId,
    config: LoopConfig,
    replication: int,
    iteration: int,
) -> tuple[float, list[float], SensoryMotorWindow]:
    """Run the evaluation episodes; the window comes from the worst one,
    the earliest of equal returns."""
    env = make(task_id)
    returns: list[float] = []
    # only the worst trace so far is kept: each holds its observations
    worst: Optional[EpisodeTrace] = None
    worst_idx = 0
    for ep in range(config.eval_episodes):
        rng = random.Random(policy_rng_seed(config.seed_root, replication, iteration, ep))
        trace = run_episode(
            program,
            task_id,
            episode_seed(config.seed_root, replication, iteration, ep),
            rng,
            env=env,
        )
        returns.append(trace.total_reward)
        if worst is None or trace.total_reward < worst.total_reward:
            worst, worst_idx = trace, ep
        del trace  # so that a trace that is not the worst is freed now

    window = SensoryMotorWindow(
        lines=tuple(worst.window_lines(config.window_size)),
        source_episode=worst_idx,
        episode_return=returns[worst_idx],
        invalid_value_text=(
            worst.invalid_outcome.value_text if worst.ended_invalid else None
        ),
    )
    mean = sum(returns) / len(returns)
    return mean, returns, window


def _request_seed(config: LoopConfig, replication: int, iteration: int, stage: str) -> int:
    return derive_seed(config.seed_root, replication, iteration, stage) & 0x7FFFFFFF


def _synthesize(
    task_id: TaskId,
    config: LoopConfig,
    backend,
    replication: int,
    iteration: int,
    strategy_text: str,
    temperature: float,
) -> Strategy:
    """Strategy text -> rules -> program -> evaluation record."""
    spec = get_spec(task_id)

    def rules_request(attempt: int, _error: Optional[str]) -> ChatRequest:
        prompt = render_p2(spec, strategy_text, reask=attempt > 1)
        seed = _request_seed(config, replication, iteration, f"p2#{attempt}")
        return build_request(Stage.P2_RULES, prompt, config.model_name, temperature, seed)

    rules_text, _ = ask_until_parsed(backend, config.repair_budget, rules_request, extract_rules)
    code = generate_program(
        backend,
        spec,
        rules_text,
        config.model_name,
        temperature,
        request_seed=_request_seed(config, replication, iteration, "p3"),
        budget=config.repair_budget,
    )
    mean, returns, window = evaluate_program(
        code.program, task_id, config, replication, iteration
    )
    return Strategy(
        iteration_index=iteration,
        strategy_text=strategy_text,
        rules_text=rules_text,
        program_source=code.program.source_text,
        mean_reward=mean,
        per_episode_returns=returns,
        window=window,
        repair_attempts=code.attempts,
    )


def initialize(
    task_id: Union[str, TaskId],
    config: LoopConfig,
    backend,
    replication: int = 0,
    temperature: Optional[float] = None,
) -> Strategy:
    """Prompts 1-3 plus evaluation; yields the iteration-0 strategy."""
    task_id = parse_task_id(task_id)
    spec = get_spec(task_id)
    temperature = config.temperatures[0] if temperature is None else temperature
    request = build_request(
        Stage.P1_STRATEGY,
        render_p1(spec),
        config.model_name,
        temperature,
        _request_seed(config, replication, 0, "p1"),
    )
    strategy_text = extract_strategy(backend.complete(request).text)
    return _synthesize(task_id, config, backend, replication, 0, strategy_text, temperature)


def _summary(strategy: Strategy, config: LoopConfig) -> StrategySummary:
    return StrategySummary(
        rules_text=strategy.rules_text,
        mean_reward=strategy.mean_reward,
        eval_episodes=config.eval_episodes,
        window=strategy.window,
    )


def refine(
    history: list[Strategy],
    task_id: Union[str, TaskId],
    config: LoopConfig,
    backend,
    replication: int = 0,
    temperature: Optional[float] = None,
) -> Strategy:
    """One reflect-revise-evaluate epoch appended after ``history``."""
    if not history:
        raise ValueError("refine() needs a non-empty history")
    task_id = parse_task_id(task_id)
    spec = get_spec(task_id)
    temperature = config.temperatures[0] if temperature is None else temperature
    iteration = len(history)

    current = history[-1]
    previous = history[-2] if len(history) >= 2 else None
    # max() keeps the earliest of equal rewards
    best = max(history, key=lambda s: s.mean_reward) if len(history) >= 2 else None

    prompt = render_p4(
        spec,
        _summary(current, config),
        previous=_summary(previous, config) if previous else None,
        best=_summary(best, config) if best else None,
        history_rewards=[s.mean_reward for s in history],
        window_size=config.window_size,
        ablation=config.ablation,
    )
    request = build_request(
        Stage.P4_REFLECT,
        prompt,
        config.model_name,
        temperature,
        _request_seed(config, replication, iteration, "p4"),
    )
    strategy_text = extract_strategy(backend.complete(request).text)
    return _synthesize(
        task_id, config, backend, replication, iteration, strategy_text, temperature
    )


def retest(
    strategy: Strategy,
    task_id: Union[str, TaskId],
    config: LoopConfig,
    replication: int = 0,
) -> Strategy:
    """Re-evaluate an unchanged strategy on the next iteration's seeds.

    Used when a strategy already sits at the task maximum and the loop is
    configured to keep running: no prompts are sent, only fresh episodes.
    """
    task_id = parse_task_id(task_id)
    spec = get_spec(task_id)
    iteration = strategy.iteration_index + 1
    program = parse_policy(strategy.program_source, expected_params=spec.obs_names)
    mean, returns, window = evaluate_program(program, task_id, config, replication, iteration)
    return replace(
        strategy,
        iteration_index=iteration,
        mean_reward=mean,
        per_episode_returns=returns,
        window=window,
        repair_attempts=0,
    )


def run_replication(
    task_id: Union[str, TaskId],
    config: LoopConfig,
    backend,
    replication_index: int = 0,
    temperature: Optional[float] = None,
) -> RunRecord:
    """Initialize, then refine until the epoch budget or the task maximum.

    A failure ends the run with an ``aborted_*`` status instead of raising;
    only ``KeyboardInterrupt`` and ``SystemExit`` propagate.
    """
    task_id = parse_task_id(task_id)
    spec = get_spec(task_id)
    temperature = config.temperatures[0] if temperature is None else temperature
    recorder = _Recorder(backend)

    record = RunRecord(
        task_id=task_id,
        model_name=config.model_name,
        temperature=temperature,
        replication_index=replication_index,
        seed_root=config.seed_root,
        config=config,
    )
    started = time.monotonic()
    try:
        record.strategies.append(
            initialize(task_id, config, recorder, replication_index, temperature)
        )
        while len(record.strategies) < config.epochs:
            last = record.strategies[-1]
            at_max = spec.r_max is not None and last.mean_reward >= spec.r_max
            if at_max and config.stop_on_max:
                break
            if at_max and config.retest_at_max:
                record.strategies.append(
                    retest(last, task_id, config, replication_index)
                )
                continue
            record.strategies.append(
                refine(
                    record.strategies,
                    task_id,
                    config,
                    recorder,
                    replication_index,
                    temperature,
                )
            )
    except RepairBudgetExhausted:
        record.status = RunStatus.ABORTED_REPAIR_BUDGET
    except (GatewayError, EmptyResponseError):
        # a blank strategy answer; over HTTP the gateway refuses it itself
        record.status = RunStatus.ABORTED_BACKEND
    except Exception as exc:
        # anything else ends this replication only; KeyboardInterrupt and
        # SystemExit still stop the batch
        record.status = RunStatus.ABORTED_ERROR
        record.error = f"{type(exc).__name__}: {exc}"
    record.responses = recorder.transcript
    record.wall_clock = time.monotonic() - started
    return record


def replay(record: RunRecord, backend=None) -> tuple[bool, RunRecord]:
    """Re-run a record against its stored transcript (or a provided backend).

    Returns (matches, new_record); ``matches`` is byte-equality of the two
    canonical JSON forms.
    """
    backend = backend if backend is not None else ScriptedBackend(record.responses)
    rerun = run_replication(
        record.task_id,
        record.config,
        backend,
        record.replication_index,
        temperature=record.temperature,
    )
    return rerun.canonical_json() == record.canonical_json(), rerun
