"""One replication of the refinement loop.

``run_replication`` is its only driver. Every prompted iteration is one
step, ``_next_strategy``, with two openings: a strategy from Prompt 1 (the
task description) at iteration 0, or from Prompt 4 after it, which reads the
history's last strategy, the one before it and the earliest of the highest
mean reward as they are stored; then rules (Prompt 2) and
code (Prompt 3), each re-asked within the repair budget, and an evaluation
of the resulting policy. A strategy at the task maximum ends the run
(``stop_on_max``), or with ``retest_at_max`` its program, as compiled, is
evaluated again on the next iteration's seeds: no prompt, no parse.

``_next_strategy`` builds every request: one user message, the stage's
``STAGE_MAX_TOKENS``, and a 31-bit seed of (seed_root, replication, iteration)
and ``"p1"``/``"p4"`` (strategy), ``"p2#<attempt>"`` (rules) or ``"p3"`` (code).

Every episode, the robustness metric's too, comes from ``seeded_episodes``,
whose seeds are pure functions of (seed_root, replication, iteration,
episode), so a record plus its response transcript replays bit-for-bit.
"""

from __future__ import annotations

import random
import time
from dataclasses import replace
from typing import Iterator, Optional, Union

from ..dsl.episode import EpisodeTrace, run_episode
from ..dsl.parser import PolicyProgram
from ..envs import get_spec, make
from ..envs.core import TaskId, derive_seed, parse_task_id
from ..gateway import ChatRequest, ChatResponse, GatewayError, ScriptedBackend
from ..prompts import (
    RepairBudgetExhausted,
    SensoryMotorWindow,
    Stage,
    ask_until_parsed,
    extract_code,
    extract_rules,
    extract_strategy,
    render_p1,
    render_p2,
    render_p3,
    render_p4,
)
from ..prompts.pipeline import STAGE_MAX_TOKENS
from .config import LoopConfig
from .records import RunRecord, RunStatus, Strategy, mean

class _Recorder:
    """Captures every raw response so the record can be replayed."""

    def __init__(self, backend):
        self._backend = backend
        self.transcript: list[str] = []

    def complete(self, request: ChatRequest) -> ChatResponse:
        response = self._backend.complete(request)
        self.transcript.append(response.text)
        return response


def seeded_episodes(
    program, task_id: TaskId, seed_root: int, replication: int, iteration: Union[int, str], n: int
) -> Iterator[EpisodeTrace]:
    """The ``n`` episodes of ``program`` for one (seed_root, replication,
    iteration), one at a time on one env. Episode ``ep`` starts from the seed
    of those parts, ``ep`` and ``"env"``; its policy draws from a rng seeded
    with ``"policy"`` instead. Robustness reruns pass ``"robustness"``."""
    env = make(task_id)
    for ep in range(n):
        rng = random.Random(derive_seed(seed_root, replication, iteration, ep, "policy"))
        seed = derive_seed(seed_root, replication, iteration, ep, "env")
        yield run_episode(program, task_id, seed, rng, env=env)


def evaluate_program(
    program,
    task_id: TaskId,
    config: LoopConfig,
    replication: int,
    iteration: int,
) -> tuple[float, list[float], SensoryMotorWindow]:
    """Run the evaluation episodes; the window comes from the worst one,
    the earliest of equal returns."""
    returns: list[float] = []
    # only the worst trace so far is kept: each holds its observations
    worst: Optional[EpisodeTrace] = None
    worst_idx = 0
    episodes = seeded_episodes(
        program, task_id, config.seed_root, replication, iteration, config.eval_episodes
    )
    # not enumerate(): its reused result tuple holds the previous trace until
    # the next episode has run
    for trace in episodes:
        if worst is None or trace.total_reward < worst.total_reward:
            worst, worst_idx = trace, len(returns)
        returns.append(trace.total_reward)
        del trace  # so that a trace that is not the worst is freed now

    window = SensoryMotorWindow(
        lines=tuple(worst.window_lines(config.window_size)),
        source_episode=worst_idx,
        episode_return=returns[worst_idx],
        invalid_value_text=worst.invalid_value_text,
    )
    return mean(returns), returns, window


def _next_strategy(
    history: list[Strategy],
    task_id: TaskId,
    config: LoopConfig,
    backend,
    replication: int,
    temperature: float,
) -> tuple[Strategy, PolicyProgram]:
    """The iteration after ``history``: a strategy from Prompt 1 when the
    history is empty, else from Prompt 4 on it; then its rules, its program
    and their evaluation. Returns the strategy and its compiled program."""
    spec = get_spec(task_id)
    iteration = len(history)

    def request(stage: Stage, prompt: str, seed_key: str) -> ChatRequest:
        return ChatRequest(
            model_name=config.model_name,
            temperature=temperature,
            messages=[{"role": "user", "content": prompt}],
            max_tokens=STAGE_MAX_TOKENS[stage],
            request_seed=derive_seed(config.seed_root, replication, iteration, seed_key) & 0x7FFFFFFF,
        )

    if not history:
        stage, seed_key, prompt = Stage.P1_STRATEGY, "p1", render_p1(spec)
    else:
        previous = history[-2] if len(history) >= 2 else None
        # max() keeps the earliest of equal rewards
        best = max(history, key=lambda s: s.mean_reward) if len(history) >= 2 else None
        stage, seed_key = Stage.P4_REFLECT, "p4"
        prompt = render_p4(
            spec,
            history[-1],
            previous=previous,
            best=best,
            history_rewards=[s.mean_reward for s in history],
            ablation=config.ablation,
        )
    strategy_text = extract_strategy(backend.complete(request(stage, prompt, seed_key)).text)

    rules_text, _ = ask_until_parsed(
        backend,
        config.repair_budget,
        lambda attempt, _: request(
            Stage.P2_RULES, render_p2(spec, strategy_text, reask=attempt > 1), f"p2#{attempt}"
        ),
        extract_rules,
    )
    program, attempts = ask_until_parsed(
        backend,
        config.repair_budget,
        lambda _, error: request(Stage.P3_CODE, render_p3(spec, rules_text, error=error), "p3"),
        lambda text: extract_code(text, spec),
    )
    reward, returns, window = evaluate_program(program, task_id, config, replication, iteration)
    return Strategy(
        iteration_index=iteration,
        strategy_text=strategy_text,
        rules_text=rules_text,
        program_source=program.source_text,
        mean_reward=reward,
        per_episode_returns=returns,
        window=window,
        repair_attempts=attempts,
    ), program


def run_replication(
    task_id: Union[str, TaskId],
    config: LoopConfig,
    backend,
    replication_index: int = 0,
    temperature: Optional[float] = None,
) -> RunRecord:
    """Iterate until the epoch budget or the task maximum: Prompt 1 first,
    then Prompt 4 on the history so far. A strategy at the maximum stops the
    run under ``stop_on_max``; otherwise, under ``retest_at_max``, the same
    compiled program is evaluated on the next iteration's seeds.

    A failure ends the run with an ``aborted_*`` status instead of raising;
    only ``KeyboardInterrupt`` and ``SystemExit`` propagate.
    """
    task_id = parse_task_id(task_id)
    r_max = get_spec(task_id).r_max
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
    strategies = record.strategies
    started = time.monotonic()
    try:
        while len(strategies) < config.epochs:
            at_max = r_max is not None and bool(strategies) and strategies[-1].mean_reward >= r_max
            if at_max and config.stop_on_max:
                break
            if at_max and config.retest_at_max:
                iteration = len(strategies)
                reward, returns, window = evaluate_program(
                    program, task_id, config, replication_index, iteration
                )
                strategies.append(
                    replace(
                        strategies[-1],
                        iteration_index=iteration,
                        mean_reward=reward,
                        per_episode_returns=returns,
                        window=window,
                        repair_attempts=0,
                    )
                )
            else:
                strategy, program = _next_strategy(
                    strategies, task_id, config, recorder, replication_index, temperature
                )
                strategies.append(strategy)
    except RepairBudgetExhausted:
        record.status = RunStatus.ABORTED_REPAIR_BUDGET
    except GatewayError:
        # the backend failed, or answered a strategy prompt with blank text
        record.status = RunStatus.ABORTED_BACKEND
    except Exception as exc:
        # anything else ends this replication only; KeyboardInterrupt and
        # SystemExit still stop the batch
        record.status = RunStatus.ABORTED_ERROR
        record.error = f"{type(exc).__name__}: {exc}"
    record.responses = recorder.transcript
    record.wall_clock = time.monotonic() - started
    return record


def replay(record: RunRecord) -> tuple[bool, RunRecord]:
    """Re-run a record against its stored transcript.

    Returns (matches, new_record); ``matches`` is byte-equality of the two
    canonical JSON forms.
    """
    rerun = run_replication(
        record.task_id,
        record.config,
        ScriptedBackend(record.responses),
        record.replication_index,
        temperature=record.temperature,
    )
    return rerun.canonical_json() == record.canonical_json(), rerun
