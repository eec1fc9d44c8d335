"""Rolling a parsed policy through an environment.

An episode ends on the usual termination/truncation rules, or immediately
when the policy produces an unusable action; that step earns no reward and
its trace line records the offending value verbatim (e.g. ``None``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..envs import make
from ..envs.core import TaskId, TerminationCause
from ..envs.trace import render_action_value, step_line
from .evaluator import PolicyOutcome, evaluate
from .parser import PolicyProgram


@dataclass(frozen=True)
class TraceStep:
    observation: np.ndarray
    action_text: str
    reward: float
    terminated: bool = False
    truncated: bool = False
    cause: TerminationCause = TerminationCause.NONE

    def line(self) -> str:
        return step_line(self.observation, self.action_text)


@dataclass
class EpisodeTrace:
    task_id: TaskId
    seed: int
    steps: list[TraceStep] = field(default_factory=list)
    total_reward: float = 0.0
    cause: TerminationCause = TerminationCause.NONE
    invalid_outcome: Optional[PolicyOutcome] = None

    @property
    def length(self) -> int:
        return len(self.steps)

    @property
    def ended_invalid(self) -> bool:
        return self.cause is TerminationCause.INVALID_ACTION

    def lines(self) -> list[str]:
        return [s.line() for s in self.steps]

    def window_lines(self, size: int) -> list[str]:
        """The last ``size`` observation/action lines (whole episode if shorter)."""
        return [s.line() for s in self.steps[-size:]]


def run_episode(
    program: PolicyProgram,
    task_id: TaskId,
    seed: int,
    rng: random.Random,
    env=None,
) -> EpisodeTrace:
    """Play one seeded episode under the policy.

    ``rng`` feeds only the policy's random builtins; environment randomness
    is fully determined by ``seed``. Pass ``env`` to reuse an instance
    across episodes (it is reset here either way).
    """
    env = env if env is not None else make(task_id)
    spec = env.spec
    obs = env.reset(seed)
    trace = EpisodeTrace(task_id=spec.task_id, seed=seed)

    while True:
        outcome = evaluate(program, obs, rng, spec)
        if not outcome.is_valid:
            trace.steps.append(
                TraceStep(
                    observation=obs,
                    action_text=outcome.value_text,
                    reward=0.0,
                    cause=TerminationCause.INVALID_ACTION,
                )
            )
            trace.cause = TerminationCause.INVALID_ACTION
            trace.invalid_outcome = outcome
            return trace

        result = env.step(outcome.action)
        trace.steps.append(
            TraceStep(
                observation=obs,
                action_text=render_action_value(outcome.action),
                reward=result.reward,
                terminated=result.terminated,
                truncated=result.truncated,
                cause=result.cause,
            )
        )
        trace.total_reward += result.reward
        obs = result.observation
        if result.done:
            trace.cause = result.cause
            return trace
