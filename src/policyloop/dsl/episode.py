"""Rolling a parsed policy through an environment.

An episode ends on the usual termination/truncation rules, or immediately
when the policy produces an unusable action; that step earns no reward and
its trace line records the offending value verbatim (e.g. ``None``).

A rollout keeps only the observations and the actions taken; the
``<obs>;<action>`` trace lines are rendered on demand, so an episode whose
lines are never shown pays nothing for them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Union

from ..envs import make
from ..envs.core import TaskId, TerminationCause
from ..envs.trace import render_action_value, step_line
from .evaluator import PolicyOutcome, evaluate
from .parser import PolicyProgram


@dataclass
class EpisodeTrace:
    task_id: TaskId
    seed: int
    # observations[i] is what the policy saw at step i; actions[i] is what it
    # did. An episode that ended invalid has one observation more than actions.
    observations: list[tuple] = field(default_factory=list)
    actions: list[Union[int, float]] = field(default_factory=list)
    total_reward: float = 0.0
    cause: TerminationCause = TerminationCause.NONE
    invalid_outcome: Optional[PolicyOutcome] = None

    @property
    def length(self) -> int:
        return len(self.observations)

    @property
    def ended_invalid(self) -> bool:
        return self.cause is TerminationCause.INVALID_ACTION

    def _line(self, i: int) -> str:
        if i < len(self.actions):
            action_text = render_action_value(self.actions[i])
        else:
            action_text = self.invalid_outcome.value_text
        return step_line(self.observations[i], action_text)

    def lines(self) -> list[str]:
        return [self._line(i) for i in range(self.length)]

    def window_lines(self, size: int) -> list[str]:
        """The last ``size`` observation/action lines (whole episode if shorter)."""
        return [self._line(i) for i in range(self.length)[-size:]]


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
    observations, actions, step = trace.observations, trace.actions, env.step
    total_reward = 0.0

    while True:
        observations.append(obs)
        outcome = evaluate(program, obs, rng, spec)
        if not outcome.is_valid:
            trace.total_reward = total_reward
            trace.cause = TerminationCause.INVALID_ACTION
            trace.invalid_outcome = outcome
            return trace

        actions.append(outcome.action)
        obs, reward, terminated, truncated, cause = step(outcome.action)
        total_reward += reward
        if terminated or truncated:
            trace.total_reward = total_reward
            trace.cause = cause
            return trace
