"""Rolling a parsed policy through an environment.

An episode ends on the usual termination/truncation rules, or immediately
when the policy produces an unusable action; that step earns no reward and
its trace line records the offending value verbatim (e.g. ``None``).

Each step is one ``evaluate`` call, which returns an already coerced
action, and one call of the env's ``_step_state`` hook; the next
observation comes from its ``_observe`` hook. State and return stay in
locals, the step count is the number of actions taken, the step limit
bounds the loop, and the env's state and step count are written back when
the episode ends, so the env reads as after the same public ``env.step``
calls.

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
    across episodes (it is reset here either way). Afterwards ``env.state``
    and ``env.steps`` read as after the same ``env.step`` calls.
    """
    env = env if env is not None else make(task_id)
    spec = env.spec
    obs = env.reset(seed)
    trace = EpisodeTrace(task_id=spec.task_id, seed=seed)
    observations, actions = trace.observations, trace.actions
    step_state, observe = env._step_state, env._observe
    state = env._state
    total_reward = 0.0
    # ``evaluate`` has coerced the action already, so each step is one policy
    # call and one physics call; the step limit is the loop bound
    for _ in range(spec.max_steps):
        observations.append(obs)
        outcome = evaluate(program, obs, rng, spec)
        action = outcome.action
        if action is None:  # an invalid outcome
            trace.cause = TerminationCause.INVALID_ACTION
            trace.invalid_outcome = outcome
            break
        actions.append(action)
        state, reward, terminated = step_state(state, action)
        total_reward += reward
        if terminated:
            trace.cause = env.terminal_cause
            break
        obs = observe(state)
    else:
        trace.cause = TerminationCause.STEP_LIMIT
    env._state = state
    env._steps = len(actions)
    trace.total_reward = total_reward
    return trace
