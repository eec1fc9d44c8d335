"""Running a parsed policy: whole episodes through an environment.

A policy runs as the Python function :func:`~.parser.parse` compiled once
from its validated tree (``PolicyProgram.compiled``); the language is a
strict subset of Python, so CPython's semantics are the language's. Rule
comparisons are exact real comparisons (generated rules use integer-ish
thresholds; an epsilon would silently change their meaning). The only
effects of a policy call are draws from the caller's rng when the program
calls ``random.randint`` or ``random.uniform``.

An episode ends on the usual termination rules, at the step limit, or
immediately when the policy produces an unusable action; that step earns
no reward and its trace line records the offending value verbatim (e.g.
``None``). Which of these ended it is kept only as far as any output tells
them apart: an episode that ended on an unusable value holds one
observation more than actions, and keeps that value's text.

A compiled policy is called as ``f(rng, obs)`` with the observation tuple,
which it unpacks into its parameters. ``run_episode`` checks the
observation length once, after ``reset``, and then hands the policy to
the env's ``_rollout``, the one driver of every env, which ``reset`` runs
for one step. Each step of it encodes the observation, calls the policy
once, then the one action check of its action space (``envs/core.py``: a
label of a discrete task, never a bool; or a finite number, clamped to a
continuous task's range), and runs inline the physics and the termination
test (``envs/cartpole.py``, ``envs/acrobot.py`` and the others). A valid step builds no outcome
object: the rollout hands back the last value the policy returned
(``None`` when the call or the check raised one of
``envs.core.POLICY_ERRORS``), and when the episode ended on it the trace
keeps only that value's text, the one its last trace line and the
reflection prompt show. The env's state is written back when the episode
ends.

A rollout keeps only the observations and the actions taken; the
``<obs>;<action>`` trace lines are rendered on demand, so an episode whose
lines are never shown pays nothing for them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Union

from ..envs import make
from ..envs.core import POLICY_ERRORS, TaskId
from ..envs.trace import render_action_value, step_line
from .parser import PolicyProgram


def _value_text(value) -> str:
    """The text of an unusable value: ints, bools included, as they print;
    anything else as a float; ``None`` for ``None`` and for a value that
    raises one of ``POLICY_ERRORS`` when printed."""
    if value is None:
        return "None"
    try:
        return str(value) if isinstance(value, int) else f"{float(value):g}"
    except POLICY_ERRORS:
        return "None"


@dataclass
class EpisodeTrace:
    # observations[i] is what the policy saw at step i; actions[i] is what it
    # did. An episode that ended invalid has one observation more than actions.
    observations: list[tuple]
    actions: list[Union[int, float]]
    total_reward: float
    # the text of the unusable value that ended the episode, or None
    invalid_value_text: Optional[str]

    @property
    def length(self) -> int:
        return len(self.observations)

    @property
    def ended_invalid(self) -> bool:
        return self.invalid_value_text is not None

    def _line(self, i: int) -> str:
        if i < len(self.actions):
            action_text = render_action_value(self.actions[i])
        else:
            action_text = self.invalid_value_text
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
    across episodes (it is reset here either way); afterwards ``env.state``
    is the state the episode ended in.
    """
    env = env if env is not None else make(task_id)
    obs = env.reset(seed)
    # every observation of an env has the length of its first
    n_params = len(program.params)
    if len(obs) != n_params:
        raise ValueError(
            f"observation has {len(obs)} values but the policy takes {n_params} parameters"
        )
    observations, actions = [], []
    total_reward, value = env._rollout(
        program.compiled, rng, env.spec.max_steps, observations, actions
    )
    return EpisodeTrace(
        observations,
        actions,
        # the rollout sums from -0.0, so that one step keeps its reward's
        # sign; an episode's return is a sum from 0.0, which never reads -0.0
        total_reward + 0.0,
        _value_text(value) if len(observations) > len(actions) else None,
    )
