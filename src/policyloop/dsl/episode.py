"""Running a parsed policy: its outcome on one observation, and whole
episodes through an environment.

A policy runs as the Python function :func:`~.parser.parse` compiled once
from its validated tree (``PolicyProgram.compiled``); the language is a
strict subset of Python, so CPython's semantics are the language's. The
action space's ``coerce`` decides which returned values are actions. Rule
comparisons are exact real comparisons (generated rules use integer-ish
thresholds; an epsilon would silently change their meaning). The only
effects of a policy call are draws from the caller's rng when the program
calls ``random.randint`` or ``random.uniform``.

An episode ends on the usual termination/truncation rules, or immediately
when the policy produces an unusable action; that step earns no reward and
its trace line records the offending value verbatim (e.g. ``None``).

A compiled policy is called as ``f(rng, obs)`` with the observation tuple,
which it unpacks into its parameters. ``run_episode`` checks the
observation length once, after ``reset``, and then hands the policy to
the env's ``_rollout``, the one driver of every env, which ``reset`` and
``env.step`` run for one step. Each step of it encodes the observation
and calls the policy once; on the cart-pole family the action check, the
physics and the encoding are inline (``envs/cartpole.py``), on the other
tasks they are the action space's ``coerce`` and the env's ``_step_state``
and ``_observe`` hooks. Either way a valid step builds no outcome object:
the rollout hands back the unusable value that ended the episode
(``RAISED`` when the call raised one of ``envs.core.POLICY_ERRORS``, which
``evaluate`` catches too), and only that goes through ``_invalid_outcome``,
the classifier the public ``evaluate`` shares, so both give the same
reasons and texts. The env's state and step count are written back when
the episode ends, so the env reads as after the same public ``env.step``
calls.

A rollout keeps only the observations and the actions taken; the
``<obs>;<action>`` trace lines are rendered on demand, so an episode whose
lines are never shown pays nothing for them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Optional, Sequence, Union

from ..envs import make
from ..envs.core import (
    INVALID_ACTION,
    POLICY_ERRORS,
    RAISED,
    EnvSpec,
    TaskId,
    TerminationCause,
)
from ..envs.trace import render_action_value, step_line
from .parser import PolicyProgram


class InvalidReason(str, Enum):
    NO_RULE_FIRED = "no_rule_fired"
    OUT_OF_RANGE = "out_of_range"
    RUNTIME_ERROR = "runtime_error"


class PolicyOutcome(NamedTuple):
    """Result of mapping one observation through a policy."""

    action: Optional[Union[int, float]]
    reason: Optional[InvalidReason] = None
    # Invalid outcomes only: text of the raw value the program produced
    # ("None" when control fell off the end or raised), which trace lines
    # and repair feedback show.
    value_text: str = ""

    @property
    def is_valid(self) -> bool:
        return self.reason is None


def _invalid_outcome(value) -> PolicyOutcome:
    """The outcome of a policy call whose value ``coerce`` did not accept:
    ``None``, a rejected value, or ``RAISED``."""
    if value is None:
        return PolicyOutcome(None, InvalidReason.NO_RULE_FIRED, "None")
    if value is not RAISED:
        try:
            # ints, bools included, as they print; anything else as a float
            text = str(value) if isinstance(value, int) else f"{float(value):g}"
            return PolicyOutcome(None, InvalidReason.OUT_OF_RANGE, text)
        except POLICY_ERRORS:
            pass
    return PolicyOutcome(None, InvalidReason.RUNTIME_ERROR, "None")


def _length_error(shape: tuple, n_params: int) -> ValueError:
    return ValueError(
        f"observation has {shape} values but the policy takes {n_params} parameters"
    )


def evaluate(
    program: PolicyProgram, obs: Sequence, rng: random.Random, spec: EnvSpec
) -> PolicyOutcome:
    """Map an observation to an action (or a typed invalid outcome).

    ``obs`` is any sequence; an environment's tuple of Python scalars goes
    to the policy as it is. An array (anything with ``.shape`` and
    ``.tolist()``, such as a numpy vector) must be 1-D and is read as Python
    scalars.
    """
    n_params = len(program.params)
    shape = getattr(obs, "shape", None)
    if shape is not None:
        if shape != (n_params,):
            raise _length_error(shape, n_params)
        # Python scalars, not numpy's: numpy turns x / 0 into inf
        obs = obs.tolist()
    elif len(obs) != n_params:
        raise _length_error((len(obs),), n_params)
    try:
        value = program.compiled(rng, obs)
        action = spec.action.coerce(value)
    except POLICY_ERRORS:
        return _invalid_outcome(RAISED)
    if action is None:
        return _invalid_outcome(value)
    return PolicyOutcome(action)


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
        return self.cause is INVALID_ACTION

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
    # every observation of an env has the length of its first
    n_params = len(program.params)
    if len(obs) != n_params:
        raise _length_error((len(obs),), n_params)
    trace = EpisodeTrace(task_id=spec.task_id, seed=seed)
    total_reward, trace.cause, value = env._rollout(
        program.compiled, rng, spec.max_steps, trace.observations, trace.actions
    )
    # the rollout sums from -0.0, so that one step keeps its reward's sign;
    # an episode's return is a sum from 0.0, which never reads -0.0
    trace.total_reward = total_reward + 0.0
    if trace.cause is INVALID_ACTION:
        trace.invalid_outcome = _invalid_outcome(value)
    return trace
