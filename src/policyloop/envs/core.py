"""Core types shared by all control tasks: task ids, action spaces, env specs,
step results and the seeded environment base class.

Every environment is a single-threaded state machine. Its only randomness
is the initial state, drawn at reset from a :class:`~.seeding.UniformStream`
seeded with the reset seed, so (seed, action sequence) fully determines a
trajectory. That stream is numpy's ``Generator(PCG64(seed)).uniform``
reproduced in plain Python, so the package runs without numpy and no numpy
version can move an episode. Observations are tuples of Python scalars
(ints on CartPoleStar2, floats elsewhere): a policy gets Python arithmetic.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional, Union

from .seeding import UniformStream


class TaskId(str, Enum):
    CARTPOLE = "CartPole"
    CARTPOLE_STAR1 = "CartPoleStar1"
    CARTPOLE_STAR2 = "CartPoleStar2"
    INVERTED_PENDULUM = "InvertedPendulum"
    ACROBOT = "Acrobot"
    PENDULUM = "Pendulum"
    MOUNTAIN_CAR_DISCRETE = "MountainCarDiscrete"
    MOUNTAIN_CAR_CONTINUOUS = "MountainCarContinuous"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class UnknownTaskError(KeyError):
    """Raised when a task id does not name one of the supported tasks."""


def parse_task_id(name: Union[str, TaskId]) -> TaskId:
    if isinstance(name, TaskId):
        return name
    try:
        return TaskId(name)
    except ValueError:
        raise UnknownTaskError(f"unknown task id: {name!r}") from None


class TerminationCause(str, Enum):
    NONE = "none"
    BOUNDS_EXCEEDED = "bounds_exceeded"
    GOAL_REACHED = "goal_reached"
    STEP_LIMIT = "step_limit"
    # Injected by the episode runner when a policy emits an unusable action;
    # the physics never set this.
    INVALID_ACTION = "invalid_action"


@dataclass(frozen=True)
class DiscreteActions:
    """Finite action set: the values a policy may return. The task's prompt
    texts tell the model what each one does."""

    labels: tuple[int, ...]

    def coerce(self, value) -> Optional[int]:
        """``value`` as an int when it equals a label (a bool does not), else None."""
        if isinstance(value, bool) or value not in self.labels:
            return None
        return int(value)


@dataclass(frozen=True)
class ContinuousAction:
    lo: float
    hi: float

    def coerce(self, value) -> Optional[float]:
        """``value`` clamped into [lo, hi] when it is a finite number, else None.

        An int too large for a float raises OverflowError.
        """
        try:
            number = float(value)
        except TypeError:  # None
            return None
        if not math.isfinite(number):
            # clamping would pass NaN on, and the dynamics never terminate on it
            return None
        if number < self.lo:
            return self.lo
        if number > self.hi:
            return self.hi
        return number


ActionSpace = Union[DiscreteActions, ContinuousAction]

# Template-variable names for the task description slots.
SLOT_AGENT = "Agent"
SLOT_GOAL = "Goal and Reward"
SLOT_OBSERVATION = "Observation Vector"
SLOT_ACTION = "Action Vector"
SLOT_TERMINATION = "Termination Conditions"

SLOT_NAMES = (SLOT_AGENT, SLOT_GOAL, SLOT_OBSERVATION, SLOT_ACTION, SLOT_TERMINATION)


@dataclass(frozen=True)
class EnvSpec:
    """Static description of one control task."""

    task_id: TaskId
    obs_dim: int
    obs_names: tuple[str, ...]
    action: ActionSpace
    max_steps: int
    description_slots: dict[str, str]
    # Episode return for a perfect run, where one exists (CartPole family 500,
    # InvertedPendulum 1000). None for the open-ended tasks.
    r_max: Optional[float] = None
    # True when observations are reported on the integer grid.
    integer_observations: bool = False
    # Prompt-side phrasings of the action space and the goal, written per task.
    action_choice_text: str = ""
    action_returns_text: str = ""
    action_invalid_text: str = ""
    random_default_text: str = ""
    improve_goal_text: str = ""

    def __post_init__(self) -> None:
        if len(self.obs_names) != self.obs_dim:
            raise ValueError("obs_names must have obs_dim entries")
        missing = [s for s in SLOT_NAMES if s not in self.description_slots]
        if missing:
            raise ValueError(f"missing description slots: {missing}")

    @property
    def is_discrete(self) -> bool:
        return isinstance(self.action, DiscreteActions)


class StepResult(NamedTuple):
    observation: tuple
    reward: float
    terminated: bool
    truncated: bool
    cause: TerminationCause = TerminationCause.NONE

    @property
    def done(self) -> bool:
        return self.terminated or self.truncated


# What a policy "returned" in a rollout when it, or the action check, raised
RAISED = object()


class Environment:
    """Base class: deterministic, seedable reset/step state machine.

    Subclasses implement ``_reset_state`` and ``_step_state``, may override
    the observation encoding ``_observe``, and set ``terminal_cause``, the
    cause of every termination ``_step_state`` reports. This class owns the
    action check, step counting and truncation.

    ``step`` is the public single-step API, and it checks every action.
    ``dsl.run_episode`` plays whole episodes through ``_rollout`` instead,
    which keeps the same bookkeeping: the ``state`` and ``steps`` it leaves
    behind are those of the same ``step`` calls. This class's ``_rollout``
    drives the hooks; a task family may override it with a loop of its own
    that takes the same steps.
    """

    spec: EnvSpec
    terminal_cause: TerminationCause

    def __init__(self) -> None:
        self._state: Optional[tuple[float, ...]] = None
        self._steps = 0

    # -- interface -----------------------------------------------------------

    def reset(self, seed: int) -> tuple:
        """Draw a fresh initial state from ``seed``, taken modulo 2**64 (so
        a negative seed is its two's complement), and return its observation."""
        self._state = self._reset_state(UniformStream(seed & 0xFFFFFFFFFFFFFFFF))
        self._steps = 0
        return self.observe()

    def step(self, action: Union[int, float]) -> StepResult:
        if self._state is None:
            raise RuntimeError("step() before reset()")
        spec = self.spec
        coerced = spec.action.coerce(action)
        if coerced is None:
            raise ValueError(
                f"action {action!r} is not a valid action for {spec.task_id}; "
                f"expected {spec.action_invalid_text}"
            )
        state, reward, terminated = self._step_state(self._state, coerced)
        self._state = state
        self._steps += 1
        obs = self._observe(state)
        if terminated:
            return StepResult(obs, reward, True, False, self.terminal_cause)
        if self._steps >= spec.max_steps:
            return StepResult(obs, reward, False, True, TerminationCause.STEP_LIMIT)
        return StepResult(obs, reward, False, False)

    def observe(self) -> tuple:
        if self._state is None:
            raise RuntimeError("observe() before reset()")
        return self._observe(self._state)

    @property
    def state(self) -> tuple[float, ...]:
        """Native (un-encoded) state vector, exposed for replay tooling."""
        if self._state is None:
            raise RuntimeError("no state before reset()")
        return self._state

    @property
    def steps(self) -> int:
        return self._steps

    # -- hooks ---------------------------------------------------------------

    def _reset_state(self, rng: UniformStream) -> tuple[float, ...]:
        """The initial native state; each ``rng.uniform(low, high)`` call is
        the next draw, so the order of the calls is part of the task."""
        raise NotImplementedError

    def _step_state(
        self, state: tuple[float, ...], action: Union[int, float]
    ) -> tuple[tuple[float, ...], float, bool]:
        """(next state, reward, terminated) under a coerced action: an int
        label, or a clamped float."""
        raise NotImplementedError

    def _observe(self, state: tuple[float, ...]) -> tuple:
        return state

    def _rollout(self, policy, rng, obs, observations, actions, errors):
        """Play ``policy`` from the state ``reset`` left until the episode ends.

        ``obs`` is the observation of that state. Each step appends the
        observation to ``observations``, calls ``policy(rng, obs)``, and
        appends the action, which the action space's ``coerce`` made of the
        returned value, to ``actions``. A value ``coerce`` refuses, or one of
        ``errors`` raised by either call, ends the episode with no reward.
        Returns (return, cause, value): ``value`` is the unusable value, or
        ``RAISED``, when ``cause`` is ``INVALID_ACTION``, and None otherwise.
        The env's state and step count are written back at the end.
        """
        coerce = self.spec.action.coerce
        step_state, observe = self._step_state, self._observe
        state = self._state
        total_reward = 0.0
        # coerce maps None to None too, so one test finds every unusable action
        for _ in range(self.spec.max_steps):
            observations.append(obs)
            try:
                value = policy(rng, obs)
                action = coerce(value)
            except errors:
                value = RAISED
                action = None
            if action is None:
                cause = TerminationCause.INVALID_ACTION
                break
            actions.append(action)
            state, reward, terminated = step_state(state, action)
            total_reward += reward
            if terminated:
                cause, value = self.terminal_cause, None
                break
            obs = observe(state)
        else:
            cause, value = TerminationCause.STEP_LIMIT, None
        self._state = state
        self._steps = len(actions)
        return total_reward, cause, value


def derive_seed(*parts: object) -> int:
    """Pure 63-bit seed from any hashable tuple of parts.

    Used everywhere a sub-stream is needed (episode seeds, policy rng seeds,
    robustness re-evaluation seeds) so replays never depend on global state.
    """
    text = "/".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def wrap_angle(theta: float) -> float:
    """Map an angle to [-pi, pi)."""
    return ((theta + math.pi) % (2.0 * math.pi)) - math.pi
