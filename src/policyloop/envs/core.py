"""Core types shared by all control tasks: task ids, action spaces, env specs,
step results and the seeded environment base class.

Every environment is a single-threaded state machine. All randomness flows
through a per-instance PRNG seeded at reset, so (seed, action sequence)
fully determines a trajectory. Observations are tuples of Python scalars
(ints on CartPoleStar2, floats elsewhere): a policy gets Python arithmetic,
and a step builds no numpy object.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional, Union

import numpy as np


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


@dataclass(frozen=True)
class ContinuousAction:
    lo: float
    hi: float

    def clamp(self, value: float) -> float:
        return min(max(value, self.lo), self.hi)


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
    # Prompt-side phrasings derived from the action space / goal.
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


class Environment:
    """Base class: deterministic, seedable reset/step state machine.

    Subclasses implement ``_reset_state`` and ``_step_state``; this class owns
    step counting, truncation and the observation encoding hook.
    """

    spec: EnvSpec

    def __init__(self) -> None:
        self._state: Optional[tuple[float, ...]] = None
        self._steps = 0

    # -- interface -----------------------------------------------------------

    def reset(self, seed: int) -> tuple:
        rng = np.random.Generator(np.random.PCG64(seed & 0xFFFFFFFFFFFFFFFF))
        self._state = self._reset_state(rng)
        self._steps = 0
        return self.observe()

    def step(self, action: Union[int, float]) -> StepResult:
        if self._state is None:
            raise RuntimeError("step() before reset()")
        action = self._coerce_action(action)
        state, reward, terminated, cause = self._step_state(self._state, action)
        self._state = state
        self._steps += 1
        truncated = False
        if not terminated and self._steps >= self.spec.max_steps:
            truncated = True
            cause = TerminationCause.STEP_LIMIT
        return StepResult(self._observe(state), reward, terminated, truncated, cause)

    def observe(self) -> tuple:
        assert self._state is not None
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

    def _reset_state(self, rng: np.random.Generator) -> tuple[float, ...]:
        raise NotImplementedError

    def _step_state(
        self, state: tuple[float, ...], action: float
    ) -> tuple[tuple[float, ...], float, bool, TerminationCause]:
        raise NotImplementedError

    def _observe(self, state: tuple[float, ...]) -> tuple:
        return state

    def _coerce_action(self, action: Union[int, float]) -> float:
        act = self.spec.action
        if isinstance(act, DiscreteActions):
            if action not in act.labels:
                raise ValueError(
                    f"action {action!r} not in label set {act.labels} for {self.spec.task_id}"
                )
            return int(action)
        return act.clamp(float(action))


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
