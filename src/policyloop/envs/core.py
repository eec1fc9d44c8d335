"""Core types shared by all control tasks: task ids, action spaces, env specs
and the seeded environment base class.

Every environment is a single-threaded state machine. Its only randomness
is the initial state, drawn at reset by :func:`~.seeding.uniform_draws` from
the reset seed, one draw per range of the task's ``_reset_ranges``, so
(seed, action sequence) fully determines a trajectory. Those draws are
numpy's ``Generator(PCG64(seed)).uniform`` reproduced in plain Python, so
the package runs without numpy and no numpy version can move an episode.
Observations are tuples of Python scalars (ints on CartPoleStar2, floats
elsewhere): a policy gets Python arithmetic.

A rollout stops when the task's physics end the episode, at its step
limit, or on a value the policy returns that is no action. It returns the
last value the policy returned (``None`` when the call or the action check
raised one of ``POLICY_ERRORS``); an episode ended on that value exactly
when it holds one observation more than actions, and ``dsl.run_episode``
then keeps only the value's text.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Union

from .seeding import uniform_draws


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


@dataclass(frozen=True)
class DiscreteActions:
    """Finite action set: the values a policy may return. The task spec's
    ``action_names`` say what each one does."""

    labels: tuple[int, ...]


@dataclass(frozen=True)
class ContinuousAction:
    """A finite number, which the task clamps to [lo, hi]."""

    lo: float
    hi: float


ActionSpace = Union[DiscreteActions, ContinuousAction]

# Template-variable names for the task description slots.
SLOT_NAMES = (
    "Agent", "Goal and Reward", "Observation Vector", "Action Vector", "Termination Conditions"
)


@dataclass(frozen=True)
class EnvSpec:
    """Static description of one control task.

    The action is stated once: its labels or range in ``action``, and in
    ``action_names`` what each label does, in the prompts' words (``("left",
    "right")``), or for a continuous action the one quantity it sets
    (``("force",)``). The prompts' four phrasings of the action, the
    ``*_text`` properties, are read off these two, and ``obs_dim`` off
    ``obs_names``.
    """

    task_id: TaskId
    obs_names: tuple[str, ...]
    action: ActionSpace
    action_names: tuple[str, ...]
    max_steps: int
    description_slots: dict[str, str]
    # Episode return for a perfect run, where one exists (CartPole family 500,
    # InvertedPendulum 1000). None for the open-ended tasks.
    r_max: Optional[float] = None
    # True when observations are reported on the integer grid.
    integer_observations: bool = False
    # How the reflection prompt names the improvement to aim for.
    improve_goal_text: str = ""

    def __post_init__(self) -> None:
        expected = len(self.action.labels) if self.is_discrete else 1
        if len(self.action_names) != expected:
            raise ValueError(f"action_names must have {expected} entries")
        missing = [s for s in SLOT_NAMES if s not in self.description_slots]
        if missing:
            raise ValueError(f"missing description slots: {missing}")

    @property
    def is_discrete(self) -> bool:
        return isinstance(self.action, DiscreteActions)

    @property
    def obs_dim(self) -> int:
        return len(self.obs_names)

    def _labelled(self, form: str, sep: str, last: str) -> str:
        """Each (label, name) in ``form``, joined by ``sep``, and by ``last``
        before the final one."""
        pairs = zip(self.action.labels, self.action_names)
        parts = [form.format(label=label, name=name) for label, name in pairs]
        return sep.join(parts[:-1]) + last + parts[-1]

    def _range(self) -> str:
        return f"[{self.action.lo}, {self.action.hi}]"

    @property
    def action_choice_text(self) -> str:
        """What P1 and P2 say the action should be: ``either left(0) or right(1)``."""
        if not self.is_discrete:
            return f"a continuous {self.action_names[0]} value in the range {self._range()}"
        text = self._labelled("{name}({label})", ", ", " or ")
        return "either " + text if len(self.action_names) == 2 else text

    @property
    def action_returns_text(self) -> str:
        """What P3 says the function returns: ``0 for left; or 1 for right``."""
        if not self.is_discrete:
            return self.action_choice_text
        return self._labelled("{label} for {name}", "; ", "; or ")

    @property
    def action_invalid_text(self) -> str:
        """What a refused action should have been: ``0 (left) or 1 (right)``."""
        if not self.is_discrete:
            return f"a number in the range {self._range()}"
        return self._labelled("{label} ({name})", ", ", " or ")

    @property
    def random_default_text(self) -> str:
        """The random fallback P3 asks a program to end on."""
        if not self.is_discrete:
            return f"return random.uniform({self.action.lo}, {self.action.hi})"
        labels = self.action.labels
        return f"return random.randint({labels[0]}, {labels[-1]})"


# What a policy call, or the action check, may raise and only lose the
# episode: division by zero, an overflow, a bad random bound, or an integer
# too long to print or too large for a float
POLICY_ERRORS = (ArithmeticError, ValueError)


def _label_check(labels: tuple[int, ...]):
    """The action check of a discrete task: the label a returned value
    equals, as the int it records (2.0 -> 2), never for a bool; else None.
    Tests pin it to ``reference_dynamics.discrete_coerce_original``."""
    get = {label: label for label in labels}.get

    def action_of(value):
        return None if value.__class__ is bool else get(value)

    return action_of


def _clamp_check(lo: float, hi: float):
    """The action check of a continuous task: a finite number as a float
    clamped to [lo, hi]; None for None, NaN and +/-inf. It raises what
    ``float(value)`` raises: OverflowError for an int too large for a float.
    Tests pin it to ``reference_dynamics.continuous_coerce_min_max_form``."""
    inf, neg_inf = math.inf, -math.inf

    def action_of(value):
        if value is None:
            return None
        action = float(value)
        if not neg_inf < action < inf:
            return None
        return lo if action < lo else hi if action > hi else action

    return action_of


class Environment:
    """Base class: a deterministic, seedable state machine, played by
    whole episodes.

    ``_rollout`` is the one driver of an env: ``reset`` and ``observe``
    read the observation it encodes at the top of its first step, and
    ``dsl.run_episode`` plays whole episodes through it. A task is a
    ``spec``, class data and a ``_rollout`` of its own or of its family,
    with each step's observation, physics and termination test inline and
    its action check the class's ``_action_of``. The class data:
    ``_reset_ranges``, the reset distribution; and on a discrete task
    ``_effects``, what each label does.
    """

    spec: EnvSpec
    # (low, high) of each native state variable's uniform reset draw, in order
    _reset_ranges: tuple[tuple[float, float], ...]
    # On a discrete task: each label's effect (a force, a push, a torque), in
    # the spec's label order; ``_effect_of`` maps each label to it, built
    # once per class that declares a discrete spec.
    _effects: tuple[float, ...]
    _effect_of: dict[int, float] = {}
    # the action check of the class's spec: a returned value's action, or None
    _action_of: Callable[[object], Optional[Union[int, float]]]

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        spec = vars(cls).get("spec")
        if spec is not None and spec.is_discrete:
            labels = spec.action.labels
            cls._effect_of = dict(zip(labels, cls._effects, strict=True))
            cls._action_of = staticmethod(_label_check(labels))
        elif spec is not None:
            cls._action_of = staticmethod(_clamp_check(spec.action.lo, spec.action.hi))

    def __init__(self) -> None:
        self._state: Optional[tuple[float, ...]] = None

    # -- interface -----------------------------------------------------------

    def reset(self, seed: int) -> tuple:
        """Draw a fresh initial state from ``seed``, taken modulo 2**64 (so
        a negative seed is its two's complement), and return its observation."""
        self._state = uniform_draws(seed, self._reset_ranges)
        return self.observe()

    def observe(self) -> tuple:
        if self._state is None:
            raise RuntimeError("observe() before reset()")
        observations: list[tuple] = []
        self._rollout(_no_action, None, 1, observations, [])
        return observations[0]

    @property
    def state(self) -> tuple[float, ...]:
        """Native (un-encoded) state vector, which ``observe`` encodes; for
        inspection only (tests and demo 01 read it, the loop does not)."""
        if self._state is None:
            raise RuntimeError("no state before reset()")
        return self._state

    # -- the driver ----------------------------------------------------------

    def _rollout(self, policy, rng, limit, observations, actions):
        """Play ``policy`` from the current state for at most ``limit`` steps.

        Each step encodes the state's observation, appends it to
        ``observations`` (which, like ``actions``, starts empty), calls
        ``policy(rng, obs)``, and checks the returned value with
        ``_action_of``. On a discrete task an action is a label the value
        equals, never a bool, recorded as the int label; on a continuous
        task, a finite number, recorded as a float clamped to the range. The
        action is appended to ``actions``. Any other value, or one of ``POLICY_ERRORS`` raised by
        the call or the check, ends the rollout with no reward; a step the
        physics terminate ends it after its reward. Returns (return, value):
        the return is the sum of the rewards from -0.0, so a one-step rollout
        returns that step's reward bit for bit; ``value`` is the last value
        the policy returned (None when the call or the check raised, or when
        ``limit`` is 0), the unusable one exactly when ``observations`` ends
        up one longer than ``actions``. At the end the state is written back.
        """
        raise NotImplementedError


def _no_action(rng, obs) -> None:
    """The policy ``observe`` rolls out: it ends the rollout on its first
    step, having encoded the observation and changed nothing."""
    return None


def derive_seed(*parts: object) -> int:
    """Pure 63-bit seed from any hashable tuple of parts.

    Used everywhere a sub-stream is needed (episode seeds, policy rng seeds,
    robustness re-evaluation seeds) so replays never depend on global state.
    """
    text = "/".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1

