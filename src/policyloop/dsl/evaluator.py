"""Evaluation of parsed rule policies against an observation.

A policy runs as the Python function :func:`~.parser.parse` compiled once
from its validated tree (``PolicyProgram.compiled``); the language is a
strict subset of Python, so CPython's semantics are the language's. This
module supplies the checked random builtins and turns what the function
returns or raises into a typed :class:`PolicyOutcome`.

Pure with respect to the environment: the only effects are draws from the
caller-supplied rng when a program uses its random builtins. Rule
comparisons are exact real comparisons (generated rules use integer-ish
thresholds; an epsilon would silently change their meaning).

A valid outcome carries the action and nothing else; only an invalid one
renders the value the program produced, for its trace line and the repair
feedback.
"""

from __future__ import annotations

import math
import random
from enum import Enum
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from ..envs.core import ContinuousAction, DiscreteActions, EnvSpec
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
    detail: str = ""

    @property
    def is_valid(self) -> bool:
        return self.reason is None


class _CheckedRandom:
    """The ``random`` a compiled policy sees: the rng's two draws with the
    language's bound checks."""

    __slots__ = ("rng",)

    def __init__(self, rng: random.Random):
        self.rng = rng

    def randint(self, lo, hi) -> int:
        if not (_integral(lo) and _integral(hi)):
            raise ValueError(f"random.randint requires integer bounds, got ({lo}, {hi})")
        lo, hi = int(lo), int(hi)
        if lo > hi:
            raise ValueError(f"random.randint range is empty: ({lo}, {hi})")
        return self.rng.randint(lo, hi)

    def uniform(self, lo, hi) -> float:
        return self.rng.uniform(float(lo), float(hi))


def _integral(value) -> bool:
    return isinstance(value, int) or (math.isfinite(value) and value.is_integer())


def _render_value(value) -> str:
    if isinstance(value, int):  # bools included
        return str(value)
    return f"{float(value):g}"


def evaluate(
    program: PolicyProgram, obs: Sequence, rng: random.Random, spec: EnvSpec
) -> PolicyOutcome:
    """Map an observation to an action (or a typed invalid outcome).

    ``obs`` is any sequence; an environment's tuple of Python scalars goes
    to the policy as it is.
    """
    if isinstance(obs, np.ndarray):
        shape = obs.shape
        # Python scalars, not numpy's: numpy turns x / 0 into inf
        obs = obs.tolist()
    else:
        shape = (len(obs),)
    if shape != (len(program.params),):
        raise ValueError(
            f"observation has {shape} values but the policy takes "
            f"{len(program.params)} parameters"
        )
    try:
        return _outcome(program.compiled(_CheckedRandom(rng), *obs), spec.action)
    except (ArithmeticError, ValueError) as exc:
        # division by zero, an overflow, a bad random bound, or an integer
        # too long to print
        return PolicyOutcome(
            action=None,
            reason=InvalidReason.RUNTIME_ERROR,
            value_text="None",
            detail=str(exc),
        )


def _outcome(value, action_space) -> PolicyOutcome:
    if value is None:
        return PolicyOutcome(
            action=None,
            reason=InvalidReason.NO_RULE_FIRED,
            value_text="None",
            detail="no rule fired for this observation",
        )
    if isinstance(action_space, DiscreteActions):
        if isinstance(value, bool) or value not in action_space.labels:
            value_text = _render_value(value)
            return PolicyOutcome(
                action=None,
                reason=InvalidReason.OUT_OF_RANGE,
                value_text=value_text,
                detail=f"value {value_text} is not one of {list(action_space.labels)}",
            )
        return PolicyOutcome(int(value))
    assert isinstance(action_space, ContinuousAction)
    number = float(value)
    if not math.isfinite(number):
        # clamping would pass NaN on, and the dynamics never terminate on it
        value_text = _render_value(value)
        return PolicyOutcome(
            action=None,
            reason=InvalidReason.OUT_OF_RANGE,
            value_text=value_text,
            detail=f"value {value_text} is not a finite number",
        )
    return PolicyOutcome(action_space.clamp(number))
