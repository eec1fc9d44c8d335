"""Evaluation of parsed rule policies against an observation.

A policy runs as the Python function :func:`~.parser.parse` compiled once
from its validated tree (``PolicyProgram.compiled``); the language is a
strict subset of Python, so CPython's semantics are the language's. This
module calls it with the caller's rng and turns what it returns or raises
into a typed :class:`PolicyOutcome`; the action space's ``coerce`` decides
which values are actions.

Pure with respect to the environment: the only effects are draws from the
caller-supplied rng when a program calls ``random.randint`` or
``random.uniform``. Rule comparisons are exact real comparisons (generated
rules use integer-ish thresholds; an epsilon would silently change their
meaning).

A valid outcome carries the action and nothing else; only an invalid one
renders the value the program produced, for its trace line and the repair
feedback.
"""

from __future__ import annotations

import random
from enum import Enum
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from ..envs.core import EnvSpec
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


def _render_value(value) -> str:
    if isinstance(value, int):  # bools included
        return str(value)
    return f"{float(value):g}"


def _length_error(shape: tuple, n_params: int) -> ValueError:
    return ValueError(
        f"observation has {shape} values but the policy takes {n_params} parameters"
    )


def evaluate(
    program: PolicyProgram, obs: Sequence, rng: random.Random, spec: EnvSpec
) -> PolicyOutcome:
    """Map an observation to an action (or a typed invalid outcome).

    ``obs`` is any sequence; an environment's tuple of Python scalars goes
    to the policy as it is.
    """
    n_params = len(program.params)
    if isinstance(obs, np.ndarray):
        if obs.shape != (n_params,):
            raise _length_error(obs.shape, n_params)
        # Python scalars, not numpy's: numpy turns x / 0 into inf
        obs = obs.tolist()
    elif len(obs) != n_params:
        raise _length_error((len(obs),), n_params)
    try:
        value = program.compiled(rng, *obs)
        if value is None:
            return PolicyOutcome(
                action=None,
                reason=InvalidReason.NO_RULE_FIRED,
                value_text="None",
            )
        action = spec.action.coerce(value)
        if action is not None:
            return PolicyOutcome(action)
        value_text = _render_value(value)
    except (ArithmeticError, ValueError):
        # division by zero, an overflow, a bad random bound, or an integer
        # too long to print or too large for a float
        return PolicyOutcome(
            action=None,
            reason=InvalidReason.RUNTIME_ERROR,
            value_text="None",
        )
    return PolicyOutcome(
        action=None,
        reason=InvalidReason.OUT_OF_RANGE,
        value_text=value_text,
    )
