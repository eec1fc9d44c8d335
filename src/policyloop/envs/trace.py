"""Rendering of observations and actions as the text lines embedded in
reflection prompts and run logs.

Integer observation vectors print exactly as numpy renders them, e.g.
``[-1 -3  9  6]``; float vectors are rounded to three decimals first. An
observation may be a tuple of Python scalars or an array; lines are only
rendered when asked for, so numpy's cost here is paid per shown line. A
step line is ``<obs>;<action>`` and an unusable action renders as the
literal text the policy produced (``None`` when no rule fired).
"""

from __future__ import annotations

import numpy as np

FLOAT_DECIMALS = 3


def render_observation(obs) -> str:
    arr = np.asarray(obs)
    if np.issubdtype(arr.dtype, np.integer):
        return np.array2string(arr)
    return np.array2string(np.round(arr.astype(np.float64), FLOAT_DECIMALS))


def render_action_value(value) -> str:
    """Stable text for an action: ints verbatim, floats compact to 3 decimals."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    return f"{round(float(value), FLOAT_DECIMALS):g}"


def step_line(obs, action_text: str) -> str:
    return f"{render_observation(obs)};{action_text}"
