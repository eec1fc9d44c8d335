"""Rendering of observations and actions as the text lines embedded in
reflection prompts and run logs.

An observation prints exactly as numpy's default ``array2string`` prints a
1-D array, reproduced here in plain Python; numpy's process-wide print
options are ignored, so a line reads the same whatever they are set to.

* Integers are right-justified to the widest entry: ``[-1 -3  9  6]``.
* Floats are first rounded to three decimals as ``rint(x * 1000) / 1000``,
  which is what ``np.round(x, 3)`` computes (ties to even, ``-0.0004``
  becomes ``-0.``). They print positionally, shortest digits with ``1.0``
  as ``1.``, padded to the widest integer part and the widest fraction:
  ``[ 0.012 -1.5    0.   ]``. When a magnitude reaches 1e8, or the largest
  nonzero one exceeds 1000 times the smallest, they print in exponent form
  instead: mantissas of at most 8 fraction digits, trailing zeros trimmed,
  then all zero-padded to the longest, over exponents of a common two or
  three digits: ``[1.0e-03 1.5e+00]``. ``nan``, ``inf`` and ``-inf`` are
  right-justified to the common width.
* Entries are separated by one space and wrapped at numpy's 75-column
  rule, each later row indented by one space.

An observation may be a sequence of Python numbers or a 1-D array (read
with ``.tolist()``); lines are only rendered when asked for. A step line is
``<obs>;<action>`` and an unusable action renders as the literal text the
policy produced (``None`` when no rule fired).
"""

from __future__ import annotations

from math import copysign
from numbers import Integral

FLOAT_DECIMALS = 3
_SCALE = 10.0**FLOAT_DECIMALS
# numpy's defaults: mantissas of at most 8 fraction digits, and lines of 75
# columns, the last of which is kept for the closing bracket
_PRECISION = 8
_LINE_WIDTH = 74
_INTS = {int}


def _rint(y: float) -> float:
    """Nearest integer, ties to even, as a float with the sign of ``y``;
    infinities and nan pass through."""
    return copysign(round(y), y) if y - y == 0 else y


def _float_words(values) -> list[str]:
    """The entries of ``np.array2string(np.round(values, 3))``."""
    values = [_rint(v * _SCALE) / _SCALE for v in values]
    finite = [x for x in values if x - x == 0]
    magnitudes = list(filter(None, map(abs, finite)))
    exponent_form = False
    if magnitudes:
        # numpy's third test, a magnitude under 1e-4, cannot hold here: a
        # nonzero value rounded to three decimals is at least 1e-3
        top, bottom = max(magnitudes), min(magnitudes)
        exponent_form = top >= 1e8 or top / bottom > 1000.0
    if not finite:
        wholes = fractions = ()
        pad_left = pad_right = 0
    elif exponent_form:
        mantissas, _, exponents = zip(*(f"{x:.{_PRECISION}e}".partition("e") for x in finite))
        wholes, _, fractions = zip(*(mantissa.rstrip("0").partition(".") for mantissa in mantissas))
        digits = max(map(len, fractions))
        # the exponent digits, without their sign
        exp_digits = max(map(len, exponents)) - 1
        pad_left = max(map(len, wholes))
        pad_right = digits + 2 + exp_digits
    else:
        # after rounding, a value under 1e8 has at most three fraction
        # digits in its shortest round-trip form, which repr gives
        wholes, _, fractions = zip(*(repr(x).rstrip("0").partition(".") for x in finite))
        pad_left = max(map(len, wholes))
        pad_right = max(map(len, fractions))
    nonfinite = len(finite) < len(values)
    if nonfinite:
        # nan, inf and -inf take the full width, which they may widen
        offset = pad_right + 1
        pad_left = max(pad_left, 3 - offset, 3 + (float("-inf") in values) - offset)
    if exponent_form:
        form = f"{{:>{pad_left}}}.{{:0<{digits}}}e{{:+0{exp_digits + 1}d}}".format
        words = list(map(form, wholes, fractions, map(int, exponents)))
    else:
        words = list(map(f"{{:>{pad_left}}}.{{:<{pad_right}}}".format, wholes, fractions))
    if not nonfinite:
        return words
    width = pad_left + 1 + pad_right
    finite_words = iter(words)
    return [
        next(finite_words) if x - x == 0 else ("nan" if x != x else str(x)).rjust(width)
        for x in values
    ]


def _wrapped(words: list[str]) -> str:
    """Entries joined by spaces, a row broken before an entry that would
    pass column 74, each later row indented by one space."""
    rows, row, used = [], [], 1
    for word in words:
        if row and used + len(word) > _LINE_WIDTH:
            rows.append(" ".join(row).rstrip())
            row, used = [], 1
        row.append(word)
        used += len(word) + 1
    rows.append(" ".join(row))
    return "\n ".join(rows)


def render_observation(obs) -> str:
    """``np.array2string`` of an integer vector, or of a float vector
    rounded to three decimals, as numpy prints it by default."""
    values = obs.tolist() if hasattr(obs, "tolist") else obs
    if not values:
        return "[]"
    if set(map(type, values)) == _INTS:
        texts = list(map(str, values))
        width = max(map(len, texts))
        words = [text.rjust(width) for text in texts]
    else:
        words = _float_words(values)
    line = " ".join(words)
    # no row can pass column 74 when the whole line does not
    if len(line) >= _LINE_WIDTH:
        line = _wrapped(words)
    return f"[{line}]"


def render_action_value(value) -> str:
    """Stable text for an action: ints verbatim, floats compact to 3 decimals."""
    if isinstance(value, Integral) and not isinstance(value, bool):
        return str(int(value))
    return f"{round(float(value), FLOAT_DECIMALS):g}"


def step_line(obs, action_text: str) -> str:
    return f"{render_observation(obs)};{action_text}"
