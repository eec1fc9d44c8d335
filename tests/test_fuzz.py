"""Property-based fuzzing of the policy language: whatever text a model
sends, ``extract_code`` returns a program or raises ``PolicyParseError``, and
a parsed program maps any observation, however extreme, to an action or
a refusal: the first step of a rollout takes the action its value stands
for, or refuses it with the value text an episode ending there records.
Derandomized, so every run draws the same examples."""

import math
import random
import re

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from policyloop.dsl import PolicyParseError, parse
from policyloop.envs import get_spec
from policyloop.envs.core import DiscreteActions
from policyloop.prompts import extract_code

from conftest import big_int_expression, policy_outcome, transcript_text

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=120)

STAR2 = get_spec("CartPoleStar2")
SPECS = [get_spec(task) for task in ("CartPole", "CartPoleStar2", "InvertedPendulum", "Pendulum")]
SESSION_PROGRAMS = [
    transcript_text(name)
    for name in ("code_iter0.py", "code_iter1.py", "code_iter2.py", "code_optimal.py")
]
NUMBERS = ["0", "1", "2", "0.5", "1e-320", "1e308", "1e400", "9" * 29, big_int_expression(400)]
PIECES = [
    # nested past what CPython's parser takes, and a byte it refuses
    "(" * 300, "-" * 10000, "not " * 3000, "\x00",
    "def", "get_action", "(", ")", ":", ",", ".", "\n", "    ", "if", "elif", "else",
    "return", "pass", "and", "or", "not", "random", "randint", "uniform", "import",
    "while", "lambda", "True", "None", "in", "x", "=", "+", "-", "*", "/", "**", "<",
    ">=", "==", "#", "\t", "```python", "```", "Here is the function:", "9" * 5000,
    *NUMBERS, *STAR2.obs_names,
]
EXTREMES = [0.0, -0.0, 1.0, -3.0, 5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan]


@st.composite
def mutated_programs(draw):
    """A session program with a few spans replaced by language fragments."""
    text = draw(st.sampled_from(SESSION_PROGRAMS))
    # spread the edits evenly; drawn integers lean towards the start
    where = draw(st.randoms(use_true_random=False))
    for _ in range(draw(st.integers(0, 3))):
        literals = list(re.finditer(r"\b\d+\b", text))
        if draw(st.booleans()) and literals:
            # another number in place of a literal keeps the answer valid
            start, end = where.choice(literals).span()
            piece = draw(st.sampled_from([*NUMBERS, "9" * 5000]))
        else:
            start = where.randint(0, len(text))
            end = min(len(text), start + where.randint(0, 6))
            piece = draw(st.sampled_from(PIECES + [""]))
        text = text[:start] + piece + text[end:]
    return text


# near misses of a real answer first: hypothesis draws earlier branches more
model_text = st.one_of(
    mutated_programs(),
    st.lists(st.sampled_from(PIECES), max_size=40).map(" ".join),
    st.text(max_size=120),
)


@FUZZ
@given(model_text)
def test_extract_code_returns_a_program_or_a_parse_error(text):
    try:
        program = extract_code(text, STAR2)
    except PolicyParseError:
        return
    outcome = policy_outcome(program, (0, 0, 0, 0), random.Random(0), STAR2)
    assert (outcome.action is None) == isinstance(outcome.value_text, str)


BINARY = ["+", "-", "*", "/", "<", "<=", "==", "!=", "and", "or"]


def expressions(names):
    leaves = st.sampled_from([*names, *NUMBERS])

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from(BINARY), inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
            st.tuples(st.sampled_from(["-", "not "]), inner).map(lambda t: f"({t[0]}{t[1]})"),
            st.tuples(st.sampled_from(["randint", "uniform"]), inner, inner).map(
                lambda t: f"random.{t[0]}({t[1]}, {t[2]})"
            ),
        )

    return st.recursive(leaves, extend, max_leaves=10)


@st.composite
def programs(draw):
    spec = draw(st.sampled_from(SPECS))
    expr = expressions(spec.obs_names)
    lines = [f"def get_action({', '.join(spec.obs_names)}):"]
    for i in range(draw(st.integers(0, 3))):
        lines += [f"    {'elif' if i else 'if'} {draw(expr)}:", f"        return {draw(expr)}"]
    if draw(st.booleans()) or len(lines) == 1:
        lines.append(f"    return {draw(expr)}")
    return spec, "\n".join(lines) + "\n"


@FUZZ
@given(programs(), st.data())
def test_any_program_on_extreme_observations_gives_an_outcome(case, data):
    spec, source = case
    program = parse(source, expected_params=spec.obs_names)
    size = len(spec.obs_names)
    obs = tuple(data.draw(st.lists(st.sampled_from(EXTREMES), min_size=size, max_size=size)))
    outcome = policy_outcome(program, obs, random.Random(0), spec)
    assert (outcome.action is None) == isinstance(outcome.value_text, str)
    if outcome.value_text is None and isinstance(spec.action, DiscreteActions):
        assert outcome.action in spec.action.labels
    elif outcome.value_text is None:
        assert spec.action.lo <= outcome.action <= spec.action.hi
