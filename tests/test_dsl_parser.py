"""Grammar coverage and validation errors for the rule-policy language."""

import ast
import dataclasses
import random
import sys
import threading
import time
import warnings

import pytest

from policyloop.dsl import InvalidReason, PolicyParseError, PolicyProgram, parse
from policyloop.dsl import parser

CARTPOLE_PARAMS = ("cart_position", "cart_velocity", "pole_angle", "pole_angular_velocity")

from conftest import policy_outcome, transcript_text
from reference_dynamics import discrete_coerce_original


def test_session_program_parses_with_random_fallback(star2_spec):
    program = parse(transcript_text("code_iter0.py"), expected_params=star2_spec.obs_names)
    assert program.name == "get_action"
    assert program.params == CARTPOLE_PARAMS
    # last top-level statement is the random fallback return
    func = ast.parse(program.source_text).body[-1]
    assert ast.dump(func.body[-1]) == ast.dump(ast.parse("return random.randint(1, 2)").body[0])


@pytest.mark.parametrize(
    "name", ["code_iter0.py", "code_iter1.py", "code_iter2.py", "code_optimal.py"]
)
def test_every_session_program_parses_unmodified(name, star2_spec):
    program = parse(transcript_text(name), expected_params=star2_spec.obs_names)
    assert program.params == CARTPOLE_PARAMS


def test_return_without_value_is_an_error():
    with pytest.raises(PolicyParseError, match="return a value"):
        parse("def f(a): return")


def test_loops_are_banned():
    src = (
        "def get_action(cart_position, cart_velocity, pole_angle, pole_angular_velocity): "
        "while True: return 1"
    )
    with pytest.raises(PolicyParseError, match="loops are not allowed"):
        parse(src)


def test_for_loops_are_banned():
    with pytest.raises(PolicyParseError, match="loops are not allowed"):
        parse("def f(a):\n    for i in a:\n        return 1\n")


def test_assignments_are_banned():
    with pytest.raises(PolicyParseError, match="assignments are not allowed"):
        parse("def f(a):\n    x = 1\n    return x\n")


def test_foreign_calls_are_banned():
    with pytest.raises(PolicyParseError, match="only random.randint and"):
        parse("def f(a):\n    return abs(a)\n")


def test_other_random_attributes_are_banned():
    with pytest.raises(PolicyParseError, match="random.choice is not allowed"):
        parse("def f(a):\n    return random.choice(1, 2)\n")


def test_unknown_identifiers_are_rejected():
    with pytest.raises(PolicyParseError, match="unknown identifier"):
        parse("def f(a):\n    return b\n")


def test_parameter_name_mismatch(star2_spec):
    src = "def get_action(cart_position, cart_velocity, angle, pole_angular_velocity):\n    return 1\n"
    with pytest.raises(PolicyParseError, match="parameters must be exactly"):
        parse(src, expected_params=star2_spec.obs_names)


def test_power_operator_rejected():
    with pytest.raises(PolicyParseError, match="not allowed"):
        parse("def f(a):\n    return a ** 2\n")


def test_error_carries_line_and_column():
    try:
        parse("def f(a):\n    return )\n")
    except PolicyParseError as exc:
        assert exc.line == 2
        assert exc.col == 12  # 1-based: the ')'
        assert "line 2" in str(exc)
    else:
        pytest.fail("expected a parse error")


def test_leading_import_and_comments_ignored():
    src = (
        "import random\n"
        "# pick a side\n"
        "def f(a):\n"
        "    return 1  # always left\n"
    )
    program = parse(src)
    assert program.params == ("a",)


def test_chained_comparison_parses_as_single_compare():
    program = parse("def f(a):\n    if -5 <= a <= 5:\n        return 1\n    return 2\n")
    test = ast.parse(program.source_text).body[0].body[0].test
    assert type(test) is ast.Compare and len(test.ops) == 2
    grouped = parse("def f(a):\n    if (-5 <= a) <= 5:\n        return 1\n    return 2\n")
    # (-5 <= 10) <= 5 holds, -5 <= 10 <= 5 does not
    assert program.compiled(random, (10,)) == 2
    assert grouped.compiled(random, (10,)) == 1


def test_boolean_operators_and_nesting():
    src = (
        "def f(a, b):\n"
        "    if a > 0 and b > 0 or not a < -1:\n"
        "        if a > b:\n"
        "            return 1\n"
        "        else:\n"
        "            return 0\n"
        "    return 0\n"
    )
    program = parse(src)
    bracketed = parse(src.replace("a > 0 and b > 0 or not a < -1", "(a > 0 and b > 0) or (not a < -1)"))
    regrouped = parse(src.replace("a > 0 and b > 0 or not a < -1", "a > 0 and (b > 0 or not a < -1)"))
    grid = [(a, b) for a in range(-3, 4) for b in range(-3, 4)]
    assert [program.compiled(random, obs) for obs in grid] == [
        bracketed.compiled(random, obs) for obs in grid
    ]
    assert program.compiled(random, (0, -1)) == 1  # not a < -1 holds
    assert regrouped.compiled(random, (0, -1)) == 0  # a > 0 does not
    assert program.compiled(random, (-5, 1)) == 0  # every disjunct false
    assert program.compiled(random, (2, 1)) == 1


def test_pass_only_body_is_allowed():
    program = parse("def f(a):\n    pass\n")
    assert program.compiled(random, (0,)) is None


def test_parenthesized_grouping_parses():
    src = "def f(a, b):\n    return (a + b) * (a - 2) / 4\n"
    program = parse(src)
    assert program.compiled(random, (3, 1)) == 1.0
    # redundant brackets are dropped, so they are no nesting
    bracketed = parse("def f(a, b):\n    return " + "(" * 150 + "(a + b) * (a - 2) / 4" + ")" * 150)
    assert ast.dump(ast.parse(bracketed.source_text)) == ast.dump(ast.parse(src))
    assert bracketed.compiled(random, (3, 1)) == 1.0


def test_operator_structure_is_kept():
    cases = [
        "def f(a, b):\n    return a - b - 1\n",
        "def f(a, b):\n    return a - (b - 1)\n",
        "def f(a, b):\n    return -a * b\n",
        "def f(a, b):\n    return -(a * b)\n",
        "def f(a, b):\n    if (a < b) == (b < a):\n        return 1\n    return 0\n",
        "def f(a, b):\n    if not (a > 0 or b > 0):\n        return 1\n    return 0\n",
        "def f(a, b):\n    return random.uniform(-2.0, a / 2)\n",
        "def f(a, b):\n    return 1e400 - a * -1e400\n",  # inf literals
    ]
    programs = [parse(src) for src in cases]
    # regrouping an expression changes the tree, and here the result
    assert len({ast.dump(ast.parse(program.source_text)) for program in programs}) == len(cases)
    assert programs[0].compiled(random, (0, 0)) == -1
    assert programs[1].compiled(random, (0, 0)) == 1
    assert programs[7].compiled(random, (1, 0)) == float("inf")


def test_number_literals():
    program = parse("def f(a):\n    return 0.5 + 2 + 1e2 + 0.25\n")
    expected = ast.parse("def f(a):\n    return 0.5 + 2 + 100.0 + 0.25\n")
    assert ast.dump(ast.parse(program.source_text)) == ast.dump(expected)
    assert program.compiled(random, (0,)) == 102.75


def test_the_observation_argument_cannot_clash_with_a_parameter():
    """A compiled policy is f(random, obs) and unpacks obs into its declared
    parameters; obs has a name that is no identifier, so no parameter can
    take it, whatever the parameters are called."""
    hidden = parser._OBS
    assert not hidden.isidentifier()
    with pytest.raises(PolicyParseError):
        parse(f"def f({hidden}):\n    return 1\n")
    program = parse("def f(obs, observation, obs_, a):\n    return obs - observation * obs_ + a\n")
    assert program.compiled.__code__.co_varnames[:2] == ("random", hidden)
    assert program.compiled(random, (5, 2, 3, 0.5)) == -0.5
    assert parse("def f():\n    return 1\n").compiled(random, ()) == 1


def test_a_program_is_its_source_text_and_compiled_function():
    source = "def f(a):\n    return a + 1\n"
    program = parse(source)
    assert [f.name for f in dataclasses.fields(PolicyProgram)] == [
        "name", "params", "source_text", "compiled"
    ]
    assert repr(program) == f"PolicyProgram(name='f', params=('a',), source_text={source!r})"
    # two parses of one text are two programs
    again = parse(source)
    assert program == program and program != again
    assert len({program, again}) == 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        program.source_text = "def f(a):\n    return 2\n"


def test_nothing_but_prose_is_an_error():
    with pytest.raises(PolicyParseError, match="function definition"):
        parse("I am sorry, I cannot write that function.")


# -- randomized round-trip property -----------------------------------------


def random_expr(rng, depth, names=("a", "b", "c")):
    """Source text of a random expression, every operation in brackets."""
    kinds = ["num", "name"]
    if depth > 0:
        kinds += ["bin", "bool", "cmp", "unary", "rand"]
    kind = rng.choice(kinds)
    if kind == "num":
        return repr(rng.choice([0, 1, 2, 5, 10, 0.5, 2.5, 100.0]))
    if kind == "name":
        return rng.choice(names)
    if kind == "bin":
        left, right = random_expr(rng, depth - 1, names), random_expr(rng, depth - 1, names)
        return f"({left} {rng.choice('+-*/')} {right})"
    if kind == "bool":
        op = f" {rng.choice(['and', 'or'])} "
        return "(" + op.join(random_expr(rng, depth - 1, names) for _ in range(rng.randint(2, 3))) + ")"
    if kind == "cmp":
        text = random_expr(rng, depth - 1, names)
        for _ in range(rng.randint(1, 2)):
            op = rng.choice(["<", "<=", ">", ">=", "==", "!="])
            text += f" {op} {random_expr(rng, depth - 1, names)}"
        return f"({text})"
    if kind == "unary":
        op = rng.choice(["-", "+", "not "])
        return f"({op}{random_expr(rng, depth - 1, names)})"
    lo, hi = random_expr(rng, depth - 1, names), random_expr(rng, depth - 1, names)
    return f"random.{rng.choice(['randint', 'uniform'])}({lo}, {hi})"


def random_block(rng, depth, names=("a", "b", "c"), indent="    "):
    """Source lines of a random block of return, pass and if/elif/else."""
    lines = []
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        if roll < 0.5 or depth == 0:
            lines.append(f"{indent}return {random_expr(rng, 2, names)}")
        elif roll < 0.6:
            lines.append(f"{indent}pass")
        else:
            roll = rng.random()
            lines.append(f"{indent}if {random_expr(rng, 2, names)}:")
            lines += random_block(rng, depth - 1, names, indent + "    ")
            if roll < 0.4:
                lines.append(f"{indent}else:")
                lines += random_block(rng, depth - 1, names, indent + "    ")
            elif roll < 0.7:
                lines.append(f"{indent}elif {random_expr(rng, 1, names)}:")
                lines += random_block(rng, depth - 1, names, indent + "    ")
    return lines


def random_program(rng, names=("a", "b", "c")):
    return f"def f({', '.join(names)}):\n" + "\n".join(random_block(rng, 3, names)) + "\n"


def test_random_programs_parse():
    rng = random.Random(0)
    for _ in range(400):
        parse(random_program(rng))


def test_names_cannot_collide_with_keywords():
    headers = [
        "def return(a):",
        "def None(a):",
        "def f(in):",
        "def f(True):",
        "def f(a, a):",
        "def f(random):",  # would hide the random builtins
    ]
    for header in headers:
        with pytest.raises(PolicyParseError):
            parse(header + "\n    return 1\n")


# -- nesting limit ---------------------------------------------------------------

_HEAD = f"def get_action({', '.join(CARTPOLE_PARAMS)}):\n"


def _nested_ifs(levels):
    return (
        _HEAD
        + "".join("    " * depth + "if pole_angle > 0:\n" for depth in range(1, levels + 1))
        + "    " * (levels + 1) + "return 1\n"
    )


def _nots(count):
    return _HEAD + "    if " + "not " * count + "pole_angle > 0:\n        return 1\n    return 2\n"


# Some are refused by this module's walk, the others by CPython's parser
# (IndentationError, SyntaxError, MemoryError or RecursionError).
DEEP_PROGRAMS = {
    "300-nested-parentheses": _HEAD + "    return " + "(" * 300 + "1" + ")" * 300 + "\n",
    "60-nested-sums": _HEAD + "    return " + "(pole_angle + " * 60 + "1" + ")" * 60 + "\n",
    "1000-term-sum": _HEAD + "    return 1" + " + 0" * 999 + "\n",
    "16k-term-sum": _HEAD + "    return 1" + " + 0" * 15_999 + "\n",
    "60-nested-ifs": _nested_ifs(60),
    "150-nested-ifs": _nested_ifs(150),
    "1000-nots": _nots(1000),
    "3000-nots": _nots(3000),
    "1000-unary-minuses": _HEAD + "    return " + "-" * 1000 + "1\n",
    "10000-unary-minuses": _HEAD + "    return " + "-" * 10_000 + "1\n",
}


@pytest.mark.parametrize("source", DEEP_PROGRAMS.values(), ids=DEEP_PROGRAMS.keys())
def test_deep_nesting_is_a_parse_error(source):
    with pytest.raises(PolicyParseError, match="levels deep") as info:
        parse(source)
    assert info.value.col >= 1 or not info.value.line


def test_long_elif_chain_parses_and_evaluates():
    from policyloop.envs import TaskId, get_spec

    rules = ["    if pole_angle > 200:\n        return 2\n"]
    rules += [f"    elif pole_angle > {200 - i}:\n        return {1 + i % 2}\n" for i in range(1, 200)]
    program = parse(_HEAD + "".join(rules), expected_params=CARTPOLE_PARAMS)
    labels = get_spec(TaskId.CARTPOLE).action.labels
    # the 190th elif is the first rule that holds
    value = program.compiled(random.Random(0), (0.0, 0.0, 10.5, 0.0))
    assert discrete_coerce_original(labels, value) == 1
    value = program.compiled(random.Random(0), (0.0, 0.0, -1.0, 0.0))
    assert value is None  # no rule fired


def test_long_elif_chain_is_a_parse_error():
    from policyloop.dsl.parser import MAX_BRANCHES

    rule = "    elif pole_angle > 1:\n        return 1\n"
    source = _HEAD + "    if pole_angle > 2:\n        return 2\n" + rule * MAX_BRANCHES
    with pytest.raises(PolicyParseError, match=f"more than the {MAX_BRANCHES} allowed"):
        parse(source)


def test_else_blocks_holding_one_if_count_as_one_chain():
    # compiled as a single elif chain, so they share one cap
    branch = "if pole_angle > 1:\n{pad}    return 1\n"
    source = _HEAD
    for depth in range(1, 4):
        pad = "    " * depth
        source += pad + branch.format(pad=pad) + "".join(
            pad + "elif pole_angle > 1:\n" + pad + "    return 1\n" for _ in range(79)
        ) + pad + "else:\n"
    source += "    " * 4 + "return 2\n"
    with pytest.raises(PolicyParseError, match="240 branches"):
        parse(source)


def test_overlong_integer_literal_is_a_parse_error():
    with pytest.raises(PolicyParseError) as info:
        parse(_HEAD + "    return " + "9" * 5000 + "\n")
    # the model is told how to write the number, not how to configure CPython
    assert info.value.message == (
        "an integer literal is too long; write it with an exponent instead, e.g. 1e9"
    )
    assert "set_int_max_str_digits" not in str(info.value)
    assert info.value.line == 2 and info.value.col >= 1
    # hexadecimal literals have no digit limit in CPython, but the cap holds
    with pytest.raises(PolicyParseError, match="too long"):
        parse(_HEAD + "    return 0x" + "f" * 5000 + "\n")


@pytest.mark.parametrize("literal", [str(10**30), "1" + "0" * 40, hex(10**30), "0b1" + "0" * 100])
def test_an_integer_literal_of_ten_to_the_thirty_is_a_parse_error(literal):
    with pytest.raises(PolicyParseError) as info:
        parse(_HEAD + "    if pole_angle > 0:\n        return 2 * " + literal + "\n")
    assert info.value.message == parser._INT_TOO_LONG
    assert (info.value.line, info.value.col) == (3, 20)


def test_an_integer_literal_below_ten_to_the_thirty_parses():
    for literal in (str(10**30 - 1), hex(10**30 - 1), "1" + "_000" * 9):
        program = parse(_HEAD + f"    return {literal} - {literal} + 1\n")
        assert program.compiled(random.Random(0), (0, 0, 0, 0)) == 1
    # a float literal has no cap: it cannot grow past a float
    assert parse(_HEAD + "    return 1" + "0" * 400 + ".0\n").compiled(None, (0,) * 4) == 1e400


def _padded_to(size):
    """A valid program of ``size`` characters, filled out with a comment."""
    source = _HEAD + "    return 1\n"
    return source + "#" * (size - len(source))


# Over the size cap: inputs that CPython's parser refused as nested too
# deep, and one it would read without complaint.
OVERSIZED = {
    "100k-term-sum": _HEAD + "    return 1" + " + 0" * 99_999 + "\n",
    "1000-nested-ifs": _nested_ifs(1000),
    "5000-elifs": _HEAD
    + "    if pole_angle > 0:\n        return 1\n"
    + "    elif pole_angle > 1:\n        return 1\n" * 5000,
    "one-character-over": _padded_to(parser.MAX_SOURCE_CHARS + 1),
}


@pytest.mark.parametrize("source", OVERSIZED.values(), ids=OVERSIZED.keys())
def test_a_source_over_the_size_cap_is_refused_before_it_is_read(source, monkeypatch):
    def refuse(text):
        raise AssertionError("the source was read")

    # _read is what calls ast.parse
    monkeypatch.setattr(parser, "_read", refuse)
    with pytest.raises(PolicyParseError) as info:
        parse(source)
    assert str(info.value) == (
        f"the function is {len(source)} characters long, more than the 65536 allowed; "
        "write a shorter one"
    )


def test_a_source_at_the_size_cap_parses():
    assert parse(_padded_to(parser.MAX_SOURCE_CHARS)).compiled(None, (0,) * 4) == 1


def test_the_costliest_program_the_caps_admit_has_a_bounded_step():
    """One test holding the product of as many of the largest literals as
    the size cap leaves room for, as a left-to-right chain of 42 balanced
    products: the longest chain the nesting cap allows, and costlier than
    one balanced product or a shorter chain. Any product costs at most
    about the square of its literals' total size, which the size cap bounds.

    On a 2-CPU x86-64 host (Python 3.11.7) a step took 13-22 ms, min of 5,
    so the bound leaves a margin of over 20x. Before the caps, a 153 KiB
    program of 4,000-digit literals took 121 ms a step."""
    from policyloop.envs import TaskId, make

    literal = str(parser.MAX_INT_LITERAL - 1)

    def balanced(n):
        if n == 1:
            return literal
        return f"({balanced(n // 2)}*{balanced(n - n // 2)})"

    def program(n):
        factor = balanced(n // 42)
        return _HEAD + f"    if {'*'.join([factor] * 42)} > 0:\n        return 2\n    return 1\n"

    n = 42
    while len(program(n + 42)) <= parser.MAX_SOURCE_CHARS:
        n += 42
    source = program(n)
    assert n >= 1900 and len(source) > parser.MAX_SOURCE_CHARS - 2000
    policy = parse(source, expected_params=CARTPOLE_PARAMS).compiled
    env = make(TaskId.CARTPOLE_STAR2)
    times = []
    for seed in range(5):
        env.reset(seed)
        start = time.perf_counter()
        env._rollout(policy, random.Random(seed), 1, [], [])
        times.append(time.perf_counter() - start)
    assert min(times) < 0.5


_LONG_CHAIN = "".join(
    f"    {'if' if i == 0 else 'elif'} a > {i}:\n        return zz\n" for i in range(201)
)
_NAMES_ONLY = "only the function parameters a, b and numeric literals may be referenced"
_CALLS_ONLY = "only random.randint and random.uniform may be called"
# One program per refusal of the whitelist walk, each with later faults too;
# the first fault in walk order (pre-order, left to right) is reported.
MULTI_FAULT_PROGRAMS = {
    "too-deep": (
        "def f(a, b):\n    return " + "-" * 60 + "a\n    return zz\n",
        (
            "the function nests brackets, operators or blocks more than 50 levels deep; "
            "write it as a flatter if/elif chain",
            2,
            61,
        ),
    ),
    "long-chain": (
        "def f(a, b):\n" + _LONG_CHAIN + "    return yy\n",
        (
            "this if/elif chain has 201 branches, more than the 200 allowed; merge rules "
            "with 'and'/'or' or compute the action from the observations",
            2,
            5,
        ),
    ),
    "bare-return": (
        "def f(a, b):\n    if a > 0:\n        return\n    return zz + 'x'\n",
        ("'return' must return a value", 3, 9),
    ),
    "binary-operator": (
        "def f(a, b):\n    return a + (b ** 2) * (a // b) + zz\n",
        ("operator Pow is not allowed; use + - * / only", 2, 17),
    ),
    "unary-operator": (
        "def f(a, b):\n    return -a + ~b + zz\n",
        ("operator Invert is not allowed", 2, 17),
    ),
    "comparison": (
        "def f(a, b):\n    if a < b in zz:\n        return 'x'\n    return a is b\n",
        ("comparison In is not allowed; use < <= > >= == != only", 2, 8),
    ),
    "literal": (
        "def f(a, b):\n    return a + 'x' * None\n",
        ("the literal 'x' is not allowed; use int and float numbers only", 2, 16),
    ),
    "long-integer": (
        "def f(a, b):\n    return a + 0x" + "f" * 4000 + " + 'x'\n",
        ("an integer literal is too long; write it with an exponent instead, e.g. 1e9", 2, 16),
    ),
    "unknown-name": (
        "def f(a, b):\n    if a > 0 and zz < b:\n        return yy\n    return a\n",
        (f"unknown identifier 'zz'; {_NAMES_ONLY}", 2, 18),
    ),
    "chain-order": (
        "def f(a, b):\n    if a > 0:\n        return a\n    elif yy > 0:\n        return zz\n"
        "    else:\n        return xx\n",
        (f"unknown identifier 'yy'; {_NAMES_ONLY}", 4, 10),
    ),
    "foreign-call": (
        "def f(a, b):\n    return a + abs(b) + random.choice(a, b)\n",
        (f"call to 'abs' is not allowed; {_CALLS_ONLY}", 2, 16),
    ),
    "random-attribute": (
        "def f(a, b):\n    return random.choice(a, b) + random.randint(zz)\n",
        (f"random.choice is not allowed; {_CALLS_ONLY}", 2, 12),
    ),
    "random-arity": (
        "def f(a, b):\n    return random.uniform(a) + random.randint(1, zz)\n",
        ("random.uniform takes exactly two arguments (lo, hi)", 2, 12),
    ),
    "loop": (
        "def f(a, b):\n    if a > 0:\n        while b:\n            return zz\n    x = 1\n",
        ("loops are not allowed in a policy function", 3, 9),
    ),
    "assignment": (
        "def f(a, b):\n    if a > 0:\n        pass\n    else:\n        b += 1\n    return zz\n",
        ("assignments are not allowed in a policy function", 5, 9),
    ),
    "statement": (
        "def f(a, b):\n    if a:\n        return 1\n    elif b:\n        global a\n    return zz\n",
        ("only if/elif/else chains and return statements are allowed here", 5, 9),
    ),
    "expression": (
        "def f(a, b):\n    if a:\n        return 1\n    elif b > 0:\n        return [a, zz]\n"
        "    return a if b else zz\n",
        ("List expressions are not allowed in a policy function", 5, 16),
    ),
}


@pytest.mark.parametrize(
    "source, fault", MULTI_FAULT_PROGRAMS.values(), ids=MULTI_FAULT_PROGRAMS.keys()
)
def test_first_fault_in_walk_order_is_reported(source, fault):
    with pytest.raises(PolicyParseError) as info:
        parse(source)
    assert (info.value.message, info.value.line, info.value.col) == fault


SESSION_PROGRAMS = ("code_iter0.py", "code_iter1.py", "code_iter2.py", "code_optimal.py")


def test_parsing_and_running_never_print_the_program(monkeypatch, star2_spec):
    """Parse, policy calls and whole episodes run with ast.unparse unavailable."""
    from policyloop.dsl import run_episode

    def refuse(node):
        raise AssertionError("ast.unparse called")

    with monkeypatch.context() as patched:
        patched.setattr(ast, "unparse", refuse)
        programs = [
            parse(transcript_text(name), expected_params=star2_spec.obs_names)
            for name in SESSION_PROGRAMS
        ]
        for program in programs:
            assert policy_outcome(program, (0, 0, 0, 0), random.Random(0), star2_spec).reason in (
                None,
                InvalidReason.NO_RULE_FIRED,
            )
            run_episode(program, star2_spec.task_id, 0, random.Random(0))
        # the over-long literal is still refused while the tree is checked
        with pytest.raises(PolicyParseError, match="too long"):
            parse(_HEAD + "    return 0x" + "f" * 5000 + "\n")


# Outside the language, and refused before as well as now.
OUTSIDE_THE_LANGUAGE = {
    "import-after-def": _HEAD + "    return 1\nimport random\n",
    "from-import": "from random import randint\n" + _HEAD + "    return 1\n",
    "docstring": _HEAD + '    """Balance the pole."""\n    return 1\n',
    "true": _HEAD + "    return True\n",
    "none": _HEAD + "    return None\n",
    "conditional-expression": _HEAD + "    return 1 if pole_angle > 0 else 2\n",
    "subscript": _HEAD + "    return pole_angle[0]\n",
    "complex": _HEAD + "    return 1j\n",
    "nul-byte": _HEAD + "    return 1\x00\n",
}


@pytest.mark.parametrize("source", OUTSIDE_THE_LANGUAGE.values(), ids=OUTSIDE_THE_LANGUAGE.keys())
def test_text_outside_the_language_is_rejected(source):
    with pytest.raises(PolicyParseError):
        parse(source)


def test_concurrent_parses_leave_the_warning_filters_as_they_were():
    # "1and" makes CPython's parser warn; each parse silences that inside
    # warnings.catch_warnings, which swaps the process-wide filter list
    source = _HEAD + "    if pole_angle > 1and pole_angle < 2:\n        return 1\n    return 2\n"
    failures = []

    def parse_many():
        for _ in range(300):
            try:
                parse(source, expected_params=CARTPOLE_PARAMS)
            except PolicyParseError as exc:
                failures.append(exc)

    interval = sys.getswitchinterval()
    for _ in range(3):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            before = list(warnings.filters)
            sys.setswitchinterval(1e-4)
            try:
                threads = [threading.Thread(target=parse_many) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            after = list(warnings.filters)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert after == before
