"""Grammar coverage, validation errors and pretty-print round trips for the
rule-policy language."""

import pytest

from policyloop.dsl import PolicyParseError, parse, to_source
from policyloop.dsl.parser import BinOp, BoolOp, Compare, If, Name, Num, RandomCall, Return

CARTPOLE_PARAMS = ("cart_position", "cart_velocity", "pole_angle", "pole_angular_velocity")

from conftest import transcript_text


def test_session_program_parses_with_random_fallback(star2_spec):
    program = parse(transcript_text("code_iter0.py"), expected_params=star2_spec.obs_names)
    assert program.name == "get_action"
    assert program.params == CARTPOLE_PARAMS
    assert program.uses_random_fallback
    # last top-level statement is the random fallback return
    last = program.body[-1]
    assert isinstance(last, Return)
    assert isinstance(last.value, RandomCall)
    assert last.value.kind == "randint"


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
        assert exc.col > 0
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
    branch = program.body[0]
    assert isinstance(branch, If)
    assert isinstance(branch.test, Compare)
    assert branch.test.ops == ("<=", "<=")


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
    assert isinstance(program.body[0].test, BoolOp)
    assert program.body[0].test.op == "or"


def test_pass_only_body_is_allowed():
    program = parse("def f(a):\n    pass\n")
    assert len(program.body) == 1


def test_parenthesized_grouping_round_trips():
    src = "def f(a, b):\n    return (a + b) * (a - 2) / 4\n"
    program = parse(src)
    assert parse(to_source(program)).body == program.body


@pytest.mark.parametrize(
    "name", ["code_iter0.py", "code_iter1.py", "code_iter2.py", "code_optimal.py"]
)
def test_pretty_print_round_trip(name):
    program = parse(transcript_text(name))
    reparsed = parse(to_source(program))
    assert reparsed.name == program.name
    assert reparsed.params == program.params
    assert reparsed.body == program.body


def test_round_trip_preserves_operator_structure():
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
    for src in cases:
        program = parse(src)
        assert parse(to_source(program)).body == program.body, src


def test_number_literals():
    program = parse("def f(a):\n    return 0.5 + 2 + 1e2 + 0.25\n")
    numbers = []

    def walk(expr):
        if isinstance(expr, Num):
            numbers.append(expr.value)
        for attr in ("left", "right", "operand"):
            if hasattr(expr, attr):
                walk(getattr(expr, attr))

    walk(program.body[0].value)
    assert 0.5 in numbers and 2 in numbers and 100.0 in numbers


def test_nothing_but_prose_is_an_error():
    with pytest.raises(PolicyParseError, match="function definition"):
        parse("I am sorry, I cannot write that function.")


# -- randomized round-trip property -----------------------------------------


def random_expr(rng, depth, names=("a", "b", "c")):
    from policyloop.dsl.parser import UnaryOp

    kinds = ["num", "name"]
    if depth > 0:
        kinds += ["bin", "bool", "cmp", "unary", "rand"]
    kind = rng.choice(kinds)
    if kind == "num":
        return Num(rng.choice([0, 1, 2, 5, 10, 0.5, 2.5, 100.0]))
    if kind == "name":
        return Name(rng.choice(names))
    if kind == "bin":
        return BinOp(
            rng.choice("+-*/"),
            random_expr(rng, depth - 1, names),
            random_expr(rng, depth - 1, names),
        )
    if kind == "bool":
        n = rng.randint(2, 3)
        return BoolOp(
            rng.choice(["and", "or"]),
            tuple(random_expr(rng, depth - 1, names) for _ in range(n)),
        )
    if kind == "cmp":
        n = rng.randint(1, 2)
        ops = tuple(rng.choice(["<", "<=", ">", ">=", "==", "!="]) for _ in range(n))
        return Compare(
            random_expr(rng, depth - 1, names),
            ops,
            tuple(random_expr(rng, depth - 1, names) for _ in range(n)),
        )
    if kind == "unary":
        return UnaryOp(rng.choice(["-", "+", "not"]), random_expr(rng, depth - 1, names))
    return RandomCall(
        rng.choice(["randint", "uniform"]),
        random_expr(rng, depth - 1, names),
        random_expr(rng, depth - 1, names),
    )


def random_block(rng, depth, names=("a", "b", "c")):
    from policyloop.dsl.parser import Pass

    stmts = []
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        if roll < 0.5 or depth == 0:
            stmts.append(Return(random_expr(rng, 2, names)))
        elif roll < 0.6:
            stmts.append(Pass())
        else:
            roll = rng.random()
            orelse = ()
            if roll < 0.4:
                orelse = random_block(rng, depth - 1, names)
            elif roll < 0.7:
                orelse = (If(random_expr(rng, 1, names), random_block(rng, depth - 1, names), ()),)
            stmts.append(If(random_expr(rng, 2, names), random_block(rng, depth - 1, names), orelse))
    return tuple(stmts)


def test_round_trip_on_random_programs():
    import random

    from policyloop.dsl.parser import PolicyProgram

    rng = random.Random(0)
    for _ in range(400):
        program = PolicyProgram(
            name="f", params=("a", "b", "c"), body=random_block(rng, 3), source_text=""
        )
        assert parse(to_source(program)).body == program.body


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

DEEP_PROGRAMS = {
    "150-nested-parentheses": _HEAD + "    return " + "(" * 150 + "1" + ")" * 150 + "\n",
    "1000-term-sum": _HEAD + "    return 1" + " + 0" * 999 + "\n",
    "1000-nested-ifs": _HEAD
    + "".join("    " * depth + "if pole_angle > 0:\n" for depth in range(1, 1001))
    + "    " * 1001 + "return 1\n",
    "1000-nots": _HEAD + "    if " + "not " * 1000 + "pole_angle > 0:\n        return 1\n    return 2\n",
    "1000-unary-minuses": _HEAD + "    return " + "-" * 1000 + "1\n",
}


@pytest.mark.parametrize("source", DEEP_PROGRAMS.values(), ids=DEEP_PROGRAMS.keys())
def test_deep_nesting_is_a_parse_error(source):
    with pytest.raises(PolicyParseError, match="levels deep"):
        parse(source)


def test_long_elif_chain_parses_and_evaluates():
    import random

    import numpy as np

    from policyloop.dsl import evaluate
    from policyloop.envs import TaskId, get_spec

    rules = ["    if pole_angle > 200:\n        return 2\n"]
    rules += [f"    elif pole_angle > {200 - i}:\n        return {1 + i % 2}\n" for i in range(1, 200)]
    program = parse(_HEAD + "".join(rules), expected_params=CARTPOLE_PARAMS)
    assert parse(to_source(program)) == program
    # the tree nests one If per branch; at the cap it still hashes and prints
    assert hash(parse(to_source(program))) == hash(program)
    assert repr(program).startswith("PolicyProgram(")
    spec = get_spec(TaskId.CARTPOLE)
    # the 190th elif is the first rule that holds
    outcome = evaluate(program, np.array([0.0, 0.0, 10.5, 0.0]), random.Random(0), spec)
    assert outcome.action == 1
    outcome = evaluate(program, np.array([0.0, 0.0, -1.0, 0.0]), random.Random(0), spec)
    assert outcome.action is None  # no rule fired


def test_long_elif_chain_is_a_parse_error():
    from policyloop.dsl.parser import MAX_BRANCHES

    rule = "    elif pole_angle > 1:\n        return 1\n"
    source = _HEAD + "    if pole_angle > 2:\n        return 2\n" + rule * MAX_BRANCHES
    with pytest.raises(PolicyParseError, match=f"more than the {MAX_BRANCHES} allowed"):
        parse(source)


def test_else_blocks_holding_one_if_count_as_one_chain():
    # printed and compiled as a single elif chain, so they share one cap
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
    with pytest.raises(PolicyParseError, match="5000 digits"):
        parse(_HEAD + "    return " + "9" * 5000 + "\n")
