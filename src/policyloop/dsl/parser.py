"""Parser for the restricted rule-policy language.

The language is a deliberately small, loop-free subset of the function
syntax chat models emit when asked for plain-code controllers:

    program     = [import lines] function definition
    statements  = if / elif / else chains, return, pass
    expressions = comparisons (chaining allowed), and/or/not,
                  + - * /, unary +/-, int and float literals, parameter
                  names, random.randint(lo, hi) and random.uniform(lo, hi)

No loops, no assignments, no other calls, so evaluation always terminates.

CPython's own parser (:func:`ast.parse`) reads the text; this module only
checks the resulting tree against a whitelist of node types, in one walk
without recursion. Nesting (operators and indented blocks) is capped at
``MAX_NESTING`` levels and an if/elif chain at ``MAX_BRANCHES`` branches, so
compiling a program never overflows the stack; a source over
``MAX_SOURCE_CHARS`` and an int literal of ``MAX_INT_LITERAL`` or more are
refused, so one policy call has a bounded cost. Every refusal, CPython's
included, is a :class:`PolicyParseError` with line/column and a
message phrased for feeding straight back to the model in a repair prompt.

:func:`parse` compiles each validated program once into a plain Python
function ``f(random, obs)`` of the caller's :class:`random.Random` and the
observation tuple (``PolicyProgram.compiled``), with no builtins, and keeps
no tree. Its first statement unpacks the observation into the parameters,
so a call passes one tuple and the caller checks its length. Each
``random.randint``/``random.uniform`` call is compiled into a call of
:func:`checked_randint`/:func:`checked_uniform` on that rng. A program is
its ``source_text`` and that function: two parses of one text are two
programs, and records identify a program by the text they store.
"""

from __future__ import annotations

import ast
import math
import random
import re
import threading
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

# Compiling a program recurses once or more per level.
MAX_NESTING = 50
# Each branch of a chain is one more If nested in the orelse of the one
# before, and CPython's compiler recurses through them (it overflows at a
# few thousand).
MAX_BRANCHES = 200
# The product of every literal a source can then hold has ~200,000 bits;
# 4,000-digit literals in 153 KiB took 121 ms a step. The size cap counts
# characters (64 KiB of ASCII) and is checked before CPython reads the text.
MAX_SOURCE_CHARS = 64 * 1024
MAX_INT_LITERAL = 10**30

_BINARY_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div)
_UNARY_OPS = (ast.USub, ast.UAdd, ast.Not)
_COMPARE_OPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)
_RANDOM_CALLS = ("randint", "uniform")
# CPython's refusals of input nested too deeply for its own parser
_TOO_DEEP_FOR_CPYTHON = ("too many nested parentheses", "too many levels of indentation")
_LOOPS = "loops are not allowed in a policy function"
# CPython's refusal of a decimal literal over sys.get_int_max_str_digits()
_INT_TOO_LONG_FOR_CPYTHON = "for integer string conversion"
_INT_TOO_LONG = "an integer literal is too long; write it with an exponent instead, e.g. 1e9"
# warnings.catch_warnings saves and restores the process-wide filter list, so
# two threads inside it at once can restore each other's state
_WARNINGS_LOCK = threading.Lock()


class PolicyParseError(ValueError):
    """Syntax or validation failure, with a position and a model-readable message."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.message = message
        self.line = line
        self.col = col
        super().__init__(str(self))

    def __str__(self) -> str:
        if self.line:
            return f"line {self.line}, column {self.col}: {self.message}"
        return self.message


@dataclass(frozen=True, eq=False)
class PolicyProgram:
    name: str
    params: tuple[str, ...]
    source_text: str
    # f(rng, obs), compiled from the validated tree; obs holds one value per
    # parameter, in order
    compiled: Callable = field(repr=False)


def _error(message: str, node: Optional[ast.AST] = None) -> PolicyParseError:
    if node is None:
        return PolicyParseError(message)
    return PolicyParseError(message, node.lineno, node.col_offset + 1)


def _too_deep(line: int = 0, col: int = 0) -> PolicyParseError:
    return PolicyParseError(
        f"the function nests brackets, operators or blocks more than "
        f"{MAX_NESTING} levels deep; write it as a flatter if/elif chain",
        line,
        col,
    )


def _read(text: str) -> ast.Module:
    """``ast.parse``, with each way it can refuse turned into a PolicyParseError."""
    try:
        with _WARNINGS_LOCK, warnings.catch_warnings():
            # e.g. "1and" is read, with a warning that depends on the version
            warnings.simplefilter("ignore")
            return ast.parse(text)
    except SyntaxError as exc:
        line = exc.lineno or 0
        col = max(exc.offset or 1, 1) if line else 0
        if exc.msg.startswith(_TOO_DEEP_FOR_CPYTHON):
            raise _too_deep(line, col) from None
        if _INT_TOO_LONG_FOR_CPYTHON in exc.msg:
            raise PolicyParseError(_INT_TOO_LONG, line, col) from None
        if not re.search(r"^\s*def\s", text, re.MULTILINE):
            raise PolicyParseError(
                "a policy must be a single function definition starting with 'def'",
                line,
                col,
            ) from None
        if re.match(r"(for|while)\b", (exc.text or "")[col - 1 :]):  # "if a: while b: ..."
            raise PolicyParseError(_LOOPS, line, col) from None
        raise PolicyParseError(exc.msg, line, col) from None
    except (RecursionError, MemoryError):
        # how CPython's parser reports nesting that overflows its own stacks
        raise _too_deep() from None
    except ValueError as exc:  # a NUL byte, on Python 3.10
        raise PolicyParseError(str(exc)) from None


def _function(module: ast.Module) -> ast.FunctionDef:
    """The one plain ``def`` after the leading imports."""
    stmts = module.body
    start = 0
    while start < len(stmts) and isinstance(stmts[start], ast.Import):
        start += 1
    if start == len(stmts) or not isinstance(stmts[start], ast.FunctionDef):
        raise _error(
            "a policy must be a single function definition starting with 'def'",
            stmts[start] if start < len(stmts) else None,
        )
    func = stmts[start]
    if start + 1 < len(stmts):
        raise _error("unexpected content after the function body", stmts[start + 1])
    args = func.args
    if (
        func.decorator_list
        or func.returns
        or args.posonlyargs
        or args.vararg
        or args.kwonlyargs
        or args.kwarg
        or args.defaults
        or any(arg.annotation for arg in args.args)
    ):
        raise _error(
            "the function header may only list parameter names: no decorators, "
            "defaults, annotations, *args or **kwargs",
            func,
        )
    seen: set[str] = set()
    for arg in args.args:
        if arg.arg == "random":
            raise _error("'random' cannot be used as a parameter name", arg)
        if arg.arg in seen:
            raise _error(f"parameter {arg.arg!r} is declared twice", arg)
        seen.add(arg.arg)
    return func


def _check(func: ast.FunctionDef) -> list[ast.Call]:
    """Walk the body against the whitelist, without recursion; return its
    random calls.

    The walk is pre-order, left to right: children are pushed in reverse.
    The commonest node kinds are tested first, and a leaf pushes nothing.
    """
    params = {arg.arg for arg in func.args.args}
    draws: list[ast.Call] = []
    pending: list[tuple[ast.AST, int]] = [(stmt, 1) for stmt in reversed(func.body)]
    push, pop = pending.append, pending.pop
    while pending:
        node, depth = pop()
        if depth > MAX_NESTING:
            raise _too_deep(node.lineno, node.col_offset + 1)
        kind = type(node)
        if kind is ast.Name:
            if node.id not in params:
                raise _error(
                    f"unknown identifier {node.id!r}; only the function parameters "
                    f"{', '.join(arg.arg for arg in func.args.args)} and numeric "
                    "literals may be referenced",
                    node,
                )
            continue
        if kind is ast.Constant:
            if type(node.value) not in (int, float):
                raise _error(
                    f"the literal {node.value!r:.20} is not allowed; use int and float numbers only",
                    node,
                )
            if type(node.value) is int and node.value >= MAX_INT_LITERAL:
                raise _error(_INT_TOO_LONG, node)
            continue
        depth += 1
        if kind is ast.Compare:
            for op in node.ops:
                if not isinstance(op, _COMPARE_OPS):
                    raise _error(
                        f"comparison {type(op).__name__} is not allowed; "
                        "use < <= > >= == != only",
                        node,
                    )
            for child in reversed(node.comparators):
                push((child, depth))
            push((node.left, depth))
        elif kind is ast.BinOp:
            if not isinstance(node.op, _BINARY_OPS):
                raise _error(
                    f"operator {type(node.op).__name__} is not allowed; use + - * / only", node
                )
            push((node.right, depth))
            push((node.left, depth))
        elif kind is ast.BoolOp:
            for child in reversed(node.values):
                push((child, depth))
        elif kind is ast.If:
            # an elif, or an else block holding one if, continues the chain
            chain = [node]
            while len(chain[-1].orelse) == 1 and type(chain[-1].orelse[0]) is ast.If:
                chain.append(chain[-1].orelse[0])
            if len(chain) > MAX_BRANCHES:
                raise _error(
                    f"this if/elif chain has {len(chain)} branches, more than the "
                    f"{MAX_BRANCHES} allowed; merge rules with 'and'/'or' or "
                    "compute the action from the observations",
                    node,
                )
            for child in reversed(chain[-1].orelse):
                push((child, depth))
            for branch in reversed(chain):
                for child in reversed(branch.body):
                    push((child, depth))
                push((branch.test, depth))
        elif kind is ast.Return:
            if node.value is None:
                raise _error("'return' must return a value", node)
            push((node.value, depth))
        elif kind is ast.UnaryOp:
            if not isinstance(node.op, _UNARY_OPS):
                raise _error(f"operator {type(node.op).__name__} is not allowed", node)
            push((node.operand, depth))
        elif kind is ast.Call:
            _check_call(node)
            draws.append(node)
            for child in reversed(node.args):
                push((child, depth))
        elif kind is ast.Pass:
            pass
        elif kind in (ast.For, ast.While):
            raise _error(_LOOPS, node)
        elif kind in (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.NamedExpr):
            raise _error("assignments are not allowed in a policy function", node)
        elif isinstance(node, ast.stmt):
            raise _error("only if/elif/else chains and return statements are allowed here", node)
        else:
            raise _error(f"{kind.__name__} expressions are not allowed in a policy function", node)
    return draws


def _check_call(node: ast.Call) -> None:
    func = node.func
    if not (type(func) is ast.Attribute and type(func.value) is ast.Name and func.value.id == "random"):
        name = func.id if type(func) is ast.Name else getattr(func, "attr", "this expression")
        raise _error(
            f"call to {name!r} is not allowed; only random.randint and "
            "random.uniform may be called",
            node,
        )
    if func.attr not in _RANDOM_CALLS:
        raise _error(
            f"random.{func.attr} is not allowed; only random.randint and "
            "random.uniform may be called",
            node,
        )
    if len(node.args) != 2 or node.keywords:
        raise _error(f"random.{func.attr} takes exactly two arguments (lo, hi)", node)


def parse(source: str, expected_params: Optional[tuple[str, ...]] = None) -> PolicyProgram:
    """Parse and validate policy source.

    When ``expected_params`` is given (the task's observation variable
    names), the function header must declare exactly those names in order.
    Raises :class:`PolicyParseError` on any violation.
    """
    if len(source) > MAX_SOURCE_CHARS:
        raise PolicyParseError(
            f"the function is {len(source)} characters long, more than the "
            f"{MAX_SOURCE_CHARS} allowed; write a shorter one"
        )
    func = _function(_read(source.replace("\t", "    ")))
    params = tuple(arg.arg for arg in func.args.args)
    if expected_params is not None and params != tuple(expected_params):
        raise PolicyParseError(
            "the function parameters must be exactly "
            f"({', '.join(expected_params)}) in this order, but the definition "
            f"declares ({', '.join(params)})"
        )
    return PolicyProgram(func.name, params, source, _compile(func, _check(func)))


def _integral(value) -> bool:
    return isinstance(value, int) or (math.isfinite(value) and value.is_integer())


def checked_randint(rng: random.Random, lo, hi) -> int:
    """``random.randint(lo, hi)`` in a policy: integral, ordered bounds."""
    if not (_integral(lo) and _integral(hi)):
        raise ValueError(f"random.randint requires integer bounds, got ({lo}, {hi})")
    lo, hi = int(lo), int(hi)
    if lo > hi:
        raise ValueError(f"random.randint range is empty: ({lo}, {hi})")
    return rng.randint(lo, hi)


def checked_uniform(rng: random.Random, lo, hi) -> float:
    """``random.uniform(lo, hi)`` in a policy."""
    return rng.uniform(float(lo), float(hi))


# Global names of the checked draws in a compiled policy, and the name of its
# observation argument. No parameter can take them: a parameter name is an
# identifier, with no dot or bracket.
_DRAWS = {"random.randint": checked_randint, "random.uniform": checked_uniform}
_OBS = "(observation)"


def _compile(func: ast.FunctionDef, draws: list[ast.Call]) -> Callable:
    """The validated function as a Python function of (random, obs).

    The parameter ``random`` is the caller's rng, and each call
    ``random.<draw>(lo, hi)`` in ``draws`` becomes ``"random.<draw>"(random,
    lo, hi)``. The first statement ``p1, ..., pn = obs`` unpacks the
    observation into the declared parameters. Its only globals are the two
    checked draws: no builtins. Taking the function out of its globals
    leaves no reference cycle for the collector to find.
    """
    for call in draws:
        name = ast.Name(f"random.{call.func.attr}", ast.Load())
        call.args.insert(0, ast.copy_location(ast.Name("random", ast.Load()), call))
        call.func = ast.copy_location(name, call.func)
    at = {"lineno": func.lineno, "col_offset": 0}
    targets = [ast.Name(arg.arg, ast.Store(), **at) for arg in func.args.args]
    obs = ast.Name(_OBS, ast.Load(), **at)
    func.body.insert(0, ast.Assign([ast.Tuple(targets, ast.Store(), **at)], obs, **at))
    func.args.args = [ast.arg("random", **at), ast.arg(_OBS, **at)]
    namespace: dict = {"__builtins__": {}, **_DRAWS}
    exec(compile(ast.Module([func], []), "<policy>", "exec"), namespace)
    return namespace.pop(func.name)
