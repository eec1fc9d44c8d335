"""Parser for the restricted rule-policy language.

The language is a deliberately small, loop-free subset of the function
syntax chat models emit when asked for plain-code controllers:

    program     = [import lines] function definition
    statements  = if / elif / else chains, return, pass
    expressions = comparisons (chaining allowed), and/or/not,
                  + - * /, unary +/-, numeric literals, parameter names,
                  random.randint(lo, hi) and random.uniform(lo, hi)

No loops, no assignments, no other calls, so evaluation always terminates.
Nesting (brackets, unary and binary operators, indented blocks) is capped at
``MAX_NESTING`` levels, so parsing, evaluating and printing a program never
overflow the stack; an if/elif chain of any length is one level. Parse
errors carry line/column and a message phrased for feeding straight back to
the model in a repair prompt.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional, Union

KEYWORDS = {"def", "if", "elif", "else", "return", "pass", "and", "or", "not", "import"}
BANNED_KEYWORDS = {
    "while": "loops are not allowed",
    "for": "loops are not allowed",
    "lambda": "lambda expressions are not allowed",
    "global": "global statements are not allowed",
    "class": "class definitions are not allowed",
    "try": "exception handling is not allowed",
    "raise": "raise statements are not allowed",
    "with": "with statements are not allowed",
    "assert": "assert statements are not allowed",
    "del": "del statements are not allowed",
    "yield": "yield is not allowed",
}
RANDOM_BUILTINS = ("randint", "uniform")

# Each level costs the recursive-descent parser up to nine stack frames.
MAX_NESTING = 50

COMPARE_OPS = ("<=", ">=", "==", "!=", "<", ">")
_TOKEN_RE = re.compile(
    r"""
    (?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><=|>=|==|!=|\*\*|//|[-+*/<>=(),:.])
  | (?P<space>[ \t]+)
  | (?P<junk>.)
    """,
    re.VERBOSE,
)


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


@dataclass(frozen=True)
class Token:
    kind: str  # NAME, NUMBER, OP, NEWLINE, INDENT, DEDENT, EOF
    value: str
    line: int
    col: int


# --------------------------------------------------------------------------
# AST nodes. Positions are carried for error reporting but excluded from
# equality so that pretty-print round trips compare structurally equal.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: Union[int, float]
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Name:
    ident: str
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class UnaryOp:
    op: str  # '-', '+', 'not'
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # '+', '-', '*', '/'
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class BoolOp:
    op: str  # 'and', 'or'
    values: tuple["Expr", ...]


@dataclass(frozen=True)
class Compare:
    left: "Expr"
    ops: tuple[str, ...]
    comparators: tuple["Expr", ...]


@dataclass(frozen=True)
class RandomCall:
    kind: str  # 'randint' or 'uniform'
    lo: "Expr"
    hi: "Expr"


Expr = Union[Num, Name, UnaryOp, BinOp, BoolOp, Compare, RandomCall]


@dataclass(frozen=True)
class Return:
    value: Expr
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Pass:
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class If:
    test: Expr
    body: tuple["Stmt", ...]
    orelse: tuple["Stmt", ...]  # empty, an (elif -> nested If,), or else-body
    line: int = field(default=0, compare=False)


Stmt = Union[Return, Pass, If]


@dataclass(frozen=True)
class PolicyProgram:
    name: str
    params: tuple[str, ...]
    body: tuple[Stmt, ...]
    source_text: str = field(compare=False)
    uses_random_fallback: bool = field(default=False, compare=False)


# --------------------------------------------------------------------------
# Tokenizer
# --------------------------------------------------------------------------


def _strip_comment(line: str) -> str:
    # No string literals in the grammar, so '#' always opens a comment.
    idx = line.find("#")
    return line if idx < 0 else line[:idx]


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    indent_stack = [0]
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = _strip_comment(raw.replace("\t", "    ")).rstrip()
        if not line.strip():
            continue
        indent = len(line) - len(line.lstrip(" "))
        if indent > indent_stack[-1]:
            indent_stack.append(indent)
            tokens.append(Token("INDENT", "", lineno, 1))
        else:
            while indent < indent_stack[-1]:
                indent_stack.pop()
                tokens.append(Token("DEDENT", "", lineno, 1))
            if indent != indent_stack[-1]:
                raise PolicyParseError("inconsistent indentation", lineno, indent + 1)
        for match in _TOKEN_RE.finditer(line, indent):
            col = match.start() + 1
            if match.lastgroup == "space":
                continue
            if match.lastgroup == "junk":
                raise PolicyParseError(
                    f"unexpected character {match.group()!r}", lineno, col
                )
            if match.lastgroup == "number":
                tokens.append(Token("NUMBER", match.group(), lineno, col))
            elif match.lastgroup == "name":
                tokens.append(Token("NAME", match.group(), lineno, col))
            else:
                tokens.append(Token("OP", match.group(), lineno, col))
        tokens.append(Token("NEWLINE", "", lineno, len(line) + 1))
    last_line = tokens[-1].line if tokens else 1
    while indent_stack[-1] > 0:
        indent_stack.pop()
        tokens.append(Token("DEDENT", "", last_line, 1))
    tokens.append(Token("EOF", "", last_line, 1))
    return tokens


# --------------------------------------------------------------------------
# Recursive-descent parser
# --------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[Token], source: str):
        self.tokens = tokens
        self.source = source
        self.pos = 0
        self.saw_random = False
        self.depth = 0

    # helpers ---------------------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def check(self, kind: str, value: Optional[str] = None) -> bool:
        tok = self.current
        return tok.kind == kind and (value is None or tok.value == value)

    def accept(self, kind: str, value: Optional[str] = None) -> Optional[Token]:
        if self.check(kind, value):
            return self.advance()
        return None

    def expect(self, kind: str, value: Optional[str] = None, what: str = "") -> Token:
        if self.check(kind, value):
            return self.advance()
        tok = self.current
        want = what or (value if value is not None else kind.lower())
        got = tok.value or tok.kind.lower()
        raise PolicyParseError(f"expected {want!r} but found {got!r}", tok.line, tok.col)

    def descend(self) -> None:
        """Enter one more nesting level; callers step back out by decrementing
        ``depth`` (an error abandons the whole parse, so no cleanup is needed)."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            tok = self.current
            raise PolicyParseError(
                f"the function nests brackets, operators or blocks more than "
                f"{MAX_NESTING} levels deep; write it as a flatter if/elif chain",
                tok.line,
                tok.col,
            )

    def fail_banned(self, tok: Token) -> None:
        reason = BANNED_KEYWORDS.get(tok.value)
        if reason:
            raise PolicyParseError(
                f"'{tok.value}' is not allowed in a policy function: {reason}",
                tok.line,
                tok.col,
            )

    # grammar ---------------------------------------------------------------

    def parse_program(self) -> PolicyProgram:
        # Leading import lines (typically "import random") are ignored.
        while self.check("NAME", "import"):
            while not self.accept("NEWLINE"):
                if self.check("EOF"):
                    raise PolicyParseError(
                        "nothing after the import line; a function definition is required",
                        self.current.line,
                        self.current.col,
                    )
                self.advance()
        if not self.check("NAME", "def"):
            tok = self.current
            self.fail_banned(tok)
            raise PolicyParseError(
                "a policy must be a single function definition starting with 'def'",
                tok.line,
                tok.col,
            )
        self.advance()
        name_tok = self.expect("NAME", what="function name")
        if name_tok.value in KEYWORDS or name_tok.value in BANNED_KEYWORDS:
            raise PolicyParseError(
                f"{name_tok.value!r} cannot be used as a function name",
                name_tok.line,
                name_tok.col,
            )
        self.expect("OP", "(")
        params: list[str] = []
        if not self.check("OP", ")"):
            while True:
                p = self.expect("NAME", what="parameter name")
                params.append(p.value)
                if not self.accept("OP", ","):
                    break
        self.expect("OP", ")")
        self.expect("OP", ":")
        body = self.parse_suite()
        self.skip_newlines()
        if not self.check("EOF"):
            tok = self.current
            self.fail_banned(tok)
            raise PolicyParseError(
                f"unexpected content after the function body: {tok.value!r}",
                tok.line,
                tok.col,
            )
        return PolicyProgram(
            name=name_tok.value,
            params=tuple(params),
            body=body,
            source_text=self.source,
            uses_random_fallback=self.saw_random,
        )

    def skip_newlines(self) -> None:
        while self.accept("NEWLINE"):
            pass

    def parse_suite(self) -> tuple[Stmt, ...]:
        self.descend()
        if self.accept("NEWLINE"):
            self.expect("INDENT", what="an indented block")
            stmts: list[Stmt] = []
            while not self.check("DEDENT") and not self.check("EOF"):
                stmts.append(self.parse_statement())
            self.accept("DEDENT")
            if not stmts:
                raise PolicyParseError(
                    "empty block", self.current.line, self.current.col
                )
        else:
            # single statement on the header line: "def f(x): return 1"
            stmts = [self.parse_statement()]
        self.depth -= 1
        return tuple(stmts)

    def parse_statement(self) -> Stmt:
        tok = self.current
        if tok.kind == "NAME":
            self.fail_banned(tok)
            if tok.value == "return":
                return self.parse_return()
            if tok.value == "if":
                return self.parse_if()
            if tok.value == "pass":
                self.advance()
                self.expect("NEWLINE", what="end of line")
                return Pass(line=tok.line)
            if tok.value in ("elif", "else"):
                raise PolicyParseError(
                    f"'{tok.value}' without a matching 'if'", tok.line, tok.col
                )
            # Probable assignment or bare call.
            nxt = self.tokens[self.pos + 1] if self.pos + 1 < len(self.tokens) else tok
            if nxt.kind == "OP" and nxt.value == "=":
                raise PolicyParseError(
                    "assignments are not allowed in a policy function", tok.line, tok.col
                )
        raise PolicyParseError(
            "only if/elif/else chains and return statements are allowed here",
            tok.line,
            tok.col,
        )

    def parse_return(self) -> Return:
        tok = self.expect("NAME", "return")
        if self.check("NEWLINE") or self.check("EOF"):
            raise PolicyParseError(
                "'return' must return a value", tok.line, tok.col
            )
        value = self.parse_expr()
        self.expect("NEWLINE", what="end of line")
        return Return(value=value, line=tok.line)

    def parse_if(self) -> If:
        # Each elif becomes an If nested in the orelse of the one before; the
        # chain is read in a loop and built from its end, without recursion.
        branches = []
        tok = self.expect("NAME", "if")
        while True:
            test = self.parse_expr()
            self.expect("OP", ":")
            branches.append((tok, test, self.parse_suite()))
            if not self.check("NAME", "elif"):
                break
            tok = self.advance()
        orelse: tuple[Stmt, ...] = ()
        if self.accept("NAME", "else"):
            self.expect("OP", ":")
            orelse = self.parse_suite()
        for tok, test, body in reversed(branches):
            orelse = (If(test=test, body=body, orelse=orelse, line=tok.line),)
        return orelse[0]

    # expressions -------------------------------------------------------------

    def parse_expr(self) -> Expr:
        self.descend()
        node = self.parse_or()
        self.depth -= 1
        return node

    def parse_or(self) -> Expr:
        node = self.parse_and()
        values = [node]
        while self.accept("NAME", "or"):
            values.append(self.parse_and())
        if len(values) > 1:
            return BoolOp("or", tuple(values))
        return node

    def parse_and(self) -> Expr:
        node = self.parse_not()
        values = [node]
        while self.accept("NAME", "and"):
            values.append(self.parse_not())
        if len(values) > 1:
            return BoolOp("and", tuple(values))
        return node

    def parse_not(self) -> Expr:
        if self.accept("NAME", "not"):
            self.descend()
            node = UnaryOp("not", self.parse_not())
            self.depth -= 1
            return node
        return self.parse_comparison()

    def parse_comparison(self) -> Expr:
        left = self.parse_arith()
        ops: list[str] = []
        comparators: list[Expr] = []
        while self.current.kind == "OP" and self.current.value in COMPARE_OPS:
            ops.append(self.advance().value)
            comparators.append(self.parse_arith())
        if ops:
            return Compare(left=left, ops=tuple(ops), comparators=tuple(comparators))
        return left

    def parse_arith(self) -> Expr:
        # a chain of n operators is a left-leaning tree n levels deep
        depth = self.depth
        node = self.parse_term()
        while self.current.kind == "OP" and self.current.value in ("+", "-"):
            op = self.advance().value
            self.descend()
            node = BinOp(op, node, self.parse_term())
        self.depth = depth
        return node

    def parse_term(self) -> Expr:
        depth = self.depth
        node = self.parse_factor()
        while self.current.kind == "OP" and self.current.value in ("*", "/", "**", "//"):
            tok = self.current
            if tok.value in ("**", "//"):
                raise PolicyParseError(
                    f"operator {tok.value!r} is not allowed; use * and / only",
                    tok.line,
                    tok.col,
                )
            op = self.advance().value
            self.descend()
            node = BinOp(op, node, self.parse_factor())
        self.depth = depth
        return node

    def parse_factor(self) -> Expr:
        tok = self.current
        if tok.kind == "OP" and tok.value in ("-", "+"):
            self.advance()
            self.descend()
            node = UnaryOp(tok.value, self.parse_factor())
            self.depth -= 1
            return node
        return self.parse_atom()

    def parse_atom(self) -> Expr:
        tok = self.current
        if tok.kind == "NUMBER":
            self.advance()
            text = tok.value
            if "." in text or "e" in text or "E" in text:
                return Num(float(text), line=tok.line)
            return Num(int(text), line=tok.line)
        if tok.kind == "OP" and tok.value == "(":
            self.advance()
            node = self.parse_expr()
            self.expect("OP", ")")
            return node
        if tok.kind == "NAME":
            self.fail_banned(tok)
            if tok.value == "random":
                return self.parse_random_call()
            if tok.value in KEYWORDS:
                raise PolicyParseError(
                    f"unexpected keyword {tok.value!r} in expression", tok.line, tok.col
                )
            self.advance()
            nxt = self.current
            if nxt.kind == "OP" and nxt.value == "(":
                raise PolicyParseError(
                    f"call to {tok.value!r} is not allowed; only random.randint and "
                    "random.uniform may be called",
                    tok.line,
                    tok.col,
                )
            if nxt.kind == "OP" and nxt.value == ".":
                raise PolicyParseError(
                    f"attribute access on {tok.value!r} is not allowed",
                    nxt.line,
                    nxt.col,
                )
            return Name(tok.value, line=tok.line)
        raise PolicyParseError(
            f"expected a value but found {tok.value or tok.kind.lower()!r}",
            tok.line,
            tok.col,
        )

    def parse_random_call(self) -> RandomCall:
        tok = self.expect("NAME", "random")
        self.expect("OP", ".", what="'.' after random")
        fn = self.expect("NAME", what="randint or uniform")
        if fn.value not in RANDOM_BUILTINS:
            raise PolicyParseError(
                f"random.{fn.value} is not allowed; only random.randint and "
                "random.uniform may be called",
                fn.line,
                fn.col,
            )
        self.expect("OP", "(")
        lo = self.parse_expr()
        self.expect("OP", ",", what="',' between the two arguments")
        hi = self.parse_expr()
        self.expect("OP", ")")
        self.saw_random = True
        return RandomCall(fn.value, lo, hi)


def _names_used(stmts: tuple[Stmt, ...]) -> set[str]:
    """Every identifier the statements read, gathered without recursion."""
    used: set[str] = set()
    pending: list = list(stmts)
    while pending:
        node = pending.pop()
        if isinstance(node, Name):
            used.add(node.ident)
        elif isinstance(node, Return):
            pending.append(node.value)
        elif isinstance(node, If):
            pending += (node.test, *node.body, *node.orelse)
        elif isinstance(node, UnaryOp):
            pending.append(node.operand)
        elif isinstance(node, BinOp):
            pending += (node.left, node.right)
        elif isinstance(node, BoolOp):
            pending += node.values
        elif isinstance(node, Compare):
            pending += (node.left, *node.comparators)
        elif isinstance(node, RandomCall):
            pending += (node.lo, node.hi)
    return used


def parse(source: str, expected_params: Optional[tuple[str, ...]] = None) -> PolicyProgram:
    """Parse and validate policy source.

    When ``expected_params`` is given (the task's observation variable
    names), the function header must declare exactly those names in order.
    Raises :class:`PolicyParseError` on any violation.
    """
    program = _Parser(tokenize(source), source).parse_program()

    unknown = sorted(_names_used(program.body) - set(program.params))
    if unknown:
        raise PolicyParseError(
            f"unknown identifier(s) {', '.join(repr(u) for u in unknown)}; only the "
            f"function parameters {', '.join(program.params)} and numeric literals "
            "may be referenced"
        )
    if expected_params is not None and program.params != tuple(expected_params):
        raise PolicyParseError(
            "the function parameters must be exactly "
            f"({', '.join(expected_params)}) in this order, but the definition "
            f"declares ({', '.join(program.params)})"
        )
    return program


# --------------------------------------------------------------------------
# Pretty printer. Canonical 4-space indents; output re-parses to a
# structurally identical tree, so logged programs are always recoverable.
# --------------------------------------------------------------------------

_PRECEDENCE = {"or": 1, "and": 2, "not": 3, "cmp": 4, "+": 5, "-": 5, "*": 6, "/": 6}


def _fmt_expr(expr: Expr, parent_prec: int = 0) -> str:
    if isinstance(expr, Num):
        if isinstance(expr.value, float) and expr.value < 0:
            # Negative literals only arise from folding; keep them printable.
            return f"({expr.value!r})"
        return repr(expr.value)
    if isinstance(expr, Name):
        return expr.ident
    if isinstance(expr, RandomCall):
        return f"random.{expr.kind}({_fmt_expr(expr.lo)}, {_fmt_expr(expr.hi)})"
    if isinstance(expr, UnaryOp):
        prec = 7 if expr.op in ("-", "+") else _PRECEDENCE["not"]
        sep = "" if expr.op in ("-", "+") else " "
        text = f"{expr.op}{sep}{_fmt_expr(expr.operand, prec)}"
        return f"({text})" if prec < parent_prec else text
    if isinstance(expr, BinOp):
        prec = _PRECEDENCE[expr.op]
        text = f"{_fmt_expr(expr.left, prec)} {expr.op} {_fmt_expr(expr.right, prec + 1)}"
        return f"({text})" if prec < parent_prec else text
    if isinstance(expr, BoolOp):
        prec = _PRECEDENCE[expr.op]
        text = f" {expr.op} ".join(_fmt_expr(v, prec + 1) for v in expr.values)
        return f"({text})" if prec < parent_prec else text
    if isinstance(expr, Compare):
        prec = _PRECEDENCE["cmp"]
        parts = [_fmt_expr(expr.left, prec + 1)]
        for op, comp in zip(expr.ops, expr.comparators):
            parts.append(op)
            parts.append(_fmt_expr(comp, prec + 1))
        text = " ".join(parts)
        return f"({text})" if prec < parent_prec else text
    raise TypeError(f"unknown expression node: {expr!r}")


def _fmt_stmts(stmts: tuple[Stmt, ...], depth: int, lines: list[str]) -> None:
    pad = "    " * depth
    for stmt in stmts:
        if isinstance(stmt, Return):
            lines.append(f"{pad}return {_fmt_expr(stmt.value)}")
        elif isinstance(stmt, Pass):
            lines.append(f"{pad}pass")
        elif isinstance(stmt, If):
            lines.append(f"{pad}if {_fmt_expr(stmt.test)}:")
            _fmt_stmts(stmt.body, depth + 1, lines)
            orelse = stmt.orelse
            while len(orelse) == 1 and isinstance(orelse[0], If):
                nested = orelse[0]
                lines.append(f"{pad}elif {_fmt_expr(nested.test)}:")
                _fmt_stmts(nested.body, depth + 1, lines)
                orelse = nested.orelse
            if orelse:
                lines.append(f"{pad}else:")
                _fmt_stmts(orelse, depth + 1, lines)


def to_source(program: PolicyProgram) -> str:
    """Canonical re-rendering of a parsed program."""
    lines = [f"def {program.name}({', '.join(program.params)}):"]
    _fmt_stmts(program.body, 1, lines)
    return "\n".join(lines) + "\n"
