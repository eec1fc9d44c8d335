"""Evaluation of parsed rule policies against an observation.

Pure with respect to the environment: the only effects are draws from the
caller-supplied rng when a program uses its random builtins. Rule
comparisons are exact real comparisons (generated rules use integer-ish
thresholds; an epsilon would silently change their meaning).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

import numpy as np

from ..envs.core import ContinuousAction, DiscreteActions, EnvSpec
from .parser import (
    BinOp,
    BoolOp,
    Compare,
    Expr,
    If,
    Name,
    Num,
    Pass,
    PolicyProgram,
    RandomCall,
    Return,
    Stmt,
    UnaryOp,
)


class InvalidReason(str, Enum):
    NO_RULE_FIRED = "no_rule_fired"
    OUT_OF_RANGE = "out_of_range"
    RUNTIME_ERROR = "runtime_error"


@dataclass(frozen=True)
class PolicyOutcome:
    """Result of mapping one observation through a policy."""

    action: Optional[Union[int, float]]
    reason: Optional[InvalidReason] = None
    # Text of the raw value the program produced ("None" when control fell
    # off the end); this is what trace lines and repair feedback show.
    value_text: str = ""
    detail: str = ""
    used_random: bool = False

    @property
    def is_valid(self) -> bool:
        return self.reason is None


class _RuntimeFailure(Exception):
    def __init__(self, detail: str):
        self.detail = detail
        super().__init__(detail)


class _Evaluator:
    def __init__(self, bindings: dict[str, Union[int, float]], rng: random.Random):
        self.bindings = bindings
        self.rng = rng
        self.used_random = False

    def run(self, stmts: tuple[Stmt, ...]):
        """Execute a block; returns (fired, value)."""
        for stmt in stmts:
            if isinstance(stmt, Return):
                return True, self.expr(stmt.value)
            if isinstance(stmt, Pass):
                continue
            if isinstance(stmt, If):
                # follow an elif chain in a loop: its length costs no stack
                branch = stmt
                while not self.truthy(self.expr(branch.test)):
                    block = branch.orelse
                    if len(block) != 1 or not isinstance(block[0], If):
                        break
                    branch = block[0]
                else:
                    block = branch.body
                fired, value = self.run(block)
                if fired:
                    return True, value
        return False, None

    @staticmethod
    def truthy(value) -> bool:
        return bool(value)

    def expr(self, node: Expr):
        if isinstance(node, Num):
            return node.value
        if isinstance(node, Name):
            return self.bindings[node.ident]
        if isinstance(node, UnaryOp):
            if node.op == "not":
                return not self.truthy(self.expr(node.operand))
            value = self.expr(node.operand)
            return -value if node.op == "-" else +value
        if isinstance(node, BinOp):
            left = self.expr(node.left)
            right = self.expr(node.right)
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            if node.op == "*":
                return left * right
            try:
                return left / right
            except ZeroDivisionError:
                raise _RuntimeFailure("division by zero") from None
        if isinstance(node, BoolOp):
            if node.op == "and":
                value = True
                for sub in node.values:
                    value = self.expr(sub)
                    if not self.truthy(value):
                        return value
                return value
            value = False
            for sub in node.values:
                value = self.expr(sub)
                if self.truthy(value):
                    return value
            return value
        if isinstance(node, Compare):
            left = self.expr(node.left)
            for op, comp_node in zip(node.ops, node.comparators):
                right = self.expr(comp_node)
                if not _compare(op, left, right):
                    return False
                left = right
            return True
        if isinstance(node, RandomCall):
            self.used_random = True
            lo = self.expr(node.lo)
            hi = self.expr(node.hi)
            if node.kind == "randint":
                if lo != int(lo) or hi != int(hi):
                    raise _RuntimeFailure(
                        f"random.randint requires integer bounds, got ({lo}, {hi})"
                    )
                if int(lo) > int(hi):
                    raise _RuntimeFailure(
                        f"random.randint range is empty: ({int(lo)}, {int(hi)})"
                    )
                return self.rng.randint(int(lo), int(hi))
            return self.rng.uniform(float(lo), float(hi))
        raise TypeError(f"unknown expression node: {node!r}")


def _compare(op: str, left, right) -> bool:
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    if op == "==":
        return left == right
    return left != right


def _render_value(value) -> str:
    if value is None:
        return "None"
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):g}"


def _bind(program: PolicyProgram, obs: np.ndarray) -> dict[str, Union[int, float]]:
    arr = np.asarray(obs)
    if arr.shape != (len(program.params),):
        raise ValueError(
            f"observation has {arr.shape} values but the policy takes "
            f"{len(program.params)} parameters"
        )
    values = [v.item() for v in arr]
    return dict(zip(program.params, values))


def evaluate(program: PolicyProgram, obs: np.ndarray, rng: random.Random, spec: EnvSpec) -> PolicyOutcome:
    """Map an observation to an action (or a typed invalid outcome)."""
    walker = _Evaluator(_bind(program, obs), rng)
    try:
        fired, value = walker.run(program.body)
    except _RuntimeFailure as exc:
        return PolicyOutcome(
            action=None,
            reason=InvalidReason.RUNTIME_ERROR,
            value_text="None",
            detail=exc.detail,
            used_random=walker.used_random,
        )

    if not fired:
        return PolicyOutcome(
            action=None,
            reason=InvalidReason.NO_RULE_FIRED,
            value_text="None",
            detail="no rule fired for this observation",
            used_random=walker.used_random,
        )

    value_text = _render_value(value)
    action_space = spec.action
    if isinstance(action_space, DiscreteActions):
        if isinstance(value, bool) or not action_space.contains(value):
            return PolicyOutcome(
                action=None,
                reason=InvalidReason.OUT_OF_RANGE,
                value_text=value_text,
                detail=f"value {value_text} is not one of {list(action_space.labels)}",
                used_random=walker.used_random,
            )
        return PolicyOutcome(
            action=int(value), value_text=value_text, used_random=walker.used_random
        )
    assert isinstance(action_space, ContinuousAction)
    number = float(value)
    if not math.isfinite(number):
        # clamping would pass NaN on, and the dynamics never terminate on it
        return PolicyOutcome(
            action=None,
            reason=InvalidReason.OUT_OF_RANGE,
            value_text=value_text,
            detail=f"value {value_text} is not a finite number",
            used_random=walker.used_random,
        )
    return PolicyOutcome(
        action=action_space.clamp(number),
        value_text=value_text,
        used_random=walker.used_random,
    )
