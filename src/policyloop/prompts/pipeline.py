"""Rendering of the four pipeline prompts and extraction of the structured
artifacts (strategy text, rule text, policy code) from model responses.

Prompt texts live as plain .txt templates next to this module; every
``{slot}`` field must resolve or rendering fails, and the text filled in,
model text included, is used as it is. The reflection prompt is assembled
from named blocks so ablation switches can excise whole blocks without
leaving dangling headers, and so tests can diff conditions structurally.
It reads the loop's strategies (``loop.records.Strategy``) as they are
stored: each one's ``rules_text``, ``mean_reward`` and trial count, the
length of its ``per_episode_returns``, and the current one's ``window``.

A uniformly indented function in a code answer is dedented by ``_dedent``,
which keeps ``textwrap.dedent``'s semantics at a fraction of its cost.

``ask_until_parsed`` re-asks for rules and code alike; its caller, the loop's
runner, builds each attempt's request, sized by ``STAGE_MAX_TOKENS``.
"""

from __future__ import annotations

import os
import re
from dataclasses import FrozenInstanceError, dataclass
from enum import Enum
from functools import lru_cache
from importlib import resources
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from ..dsl.parser import PolicyParseError, PolicyProgram, parse
from ..envs.core import EnvSpec
from ..gateway import ChatRequest, MalformedResponseError

if TYPE_CHECKING:  # loop.records imports this module
    from ..loop.records import Strategy

_NUMBER_WORDS = {2: "two", 3: "three", 4: "four", 5: "five", 6: "six", 7: "seven"}


class Stage(str, Enum):
    P1_STRATEGY = "P1_strategy"
    P2_RULES = "P2_rules"
    P3_CODE = "P3_code"
    P4_REFLECT = "P4_reflect"


# Per-stage completion budgets, sized from typical transcript lengths.
STAGE_MAX_TOKENS = {
    Stage.P1_STRATEGY: 2048,
    Stage.P2_RULES: 1024,
    Stage.P3_CODE: 1024,
    Stage.P4_REFLECT: 4096,
}


class Ablation(str, Enum):
    BASELINE = "baseline"
    NO_DATA = "NoData"
    NO_SENSORY_MOTOR_DATA = "NoSensoryMotorData"
    NO_PREVIOUS_STRATEGY = "NoPreviousStrategy"
    NO_BEST_STRATEGY = "NoBestStrategy"
    ONLY_CURRENT_STRATEGY = "OnlyCurrentStrategy"
    ONLY_BEST_STRATEGY_DATA = "OnlyBestStrategyData"


class PromptError(ValueError):
    """Template or extraction failure."""


class NoRulesError(PromptError):
    pass


@dataclass(frozen=True, slots=True)
class SensoryMotorWindow:
    """The last observation/action lines of one evaluation episode."""

    lines: tuple[str, ...]
    source_episode: int
    episode_return: float
    # Set when that episode ended on an unusable action; holds the raw value
    # text the policy produced (usually "None").
    invalid_value_text: Optional[str] = None


def _frozen(window: SensoryMotorWindow, name: str, *value: object) -> None:
    raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")


# On Python 3.10 and 3.11 the __setattr__ and __delattr__ that dataclasses
# writes for a frozen class call super() with the class as it was before
# slots=True rebuilt it, a TypeError for an undeclared name: refuse them all.
SensoryMotorWindow.__setattr__ = SensoryMotorWindow.__delattr__ = _frozen


@lru_cache(maxsize=None)
def _template(name: str) -> str:
    path = resources.files(__package__) / "templates" / f"{name}.txt"
    return path.read_text(encoding="utf-8").rstrip("\n")


def _fill(template_name: str, **slots: object) -> str:
    try:
        return _template(template_name).format(**slots)
    except (KeyError, IndexError) as exc:
        raise PromptError(
            f"unresolved slot {exc} in template {template_name!r}"
        ) from None


def format_reward(value: float) -> str:
    """Two-decimal rendering with trailing zeros trimmed (500.00 -> 500); a
    value that rounds to zero is "0" whatever its sign."""
    text = f"{value:.2f}".rstrip("0").rstrip(".")
    return "0" if text == "-0" else text


def _trial_slots(strategy: Strategy, r_max: Optional[float]) -> dict:
    """The ``episodes`` and ``reward`` slots of a strategy's reward line:
    one trial per evaluation return."""
    reward = format_reward(strategy.mean_reward)
    if r_max is not None:
        reward += "/" + format_reward(r_max)
    return {"episodes": len(strategy.per_episode_returns), "reward": reward}


def render_task_description(spec: EnvSpec) -> str:
    slots = spec.description_slots
    return _fill(
        "task_description",
        agent=slots["Agent"],
        goal=slots["Goal and Reward"],
        observation=slots["Observation Vector"],
        action=slots["Action Vector"],
        termination=slots["Termination Conditions"],
    )


def render_p1(spec: EnvSpec) -> str:
    return _fill(
        "p1",
        task_description=render_task_description(spec),
        action_choice=spec.action_choice_text,
    )


def render_p2(spec: EnvSpec, strategy_text: str, reask: bool = False) -> str:
    text = _fill(
        "p2",
        task_description=render_task_description(spec),
        strategy=strategy_text,
        action_choice=spec.action_choice_text,
    )
    if reask:
        text = text + "\n\n" + _fill("p2_error")
    return text


def render_p3(spec: EnvSpec, rules_text: str, error: Optional[str] = None) -> str:
    signature = f"get_action({', '.join(spec.obs_names)})"
    text = _fill(
        "p3",
        task_description=render_task_description(spec),
        rules=rules_text,
        signature=signature,
        obs_count=_NUMBER_WORDS.get(spec.obs_dim, str(spec.obs_dim)),
        action_returns=spec.action_returns_text,
        random_default=spec.random_default_text,
    )
    if error is not None:
        text = text + "\n\n" + _fill("p3_error", error=error)
    return text


# The optional reflection-prompt blocks each ablation keeps (the description
# and instruction always stay). Without "window" the current strategy gets a
# reward line instead; the invalid-action feedback goes with "current".
_P4_KEPT_BLOCKS = {
    Ablation.BASELINE: ("reward_sequence", "current", "window", "previous", "best"),
    Ablation.NO_DATA: (),
    Ablation.NO_SENSORY_MOTOR_DATA: ("reward_sequence", "current", "previous", "best"),
    Ablation.NO_PREVIOUS_STRATEGY: ("reward_sequence", "current", "window", "best"),
    Ablation.NO_BEST_STRATEGY: ("reward_sequence", "current", "window", "previous"),
    Ablation.ONLY_CURRENT_STRATEGY: ("current", "window"),
    Ablation.ONLY_BEST_STRATEGY_DATA: ("best",),
}


def p4_blocks(
    spec: EnvSpec,
    current: Strategy,
    previous: Optional[Strategy],
    best: Optional[Strategy],
    ablation: Ablation = Ablation.BASELINE,
    history_rewards: Sequence[float] = (),
) -> list[tuple[str, str]]:
    """Ordered named blocks of the reflection prompt.

    ``current``, ``previous`` and ``best`` are strategies as the loop stores
    them; any object with ``rules_text``, ``mean_reward``,
    ``per_episode_returns`` and ``window`` will do. Each one shown gets its
    rules, its mean reward (over ``r_max`` where the task has one) and
    ``len(per_episode_returns)`` as its trial count. ``previous`` and
    ``best`` are supplied by the caller when they exist (from iteration 2
    on); the reward-sequence line appears once ``history_rewards`` has at
    least two entries. Only ``current``'s window is read, and it is shown
    whole: ``evaluate_program`` cut it to the configured size.
    ``_P4_KEPT_BLOCKS`` says which blocks each ablation keeps.
    """
    window = current.window
    kept = _P4_KEPT_BLOCKS[ablation]
    blocks = [("task_description", "The task description is: " + render_task_description(spec))]
    if "reward_sequence" in kept and len(history_rewards) >= 2:
        rewards = ", ".join(format_reward(r) for r in history_rewards)
        text = _fill("p4_reward_sequence", count=len(history_rewards), rewards=rewards)
        blocks.append(("reward_sequence", text))

    if "current" in kept:
        blocks.append(("current_strategy", _fill("p4_current", rules=current.rules_text)))
        trials = _trial_slots(current, spec.r_max)
        if "window" in kept:
            lines = "\n".join(window.lines)
            text = _fill("p4_window", window_len=len(window.lines), lines=lines, **trials)
            blocks.append(("current_window", text))
        else:
            blocks.append(("current_reward", _fill("p4_reward", **trials)))

    for name, strategy in (("previous", previous), ("best", best)):
        if name in kept and strategy is not None:
            slots = _trial_slots(strategy, spec.r_max)
            text = _fill(f"p4_{name}", rules=strategy.rules_text, **slots)
            blocks.append((f"{name}_strategy", text))

    blocks.append(("instruction", _fill("p4_instruction", improve_goal=spec.improve_goal_text)))
    if "current" in kept and window.invalid_value_text is not None:
        invalid = window.invalid_value_text
        text = _fill("p4_error", valid_actions=spec.action_invalid_text, value=invalid)
        blocks.append(("error_feedback", text))
    return blocks


def render_p4(
    spec: EnvSpec,
    current: Strategy,
    previous: Optional[Strategy] = None,
    best: Optional[Strategy] = None,
    history_rewards: Sequence[float] = (),
    ablation: Ablation = Ablation.BASELINE,
) -> str:
    """Full reflection prompt text: the blocks of ``p4_blocks``, which
    reads the three strategies as the loop stores them.

    ``history_rewards`` is every prior iteration's mean reward in order; the
    sequence line only appears once there are at least two of them.
    """
    blocks = p4_blocks(spec, current, previous, best, ablation, history_rewards)
    return "\n\n".join(text for _, text in blocks)


# --------------------------------------------------------------------------
# Response extraction
# --------------------------------------------------------------------------

# A block runs to the first ``` after its opening line, or to the end of the
# text. Its body is matched as runs of anything but a backtick, joined by
# backticks that do not start ```; that ends where a lazy (.*?) would, without
# trying the end of the block at every character.
_FENCE_RE = re.compile(r"```[ \t]*[A-Za-z0-9_+-]*[ \t]*\n([^`]*(?:`(?!``)[^`]*)*)(?:```|\Z)")


def strip_code_fences(text: str) -> str:
    """Contents of fenced blocks when present, otherwise the text unchanged."""
    if "```" not in text:
        return text
    blocks = _FENCE_RE.findall(text)
    if blocks:
        return "\n".join(b.strip("\n") for b in blocks)
    return text


def extract_strategy(response_text: str) -> str:
    """Prompt-1/4 responses are free text; store them verbatim (trimmed).
    A blank one raises the gateway's ``MalformedResponseError``, as
    ``HttpChatBackend`` does for blank content, so a scripted backend's
    blank answer ends a replication as the endpoint's does."""
    trimmed = response_text.strip()
    if not trimmed:
        raise MalformedResponseError("the model returned an empty strategy response")
    return trimmed


_BRANCH_RE = re.compile(r"\b(if|elif|else|when|otherwise)\b", re.IGNORECASE)
_CONSEQUENCE_RE = re.compile(
    r"\b(then|return|move|apply|action|torque|force|push|nothing)\b", re.IGNORECASE
)
_COMPARISON_RE = re.compile(r"[<>=]")
_NUMBERED_RE = re.compile(r"^\d+[.)]")


def _is_rule_like(line: str) -> bool:
    s = line.strip()
    if not s:
        return False
    # the cheap comparison test first; both are pure searches
    if _BRANCH_RE.search(s) and (_COMPARISON_RE.search(s) or _CONSEQUENCE_RE.search(s)):
        return True
    # Numbered equation-style rule, e.g. "1. torque = -0.5 * angular_velocity"
    return bool(_NUMBERED_RE.match(s) and _COMPARISON_RE.search(s))


def extract_rules(response_text: str) -> str:
    """The span from the first to the last rule-like line, verbatim.

    Pre/post-amble prose is trimmed away; anything between the outermost
    rules (including blank lines and wrapped continuations) is kept.
    """
    text = strip_code_fences(response_text)
    lines = text.splitlines()
    rule_idx = [i for i, line in enumerate(lines) if _is_rule_like(line)]
    if not rule_idx:
        raise NoRulesError("no IF-THEN style rules found in the response")
    return "\n".join(lines[rule_idx[0] : rule_idx[-1] + 1]).strip()


def _dedent(text: str) -> str:
    """``textwrap.dedent``: lines are split on "\\n" only; each line made
    only of spaces and tabs is emptied, then the longest common prefix of
    the other lines' leading space/tab runs is removed from them."""
    lines = [line if line.strip(" \t") else "" for line in text.split("\n")]
    # that prefix is the leading space/tab run of the lines' common prefix
    common = os.path.commonprefix([line for line in lines if line])
    cut = len(common) - len(common.lstrip(" \t"))
    if cut:
        lines = [line[cut:] for line in lines]
    return "\n".join(lines)


def isolate_function(text: str) -> str:
    """Cut a response down to its leading imports + one function definition.

    Prose after the function (e.g. a trailing explanation sentence) is
    dropped; everything indented under the ``def`` is kept.
    """
    lines = text.splitlines()
    start = None
    for i, line in enumerate(lines):
        s = line.strip()
        if s.startswith("def ") or s.startswith("import "):
            start = i
            break
    if start is None:
        return text
    collected: list[str] = []
    seen_def = False
    for line in lines[start:]:
        stripped = line.strip()
        if not stripped:
            collected.append(line)
            continue
        indent = len(line) - len(line.lstrip())
        if indent == 0 and not stripped.startswith("#"):
            if stripped.startswith("import ") and not seen_def:
                collected.append(line)
                continue
            if stripped.startswith("def ") and not seen_def:
                seen_def = True
                collected.append(line)
                continue
            break
        collected.append(line)
    return "\n".join(collected)


def extract_code(response_text: str, spec: EnvSpec) -> PolicyProgram:
    """Parse the policy function out of a Prompt-3 response.

    Raises :class:`PolicyParseError` (with the message meant for the repair
    prompt) when the response does not contain a valid program.
    """
    if not response_text.strip():
        raise PolicyParseError("the response was empty; a function definition is required")
    source = strip_code_fences(response_text)
    # some responses indent the whole function uniformly; normalize both
    # before isolating (so prose stripping sees the def) and after (so the
    # parser sees it at column zero)
    source = _dedent(isolate_function(_dedent(source)))
    return parse(source, expected_params=spec.obs_names)


# --------------------------------------------------------------------------
# Bounded re-ask loop
# --------------------------------------------------------------------------


class RepairBudgetExhausted(Exception):
    """The model gave no usable answer within the budget."""

    def __init__(self, attempts: int, errors: list[str]):
        self.attempts = attempts
        self.errors = errors
        super().__init__(
            f"no usable answer after {attempts} attempts; last error: {errors[-1]}"
        )


def ask_until_parsed(
    backend, budget: int, request_for: Callable[[int, Optional[str]], ChatRequest],
    parse_text: Callable[[str], object],
) -> tuple[object, int]:
    """Send ``request_for(attempt, last_error)`` and return ``(parse_text(answer),
    attempt)``, re-asking on ``NoRulesError`` or ``PolicyParseError`` for at most
    ``max(budget, 1)`` attempts, then raising :class:`RepairBudgetExhausted` with
    every attempt's error. Any other error propagates at once."""
    errors: list[str] = []
    for attempt in range(1, max(budget, 1) + 1):
        text = backend.complete(request_for(attempt, errors[-1] if errors else None)).text
        try:
            return parse_text(text), attempt
        except (NoRulesError, PolicyParseError) as exc:
            errors.append(str(exc))
    raise RepairBudgetExhausted(attempts=len(errors), errors=errors)

