"""Answer extraction as it was written before it stopped calling
``textwrap.dedent``, kept unchanged so that ``tests/test_extraction_reference.py``
can compare the package's ``strip_code_fences``, ``extract_rules`` and
``extract_code`` against it, string for string.

``extract_code_source_reference`` stops at the text ``extract_code`` hands
to ``parse``; the parser itself is not part of the comparison.
"""

import re
import textwrap

from policyloop.dsl.parser import PolicyParseError
from policyloop.prompts import NoRulesError

_FENCE_RE = re.compile(r"```[ \t]*[A-Za-z0-9_+-]*[ \t]*\n(.*?)(?:```|\Z)", re.DOTALL)


def strip_code_fences_reference(text: str) -> str:
    """Contents of fenced blocks when present, otherwise the text unchanged."""
    blocks = _FENCE_RE.findall(text)
    if blocks:
        return "\n".join(b.strip("\n") for b in blocks)
    return text


_BRANCH_RE = re.compile(r"\b(if|elif|else|when|otherwise)\b", re.IGNORECASE)
_CONSEQUENCE_RE = re.compile(
    r"\b(then|return|move|apply|action|torque|force|push|nothing)\b", re.IGNORECASE
)
_NUMBERED_RE = re.compile(r"^\d+[.)]")


def _is_rule_like(line: str) -> bool:
    s = line.strip()
    if not s:
        return False
    if _BRANCH_RE.search(s) and (_CONSEQUENCE_RE.search(s) or re.search(r"[<>=]", s)):
        return True
    # Numbered equation-style rule, e.g. "1. torque = -0.5 * angular_velocity"
    return bool(_NUMBERED_RE.match(s) and re.search(r"[<>=]", s))


def extract_rules_reference(response_text: str) -> str:
    """The span from the first to the last rule-like line, verbatim.

    Pre/post-amble prose is trimmed away; anything between the outermost
    rules (including blank lines and wrapped continuations) is kept.
    """
    text = strip_code_fences_reference(response_text)
    lines = text.splitlines()
    rule_idx = [i for i, line in enumerate(lines) if _is_rule_like(line)]
    if not rule_idx:
        raise NoRulesError("no IF-THEN style rules found in the response")
    return "\n".join(lines[rule_idx[0] : rule_idx[-1] + 1]).strip()


def isolate_function_reference(text: str) -> str:
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


def extract_code_source_reference(response_text: str) -> str:
    """The text ``extract_code`` passed to ``parse`` for this response."""
    if not response_text.strip():
        raise PolicyParseError("the response was empty; a function definition is required")
    source = strip_code_fences_reference(response_text)
    # some responses indent the whole function uniformly; normalize both
    # before isolating (so prose stripping sees the def) and after (so the
    # parser sees it at column zero)
    return textwrap.dedent(isolate_function_reference(textwrap.dedent(source)))
