"""The package's answer extraction against the frozen copy in
``reference_extraction.py``: the same strings, or the same refusal, on every
answer in the record corpus, every answer the benchmark's scripted sessions
send, and fuzzed text made of the characters and words extraction looks at."""

import json
import random
import sys
import textwrap
from pathlib import Path

import pytest

from policyloop.dsl.parser import PolicyParseError
from policyloop.envs import TaskId, get_spec
from policyloop.prompts import NoRulesError, extract_code, extract_rules, pipeline, strip_code_fences

from conftest import FIXTURES
from reference_extraction import (
    extract_code_source_reference,
    extract_rules_reference,
    strip_code_fences_reference,
)

ROOT = str(Path(__file__).resolve().parent.parent)
if ROOT not in sys.path:
    sys.path.append(ROOT)

from perfbench import sessions

# perfbench.sessions writes no weak program for MountainCarDiscrete
SESSION_TASKS = [task for task in TaskId if task is not TaskId.MOUNTAIN_CAR_DISCRETE]
FUZZ_ATOMS = (
    " ", " ", "  ", "    ", "\t", "\n", "\n", "\n", "\r", "\x0c", "`", "```",
    "def ", "import ", "#", "if", "then", "<", "=", "0", "1", "7",
)


def _outcome(extract, text):
    try:
        return extract(text)
    except (NoRulesError, PolicyParseError) as exc:
        return (type(exc), str(exc))


@pytest.fixture
def code_source(monkeypatch):
    """extract_code, returning the text it hands to the parser."""
    monkeypatch.setattr(pipeline, "parse", lambda source, expected_params: source)
    spec = get_spec(TaskId.CARTPOLE)
    return lambda text: extract_code(text, spec)


def _assert_same_extraction(texts, code_source):
    for text in texts:
        assert strip_code_fences(text) == strip_code_fences_reference(text), text
        assert _outcome(extract_rules, text) == _outcome(extract_rules_reference, text), text
        assert _outcome(code_source, text) == _outcome(extract_code_source_reference, text), text


def _fuzz_texts(count):
    rng = random.Random(20)
    return ["".join(rng.choices(FUZZ_ATOMS, k=rng.randint(0, 40))) for _ in range(count)]


def test_corpus_answers_extract_as_before(code_source):
    texts = [
        text
        for path in sorted((FIXTURES / "records").glob("*.json"))
        if path.name != "reports.json"
        for text in json.loads(path.read_text(encoding="utf-8"))["responses"]
    ]
    assert len(texts) > 100
    _assert_same_extraction(texts, code_source)


@pytest.mark.parametrize("task", SESSION_TASKS, ids=lambda task: task.value)
def test_benchmark_session_answers_extract_as_before(task, code_source):
    spec = get_spec(task)
    for seed in range(50):
        rng = random.Random(seed)
        texts = sessions.session(spec, rng, sessions.spread_broken(4, 3, rng))
        _assert_same_extraction(texts, code_source)


def test_fuzzed_text_extracts_as_before(code_source):
    _assert_same_extraction(_fuzz_texts(20_000), code_source)


def test_dedent_is_textwrap_dedent():
    for text in _fuzz_texts(20_000):
        assert pipeline._dedent(text) == textwrap.dedent(text), text
