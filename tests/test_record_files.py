"""Record files edited by hand or cut short: whatever a record file holds,
``replay`` and ``metrics --no-rerun`` exit 0, 1 (a replay mismatch) or 2 (a
usage error), and raise nothing. The edits are drawn from corpus records:
values of the wrong type, missing keys, ``NaN`` and ``Infinity``, 5,000-digit
and 401-digit integers and extra nesting. Derandomized, so every run draws the same
examples."""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from policyloop.cli import main

from conftest import FIXTURES

EDITS = settings(derandomize=True, database=None, deadline=None, max_examples=100)

# small records whose replays take a few ms: two finished runs and one aborted
RECORDS = ("CartPole_random.json", "Pendulum_random.json", "CartPoleStar2_aborted_repair_budget.json")

# json.dumps cannot write an int of 5,000 digits, so it goes in as text
HUGE = "<huge>"
# what json reads for a number but JSON does not have, or Python refuses,
# or a float cannot hold
CONSTANTS = [float("nan"), float("inf"), -float("inf"), HUGE, 10**400]
VALUES = [None, True, 0, -1, 2.5, "", "x", [], {}, [None], *CONSTANTS]


def _paths(node, path=()):
    """Every (key path, node) in a JSON tree, the root's included."""
    yield path, node
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


def _edit(data, path, how, value):
    """``data`` with the node at ``path`` replaced by ``value``, deleted,
    or wrapped in a list or an object; the root is only wrapped."""
    if not path:
        return [data] if how == "delete" else {"record": data}
    *outer, key = path
    parent = data
    for step in outer:
        parent = parent[step]
    if how == "replace":
        parent[key] = value
    elif how == "delete":
        del parent[key]
    elif how == "list":
        parent[key] = [parent[key]]
    else:
        parent[key] = {key if isinstance(key, str) else "item": parent[key]}
    return data


@st.composite
def edited_records(draw):
    """The text of a corpus record with one or two drawn edits; a
    "number" edit puts one of the ``CONSTANTS`` in place of a number."""
    data = json.loads((FIXTURES / "records" / draw(st.sampled_from(RECORDS))).read_text())
    for _ in range(draw(st.integers(1, 2))):
        how = draw(st.sampled_from(("number", "replace", "delete", "list", "object")))
        if how == "number":
            paths = [p for p, node in _paths(data) if type(node) in (int, float)]
            how, values = "replace", CONSTANTS
        else:
            paths, values = [p for p, _ in _paths(data)], VALUES
        data = _edit(data, draw(st.sampled_from(paths)), how, draw(st.sampled_from(values)))
    return json.dumps(data).replace(json.dumps(HUGE), "9" * 5000)


def _exit_status(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@EDITS
@given(text=edited_records())
def test_any_record_file_is_replayed_scored_or_refused(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("record") / "record.json"
    path.write_text(text, encoding="utf-8")
    assert _exit_status(["replay", str(path)]) in (0, 1, 2)
    assert _exit_status(["metrics", str(path), "--no-rerun"]) in (0, 2)
