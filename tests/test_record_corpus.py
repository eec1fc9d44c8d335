"""The frozen record corpus: records made by an earlier version of the code
must load, save, replay and report exactly as they were stored.

The records and ``reports.json`` in ``fixtures/records`` come from
``fixtures/records/make_records.py``. Replaying a record the same code has
just made cannot see a change that moves every record alike (seed
derivation, one byte of a prompt, the rounding of a mean); these files can.

The rule: regenerate a fixture only in a change that moves behaviour on
purpose, and name there which bytes moved and why. Never regenerate one to
make a failure here pass.
"""

import copy
import dataclasses
import json
import os
import pickle
import subprocess
import sys

import pytest

from policyloop.cli import main
from policyloop.envs import ALL_TASKS
from policyloop.loop import RunRecord, RunStatus, replay
from policyloop.metrics import compute_report

from conftest import FIXTURES

CORPUS = FIXTURES / "records"
SRC = FIXTURES.parent.parent / "src"
REPORTS = json.loads((CORPUS / "reports.json").read_text(encoding="utf-8"))
NAMES = sorted(p.name for p in CORPUS.glob("*.json") if p.name != "reports.json")

# Made with runner.evaluate_program patched to raise at iteration 1; the
# unpatched code replays its transcript into a completed run, so this
# record is checked by save and report only.
NOT_REPLAYED = {"CartPoleStar2_aborted_error.json"}


def _load(name):
    return RunRecord.load(CORPUS / name)


def test_corpus_covers_every_task_and_status():
    records = [_load(name) for name in NAMES]
    assert {r.task_id for r in records} == set(ALL_TASKS)
    assert {r.status for r in records} == set(RunStatus)
    assert any(r.config.ablation.value != "baseline" for r in records)
    assert any(s.repair_attempts > 1 for r in records for s in r.strategies)
    assert any(s.repair_attempts == 0 for r in records for s in r.strategies)  # a retest
    assert any("/" in r.model_name for r in records)
    assert sorted(REPORTS) == NAMES
    assert {_load(name).status for name in NOT_REPLAYED} == {RunStatus.ABORTED_ERROR}


@pytest.mark.parametrize("name", NAMES)
def test_load_then_save_gives_the_same_bytes(name, tmp_path):
    _load(name).save(tmp_path / name)
    assert (tmp_path / name).read_bytes() == (CORPUS / name).read_bytes()


@pytest.mark.parametrize("name", sorted(set(NAMES) - NOT_REPLAYED))
def test_replay_gives_the_stored_canonical_json(name):
    record = _load(name)
    matches, rerun = replay(record)
    assert matches
    assert rerun.canonical_json() == record.canonical_json()


@pytest.mark.parametrize("name", NAMES)
def test_report_equals_the_stored_one(name):
    report = compute_report([_load(name)], n_eval=50).to_dict()
    assert json.dumps(report, sort_keys=True) == json.dumps(REPORTS[name], sort_keys=True)


# -- the formats a saved record and a report keep ------------------------------------


def test_keys_an_older_record_lacks_take_their_defaults():
    data = json.loads((CORPUS / "CartPoleStar2_code_repaired.json").read_text(encoding="utf-8"))
    del data["wall_clock"]
    for strategy in data["strategies"]:
        del strategy["repair_attempts"]
        del strategy["window"]["invalid_value_text"]
    record = RunRecord.from_dict(data)
    assert record.wall_clock == 0.0
    assert record.error is None
    assert record.strategies
    for strategy in record.strategies:
        assert strategy.repair_attempts == 1
        assert strategy.window.invalid_value_text is None


def test_unknown_keys_are_ignored_on_load():
    name = "CartPoleStar2_code_repaired.json"
    data = json.loads((CORPUS / name).read_text(encoding="utf-8"))
    data["telemetry"] = {"calls": 3}
    data["config"]["bogus"] = 1
    for strategy in data["strategies"]:
        strategy["notes"] = "kept by a newer writer"
        strategy["window"]["extra"] = []
    assert RunRecord.from_dict(data).canonical_json() == _load(name).canonical_json()


def _record_tree(record):
    """The record, its config, a strategy and that strategy's window."""
    strategy = record.strategies[-1]
    return {
        "record": record,
        "config": record.config,
        "strategy": strategy,
        "window": strategy.window,
    }


@pytest.mark.parametrize("part", ["record", "config", "strategy", "window"])
def test_the_record_tree_is_slotted(part):
    value = _record_tree(_load("CartPoleStar2_code_repaired.json"))[part]
    assert "__slots__" in vars(type(value))
    assert not hasattr(value, "__dict__")
    with pytest.raises(AttributeError):
        value.undeclared = 1
    assert dataclasses.replace(value) == value
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


@pytest.mark.parametrize("name", ["lines", "invalid_value_text", "undeclared"])
def test_the_window_refuses_every_assignment_and_deletion(name):
    window = _load("CartPoleStar2_code_repaired.json").strategies[-1].window
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(window, name, None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(window, name)


def test_make_records_check_passes():
    """The corpus script regenerates every file and finds the same bytes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(CORPUS / "make_records.py"), "--check"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr


def test_metrics_json_keeps_its_bytes(tmp_path):
    """``reports.json`` is compared with sorted keys; this pins the key order
    and layout that ``policyloop metrics --json`` writes."""
    out = tmp_path / "report.json"
    main(["metrics", str(CORPUS / "CartPoleStar2_completed.json"), "--n-eval", "5",
          "--json", str(out)])
    assert out.read_text(encoding="utf-8") == METRICS_JSON


METRICS_JSON = """\
[
  {
    "task_id": "CartPoleStar2",
    "model_name": "meta-llama/Llama-3.1-70B-Instruct",
    "temperature": 0.0,
    "average_reward": 213.18,
    "success": 1.0,
    "robustness": 1.0,
    "learning_time": 0.8,
    "fom": 1.25,
    "improvement_ratio": 1.0,
    "successful_set": [
      0
    ],
    "n_reps": 1,
    "n_episodes": 5,
    "r_max": 500.0,
    "n_eval": 5
  }
]"""
