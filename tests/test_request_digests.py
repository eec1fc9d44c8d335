"""Every request the record corpus replays, frozen byte for byte.

Replay compares a rerun's record with the stored one, not the prompts that
produced it: a byte moved in a prompt, a token limit or a request seed
changes no record as long as the scripted answers stay the same. This test
reruns each corpus record on its own transcript and hashes every request it
sends, so it pins every Prompt 1-4 byte that the corpus reaches.

A SHA-256 is taken over one line per request, ``json.dumps(request.to_wire(),
sort_keys=True)`` and a newline, in the order sent. Update a value here only
in a change that moves a prompt on purpose, and say there which bytes moved.
"""

import hashlib
import json

import pytest

from policyloop.gateway import ScriptedBackend
from policyloop.loop import RunRecord, run_replication

from conftest import FIXTURES

CORPUS = FIXTURES / "records"

# record -> (requests sent, SHA-256 of their wire lines). The aborted_error
# record's rerun does not match it (see tests/test_record_corpus.py); its
# requests are pinned all the same.
FROZEN = {
    "Acrobot_random.json": (6, "9eb5df1e4d2388aedd37fb6eccb1ba7f0907577ea3b12d57d6bf71ae70672a26"),
    "CartPoleStar1_random.json": (6, "16808bfa114f2cc9ef2a8121fe145cda2c311fd6c6764b9757ecd838ed0a3246"),
    "CartPoleStar2_ablation_OnlyBestStrategyData.json": (12, "d4e0816e35444467244172f27e666b0f8f2ffcbbbabacda86e943731fe1feeb4"),
    "CartPoleStar2_aborted_backend.json": (12, "0abb9b057324697cf681ae11b05d8955f2ad178dd4857c7800ba971ffabb3ba7"),
    "CartPoleStar2_aborted_error.json": (7, "2820641c28f68c2c50e96bb679df5a88f80626a76ace9335ded18354cef654e1"),
    "CartPoleStar2_aborted_repair_budget.json": (8, "39b0332b738fbc75bad2a20cc8b1aeee950945dbb73520a3acbdaa955dfb0578"),
    "CartPoleStar2_code_repaired.json": (14, "e5029660b4446f1c53d4605ba9532b1a06d1ad5b58c5688dfa2a483ddbcbb4f0"),
    "CartPoleStar2_completed.json": (12, "1ef7accf83c81ca9cbd93f1875646262d4c57db7fd6958687c2f5a78ba872b74"),
    "CartPoleStar2_retest_at_max.json": (12, "b236e13af3f8ad6ad27babd08174f5f13342c9c47d7a186a6fe187ad48e6a618"),
    "CartPoleStar2_rules_reasked.json": (13, "4632f6a7ce99b9f73a23a4602415016664f6d22b7fb86e139fa5cdfac6f4217a"),
    "CartPole_random.json": (6, "0b2ed0b692b1efeb323c6dffecbcfacd40674567e6eec46b36b2296826abcfb3"),
    "InvertedPendulum_random.json": (6, "6c2410238a4a5a386f7bbdde914122f975a709656fedf15dd738109b994198b3"),
    "MountainCarContinuous_random.json": (6, "c822a319cdeaff7631925826b749811b6c3e0d7ac09884e85d32bf3f5a59423d"),
    "MountainCarDiscrete_random.json": (6, "36abdce8964677e965f61aaf3f39bfbbf67f00e1b57a5fdb60449223ce2baf17"),
    "Pendulum_random.json": (6, "90025ee821c2be93a1da12d1236af676aa03c2b5f14071e43775a996dbe18bea"),
}


def test_every_corpus_record_is_frozen():
    names = {p.name for p in CORPUS.glob("*.json")} - {"reports.json"}
    assert sorted(FROZEN) == sorted(names)
    assert sum(count for count, _ in FROZEN.values()) == 132


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_the_replayed_requests_are_frozen(name):
    record = RunRecord.load(CORPUS / name)
    backend = ScriptedBackend(record.responses)
    run_replication(
        record.task_id,
        record.config,
        backend,
        record.replication_index,
        temperature=record.temperature,
    )
    digest = hashlib.sha256()
    for request in backend.requests:
        digest.update(json.dumps(request.to_wire(), sort_keys=True).encode("utf-8") + b"\n")
    assert (len(backend.requests), digest.hexdigest()) == FROZEN[name]
