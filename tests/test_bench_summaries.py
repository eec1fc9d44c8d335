"""Every committed ``BENCH_*.json`` summary recomputes from its ``runs``.

``tools/pairs.py`` writes these files; its ``summarize`` is the one
definition of each field. A stored summary field that differs from the
recomputed one is a hand edit or a summary of other runs.

Two things are not recomputed bit for bit:

- ``median_change_pct`` and ``parent_iqr_pct`` are compared to 1e-12
  relative: files before ``BENCH_30.json`` formed them as
  ``(c - p) / p * 100``, ``100 * (c - p) / p`` or ``(c / p - 1) * 100``,
  which differ in the last bits.
- Older files hold fields that ``summarize`` no longer writes; they are
  checked against their own definitions in ``LEGACY``.
"""

import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

from pairs import summarize  # noqa: E402

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
FILES = sorted(ROOT.glob("BENCH_*.json"), key=lambda path: int(path.stem.split("_")[1]))
PERCENTS = {"median_change_pct", "parent_iqr_pct"}

# BENCH_11-16: the workload's seeds; BENCH_12-15: the gap between the medians
LEGACY = {
    "seeds": lambda runs, workload: sorted({r["seed"] for r in runs if r["workload"] == workload}),
}
LEGACY_METRIC = {
    "median_gap": lambda fields: abs(fields["change"]["median"] - fields["parent"]["median"]),
}


def _runs(data):
    runs = data["runs"]
    # BENCH_20.json also holds the runs of an earlier change commit
    if any("commit_change" in run for run in runs):
        runs = [run for run in runs if run["commit_change"] == data["commits"]["change"]]
    return runs


@pytest.mark.parametrize("path", FILES, ids=[path.name for path in FILES])
def test_the_summary_recomputes_from_the_runs(path):
    data = json.loads(path.read_text(encoding="utf-8"))
    runs = _runs(data)
    recomputed = summarize(runs, END_TO_END)
    if "tool" in data:  # written by tools/pairs.py: equal as it stands
        assert data["summary"] == recomputed
    assert sorted(recomputed) == sorted(data["summary"])
    for workload, stored in data["summary"].items():
        ours = recomputed[workload]
        for key, value in stored.items():
            if key == "metrics":
                continue
            expected = LEGACY[key](runs, workload) if key in LEGACY else ours[key]
            assert value == expected, (workload, key)
        assert sorted(stored["metrics"]) == sorted(ours["metrics"]), workload
        for name, fields in stored["metrics"].items():
            mine = ours["metrics"][name]
            for key, value in fields.items():
                where = (workload, name, key)
                if key in LEGACY_METRIC:
                    assert value == LEGACY_METRIC[key](fields), where
                elif key in PERCENTS:
                    assert math.isclose(value, mine[key], rel_tol=1e-12, abs_tol=1e-12), where
                else:
                    assert value == mine[key], where


def test_a_run_that_printed_no_result_counts_as_failed():
    def run(seed, side, value, exit=0):
        result = {"failed": 0, "metrics": {"wall_s": {"value": value}}} if exit == 0 else None
        detail = {"detail": {"digest": "d"}} if exit == 0 else None
        return {"workload": "w", "seed": seed, "side": side, "exit": exit, "detail": detail, "result": result}

    metric = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.2}
    runs = [run(1, "parent", 2.0), run(1, "change", 1.0), run(2, "parent", 4.0), run(2, "change", 3.0)]
    runs += [run(3, "parent", 6.0), run(3, "change", None, exit=1)]
    summary = summarize(runs, [metric])["w"]
    assert (summary["failed"], summary["digests_equal"], summary["pairs"]) == (1, False, 3)
    assert summary["metrics"]["wall_s"]["change_better_pairs"] == "2/3"
    assert summary["metrics"]["wall_s"]["change"]["n"] == 2
