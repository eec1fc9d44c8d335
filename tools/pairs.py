"""Alternating parent/change pairs of perfbench runs, and their summary.

    python tools/pairs.py --parent REV --change REV --workload W --seeds A-B \\
        --seconds S --out FILE

Each revision is exported with ``git archive`` into a temporary directory,
whose ``.git/HEAD`` is then written with the revision's SHA, so a run's
``environment.commit`` names it. For each seed, every workload runs
``perfbench/run.py --trace 0`` once from each archive, one run at a time;
the parent goes first at the first seed, the change at the next, and so on.
``--workload`` may be given more than once.

``FILE`` gets the ``runs`` and their ``summary`` in the format of the
committed ``BENCH_*.json`` files: per workload, whether every pair's output
digests are equal, the failures and the number of pairs, and per end-to-end
metric of ``BENCHMARK.json``:

- each side's min, quartiles (``statistics.quantiles(n=4, method="inclusive")``),
  max and count;
- ``change_better_pairs``, the pairs of one seed where the change is better,
  ties counting for neither side;
- ``median_change_pct``, the change median against the parent median;
- ``parent_iqr`` and ``parent_iqr_pct``, the parent IQR over its median;
- ``bound_pct``, the metric's bound, and ``within_bound``, whether the
  change median is no worse than that;
- ``resolved``: ``parent_iqr_pct`` is within the bound, or every change run
  beats every parent run.

The exit status is 1 when a run failed or a pair's digests differ.
Standard library only; run it from a git checkout.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
METHOD = (
    "parent and change each run from a git archive of its commit whose .git/HEAD names that"
    " commit, one run at a time; pairs share a seed and alternate which side runs first"
    " (ran=1 is first); quartiles are statistics.quantiles(n=4, method='inclusive') over the"
    " runs of one side; parent_iqr_pct is the parent IQR over the parent median, and a metric"
    " is resolved when that is within its bound or every change run beats every parent run;"
    " failed counts runs that exited non-zero or printed no result, plus the operations each"
    " run reports as failed"
)


def _git(*args: str) -> bytes:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE
    ).stdout


def export(rev: str, dest: Path) -> str:
    """Unpack ``git archive`` of ``rev`` into ``dest``, write its SHA to
    ``dest/.git/HEAD`` and return the SHA."""
    sha = _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", sha))) as tar:
        # the "data" filter exists from 3.10.12, 3.11.4 and 3.12 on
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    (dest / ".git").mkdir()
    (dest / ".git" / "HEAD").write_text(sha + "\n")
    return sha


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` from ``root``: its exit status, its
    ``detail`` line and its result line (``None`` when it printed none)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    detail = result = None
    for line in done.stdout.splitlines():
        if line.startswith("{"):
            data = json.loads(line)
            if "detail" in data:
                detail = data
            elif "metrics" in data:
                result = data
    return {"exit": done.returncode, "detail": detail, "result": result}


def _quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"min": min(values), "q1": q1, "median": median, "q3": q3, "max": max(values), "n": len(values)}


def _digest(run: dict):
    # older files hold run.py's detail object itself, newer ones its whole line
    detail = run.get("detail") or {}
    return detail.get("detail", detail).get("digest")


def _value(run: dict, name: str):
    try:
        return run["result"]["metrics"][name]["value"]
    except (KeyError, TypeError):
        return None


def summarize(runs: list, end_to_end: list) -> dict:
    """The summary of ``runs`` per workload, in the order they first appear,
    for the end-to-end metrics ``end_to_end`` (``BENCHMARK.json``'s list)."""
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        mine = [run for run in runs if run["workload"] == workload]
        pairs: dict = {}
        for run in mine:
            pairs.setdefault(run["seed"], {})[run["side"]] = run
        failed = sum(
            (run["exit"] != 0 or not run.get("result")) + ((run.get("result") or {}).get("failed") or 0)
            for run in mine
        )
        metrics = {}
        for metric in end_to_end:
            name, lower = metric["name"], metric["better"] == "lower"

            def beats(change, parent):
                return change < parent if lower else change > parent

            # seed -> value, per side; a run that printed no result has none
            values = {"parent": {}, "change": {}}
            for run in mine:
                value = _value(run, name)
                if value is not None:
                    values[run["side"]][run["seed"]] = value
            ours, theirs = values["change"], values["parent"]
            if len(ours) < 2 or len(theirs) < 2:
                continue
            parent, change = _quartiles(list(theirs.values())), _quartiles(list(ours.values()))
            better = sum(beats(ours[seed], theirs[seed]) for seed in ours.keys() & theirs.keys())
            change_pct = (change["median"] - parent["median"]) / parent["median"] * 100
            iqr = parent["q3"] - parent["q1"]
            iqr_pct = iqr / parent["median"] * 100
            bound_pct = metric["bound"] * 100
            metrics[name] = {
                "unit": metric["unit"],
                "parent": parent,
                "change": change,
                "change_better_pairs": f"{better}/{len(pairs)}",
                "median_change_pct": change_pct,
                "parent_iqr": iqr,
                "parent_iqr_pct": iqr_pct,
                "bound_pct": bound_pct,
                "within_bound": change_pct <= bound_pct if lower else change_pct >= -bound_pct,
                "resolved": iqr_pct <= bound_pct
                or all(beats(c, p) for c in ours.values() for p in theirs.values()),
            }
        summary[workload] = {
            "digests_equal": all(
                len(pair) == 2
                and _digest(pair["parent"]) is not None
                and _digest(pair["parent"]) == _digest(pair["change"])
                for pair in pairs.values()
            ),
            "failed": failed,
            "pairs": len(pairs),
            "metrics": metrics,
        }
    return summary


def _seeds(text: str) -> list:
    low, _, high = text.partition("-")
    seeds = list(range(int(low), int(high or low) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"no seed in {text!r}")
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--change", required=True, help="git revision of the change side")
    parser.add_argument("--workload", required=True, action="append", help="may be repeated")
    parser.add_argument("--seeds", required=True, type=_seeds, help="A-B, inclusive")
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    runs = []
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        roots, commits = {}, {}
        for side in ("parent", "change"):
            roots[side] = Path(tmp) / side
            commits[side] = export(getattr(args, side), roots[side])
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for workload in args.workload:
                for ran, side in enumerate(order, 1):
                    run = run_once(roots[side], workload, seed, args.seconds)
                    runs.append(
                        {"workload": workload, "seed": seed, "side": side, "ran": ran, **run,
                         "commit": commits[side]}
                    )
                    print(
                        f"{workload} seed {seed} {side}: exit {run['exit']}, digest {_digest(run)}",
                        file=sys.stderr, flush=True,
                    )

    summary = summarize(runs, benchmark["end_to_end"])
    environment = next(
        (r["detail"]["detail"]["environment"] for r in runs if r["detail"]), {}
    )
    seeds = f"{args.seeds[0]}-{args.seeds[-1]}"
    data = {
        "command": f"python3 perfbench/run.py --workload <workload> --seed <seed> --seconds {args.seconds:g} --trace 0",
        "tool": (
            f"python tools/pairs.py --parent {args.parent} --change {args.change} "
            + " ".join(f"--workload {w}" for w in args.workload)
            + f" --seeds {seeds} --seconds {args.seconds:g}"
        ),
        "method": METHOD,
        "machine": {k: environment[k] for k in ("nproc", "cpus_usable", "python", "numpy") if k in environment},
        "commits": commits,
        "claim": None,
        "summary": summary,
        "runs": runs,
    }
    args.out.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    bad = [w for w, s in summary.items() if s["failed"] or not s["digests_equal"]]
    for workload in bad:
        print(f"{workload}: a run failed or a pair's digests differ", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
