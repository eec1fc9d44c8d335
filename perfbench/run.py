"""policyloop benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload refine-repair --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from ``src/`` there.
With ``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run. The lines above it repeat the metrics for people, and a
``detail`` line gives the tail percentile, sample counts, the output digest
and the environment. The exit code is 0 only when every output checked out;
a run whose outputs are wrong still prints its result line first.

Only this process is measured, with ``time.perf_counter`` and
``resource.getrusage``; nothing traces the rest of the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "measured": "this process only: time.perf_counter and resource.getrusage, no system-wide tracing",
    }


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import policyloop
    except ImportError as exc:
        print(f"perfbench: cannot import policyloop from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(policyloop.__file__).resolve().parent.parent != ROOT / "src":
        print(f"perfbench: policyloop was imported from {policyloop.__file__}", file=sys.stderr)
        return 2
    # The fake endpoint is on localhost; never route it through a proxy.
    os.environ["no_proxy"] = os.environ["NO_PROXY"] = "127.0.0.1,localhost"

    from perfbench import measure, workloads

    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        known = ", ".join(sorted(workloads.WORKLOADS))
        print(f"perfbench: unknown workload {args.workload!r}; one of {known}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    out_root = ROOT / ".perfbench_out"
    out_dir = out_root / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    run = measure.traced_run if args.trace else measure.untraced_run
    try:
        outcome = run(cls, args.seed, args.seconds, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if args.trace:
        outcome.tracer.dump(
            out_root / f"trace-{args.workload}-seed{args.seed}.json",
            {"metrics": outcome.values, "detail": outcome.detail},
        )

    detail = dict(outcome.detail, workload=args.workload, seed=args.seed)
    detail.update(seconds=args.seconds, trace=args.trace, environment=environment())
    print(f"# policyloop benchmark: {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, (value, unit) in outcome.values.items():
        print(f"{name:<34} {value:.6g} {unit}")
    if "replication_s_tail_percentile" in detail:
        pct, samples = detail["replication_s_tail_percentile"], detail["replication_samples"]
        print(f"# replication_s_tail is the p{pct} of {samples} samples")
    print(f"{'failed_share':<34} {detail['failed_share']:.6g} ratio")
    for problem in outcome.problems:
        print(f"FAILED: {problem}")
    print(json.dumps({"detail": detail}))
    result = {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in outcome.values.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
