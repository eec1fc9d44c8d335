"""Make the frozen record corpus that ``tests/test_record_corpus.py`` checks.

    PYTHONPATH=src python tests/fixtures/records/make_records.py          # rewrite
    PYTHONPATH=src python tests/fixtures/records/make_records.py --check  # compare

Every record comes from a scripted session: the CartPoleStar2 transcripts
in ``../transcripts``, or a task's ``random_default_text`` policy. Each is
saved with ``wall_clock`` 0.0, so a rerun writes the same bytes.
``reports.json`` holds ``compute_report(record, n_eval=50).to_dict()`` per
record file. ``--check`` regenerates into a temporary directory and exits 1
when any file differs from the committed one.

Regenerate the corpus only in a change that moves behaviour on purpose,
and say there which bytes moved and why.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from policyloop.envs import ALL_TASKS, TaskId, get_spec
from policyloop.gateway import ScriptedBackend
from policyloop.loop import LoopConfig, run_replication, runner
from policyloop.metrics import compute_report

HERE = Path(__file__).resolve().parent
TRANSCRIPTS = HERE.parent / "transcripts"
REPORTS = "reports.json"
N_EVAL = 50

BAD_CODE = "no code here"
NO_RULES = "I would keep the pole upright by reacting to its lean."


def _transcript(name: str) -> str:
    return (TRANSCRIPTS / name).read_text(encoding="utf-8").strip()


def _star2_session() -> list[str]:
    """Four iterations; the last one balances from every start."""
    names = []
    for i in range(3):
        names += [f"strategy_iter{i}.txt", f"rules_iter{i}.txt", f"code_iter{i}.py"]
    names += ["strategy_iter3.txt", "rules_iter3.txt", "code_optimal.py"]
    return [_transcript(n) for n in names]


def _random_session(task: str, epochs: int) -> list[str]:
    spec = get_spec(task)
    code = f"def get_action({', '.join(spec.obs_names)}):\n    {spec.random_default_text}"
    rules = "1. If any observation is given Then return a random action"
    return ["Act at random to see how the system responds.", rules, code] * epochs


def _star2(script: list[str], model: str = "scripted-model", temperature: float = 0.0, **config):
    settings = dict(epochs=5, seed_root=3, model_name=model, temperatures=(temperature,))
    settings.update(config)
    return run_replication(
        "CartPoleStar2", LoopConfig.for_task("CartPoleStar2", **settings), ScriptedBackend(script)
    )


def _aborted_error():
    """Iteration 1's evaluation raises, as a fault in the program would. The
    unpatched code cannot replay this record into the same bytes."""
    evaluate = runner.evaluate_program

    def fails_at_iteration_1(program, task_id, config, replication, iteration):
        if iteration == 1:
            raise RuntimeError("evaluation failed")
        return evaluate(program, task_id, config, replication, iteration)

    runner.evaluate_program = fails_at_iteration_1
    try:
        return _star2(_star2_session())
    finally:
        runner.evaluate_program = evaluate


def records() -> dict:
    """File name -> record, in a fixed order."""
    session = _star2_session()
    made = {
        "CartPoleStar2_completed.json": _star2(
            session, model="meta-llama/Llama-3.1-70B-Instruct"
        ),
        "CartPoleStar2_retest_at_max.json": _star2(
            session, temperature=0.7, epochs=6, stop_on_max=False
        ),
        "CartPoleStar2_ablation_OnlyBestStrategyData.json": _star2(
            session, ablation="OnlyBestStrategyData"
        ),
        "CartPoleStar2_code_repaired.json": _star2(
            session[:2] + [BAD_CODE, BAD_CODE] + session[2:]
        ),
        "CartPoleStar2_rules_reasked.json": _star2(
            session[:4] + [NO_RULES] + session[4:]
        ),
        "CartPoleStar2_aborted_repair_budget.json": _star2(
            session[:5] + [BAD_CODE] * 3, repair_budget=3
        ),
        "CartPoleStar2_aborted_backend.json": _star2(session[:11]),
        "CartPoleStar2_aborted_error.json": _aborted_error(),
    }
    others = [t.value for t in ALL_TASKS if t is not TaskId.CARTPOLE_STAR2]
    for seed_root, task in enumerate(others):
        config = LoopConfig.for_task(task, epochs=2, seed_root=seed_root, model_name="random-model")
        made[f"{task}_random.json"] = run_replication(
            task, config, ScriptedBackend(_random_session(task, 2))
        )
    return made


def write(out_dir: Path) -> None:
    reports = {}
    for name, record in records().items():
        record.wall_clock = 0.0
        record.save(out_dir / name)
        reports[name] = compute_report([record], n_eval=N_EVAL).to_dict()
    text = json.dumps(reports, indent=2, sort_keys=True, allow_nan=False) + "\n"
    (out_dir / REPORTS).write_text(text, encoding="utf-8")


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.glob("*.json"))}


def check() -> int:
    with tempfile.TemporaryDirectory() as temp:
        write(Path(temp))
        fresh = _files(Path(temp))
    committed = _files(HERE)
    differ = sorted(n for n in fresh.keys() | committed.keys() if fresh.get(n) != committed.get(n))
    for name in differ:
        print(f"differs from a fresh run: {name}")
    print(f"{len(fresh) - len(differ)} of {len(fresh)} corpus files match a fresh run")
    return 1 if differ else 0


def main(argv: list[str]) -> int:
    if argv == ["--check"]:
        return check()
    if argv:
        print(f"usage: {Path(__file__).name} [--check]", file=sys.stderr)
        return 2
    write(HERE)
    print(f"wrote {len(_files(HERE))} corpus files to {HERE}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
