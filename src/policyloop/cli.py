"""Command-line entry points.

Subcommands: ``run`` (one replication, under an ablation with
--ablation), ``batch`` (the full matrix), ``replay`` (verify a stored
record) and ``metrics`` (aggregate stored records). Backends come from
--backend-url/--gateway-config (HTTP) or --script (a JSON list of canned
responses); POLICYLOOP_* environment variables override gateway settings.
A setting the command cannot use (a missing file, a bad value, an output
path that is one of the command's files) is a usage error: exit 2 before
anything runs, and no file is written. The commands check no bound
themselves: ``LoopConfig``, ``GatewayConfig``, ``plan_cells`` and
``compute_report`` refuse what they cannot use, and each refusal is turned
into the usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional

from .envs import ALL_TASKS, TaskId
from .gateway import GatewayConfig, HttpChatBackend, ScriptedBackend
from .loop import LoopConfig, RunRecord, cell_record_name, replay, run_replication
from .loop.batch import plan_cells, run_cell
from .loop.records import parse_constant, write_text
from .metrics import MetricsError, compute_report, render_table, reward_curve_csv
from .prompts import Ablation

TASK_NAMES = [t.value for t in ALL_TASKS]


class UsageError(Exception):
    """A setting the command cannot use; ``main`` prints it under the
    subcommand's usage line and exits with status 2."""


def _read_json(path: str, option: str, kind: type):
    """The JSON value of type ``kind`` in the file ``option`` names (an
    empty ``option`` for a positional argument)."""
    where = f"{option} {path}" if option else path
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, parse_constant=parse_constant)
    except (OSError, ValueError) as exc:
        raise UsageError(f"{where}: {exc}")
    if not isinstance(data, kind):
        raise UsageError(f"{where}: expected a JSON {'object' if kind is dict else 'list'}")
    return data


def _load_record(path: str) -> RunRecord:
    """The run record in the file ``path``; one it cannot hold is a usage error."""
    data = _read_json(path, "", dict)
    try:
        return RunRecord.from_dict(data)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"{path}: not a run record ({type(exc).__name__}: {exc})")


def _check_output(path: str, option: str, *others: Optional[str]) -> None:
    """Refuse, before any work, an output path that cannot take a file: an
    existing directory, a path under an existing file, or a path that
    resolves to one of ``others``, the other files the command names."""
    if Path(path).is_dir():
        raise UsageError(f"{option} {path}: is a directory")
    for other in others:
        if other and Path(other).resolve() == Path(path).resolve():
            raise UsageError(f"{option} {path}: names the same file as {other}")
    for parent in Path(path).parents:
        if parent.exists():
            if not parent.is_dir():
                raise UsageError(f"{option} {path}: {parent} is not a directory")
            return


def _add_backend_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--backend-url", help="chat-completions endpoint base URL")
    parser.add_argument("--gateway-config", help="JSON file with gateway settings")
    parser.add_argument(
        "--script", help="JSON file with a list of scripted responses (offline backend)"
    )


def _gateway_config(path: Optional[str], base_url: Optional[str]) -> GatewayConfig:
    """The settings from ``path`` and POLICYLOOP_*, with ``base_url`` (when
    given) in place of theirs; a bad setting is a usage error."""
    try:
        config = GatewayConfig.load(path)
        return replace(config, base_url=base_url) if base_url else config
    except (OSError, TypeError, ValueError) as exc:
        raise UsageError(f"gateway settings{f' in {path}' if path else ''}: {exc}")


def _script(responses, where: str) -> list:
    """``responses`` when it is a list of at least one response text; a
    usage error else."""
    if not isinstance(responses, list) or not all(isinstance(r, str) for r in responses):
        raise UsageError(f"{where}: expected a JSON list of strings")
    if not responses:
        raise UsageError(f"{where}: expected at least one response")
    return responses


def _make_backend(args: argparse.Namespace):
    if args.script:
        responses = _read_json(args.script, "--script", list)
        return ScriptedBackend(_script(responses, f"--script {args.script}"))
    return HttpChatBackend(_gateway_config(args.gateway_config, args.backend_url))


def _add_run_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--task", required=True, choices=TASK_NAMES)
    parser.add_argument("--config", help="JSON file with LoopConfig fields")
    parser.add_argument("--model")
    parser.add_argument("--temperature", type=float)
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--eval-episodes", type=int)
    parser.add_argument("--window-size", type=int)
    parser.add_argument("--seed-root", type=int)
    parser.add_argument("--replication", type=int, default=0)
    parser.add_argument("--ablation", choices=[a.value for a in Ablation])
    parser.add_argument("--out", help="path for the run record JSON")
    _add_backend_args(parser)


def _config_from_args(args: argparse.Namespace) -> LoopConfig:
    """Each setting from its flag when given, else from the --config file,
    else LoopConfig's default."""
    settings = _read_json(args.config, "--config", dict) if args.config else {}
    flags = {
        "model_name": args.model,
        "temperatures": None if args.temperature is None else (args.temperature,),
        "seed_root": args.seed_root,
        "epochs": args.epochs,
        "eval_episodes": args.eval_episodes,
        "window_size": args.window_size,
        "ablation": args.ablation,
    }
    settings.update((name, value) for name, value in flags.items() if value is not None)
    try:
        return LoopConfig.for_task(args.task, **settings)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"loop settings{f' in {args.config}' if args.config else ''}: {exc}")


def _cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    temperature = config.temperatures[0]  # --temperature, when given, is the only one
    out = args.out or cell_record_name(
        TaskId(args.task), config.model_name, temperature, args.replication
    )
    option = "--out" if args.out else "record"
    _check_output(out, option, args.config, args.script, args.gateway_config)
    record = run_replication(args.task, config, _make_backend(args), args.replication, temperature)
    record.save(out)
    rewards = ", ".join(f"{r:.2f}" for r in record.per_iteration_rewards)
    print(f"status={record.status.value} iterations={len(record.strategies)}")
    print(f"rewards=[{rewards}]")
    print(f"record written to {out}")
    return 0 if record.status.value == "completed" else 1


# Each key a batch file may hold, and the plan_cells argument it sets; a key
# left out takes plan_cells's default. "script" and "base_url" pick the backend.
_BATCH_KEYS = {
    "tasks": "tasks",
    "models": "model_names",
    "temperatures": "temperatures",
    "replications": "replications",
    "seed_root": "seed_root",
    "config": "config_overrides",
    "script": None,
    "base_url": None,
}


def _cmd_batch(args: argparse.Namespace) -> int:
    spec = _read_json(args.config, "--config", dict)
    where = f"batch settings in {args.config}"
    unknown = sorted(spec.keys() - _BATCH_KEYS.keys())
    if unknown:
        raise UsageError(f"{where}: unknown setting {', '.join(map(repr, unknown))}")
    settings = {arg: spec[key] for key, arg in _BATCH_KEYS.items() if arg and key in spec}
    settings.setdefault("tasks", ["CartPoleStar1"])
    script = spec.get("script")
    if "script" in spec:
        _script(script, f"{where}: script")
    gateway = None if script else _gateway_config(args.gateway_config, spec.get("base_url"))
    try:
        cells = plan_cells(out_dir=args.out_dir, **settings)
    except OSError as exc:
        raise UsageError(f"--out-dir {args.out_dir}: {exc}")
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"{where}: {exc}")
    for cell in cells:
        _check_output(str(cell.path), "record", args.config, args.gateway_config)
    records = [
        run_cell(cell, ScriptedBackend(list(script)) if script else HttpChatBackend(gateway))
        for cell in cells
    ]
    completed = sum(1 for r in records if r.status.value == "completed")
    print(f"{len(records)} records ({completed} completed) written to {args.out_dir}")
    return 0


_MISSING = object()


def _json_text(value) -> str:
    return "(missing)" if value is _MISSING else json.dumps(value, sort_keys=True)


def _first_difference(stored, replayed, path: str = ""):
    """(path, stored, replayed) at the first leaf where two record trees differ,
    walked in the order their canonical JSON writes them (sorted keys, list
    order), or None. Leaves compare by their JSON text, as replay does."""
    if isinstance(stored, dict) and isinstance(replayed, dict):
        for key in sorted(stored.keys() | replayed.keys()):
            found = _first_difference(
                stored.get(key, _MISSING),
                replayed.get(key, _MISSING),
                f"{path}.{key}" if path else key,
            )
            if found:
                return found
        return None
    if isinstance(stored, list) and isinstance(replayed, list):
        for i in range(max(len(stored), len(replayed))):
            found = _first_difference(
                stored[i] if i < len(stored) else _MISSING,
                replayed[i] if i < len(replayed) else _MISSING,
                f"{path}[{i}]",
            )
            if found:
                return found
        return None
    if _json_text(stored) != _json_text(replayed):
        return path, stored, replayed
    return None


def _short(value, limit: int = 80) -> str:
    text = _json_text(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."


def _cmd_replay(args: argparse.Namespace) -> int:
    record = _load_record(args.record)
    if args.out:
        _check_output(args.out, "--out", args.record)
    matches, rerun = replay(record)
    if args.out:
        rerun.save(args.out)
    if matches:
        print("replay matches original")
        return 0
    # canonical JSON that differs has a first differing leaf
    path, stored, replayed = _first_difference(
        record.to_dict(include_wall_clock=False), rerun.to_dict(include_wall_clock=False)
    )
    print(f"REPLAY MISMATCH at {path}: {_short(stored)} != {_short(replayed)}")
    return 1


def _cmd_metrics(args: argparse.Namespace) -> int:
    records = [_load_record(p) for p in args.records]
    if args.json:
        _check_output(args.json, "--json", *args.records)
    if args.csv:
        _check_output(args.csv, "--csv", *args.records, args.json)
    cells: dict[tuple, list[RunRecord]] = {}
    for record in records:
        cells.setdefault(
            (record.task_id, record.model_name, record.temperature), []
        ).append(record)

    try:
        reports = [
            compute_report(
                cell_records, n_eval=args.n_eval, include_robustness=not args.no_rerun
            )
            for cell_records in cells.values()
        ]
    except MetricsError as exc:
        raise UsageError(str(exc))
    # the files first, so that a closed stdout cannot stop them
    lines = [render_table(reports)]
    if args.json:
        write_text(args.json, json.dumps([r.to_dict() for r in reports], indent=2))
        lines.append(f"machine-readable report written to {args.json}")
    if args.csv:
        write_text(args.csv, reward_curve_csv(records))
        lines.append(f"reward curves written to {args.csv}")
    print("\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="policyloop",
        description="LLM-driven synthesis and refinement of control policies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a single replication")
    _add_run_args(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_batch = sub.add_parser("batch", help="run a {task x model x temperature} matrix")
    p_batch.add_argument("--config", required=True, help="JSON batch description")
    p_batch.add_argument("--out-dir", required=True)
    p_batch.add_argument("--gateway-config")
    p_batch.set_defaults(func=_cmd_batch)

    p_replay = sub.add_parser("replay", help="re-run a stored record and verify")
    p_replay.add_argument("record")
    p_replay.add_argument("--out", help="write the re-run record here")
    p_replay.set_defaults(func=_cmd_replay)

    p_metrics = sub.add_parser("metrics", help="aggregate stored run records")
    p_metrics.add_argument("records", nargs="+")
    p_metrics.add_argument("--n-eval", type=int, default=2000)
    p_metrics.add_argument(
        "--no-rerun", action="store_true", help="skip the robustness re-evaluation"
    )
    p_metrics.add_argument("--json", help="write the machine-readable report here")
    p_metrics.add_argument("--csv", help="write per-iteration reward curves here")
    p_metrics.set_defaults(func=_cmd_metrics)
    for subparser in sub.choices.values():
        subparser.set_defaults(parser=subparser)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        if sys.stdout:  # None when started without one
            sys.stdout.flush()  # so that a closed stdout raises here, not at exit
        return status
    except UsageError as exc:
        args.parser.print_usage(sys.stderr)
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    except BrokenPipeError:
        # the reader closed stdout (``policyloop run ... | head -1``); Python
        # flushes it again at exit, so from here on it writes to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
