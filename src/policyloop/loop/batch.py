"""Cross-product batch runner: {task} x {model} x {temperature} x replication.

Each cell runs independently; a record is persisted as soon as its
replication finishes, so a crashed batch keeps everything completed so far.
An unexpected error ends only its own cell, as an ``aborted_error`` record.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable, Iterable, Optional, Union

from ..envs.core import TaskId, parse_task_id
from ..gateway import require_type
from .config import LoopConfig
from .records import RunRecord, cell_record_name
from .runner import run_replication

BackendFactory = Callable[[TaskId, str, float, int], object]


def _record_path(out_dir: Path, name: str) -> Path:
    path = out_dir / name
    if Path(os.path.abspath(path)).parent != Path(os.path.abspath(out_dir)):
        raise ValueError(f"record name {path.name!r} would be saved outside {out_dir}")
    return path


def _record_paths(out_dir: Path, cells: list[tuple]) -> list[Path]:
    """Every cell's record path, refusing two cells that would share one
    (model ids that differ only in a path separator, a repeated model or
    temperature): the later record would silently replace the earlier; and
    refusing a path that is a directory, which no record can be saved to."""
    owners: dict[Path, str] = {}
    for task, _, model, temperature, rep in cells:
        path = _record_path(out_dir, cell_record_name(task, model, temperature, rep))
        cell = f"({task.value}, {model!r}, temperature {temperature}, replication {rep})"
        if path in owners:
            raise ValueError(f"cells {owners[path]} and {cell} would both write {path.name!r}")
        if path.is_dir():
            raise ValueError(f"cell {cell} would write {path}, which is a directory")
        owners[path] = cell
    return list(owners)


def run_batch(
    tasks: Iterable[Union[str, TaskId]],
    backend_factory: BackendFactory,
    replications: int = 10,
    model_names: Iterable[str] = ("local-model",),
    temperatures: Optional[Iterable[float]] = None,
    out_dir: Optional[Union[str, Path]] = None,
    seed_root: int = 0,
    config_overrides: Optional[dict] = None,
) -> list[RunRecord]:
    """Run the full experimental matrix and return every record.

    ``backend_factory(task, model, temperature, replication)`` supplies a
    backend per cell, which keeps replications independent (fresh scripted
    queues in tests, plain HTTP clients otherwise). ``temperatures`` falls
    back to ``LoopConfig``'s default when omitted. Every record path is known,
    and checked, and ``out_dir`` made, before the first cell runs, so an
    ``out_dir`` that cannot be a directory raises ``OSError`` before any
    backend is made. ``config_overrides`` may not set ``seed_root``,
    ``model_name`` or ``temperatures``: the arguments of those names do.
    A batch of no cells (no task, no model, fewer than one replication) is
    refused, as a wrong-typed ``replications`` is.
    """
    overrides = dict(config_overrides or {})
    taken = sorted(overrides.keys() & {"seed_root", "model_name", "temperatures"})
    if taken:
        raise ValueError(
            f"config_overrides may not set {' or '.join(taken)}; "
            "run_batch takes them from its seed_root, model_names and temperatures"
        )
    require_type("an int", replications=replications)
    if replications < 1:
        raise ValueError(f"replications must be at least 1, got {replications}")
    tasks = [parse_task_id(task) for task in tasks]
    model_names = tuple(model_names)  # read once, for every task
    if not tasks:
        raise ValueError("tasks must name at least one task")
    if not model_names:
        raise ValueError("model_names must name at least one model")
    if temperatures is not None:
        overrides["temperatures"] = tuple(temperatures)
    cells = []
    for task in tasks:
        for model in model_names:
            config = LoopConfig.for_task(task, model_name=model, seed_root=seed_root, **overrides)
            for temperature in config.temperatures:
                cells += [(task, config, model, temperature, rep) for rep in range(replications)]
    paths = [None] * len(cells)
    if out_dir is not None:
        paths = _record_paths(Path(out_dir), cells)
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    records: list[RunRecord] = []
    for (task, config, model, temperature, rep), path in zip(cells, paths):
        backend = backend_factory(task, model, temperature, rep)
        record = run_replication(task, config, backend, rep, temperature)
        records.append(record)
        if path is not None:
            record.save(path)
    return records
