"""Cross-product batch runner: {task} x {model} x {temperature} x replication.

A batch is a plan of checked cells (``plan_cells``), then one ``run_cell``
per cell. Each cell runs independently; a record is persisted as soon as
its replication finishes, so a crashed batch keeps everything completed so
far. An unexpected error ends only its own cell, as an ``aborted_error``
record.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Optional, Union

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


class Cell(NamedTuple):
    """One replication of the matrix, and the path its record is saved to
    (None: it is not saved)."""

    task: TaskId
    config: LoopConfig
    temperature: float
    replication: int
    path: Optional[Path] = None


def _with_paths(out_dir: Path, cells: list[Cell]) -> list[Cell]:
    """Each cell with its record path in ``out_dir``, refusing two cells
    that would share one (model ids that differ only in a path separator, a
    repeated model or temperature): the later record would silently replace
    the earlier; and refusing a path that is a directory, which no record
    can be saved to."""
    owners: dict[Path, str] = {}
    for task, config, temperature, rep, _ in cells:
        model = config.model_name
        path = _record_path(out_dir, cell_record_name(task, model, temperature, rep))
        cell = f"({task.value}, {model!r}, temperature {temperature}, replication {rep})"
        if path in owners:
            raise ValueError(f"cells {owners[path]} and {cell} would both write {path.name!r}")
        if path.is_dir():
            raise ValueError(f"cell {cell} would write {path}, which is a directory")
        owners[path] = cell
    return [cell._replace(path=path) for cell, path in zip(cells, owners)]


def plan_cells(
    tasks: Iterable[Union[str, TaskId]],
    replications: int = 10,
    model_names: Iterable[str] = ("local-model",),
    temperatures: Optional[Iterable[float]] = None,
    out_dir: Optional[Union[str, Path]] = None,
    seed_root: int = 0,
    config_overrides: Optional[dict] = None,
) -> list[Cell]:
    """Every cell of the matrix, in the order a batch runs them, checked;
    and ``out_dir``, when given, made, so an ``out_dir`` that cannot be a
    directory raises ``OSError``.

    ``temperatures`` falls back to ``LoopConfig``'s default when omitted.
    ``config_overrides`` may not set ``seed_root``, ``model_name`` or
    ``temperatures``: the arguments of those names do. A batch of no cells
    (no task, no model, fewer than one replication) is refused, as a
    wrong-typed ``replications`` is.
    """
    overrides = dict(config_overrides or {})
    taken = sorted(overrides.keys() & {"seed_root", "model_name", "temperatures"})
    if taken:
        raise ValueError(
            f"config_overrides (a batch file's \"config\") may not set {' or '.join(taken)}; "
            "plan_cells takes them from its seed_root, model_names and temperatures "
            '(a batch file\'s "seed_root", "models" and "temperatures")'
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
                cells += [Cell(task, config, temperature, rep) for rep in range(replications)]
    if out_dir is not None:
        cells = _with_paths(Path(out_dir), cells)
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    return cells


def run_cell(cell: Cell, backend) -> RunRecord:
    """Run the cell's replication on ``backend``, and save its record when
    the cell has a path."""
    record = run_replication(cell.task, cell.config, backend, cell.replication, cell.temperature)
    if cell.path is not None:
        record.save(cell.path)
    return record


def run_batch(
    tasks: Iterable[Union[str, TaskId]], backend_factory: BackendFactory, **settings
) -> list[RunRecord]:
    """Run the full experimental matrix and return every record.

    ``settings`` are :func:`plan_cells`'s, and every cell is planned, so
    checked, before the first backend is made. ``backend_factory(task,
    model, temperature, replication)`` supplies a backend per cell, which
    keeps replications independent (fresh scripted queues in tests, plain
    HTTP clients otherwise).
    """
    records = []
    for cell in plan_cells(tasks, **settings):
        model = cell.config.model_name
        backend = backend_factory(cell.task, model, cell.temperature, cell.replication)
        records.append(run_cell(cell, backend))
    return records
