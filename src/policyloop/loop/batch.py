"""Cross-product batch runner: {task} x {model} x {temperature} x replication.

Each cell runs independently; a record is persisted as soon as its
replication finishes, so a crashed batch keeps everything completed so far.
An unexpected error ends only its own cell, as an ``aborted_error`` record.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Iterable, Optional, Union

from ..envs.core import TaskId, parse_task_id
from .config import LoopConfig
from .records import RunRecord, default_record_name
from .runner import run_replication

BackendFactory = Callable[[TaskId, str, float, int], object]


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
    back to each config's own set when omitted.
    """
    overrides = dict(config_overrides or {})
    records: list[RunRecord] = []
    out_path = Path(out_dir) if out_dir is not None else None

    for task in tasks:
        task = parse_task_id(task)
        for model in model_names:
            config = LoopConfig.for_task(
                task,
                model_name=model,
                seed_root=seed_root,
                **(
                    {"temperatures": tuple(temperatures)}
                    if temperatures is not None
                    else {}
                ),
                **overrides,
            )
            for temperature in config.temperatures:
                for rep in range(replications):
                    backend = backend_factory(task, model, temperature, rep)
                    record = run_replication(task, config, backend, rep, temperature)
                    records.append(record)
                    if out_path is not None:
                        record.save(out_path / default_record_name(record))
    return records
