"""Refinement loop: per-replication runner, batch runner, records, config."""

from .batch import run_batch
from .config import CARTPOLE_FAMILY, LoopConfig
from .records import RunRecord, RunStatus, Strategy, cell_record_name, default_record_name
from .runner import evaluate_program, replay, run_replication

__all__ = [
    "CARTPOLE_FAMILY",
    "LoopConfig",
    "RunRecord",
    "RunStatus",
    "Strategy",
    "cell_record_name",
    "default_record_name",
    "evaluate_program",
    "replay",
    "run_batch",
    "run_replication",
]
