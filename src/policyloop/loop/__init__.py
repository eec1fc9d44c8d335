"""Refinement loop: per-replication runner, batch runner, records, config."""

from .batch import run_batch
from .config import CARTPOLE_FAMILY, LoopConfig
from .records import RunRecord, RunStatus, Strategy, cell_record_name, default_record_name
from .runner import (
    episode_seed,
    evaluate_program,
    initialize,
    policy_rng_seed,
    refine,
    replay,
    retest,
    run_replication,
)

__all__ = [
    "CARTPOLE_FAMILY",
    "LoopConfig",
    "RunRecord",
    "RunStatus",
    "Strategy",
    "cell_record_name",
    "default_record_name",
    "episode_seed",
    "evaluate_program",
    "initialize",
    "policy_rng_seed",
    "refine",
    "replay",
    "retest",
    "run_batch",
    "run_replication",
]
