"""Run records: one replication's full history, JSON-serializable and
replayable.

A record stores every strategy (text, rules, program source, evaluation
returns, window) plus the ordered transcript of raw backend responses it
consumed; feeding that transcript to a scripted backend replays the run
bit-for-bit. The canonical JSON form excludes wall-clock time, which is
the one field that legitimately varies between identical runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Optional, Union

from ..envs.core import TaskId, parse_task_id
from ..prompts import SensoryMotorWindow
from .config import LoopConfig


class RunStatus(str, Enum):
    COMPLETED = "completed"
    ABORTED_REPAIR_BUDGET = "aborted_repair_budget"
    ABORTED_BACKEND = "aborted_backend"
    # any other exception; the record keeps its type and message
    ABORTED_ERROR = "aborted_error"


@dataclass
class Strategy:
    """One refinement iteration: texts, compiled policy and its evaluation."""

    iteration_index: int
    strategy_text: str
    rules_text: str
    program_source: str
    mean_reward: float
    per_episode_returns: list[float]
    window: SensoryMotorWindow
    repair_attempts: int = 1

    def to_dict(self) -> dict:
        return {
            "iteration_index": self.iteration_index,
            "strategy_text": self.strategy_text,
            "rules_text": self.rules_text,
            "program_source": self.program_source,
            "mean_reward": self.mean_reward,
            "per_episode_returns": list(self.per_episode_returns),
            "window": {
                "lines": list(self.window.lines),
                "source_episode": self.window.source_episode,
                "episode_return": self.window.episode_return,
                "invalid_value_text": self.window.invalid_value_text,
            },
            "repair_attempts": self.repair_attempts,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Strategy":
        w = data["window"]
        return cls(
            iteration_index=data["iteration_index"],
            strategy_text=data["strategy_text"],
            rules_text=data["rules_text"],
            program_source=data["program_source"],
            mean_reward=data["mean_reward"],
            per_episode_returns=list(data["per_episode_returns"]),
            window=SensoryMotorWindow(
                lines=tuple(w["lines"]),
                source_episode=w["source_episode"],
                episode_return=w["episode_return"],
                invalid_value_text=w.get("invalid_value_text"),
            ),
            repair_attempts=data.get("repair_attempts", 1),
        )


@dataclass
class RunRecord:
    task_id: TaskId
    model_name: str
    temperature: float
    replication_index: int
    seed_root: int
    config: LoopConfig
    strategies: list[Strategy] = field(default_factory=list)
    status: RunStatus = RunStatus.COMPLETED
    responses: list[str] = field(default_factory=list)
    wall_clock: float = 0.0
    # "<type>: <message>" of the exception that ended an aborted_error run
    error: Optional[str] = None

    @property
    def per_iteration_rewards(self) -> list[float]:
        return [s.mean_reward for s in self.strategies]

    def to_dict(self, include_wall_clock: bool = True) -> dict:
        data = {
            "task_id": self.task_id.value,
            "model_name": self.model_name,
            "temperature": self.temperature,
            "replication_index": self.replication_index,
            "seed_root": self.seed_root,
            "config": self.config.to_dict(),
            "strategies": [s.to_dict() for s in self.strategies],
            "status": self.status.value,
            "responses": list(self.responses),
        }
        if self.error is not None:
            data["error"] = self.error
        if include_wall_clock:
            data["wall_clock"] = self.wall_clock
        return data

    def canonical_json(self) -> str:
        """Deterministic serialization used for replay comparison."""
        return json.dumps(self.to_dict(include_wall_clock=False), sort_keys=True, allow_nan=False)

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        # written beside the target and renamed over it, so a crash mid-write
        # leaves the previous record whole instead of truncated JSON; NaN and
        # infinities are refused, since JSON has no text for them
        temp = path.with_name(f".{path.name}.tmp")
        try:
            text = json.dumps(self.to_dict(), indent=2, allow_nan=False)
            temp.write_text(text, encoding="utf-8")
            temp.replace(path)
        except BaseException:
            temp.unlink(missing_ok=True)
            raise
        return path

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        return cls(
            task_id=parse_task_id(data["task_id"]),
            model_name=data["model_name"],
            temperature=data["temperature"],
            replication_index=data["replication_index"],
            seed_root=data["seed_root"],
            config=LoopConfig.from_dict(data["config"]),
            strategies=[Strategy.from_dict(s) for s in data["strategies"]],
            status=RunStatus(data["status"]),
            responses=list(data["responses"]),
            wall_clock=data.get("wall_clock", 0.0),
            error=data.get("error"),
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RunRecord":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


# Path separators and NUL in a model id, e.g. "meta-llama/Llama-3.1-70B-Instruct"
_NOT_IN_FILE_NAMES = str.maketrans({"/": "_", "\\": "_", "\0": "_"})


def default_record_name(record: RunRecord) -> str:
    """One file name per cell. The model id's ``/``, ``\\`` and NUL become
    ``_``, so the name never reaches into another directory; an id without
    them is pasted in as it is."""
    temp = str(record.temperature).replace(".", "_")
    model = record.model_name.translate(_NOT_IN_FILE_NAMES)
    return f"{record.task_id.value}_{model}_t{temp}_r{record.replication_index:03d}.json"
