"""Run records: one replication's full history, JSON-serializable and
replayable.

A record stores every strategy (text, rules, program source, evaluation
returns, window) plus the ordered transcript of raw backend responses it
consumed; feeding that transcript to a scripted backend replays the run
bit-for-bit. The canonical JSON form excludes wall-clock time, which is
the one field that legitimately varies between identical runs.

The JSON form is read off the dataclasses (``as_json``): each record,
config, strategy and window is written as its fields in declaration order,
so a new field is saved by declaring it. ``error`` is written only when a
run ended ``aborted_error``. Loading keeps the keys a class declares:
unknown keys are ignored and missing ones take the field's default.
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

_SCALARS = frozenset({str, int, float, bool, type(None)})


def as_json(value):
    """``value`` as JSON data: scalars as they are, lists and tuples as
    lists, an enum as its value, and a dataclass as a dict of its fields in
    declaration order."""
    # scalars are tested first: they are most of what a record holds, and
    # a set lookup costs far less than the isinstance calls below
    if type(value) in _SCALARS:
        return value
    if isinstance(value, (list, tuple)):
        return [v if type(v) in _SCALARS else as_json(v) for v in value]
    if isinstance(value, Enum):
        return value.value
    # a copy of the field table's keys is sized once; a dict grown key by
    # key (a comprehension) took ~10 % longer here and raised peak RSS of
    # the live-http benchmark by ~1.3 MB
    data = dict.fromkeys(value.__dataclass_fields__)
    for name in data:
        data[name] = as_json(getattr(value, name))
    return data


def _from_json(cls, data: dict, **converted):
    """A ``cls`` from the JSON object ``data``, with ``converted`` in place
    of the values JSON cannot hold as they are. Keys ``cls`` does not
    declare are ignored; a field without a key takes its default."""
    values = {k: v for k, v in data.items() if k in cls.__dataclass_fields__}
    values.update(converted)
    return cls(**values)


class RunStatus(str, Enum):
    COMPLETED = "completed"
    ABORTED_REPAIR_BUDGET = "aborted_repair_budget"
    ABORTED_BACKEND = "aborted_backend"
    # any other exception; the record keeps its type and message
    ABORTED_ERROR = "aborted_error"


@dataclass(slots=True)
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


@dataclass(slots=True)
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
    # "<type>: <message>" of the exception that ended an aborted_error run
    error: Optional[str] = None
    wall_clock: float = 0.0

    @property
    def per_iteration_rewards(self) -> list[float]:
        return [s.mean_reward for s in self.strategies]

    def to_dict(self, include_wall_clock: bool = True) -> dict:
        data = as_json(self)
        if self.error is None:
            del data["error"]
        if not include_wall_clock:
            del data["wall_clock"]
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
        strategies = []
        for s in data["strategies"]:
            w = s["window"]
            window = _from_json(SensoryMotorWindow, w, lines=tuple(w["lines"]))
            strategies.append(_from_json(Strategy, s, window=window))
        return _from_json(
            cls,
            data,
            task_id=parse_task_id(data["task_id"]),
            config=_from_json(LoopConfig, data["config"]),
            strategies=strategies,
            status=RunStatus(data["status"]),
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
