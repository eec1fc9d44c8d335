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
unknown keys are ignored and missing ones take the field's default. A
value of the wrong type in the record, its config, a strategy or its window
is refused, and so is a number that a float cannot hold, a strategy whose
``mean_reward`` is not the mean of its ``per_episode_returns`` bit for bit
(or that has none), and a record whose ``seed_root``, ``model_name`` or
``temperature`` disagrees with its config, which replay reruns from.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Optional, Union

from ..envs.core import TaskId, parse_task_id
from ..gateway import require_type
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


def mean(values) -> float:
    """The sum of ``values``, taken left to right from 0.0, over their
    count: what ``sum(values) / len(values)`` gives on CPython 3.10 and
    3.11 (3.12 sums floats with compensation, which can round the last
    digit otherwise). Every stored mean and report is this, so a record
    replays on any Python. A lone -0.0 averages to 0.0."""
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


class RunStatus(str, Enum):
    COMPLETED = "completed"
    ABORTED_REPAIR_BUDGET = "aborted_repair_budget"
    ABORTED_BACKEND = "aborted_backend"
    # any other exception; the record keeps its type and message
    ABORTED_ERROR = "aborted_error"


@dataclass(slots=True)
class Strategy:
    """One refinement iteration: texts, compiled policy and its evaluation;
    ``mean_reward`` is ``mean(per_episode_returns)``."""

    iteration_index: int
    strategy_text: str
    rules_text: str
    program_source: str
    mean_reward: float
    per_episode_returns: list[float]
    window: SensoryMotorWindow
    repair_attempts: int = 1

    def _check(self) -> None:
        """Raise TypeError naming the first field of the wrong type, the
        window's included, or ValueError for a value the runner cannot
        have made; only a record file can hold either, as the runner builds
        from checked values."""
        require_type(
            "a string",
            strategy_text=self.strategy_text,
            rules_text=self.rules_text,
            program_source=self.program_source,
        )
        require_type(
            "an int", iteration_index=self.iteration_index, repair_attempts=self.repair_attempts
        )
        require_type("a number", mean_reward=self.mean_reward)
        require_type("a list", per_episode_returns=self.per_episode_returns)
        for value in self.per_episode_returns:
            require_type("a number", per_episode_return=value)
        window = self.window
        for line in window.lines:
            require_type("a string", line=line)
        require_type("an int", source_episode=window.source_episode)
        require_type("a number", episode_return=window.episode_return)
        if window.invalid_value_text is not None:
            require_type("a string", invalid_value_text=window.invalid_value_text)
        if not self.per_episode_returns:
            raise ValueError("per_episode_returns is empty")
        # metrics reads mean_reward alone, so it must be what the runner stored
        reward = mean(self.per_episode_returns)
        if float(self.mean_reward).hex() != reward.hex():
            raise ValueError(
                f"mean_reward {self.mean_reward!r} is not the mean of per_episode_returns, {reward!r}"
            )


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

    def _check(self) -> None:
        """As ``Strategy._check``, for the record's own fields."""
        require_type("a string", model_name=self.model_name)
        require_type("a number", temperature=self.temperature, wall_clock=self.wall_clock)
        require_type("an int", replication_index=self.replication_index, seed_root=self.seed_root)
        require_type("a list", responses=self.responses)
        for response in self.responses:
            require_type("a string", response=response)
        if self.error is not None:
            require_type("a string", error=self.error)

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
        # NaN and infinities are refused, since JSON has no text for them
        return write_text(path, json.dumps(self.to_dict(), indent=2, allow_nan=False))

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        strategies = []
        for s in data["strategies"]:
            w = s["window"]
            require_type("a list", lines=w["lines"])
            window = _from_json(SensoryMotorWindow, w, lines=tuple(w["lines"]))
            strategies.append(_from_json(Strategy, s, window=window))
            strategies[-1]._check()
        record = _from_json(
            cls,
            data,
            task_id=parse_task_id(data["task_id"]),
            config=_from_json(LoopConfig, data["config"]),
            strategies=strategies,
            status=RunStatus(data["status"]),
        )
        record._check()
        # replay reruns from the config, metrics reads these copies of it
        config = record.config
        for name in ("seed_root", "model_name"):
            mine, theirs = getattr(record, name), getattr(config, name)
            if mine != theirs:
                raise ValueError(f"{name} {mine!r} differs from config.{name} {theirs!r}")
        if record.temperature not in config.temperatures:
            raise ValueError(
                f"temperature {record.temperature!r} is not in "
                f"config.temperatures {config.temperatures!r}"
            )
        return record

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RunRecord":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh, parse_constant=parse_constant))


def write_text(path: Union[str, Path], text: str) -> Path:
    """Write ``text`` to ``path``, making its parent directories first. The
    text goes to a file beside the target that is renamed over it, so a
    crash mid-write leaves the previous file whole instead of truncated."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(f".{path.name}.tmp")
    try:
        temp.write_text(text, encoding="utf-8")
        temp.replace(path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
    return path


def parse_constant(name: str):
    """Refuse ``NaN``, ``Infinity`` and ``-Infinity``, which ``json.load``
    reads by default but JSON does not have; ``save`` never writes them."""
    raise ValueError(f"{name} is not a JSON value")


# Path separators and NUL in a model id, e.g. "meta-llama/Llama-3.1-70B-Instruct"
_NOT_IN_FILE_NAMES = str.maketrans({"/": "_", "\\": "_", "\0": "_"})


def cell_record_name(task_id: TaskId, model_name: str, temperature: float, replication: int) -> str:
    """One file name per cell. The model id's ``/``, ``\\`` and NUL become
    ``_``, so the name never reaches into another directory; an id without
    them is pasted in as it is."""
    temp = str(temperature).replace(".", "_")
    model = model_name.translate(_NOT_IN_FILE_NAMES)
    return f"{task_id.value}_{model}_t{temp}_r{replication:03d}.json"


def default_record_name(record: RunRecord) -> str:
    """The file name of ``record``'s cell (``cell_record_name``)."""
    return cell_record_name(
        record.task_id, record.model_name, record.temperature, record.replication_index
    )
