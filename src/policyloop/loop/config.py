"""Run configuration for the refinement loop.

Per-task defaults: the cart-pole variants refine for 100 epochs and
evaluate over 20 episodes; the inverted pendulum refines for 500 epochs
(also 20 evaluation episodes); the remaining tasks use 50 epochs and 10
episodes. Early stop on reaching the task maximum is on by default only
for the cart-pole family, where the 500 ceiling is well defined.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from ..envs.core import TaskId, parse_task_id
from ..gateway import TEMPERATURE_MAX, require_type
from ..prompts import Ablation

CARTPOLE_FAMILY = (TaskId.CARTPOLE, TaskId.CARTPOLE_STAR1, TaskId.CARTPOLE_STAR2)

# task -> (epochs, eval_episodes); a task not listed takes (50, 10)
_DEFAULTS = {
    TaskId.CARTPOLE: (100, 20),
    TaskId.CARTPOLE_STAR1: (100, 20),
    TaskId.CARTPOLE_STAR2: (100, 20),
    TaskId.INVERTED_PENDULUM: (500, 20),
}


@dataclass(slots=True)
class LoopConfig:
    epochs: int
    eval_episodes: int
    window_size: int = 20
    ablation: Ablation = Ablation.BASELINE
    stop_on_max: bool = False
    # With stop_on_max off, a strategy sitting at the task maximum is
    # re-evaluated unchanged on the next epoch's seeds instead of being
    # sent back for revision.
    retest_at_max: bool = True
    temperatures: tuple[float, ...] = (0.0,)
    model_name: str = "local-model"
    repair_budget: int = 10
    seed_root: int = 0

    def __post_init__(self) -> None:
        require_type(
            "an int",
            epochs=self.epochs,
            eval_episodes=self.eval_episodes,
            window_size=self.window_size,
            repair_budget=self.repair_budget,
            seed_root=self.seed_root,
        )
        require_type("a bool", stop_on_max=self.stop_on_max, retest_at_max=self.retest_at_max)
        require_type("a string", model_name=self.model_name)
        require_type("a list", temperatures=self.temperatures)
        for t in self.temperatures:
            require_type("a number", temperature=t)
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.eval_episodes < 1:
            raise ValueError("eval_episodes must be >= 1")
        if self.window_size < 1:
            raise ValueError("window_size must be >= 1")
        if self.repair_budget < 1:
            raise ValueError("repair_budget must be >= 1")
        self.ablation = Ablation(self.ablation)
        self.temperatures = tuple(float(t) for t in self.temperatures)
        if not self.temperatures:
            raise ValueError("temperatures must name at least one temperature")
        for t in self.temperatures:
            if not 0.0 <= t <= TEMPERATURE_MAX:
                raise ValueError(f"temperature {t} outside [0, {TEMPERATURE_MAX}]")

    @classmethod
    def for_task(cls, task_id: Union[str, TaskId], **overrides) -> "LoopConfig":
        task = parse_task_id(task_id)
        epochs, eval_episodes = _DEFAULTS.get(task, (50, 10))
        values = {
            "epochs": epochs,
            "eval_episodes": eval_episodes,
            "stop_on_max": task in CARTPOLE_FAMILY,
        }
        values.update(overrides)
        return cls(**values)
