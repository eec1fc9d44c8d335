"""Native, seedable implementations of the eight classic control tasks."""

from __future__ import annotations

from typing import Union

from .acrobot import AcrobotEnv
from .cartpole import (
    CartPoleEnv,
    CartPoleStar1Env,
    CartPoleStar2Env,
    InvertedPendulumEnv,
)
from .core import (
    ContinuousAction,
    DiscreteActions,
    Environment,
    EnvSpec,
    TaskId,
    UnknownTaskError,
    derive_seed,
    parse_task_id,
)
from .mountain_car import MountainCarContinuousEnv, MountainCarDiscreteEnv
from .pendulum import PendulumEnv
from .trace import render_action_value, render_observation, step_line

ENV_CLASSES = {
    TaskId.CARTPOLE: CartPoleEnv,
    TaskId.CARTPOLE_STAR1: CartPoleStar1Env,
    TaskId.CARTPOLE_STAR2: CartPoleStar2Env,
    TaskId.INVERTED_PENDULUM: InvertedPendulumEnv,
    TaskId.ACROBOT: AcrobotEnv,
    TaskId.PENDULUM: PendulumEnv,
    TaskId.MOUNTAIN_CAR_DISCRETE: MountainCarDiscreteEnv,
    TaskId.MOUNTAIN_CAR_CONTINUOUS: MountainCarContinuousEnv,
}

ALL_TASKS = tuple(ENV_CLASSES)


def make(task_id: Union[str, TaskId]) -> Environment:
    return ENV_CLASSES[parse_task_id(task_id)]()


def get_spec(task_id: Union[str, TaskId]) -> EnvSpec:
    return ENV_CLASSES[parse_task_id(task_id)].spec


def describe(task_id: Union[str, TaskId]) -> dict[str, str]:
    """The five task-description texts used to fill prompt templates."""
    return dict(get_spec(task_id).description_slots)


def reset(task_id: Union[str, TaskId], seed: int) -> tuple:
    """Initial observation for a fresh instance of the task."""
    return make(task_id).reset(seed)


__all__ = [
    "ALL_TASKS",
    "AcrobotEnv",
    "CartPoleEnv",
    "CartPoleStar1Env",
    "CartPoleStar2Env",
    "ContinuousAction",
    "DiscreteActions",
    "ENV_CLASSES",
    "Environment",
    "EnvSpec",
    "InvertedPendulumEnv",
    "MountainCarContinuousEnv",
    "MountainCarDiscreteEnv",
    "PendulumEnv",
    "TaskId",
    "UnknownTaskError",
    "derive_seed",
    "describe",
    "get_spec",
    "make",
    "parse_task_id",
    "render_action_value",
    "render_observation",
    "reset",
    "step_line",
]
