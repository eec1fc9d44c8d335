"""Mountain car, discrete and continuous variants.

A car in a valley must build momentum to reach the right hilltop. The
discrete task pays -1 per step until position >= 0.5; the continuous task
pays -0.1*force^2 per step plus +100 on reaching its goal at 0.45.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    ContinuousAction,
    DiscreteActions,
    Environment,
    EnvSpec,
    TaskId,
    TerminationCause,
)

MIN_POSITION = -1.2
MAX_POSITION = 0.6
MAX_SPEED = 0.07
GRAVITY = 0.0025
DISCRETE_FORCE = 0.001
CONTINUOUS_POWER = 0.0015
DISCRETE_GOAL = 0.5
CONTINUOUS_GOAL = 0.45


def _slide(position: float, velocity: float, push: float) -> tuple[float, float]:
    """Common hill dynamics: apply the push, then gravity along the slope."""
    velocity += push - GRAVITY * math.cos(3.0 * position)
    velocity = min(max(velocity, -MAX_SPEED), MAX_SPEED)
    position += velocity
    position = min(max(position, MIN_POSITION), MAX_POSITION)
    if position == MIN_POSITION and velocity < 0.0:
        velocity = 0.0
    return position, velocity


class MountainCarDiscreteEnv(Environment):
    spec = EnvSpec(
        task_id=TaskId.MOUNTAIN_CAR_DISCRETE,
        obs_dim=2,
        obs_names=("position", "velocity"),
        action=DiscreteActions(labels=(0, 1, 2)),
        max_steps=200,
        description_slots={
            "Agent": (
                "A car placed at the bottom of a valley between two hills. A force "
                "can be applied to the car, left or right, to build up momentum."
            ),
            "Goal and Reward": (
                "Drive the car from the bottom of the valley to the top of the "
                "right hill. You receive a reward of -1 for each time step until "
                "the car reaches a position >= 0.5."
            ),
            "Observation Vector": (
                "A 2D vector in the following order:\n"
                "\n"
                "position, velocity\n"
                "\n"
                "position is in meters in the range [-1.2, 0.6]; velocity is in m/s "
                "in the range [-0.07, 0.07]."
            ),
            "Action Vector": (
                "Discrete:\n0=apply force left(0)\n1=do nothing(1)\n2=apply force right(2)"
            ),
            "Termination Conditions": (
                "- The car reaches a position >= 0.5\n"
                "- The episode lasts 200 time steps"
            ),
        },
        action_choice_text="left(0), nothing(1) or right(2)",
        action_returns_text="0 for left; 1 for nothing; or 2 for right",
        action_invalid_text="0 (left), 1 (nothing) or 2 (right)",
        random_default_text="return random.randint(0, 2)",
        improve_goal_text="reaching the top of the right hill sooner",
    )

    terminal_cause = TerminationCause.GOAL_REACHED

    def _reset_state(self, rng: np.random.Generator) -> tuple[float, ...]:
        return (float(rng.uniform(-0.6, -0.4)), 0.0)

    def _step_state(self, state, action):
        position, velocity = state
        position, velocity = _slide(position, velocity, (action - 1) * DISCRETE_FORCE)
        terminated = position >= DISCRETE_GOAL and velocity >= 0.0
        return (position, velocity), -1.0, terminated


class MountainCarContinuousEnv(Environment):
    spec = EnvSpec(
        task_id=TaskId.MOUNTAIN_CAR_CONTINUOUS,
        obs_dim=2,
        obs_names=("position", "velocity"),
        action=ContinuousAction(lo=-1.0, hi=1.0),
        max_steps=1000,
        description_slots={
            "Agent": (
                "A car placed at the bottom of a valley between two hills. A "
                "continuous force can be applied to the car to build up momentum."
            ),
            "Goal and Reward": (
                "Drive the car from the bottom of the valley to the top of the "
                "right hill. You receive a reward of -0.1*force^2 at each time "
                "step, plus a reward of +100 when the car reaches the goal "
                "position at 0.45."
            ),
            "Observation Vector": (
                "A 2D vector in the following order:\n"
                "\n"
                "position, velocity\n"
                "\n"
                "position is in meters in the range [-1.2, 0.6]; velocity is in m/s "
                "in the range [-0.07, 0.07]."
            ),
            "Action Vector": (
                "Continuous: a single force value in the range [-1.0, 1.0].\n"
                "\n"
                "Negative values push the car left, positive values push it right."
            ),
            "Termination Conditions": (
                "- The car reaches the goal position at 0.45\n"
                "- The episode lasts 1000 time steps"
            ),
        },
        action_choice_text="a continuous force value in the range [-1.0, 1.0]",
        action_returns_text="a continuous force value in the range [-1.0, 1.0]",
        action_invalid_text="a number in the range [-1.0, 1.0]",
        random_default_text="return random.uniform(-1.0, 1.0)",
        improve_goal_text="reaching the top of the right hill sooner",
    )

    terminal_cause = TerminationCause.GOAL_REACHED

    def _reset_state(self, rng: np.random.Generator) -> tuple[float, ...]:
        return (float(rng.uniform(-0.6, -0.4)), 0.0)

    def _step_state(self, state, force):
        position, velocity = state
        position, velocity = _slide(position, velocity, force * CONTINUOUS_POWER)
        terminated = position >= CONTINUOUS_GOAL and velocity >= 0.0
        reward = -0.1 * force * force + (100.0 if terminated else 0.0)
        return (position, velocity), reward, terminated
