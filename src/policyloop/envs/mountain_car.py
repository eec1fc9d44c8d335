"""Mountain car, discrete and continuous variants.

A car in a valley must build momentum to reach the right hilltop. The
discrete task pays -1 per step until position >= 0.5; the continuous task
pays -0.1*force^2 per step plus +100 on reaching its goal at 0.45.

The two tasks share one class, ``_MountainCarFamily``, and its one episode
loop, ``_rollout``, the only driver of these envs: ``reset`` and
``observe`` run it for one step, to read the observation, and
``dsl.run_episode`` for a whole episode. Each step of it encodes the
observation, calls the policy once, then the action check of
``envs/core.py`` (a label maps to its push and a bool is refused; or a
finite number is clamped to [-1, 1]), and runs inline the hill dynamics,
the goal test and the reward, with the operations of the frozen step forms
that tests pin it to, in their order.
A refused value and the goal each end the loop with a plain ``break``.
"""

from __future__ import annotations

import math

from .core import (
    POLICY_ERRORS,
    ContinuousAction,
    DiscreteActions,
    Environment,
    EnvSpec,
    TaskId,
)

MIN_POSITION = -1.2
MAX_POSITION = 0.6
MAX_SPEED = 0.07
GRAVITY = 0.0025
DISCRETE_FORCE = 0.001
CONTINUOUS_POWER = 0.0015
DISCRETE_GOAL = 0.5
CONTINUOUS_GOAL = 0.45


class _MountainCarFamily(Environment):
    """The two mountain-car tasks and the one episode loop they share. A
    continuous action is the force, scaled by ``CONTINUOUS_POWER``; the
    goal, the reset ranges and a discrete task's pushes are class data."""

    # the episode ends when position >= goal with velocity >= 0
    _goal: float
    # the car starts at rest, somewhere in [-0.6, -0.4]
    _reset_ranges = ((-0.6, -0.4), (0.0, 0.0))
    # a discrete task's labels push left, not at all, right
    _effects = (-DISCRETE_FORCE, 0.0, DISCRETE_FORCE)

    def _rollout(self, policy, rng, limit, observations, actions):
        # label -> push, empty when the action is the force
        pushes, action_of, goal = self._effect_of, self._action_of, self._goal
        append_obs, append_action = observations.append, actions.append
        # the names every step reads, as locals read once per rollout
        cos = math.cos
        gravity, power = GRAVITY, CONTINUOUS_POWER
        max_speed, neg_max_speed = MAX_SPEED, -MAX_SPEED
        min_position, max_position = MIN_POSITION, MAX_POSITION
        position, velocity = self._state
        total_reward = -0.0
        value = None
        for _ in range(limit):
            obs = (position, velocity)
            append_obs(obs)
            try:
                value = policy(rng, obs)
                action = action_of(value)
            except POLICY_ERRORS:
                value = None
                action = None
            if action is None:
                break
            append_action(action)
            # the push, then gravity along the slope; a NaN passes the clamps
            push = pushes[action] if pushes else action * power
            velocity = velocity + (push - gravity * cos(3.0 * position))
            if velocity > max_speed:
                velocity = max_speed
            elif velocity < neg_max_speed:
                velocity = neg_max_speed
            position = position + velocity
            if position > max_position:
                position = max_position
            elif position < min_position:
                position = min_position
            # the left wall stops the car
            if position == min_position and velocity < 0.0:
                velocity = 0.0
            terminated = position >= goal and velocity >= 0.0
            if pushes:
                total_reward -= 1.0
            else:
                total_reward += -0.1 * action * action + (100.0 if terminated else 0.0)
            if terminated:
                break
        self._state = (position, velocity)
        return total_reward, value


class MountainCarDiscreteEnv(_MountainCarFamily):
    spec = EnvSpec(
        task_id=TaskId.MOUNTAIN_CAR_DISCRETE,
        obs_names=("position", "velocity"),
        action=DiscreteActions(labels=(0, 1, 2)),
        action_names=("left", "nothing", "right"),
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
        improve_goal_text="reaching the top of the right hill sooner",
    )

    _goal = DISCRETE_GOAL


class MountainCarContinuousEnv(_MountainCarFamily):
    spec = EnvSpec(
        task_id=TaskId.MOUNTAIN_CAR_CONTINUOUS,
        obs_names=("position", "velocity"),
        action=ContinuousAction(lo=-1.0, hi=1.0),
        action_names=("force",),
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
        improve_goal_text="reaching the top of the right hill sooner",
    )

    _goal = CONTINUOUS_GOAL
