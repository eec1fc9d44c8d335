"""Tour of the native control tasks: seeded resets, episodes, encodings.

Run with:  python demos/01_environments.py
"""

import random

from policyloop import envs
from policyloop.dsl import parse, run_episode
from policyloop.envs import TaskId, describe, make, render_observation

# Every task is the same seeded state machine, played by whole episodes; an
# episode is fully determined by the reset seed and the actions taken.
print("available tasks:")
for task in envs.ALL_TASKS:
    spec = envs.get_spec(task)
    kind = "discrete" if spec.is_discrete else "continuous"
    print(f"  {task.value:24s} obs_dim={spec.obs_dim} action={kind} max_steps={spec.max_steps}")

print("\nseeded resets are reproducible:")
print("  CartPole seed 42 ->", envs.reset("CartPole", 42))
print("  CartPole seed 42 ->", envs.reset("CartPole", 42))

# The integer-grid cart-pole variant reports every observation on [-50, 50];
# the env keeps the native state it encodes.
env = make(TaskId.CARTPOLE_STAR2)
env.reset(7)
print("\nCartPoleStar2 reset: native", env.state, "-> grid", env.observe())

# A pendulum episode under constant torque: the policy is called once per
# step, and the episode keeps every observation it saw.
spec = envs.get_spec(TaskId.PENDULUM)
program = parse(f"def get_action({', '.join(spec.obs_names)}):\n    return 1.0\n")
trace = run_episode(program, TaskId.PENDULUM, seed=3, rng=random.Random(0))
print(f"\npendulum episode (constant torque 1.0): {trace.length} steps,", end=" ")
print(f"return {trace.total_reward:.3f}; its first observations:")
for obs in trace.observations[:5]:
    print(f"  obs={render_observation(obs)}")

# The per-task description texts that fill the prompt templates.
print("\nCartPoleStar2 description slots:")
for slot, text in describe(TaskId.CARTPOLE_STAR2).items():
    first_line = text.splitlines()[0]
    print(f"  [{slot}] {first_line}")
