"""Tour of the native control tasks: seeded resets, stepping, encodings.

Run with:  python demos/01_environments.py
"""

import numpy as np

from policyloop import envs
from policyloop.envs import TaskId, describe, make, normalize_star2

# Every task exposes the same reset/step state machine, fully determined by
# the reset seed and the action sequence.
print("available tasks:")
for task in envs.ALL_TASKS:
    spec = envs.get_spec(task)
    kind = "discrete" if spec.is_discrete else "continuous"
    print(f"  {task.value:24s} obs_dim={spec.obs_dim} action={kind} max_steps={spec.max_steps}")

print("\nseeded resets are reproducible:")
print("  CartPole seed 42 ->", envs.reset("CartPole", 42))
print("  CartPole seed 42 ->", envs.reset("CartPole", 42))

# The integer-grid cart-pole variant reports every observation on [-50, 50].
print("\nCartPoleStar2 reset:", envs.reset(TaskId.CARTPOLE_STAR2, 7))
native = (2.4, 1.0, -0.209, 0.0)
print("native", native, "-> grid", normalize_star2(native))

# Rolling a pendulum for a few steps under constant torque.
env = make(TaskId.PENDULUM)
obs = env.reset(3)
print("\npendulum rollout (constant torque 1.0):")
for _ in range(5):
    result = env.step(1.0)
    print(f"  obs={np.round(result.observation, 3)} reward={result.reward:.3f}")

# The per-task description texts that fill the prompt templates.
print("\nCartPoleStar2 description slots:")
for slot, text in describe(TaskId.CARTPOLE_STAR2).items():
    first_line = text.splitlines()[0]
    print(f"  [{slot}] {first_line}")
