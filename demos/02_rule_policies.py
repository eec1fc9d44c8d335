"""The sandboxed rule-policy language: parse, call, roll episodes.

Run with:  python demos/02_rule_policies.py
"""

import random

from policyloop.dsl import PolicyParseError, parse, run_episode
from policyloop.envs import TaskId, get_spec

SOURCE = """\
import random

def get_action(cart_position, cart_velocity, pole_angle, pole_angular_velocity):
    if pole_angle > 0:
        return 2
    elif pole_angle < 0:
        return 1
    if -5 <= pole_angle <= 5:
        if cart_velocity > 0:
            return 1
        elif cart_velocity < 0:
            return 2
    return random.randint(1, 2)
"""

spec = get_spec(TaskId.CARTPOLE_STAR2)
program = parse(SOURCE, expected_params=spec.obs_names)
print("parsed OK:", program.name, program.params)
print("\nsource text:\n")
print(program.source_text)

# The compiled policy maps one observation to the value it returns; the rng
# only feeds the random builtins, so a seeded call replays exactly.
obs = (0, 0, 5, 0)
print(f"get_action{obs} -> {program.compiled(random.Random(0), obs)}")

# A full episode: the trace records one "<obs>;<action>" line per step,
# the same rendering the reflection prompt embeds.
trace = run_episode(program, TaskId.CARTPOLE_STAR2, seed=11, rng=random.Random(1))
print(f"\nepisode: {trace.length} steps, return {trace.total_reward}, cause {trace.cause.value}")
print("last five trace lines:")
for line in trace.window_lines(5):
    print(" ", line)

# The grammar rejects anything that could loop, call out, or mutate state.
for bad in (
    "def f(a):\n    while True:\n        return 1\n",
    "def f(a):\n    x = 1\n    return x\n",
    "def f(a):\n    return open(a)\n",
):
    try:
        parse(bad)
    except PolicyParseError as exc:
        print("rejected:", exc)

# A policy that leaves gaps ends its episode on the first unmatched
# observation; the trace line records the literal None.
gappy = parse(
    "def get_action(cart_position, cart_velocity, pole_angle, pole_angular_velocity):\n"
    "    if pole_angle > 3:\n"
    "        return 2\n"
    "    elif pole_angle < -3:\n"
    "        return 1\n"
)
trace = run_episode(gappy, TaskId.CARTPOLE_STAR2, seed=5, rng=random.Random(0))
print(f"\ngappy policy: {trace.length} steps, ended {trace.cause.value}")
print("final line:", trace.lines()[-1])
