"""Batch evaluation metrics over a synthetic set of replications.

Builds ten replications' reward trajectories by hand, then computes the
five summary quantities: average reward, success, learning time,
robustness (here from supplied evaluation returns) and the figure of
merit. A second pass re-runs a real stored policy for robustness.

Run with:  python demos/04_metrics.py
"""

import random

from policyloop.loop import LoopConfig, RunRecord, Strategy
from policyloop.metrics import (
    average_reward,
    compute_report,
    figure_of_merit,
    learning_time,
    render_table,
    robustness_from_returns,
    success,
    successful_set,
)
from policyloop.prompts import SensoryMotorWindow

R_MAX, T_MAX = 500.0, 100

# Ten replications: seven converge at different epochs, three never do.
rng = random.Random(0)
matrix = []
for j in range(10):
    row = [rng.uniform(20, 450) for _ in range(T_MAX)]
    if j < 7:
        hit = rng.randint(3, 40)
        for t in range(hit - 1, T_MAX):
            row[t] = R_MAX
    matrix.append(row)

print("success:      ", success(matrix, R_MAX, T_MAX))
print("learning time:", round(learning_time(matrix, R_MAX, T_MAX), 4))
print("avg reward:   ", round(average_reward(matrix), 2))

# Robustness normally re-runs each successful replication's first maximal
# policy on fresh seeds; given pre-computed evaluation returns it is a pure
# aggregation.
eval_returns = {
    j: [R_MAX if rng.random() < 0.9 else 420.0 for _ in range(2000)]
    for j in successful_set(matrix, R_MAX, T_MAX)
}
rob = robustness_from_returns(eval_returns, R_MAX)
lt = learning_time(matrix, R_MAX, T_MAX)
print("robustness:   ", round(rob, 4))
print("figure of merit:", round(figure_of_merit(rob, success(matrix, R_MAX, T_MAX), lt), 2))

# The same quantities from full records, with the robustness re-run live:
# one replication whose first strategy is a weighted-sum controller that
# balances from every start.
OPTIMAL = (
    "def get_action(cart_position, cart_velocity, pole_angle, pole_angular_velocity):\n"
    "    if 0.02 * cart_position + 0.1 * cart_velocity + 0.5 * pole_angle + pole_angular_velocity > 0:\n"
    "        return 2\n"
    "    return 1\n"
)
from policyloop.envs import TaskId

config = LoopConfig.for_task(TaskId.CARTPOLE_STAR2, epochs=3, stop_on_max=False)
records = [
    RunRecord(
        task_id=TaskId.CARTPOLE_STAR2,
        model_name="demo-model",
        temperature=0.0,
        replication_index=0,
        seed_root=0,
        config=config,
        strategies=[
            Strategy(
                iteration_index=0,
                strategy_text="weighted sum",
                rules_text="1. If weighted sum > 0 Then Move Right (2)",
                program_source=OPTIMAL,
                mean_reward=R_MAX,
                per_episode_returns=[R_MAX] * 20,
                window=SensoryMotorWindow(
                    lines=("[0 0 1 0];2",), source_episode=0, episode_return=R_MAX
                ),
            )
        ],
    )
]

report = compute_report(records, n_eval=100)
print("\nfull report from records (robustness re-run on 100 fresh seeds):\n")
print(render_table([report]))
