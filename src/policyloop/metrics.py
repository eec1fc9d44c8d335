"""Evaluation metrics over sets of replication records.

Five quantities summarize a batch: average reward across all learning
episodes and replications; success (fraction of replications that ever hit
the task maximum within the epoch budget); learning time (mean first-hit
epoch as a fraction of the budget, over successful replications);
robustness (for each successful replication, the first maximal strategy is
re-run on fresh seeds and scored by its fraction of maximal episodes); and
the composite figure of merit robustness * success^2 / learning_time, where
success is squared to punish unreliable convergence.

Every equation, the improvement ratio too, reads plain per-replication
reward rows, given r_max and t_max. Only two functions read RunRecords:
``robustness``, which re-runs each successful replication's first maximal
policy through the loop's own episodes, ``loop.runner.seeded_episodes``,
with ``"robustness"`` in the iteration slot; and ``compute_report``, which
checks one cell's records, takes its two bounds from the task and the
records, and scores the records' reward rows with the same equations.
Every refusal is a ``MetricsError``, a task without a maximum included.
Every average is ``loop.records.mean``, the one the runner stores each
``mean_reward`` with: a left-to-right sum over the count.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .dsl.parser import PolicyParseError, parse
from .envs import get_spec
from .loop.records import RunRecord, as_json, mean
from .loop.runner import seeded_episodes

Matrix = Sequence[Sequence[float]]


class MetricsError(ValueError):
    pass


def _require_rows(matrix: Matrix) -> None:
    if not matrix:
        raise MetricsError("no reward data given")


def _require_r_max(r_max: Optional[float]) -> None:
    if r_max is None:
        raise MetricsError("task defines no maximum reward")


def _require_finite(values: Iterable[float], what: str) -> None:
    if not all(math.isfinite(v) for v in values):
        raise MetricsError(f"{what} contain a non-finite value")


def _require_at_least_one(name: str, value: int) -> None:
    if value < 1:
        raise MetricsError(f"{name} must be at least 1, got {value}")


def _padded(matrix: Matrix, r_max: Optional[float], t_max: Optional[int]) -> list[list[float]]:
    """Rows that stopped early after reaching the maximum are carried forward
    at r_max, keeping the nominal episode count; other short rows stay short."""
    rows = []
    for row in matrix:
        row = list(row)
        if (
            r_max is not None
            and t_max is not None
            and row
            and len(row) < t_max
            and row[-1] == r_max
        ):
            row = row + [r_max] * (t_max - len(row))
        rows.append(row)
    return rows


def average_reward(
    matrix: Matrix, r_max: Optional[float] = None, t_max: Optional[int] = None
) -> float:
    """Mean of per-iteration mean rewards over replications x iterations."""
    _require_rows(matrix)
    rows = _padded(matrix, r_max, t_max)
    values = [v for row in rows for v in row]
    if not values:
        raise MetricsError("reward rows are all empty")
    _require_finite(values, "reward rows")
    return mean(values)


def first_hit(row: Sequence[float], r_max: float, t_max: int) -> Optional[int]:
    """1-based index of the first iteration at the maximum, within t_max."""
    for t, value in enumerate(row[:t_max], start=1):
        if value == r_max:
            return t
    return None


def successful_set(matrix: Matrix, r_max: float, t_max: int) -> list[int]:
    _require_rows(matrix)
    _require_r_max(r_max)
    return [j for j, row in enumerate(matrix) if first_hit(row, r_max, t_max) is not None]


def success(matrix: Matrix, r_max: float, t_max: int) -> float:
    """Fraction of replications that reach r_max within t_max iterations."""
    return len(successful_set(matrix, r_max, t_max)) / len(matrix)


def learning_time(matrix: Matrix, r_max: float, t_max: int) -> Optional[float]:
    """Mean first-hit iteration / t_max over successful replications.

    None when no replication succeeded (the metric is undefined then, and
    the figure of merit is reported absent).
    """
    _require_r_max(r_max)
    hits = [
        t
        for row in matrix
        if (t := first_hit(row, r_max, t_max)) is not None
    ]
    if not hits:
        return None
    return mean([t / t_max for t in hits])


def robustness_from_returns(
    eval_returns: Mapping[int, Sequence[float]], r_max: float
) -> Optional[float]:
    """Mean over replications of the fraction of evaluation episodes at
    r_max; caller supplies the episode returns per successful replication."""
    _require_r_max(r_max)
    if not eval_returns:
        return None
    fractions = []
    for rep in sorted(eval_returns):
        returns = eval_returns[rep]
        if not returns:
            raise MetricsError(f"no evaluation returns for replication {rep}")
        _require_finite(returns, f"evaluation returns for replication {rep}")
        hits = sum(1 for r in returns if r == r_max)
        fractions.append(hits / len(returns))
    return mean(fractions)


def figure_of_merit(
    robustness_value: Optional[float],
    success_value: float,
    learning_time_value: Optional[float],
) -> Optional[float]:
    """robustness * success^2 / learning_time; absent without successes."""
    if robustness_value is None or learning_time_value is None:
        return None
    return robustness_value * success_value**2 / learning_time_value


def improvement_ratio(matrix: Matrix, r_max: Optional[float] = None) -> Optional[float]:
    """Gain of the mean best reward over the mean initial reward, over the
    rows with at least one reward, measured against the task maximum when
    defined, otherwise against the best reward seen anywhere in the batch;
    absent when every row starts at that reference, however the mean of
    those starts rounds, or when the mean initial reward is the reference."""
    _require_rows(matrix)
    rows = [row for row in matrix if row]
    if not rows:
        raise MetricsError("reward rows are all empty")
    initial = mean([row[0] for row in rows])
    best = mean([max(row) for row in rows])
    reference = r_max if r_max is not None else max(max(row) for row in rows)
    if all(row[0] == reference for row in rows):
        return None
    if reference == initial:
        return None
    return (best - initial) / (reference - initial)


# --------------------------------------------------------------------------
# Record-level layer
# --------------------------------------------------------------------------


def _check_same_cell(records: Sequence[RunRecord]) -> None:
    """Refuse records of more than one cell, and two records of one
    replication (the same ``seed_root`` and ``replication_index``), which
    would count it twice."""
    if not records:
        raise MetricsError("no records given")
    key = (records[0].task_id, records[0].model_name, records[0].temperature)
    replications = set()
    for r in records:
        if (r.task_id, r.model_name, r.temperature) != key:
            raise MetricsError(
                "records mix tasks/models/temperatures; aggregate one cell at a time"
            )
        replication = (r.seed_root, r.replication_index)
        if replication in replications:
            raise MetricsError(
                f"cell {r.task_id.value}/{r.model_name}/t{r.temperature} holds two records "
                f"of seed root {r.seed_root}, replication {r.replication_index}"
            )
        replications.add(replication)


def robustness(
    records: Sequence[RunRecord],
    r_max: float,
    t_max: int,
    n_eval: int = 2000,
) -> Optional[float]:
    """Re-run each successful replication's first maximal strategy on
    n_eval fresh seeded episodes and average the maximal-episode fractions."""
    _require_at_least_one("n_eval", n_eval)
    _check_same_cell(records)
    eval_returns: dict[int, list[float]] = {}
    for j, record in enumerate(records):
        hit = first_hit(record.per_iteration_rewards, r_max, t_max)
        if hit is None:
            continue
        strategy = record.strategies[hit - 1]
        spec = get_spec(record.task_id)
        try:
            program = parse(strategy.program_source, expected_params=spec.obs_names)
        except PolicyParseError as exc:
            # a hand-edited record, or one from a parser that accepted more
            raise MetricsError(
                f"replication {record.replication_index}, iteration "
                f"{strategy.iteration_index}: the first maximal program no longer "
                f"parses ({exc})"
            ) from exc
        episodes = seeded_episodes(
            program, record.task_id, record.seed_root, record.replication_index,
            "robustness", n_eval,
        )
        eval_returns[j] = [trace.total_reward for trace in episodes]
    return robustness_from_returns(eval_returns, r_max)


@dataclass(kw_only=True)
class MetricsReport:
    task_id: str
    model_name: str
    temperature: float
    average_reward: Optional[float]
    success: Optional[float]
    robustness: Optional[float]
    learning_time: Optional[float]
    fom: Optional[float]
    improvement_ratio: Optional[float]
    successful_set: list[int]
    n_reps: int
    n_episodes: int
    r_max: Optional[float]
    n_eval: int

    def to_dict(self) -> dict:
        return as_json(self)


def compute_report(
    records: Sequence[RunRecord],
    n_eval: int = 2000,
    include_robustness: bool = True,
) -> MetricsReport:
    """All metrics for one experimental cell, scored against its task's
    maximum (``get_spec(task).r_max``, absent for some tasks, and then so are
    the success-relative metrics) and the largest ``config.epochs`` among
    its records. The records are taken in ``replication_index`` order, and
    ``successful_set`` lists the replication indexes that succeeded, so the
    report does not depend on the order the records are given in. A cell in
    which no replication reached its first evaluation scores success 0.0
    where the task has a maximum, and every other metric absent. A reward
    above the task maximum (only a hand edit makes one) and an ``n_eval``
    below 1 are refused, whether or not robustness runs.
    """
    _check_same_cell(records)
    _require_at_least_one("n_eval", n_eval)
    # float sums depend on the order of their terms
    records = sorted(records, key=lambda r: r.replication_index)
    r_max = get_spec(records[0].task_id).r_max
    t_max = max(r.config.epochs for r in records)
    matrix = [r.per_iteration_rewards for r in records]

    # a cell of replications that all aborted before their first evaluation
    # has no reward to average or improve on
    avg = improvement = None
    if any(matrix):
        avg = average_reward(matrix, r_max, t_max)
        # average_reward refused non-finite rows
        reached = max(v for row in matrix for v in row)
        if r_max is not None and r_max < reached:
            raise MetricsError(f"a record reached {reached}, above the task maximum {r_max}")
        improvement = improvement_ratio(matrix, r_max)
    succ = lt = rob = None
    hits: list[int] = []
    if r_max is not None:
        succ = success(matrix, r_max, t_max)
        lt = learning_time(matrix, r_max, t_max)
        if include_robustness:
            rob = robustness(records, r_max, t_max, n_eval=n_eval)
        hits = [records[j].replication_index for j in successful_set(matrix, r_max, t_max)]
    return MetricsReport(
        average_reward=avg,
        success=succ,
        robustness=rob,
        learning_time=lt,
        fom=figure_of_merit(rob, succ, lt),
        successful_set=hits,
        n_reps=len(records),
        n_episodes=t_max,
        r_max=r_max,
        n_eval=n_eval,
        improvement_ratio=improvement,
        task_id=records[0].task_id.value,
        model_name=records[0].model_name,
        temperature=records[0].temperature,
    )


def _cell(value: Optional[float]) -> str:
    return f"{value:.2f}" if value is not None else "-"


def render_table(reports: Iterable[MetricsReport]) -> str:
    """Aligned human-readable table, two decimals per the reporting style."""
    headers = [
        "Task", "Model", "Temp", "AvgReward", "Success",
        "Robustness", "LearnTime", "FoM", "Improv",
    ]
    rows = []
    for rep in reports:
        rows.append(
            [
                rep.task_id,
                rep.model_name,
                f"{rep.temperature:.1f}",
                _cell(rep.average_reward),
                _cell(rep.success),
                _cell(rep.robustness),
                _cell(rep.learning_time),
                _cell(rep.fom),
                _cell(rep.improvement_ratio),
            ]
        )
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h) for i, h in enumerate(headers)]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(v.ljust(widths[i]) for i, v in enumerate(row)))
    return "\n".join(lines)


def reward_curve_csv(records: Sequence[RunRecord]) -> str:
    """Long-format per-iteration mean rewards for external plotting."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["task", "model", "temperature", "replication", "iteration", "mean_reward"])
    for record in records:
        for strategy in record.strategies:
            writer.writerow(
                [
                    record.task_id.value,
                    record.model_name,
                    record.temperature,
                    record.replication_index,
                    strategy.iteration_index,
                    strategy.mean_reward,
                ]
            )
    return buffer.getvalue()
