"""Evaluation metrics over sets of replication records.

Five quantities summarize a batch: average reward across all learning
episodes and replications; success (fraction of replications that ever hit
the task maximum within the epoch budget); learning time (mean first-hit
epoch as a fraction of the budget, over successful replications);
robustness (for each successful replication, the first maximal strategy is
re-run on fresh seeds and scored by its fraction of maximal episodes); and
the composite figure of merit robustness * success^2 / learning_time, where
success is squared to punish unreliable convergence.

The matrix-level functions operate on plain per-replication reward
sequences and are the reference arithmetic; record-level wrappers extract
those sequences (and re-run policies for robustness) from RunRecords.
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .dsl.episode import run_episode
from .dsl.parser import parse
from .envs import get_spec, make
from .envs.core import derive_seed
from .loop.records import RunRecord, as_json

Matrix = Sequence[Sequence[float]]


class MetricsError(ValueError):
    pass


class MetricNotApplicableError(MetricsError):
    """The task has no defined maximum reward, so success-relative metrics
    cannot be computed."""


def _pairwise_sum(values: list[float]) -> float:
    """numpy's pairwise summation of float64 values (``pairwise_sum`` in its
    add loop): a plain running sum below 8 values, eight interleaved
    accumulators up to 128, and above that two halves split at a multiple
    of 8."""
    n = len(values)
    if n < 8:
        total = 0.0
        for value in values:
            total += value
        return total
    if n <= 128:
        r = values[:8]
        stop = n - n % 8
        for i in range(8, stop, 8):
            for j in range(8):
                r[j] += values[i + j]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for value in values[stop:]:
            total += value
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


def _mean(values: Sequence[float]) -> float:
    """``float(np.mean(values))`` to the bit: the sum starts from add's
    identity 0.0 (so a lone -0.0 averages to 0.0), then is divided by the
    count. Ints are summed as floats, as numpy casts them; numpy casts in
    buffers of 8,192 values, so only an all-int list longer than that can
    differ from it."""
    values = [float(v) for v in values]
    return (0.0 + _pairwise_sum(values)) / len(values)


def _require_rows(matrix: Matrix) -> None:
    if not matrix:
        raise MetricsError("no reward data given")


def _require_finite(values: Iterable[float], what: str) -> None:
    if not all(math.isfinite(v) for v in values):
        raise MetricsError(f"{what} contain a non-finite value")


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
    return _mean(values)


def first_hit(row: Sequence[float], r_max: float, t_max: int) -> Optional[int]:
    """1-based index of the first iteration at the maximum, within t_max."""
    for t, value in enumerate(row[:t_max], start=1):
        if value == r_max:
            return t
    return None


def successful_set(matrix: Matrix, r_max: float, t_max: int) -> list[int]:
    _require_rows(matrix)
    if r_max is None:
        raise MetricNotApplicableError("task defines no maximum reward")
    return [j for j, row in enumerate(matrix) if first_hit(row, r_max, t_max) is not None]


def success(matrix: Matrix, r_max: float, t_max: int) -> float:
    """Fraction of replications that reach r_max within t_max iterations."""
    _require_rows(matrix)
    if r_max is None:
        raise MetricNotApplicableError("task defines no maximum reward")
    hits = len(successful_set(matrix, r_max, t_max))
    return hits / len(matrix)


def learning_time(matrix: Matrix, r_max: float, t_max: int) -> Optional[float]:
    """Mean first-hit iteration / t_max over successful replications.

    None when no replication succeeded (the metric is undefined then, and
    the figure of merit is reported absent).
    """
    hits = [
        t
        for row in matrix
        if (t := first_hit(row, r_max, t_max)) is not None
    ]
    if not hits:
        return None
    return _mean([t / t_max for t in hits])


def robustness_from_returns(
    eval_returns: Mapping[int, Sequence[float]], r_max: float
) -> Optional[float]:
    """Mean over replications of the fraction of evaluation episodes at
    r_max; caller supplies the episode returns per successful replication."""
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
    return _mean(fractions)


def figure_of_merit(
    robustness_value: Optional[float],
    success_value: float,
    learning_time_value: Optional[float],
) -> Optional[float]:
    """robustness * success^2 / learning_time; absent without successes."""
    if robustness_value is None or learning_time_value is None:
        return None
    return robustness_value * success_value**2 / learning_time_value


def improvement_ratio_values(
    initial: float, best: float, reference: Optional[float]
) -> Optional[float]:
    """(best - initial) / (reference - initial); absent when degenerate."""
    if reference is None or reference == initial:
        return None
    return (best - initial) / (reference - initial)


# --------------------------------------------------------------------------
# Record-level layer
# --------------------------------------------------------------------------


def reward_sequences(records: Sequence[RunRecord]) -> list[list[float]]:
    return [r.per_iteration_rewards for r in records]


def _check_same_cell(records: Sequence[RunRecord]) -> None:
    if not records:
        raise MetricsError("no records given")
    key = (records[0].task_id, records[0].model_name, records[0].temperature)
    for r in records[1:]:
        if (r.task_id, r.model_name, r.temperature) != key:
            raise MetricsError(
                "records mix tasks/models/temperatures; aggregate one cell at a time"
            )


def robustness(
    records: Sequence[RunRecord],
    r_max: float,
    t_max: int,
    n_eval: int = 2000,
) -> Optional[float]:
    """Re-run each successful replication's first maximal strategy on
    n_eval fresh seeded episodes and average the maximal-episode fractions."""
    if n_eval < 1:
        raise MetricsError(f"n_eval must be at least 1, got {n_eval}")
    _check_same_cell(records)
    eval_returns: dict[int, list[float]] = {}
    for j, record in enumerate(records):
        hit = first_hit(record.per_iteration_rewards, r_max, t_max)
        if hit is None:
            continue
        strategy = record.strategies[hit - 1]
        spec = get_spec(record.task_id)
        program = parse(strategy.program_source, expected_params=spec.obs_names)
        env = make(record.task_id)
        returns = []
        for ep in range(n_eval):
            rng = random.Random(
                derive_seed(record.seed_root, record.replication_index, "robustness", ep, "policy")
            )
            seed = derive_seed(
                record.seed_root, record.replication_index, "robustness", ep, "env"
            )
            returns.append(run_episode(program, record.task_id, seed, rng, env=env).total_reward)
        eval_returns[j] = returns
    return robustness_from_returns(eval_returns, r_max)


def improvement_ratio(
    records: Sequence[RunRecord], r_max: Optional[float] = None
) -> Optional[float]:
    """Gain of the mean best reward over the mean initial reward, measured
    against the task maximum when defined, otherwise against the best reward
    seen anywhere in the batch."""
    _require_rows([r.per_iteration_rewards for r in records])
    rows = [r.per_iteration_rewards for r in records if r.per_iteration_rewards]
    if not rows:
        raise MetricsError("records contain no evaluated strategies")
    initial = _mean([row[0] for row in rows])
    best = _mean([max(row) for row in rows])
    reference = r_max if r_max is not None else max(max(row) for row in rows)
    return improvement_ratio_values(initial, best, reference)


@dataclass(kw_only=True)
class MetricsReport:
    task_id: str = ""
    model_name: str = ""
    temperature: Optional[float] = None
    average_reward: float
    success: Optional[float]
    robustness: Optional[float]
    learning_time: Optional[float]
    fom: Optional[float]
    improvement_ratio: Optional[float] = None
    successful_set: list[int]
    n_reps: int
    n_episodes: int
    r_max: Optional[float]
    n_eval: int

    def to_dict(self) -> dict:
        return as_json(self)


def compute_report(
    records: Sequence[RunRecord],
    r_max: Optional[float] = None,
    t_max: Optional[int] = None,
    n_eval: int = 2000,
    include_robustness: bool = True,
) -> MetricsReport:
    """All metrics for one experimental cell.

    ``r_max``/``t_max`` default to the task's defined maximum and the
    largest epoch budget among the records, so the report does not depend
    on their order. For tasks without a maximum the success-relative
    metrics are reported absent. A ``t_max`` above every record's epoch
    budget, or an ``r_max`` below a reward the records reached, is refused.
    """
    _check_same_cell(records)
    if r_max is None:
        r_max = get_spec(records[0].task_id).r_max
    epochs = max(r.config.epochs for r in records)
    if t_max is None:
        t_max = epochs
    elif t_max > epochs:
        # rows that hit the maximum would be padded out to t_max
        raise MetricsError(f"t_max {t_max} is above the records' epoch budget {epochs}")
    matrix = reward_sequences(records)

    avg = average_reward(matrix, r_max, t_max)
    # average_reward refused empty or non-finite rows
    reached = max(v for row in matrix for v in row)
    if r_max is not None and r_max < reached:
        raise MetricsError(f"r_max {r_max} is below the reward {reached} the records reached")
    succ = lt = rob = None
    hits: list[int] = []
    if r_max is not None:
        succ = success(matrix, r_max, t_max)
        lt = learning_time(matrix, r_max, t_max)
        if include_robustness:
            rob = robustness(records, r_max, t_max, n_eval=n_eval)
        hits = successful_set(matrix, r_max, t_max)
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
        improvement_ratio=improvement_ratio(records, r_max),
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
                rep.task_id or "-",
                rep.model_name or "-",
                f"{rep.temperature:.1f}" if rep.temperature is not None else "-",
                f"{rep.average_reward:.2f}",
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
