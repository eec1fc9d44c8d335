"""Metric arithmetic against brute-force transcriptions, reported-value
regressions, range/monotonicity properties, and the robustness re-run."""

import itertools
import json
import math
import random
import re
import weakref

import numpy as np
import pytest

from policyloop.metrics import (
    MetricNotApplicableError,
    MetricsError,
    average_reward,
    compute_report,
    figure_of_merit,
    first_hit,
    improvement_ratio,
    improvement_ratio_values,
    learning_time,
    render_table,
    reward_curve_csv,
    robustness,
    robustness_from_returns,
    success,
    successful_set,
)
from policyloop.envs import ALL_TASKS, get_spec
from policyloop.loop import RunRecord, runner
from policyloop.loop.records import mean as _mean

from conftest import FIXTURES, make_records, transcript_text

R_MAX = 500.0
T_MAX = 100


# -- brute-force transcriptions (independent of the module under test) --------


def brute_eq1(matrix):
    total, n = 0.0, 0
    for row in matrix:
        for value in row:
            total += value
            n += 1
    return total / n


def brute_eq2(matrix, r_max, t_max):
    hits = 0
    for row in matrix:
        ok = False
        for t in range(min(len(row), t_max)):
            if row[t] == r_max:
                ok = True
        if ok:
            hits += 1
    return hits / len(matrix)


def brute_eq3(eval_returns, r_max):
    if not eval_returns:
        return None
    fractions = []
    for rep in sorted(eval_returns):
        returns = eval_returns[rep]
        count = 0
        for value in returns:
            if value == r_max:
                count += 1
        fractions.append(count / len(returns))
    return sum(fractions) / len(fractions)


def brute_eq4(matrix, r_max, t_max):
    fractions = []
    for row in matrix:
        for t in range(min(len(row), t_max)):
            if row[t] == r_max:
                fractions.append((t + 1) / t_max)
                break
    if not fractions:
        return None
    return sum(fractions) / len(fractions)


def brute_eq5(rob, succ, lt):
    return rob * succ * succ / lt


def synthetic_matrix(rng, n_reps=10, n_iters=100, hit_prob=0.35):
    """Random reward rows with r_max values planted in some replications."""
    matrix = []
    for _ in range(n_reps):
        row = [round(rng.uniform(0.0, 499.0), 2) for _ in range(n_iters)]
        if rng.random() < hit_prob:
            for _ in range(rng.randint(1, 4)):
                row[rng.randrange(n_iters)] = R_MAX
        matrix.append(row)
    return matrix


def synthetic_eval_returns(rng, successful, n_eval=2000):
    return {
        j: [R_MAX if rng.random() < rng.uniform(0.2, 1.0) else 250.0 for _ in range(n_eval)]
        for j in successful
    }


def test_oracle_equivalence_on_randomized_matrices():
    rng = random.Random(2024)
    for case in range(25):
        matrix = synthetic_matrix(rng)
        assert average_reward(matrix) == pytest.approx(brute_eq1(matrix), abs=1e-9)
        assert success(matrix, R_MAX, T_MAX) == pytest.approx(
            brute_eq2(matrix, R_MAX, T_MAX), abs=1e-9
        )
        expected_lt = brute_eq4(matrix, R_MAX, T_MAX)
        got_lt = learning_time(matrix, R_MAX, T_MAX)
        if expected_lt is None:
            assert got_lt is None
        else:
            assert got_lt == pytest.approx(expected_lt, abs=1e-9)

        hits = successful_set(matrix, R_MAX, T_MAX)
        returns = synthetic_eval_returns(rng, hits)
        expected_rob = brute_eq3(returns, R_MAX)
        got_rob = robustness_from_returns(returns, R_MAX)
        if expected_rob is None:
            assert got_rob is None
            assert figure_of_merit(got_rob, success(matrix, R_MAX, T_MAX), got_lt) is None
        else:
            assert got_rob == pytest.approx(expected_rob, abs=1e-9)
            assert figure_of_merit(got_rob, success(matrix, R_MAX, T_MAX), got_lt) == pytest.approx(
                brute_eq5(expected_rob, brute_eq2(matrix, R_MAX, T_MAX), expected_lt),
                abs=1e-9,
            )


# -- the mean ----------------------------------------------------------------------

# numpy's pairwise sum switches form below 8, at 128 and at each split; the
# shared mean sums left to right at every length
PAIRWISE_EDGES = [7, 8, 9, 15, 16, 17, 127, 128, 129, 255, 256, 257, 1023, 1024, 1025]


def _same_float(a, b):
    return math.copysign(1.0, a) == math.copysign(1.0, b) and a == b


def _left_to_right_mean(values):
    total = 0.0
    for value in values:
        total = total + float(value)
    return total / len(values)


def test_mean_matches_a_left_to_right_sum_on_lengths_1_to_3000():
    """Values spread over 16 orders of magnitude, so any other summation
    order rounds differently somewhere."""
    gen = np.random.default_rng(7)
    misses = []
    for n in range(1, 3001):
        values = (gen.standard_normal(n) * 10.0 ** gen.integers(-8, 9, n)).tolist()
        if not _same_float(_mean(values), _left_to_right_mean(values)):
            misses.append(n)
    assert misses == []


@pytest.mark.parametrize("n", PAIRWISE_EDGES)
def test_mean_matches_a_left_to_right_sum_at_the_pairwise_edges(n):
    gen = np.random.default_rng(n)
    for _ in range(50):
        values = (gen.random(n) * 10.0 ** gen.integers(-3, 17, n)).tolist()
        assert _same_float(_mean(values), _left_to_right_mean(values))


@pytest.mark.parametrize("n", [1, 2, 5, *PAIRWISE_EDGES, 3000])
def test_mean_matches_a_left_to_right_sum_on_ints(n):
    gen = np.random.default_rng(n)
    for high in (10, 2**40, 2**62):
        values = gen.integers(-high, high, n).tolist()
        assert all(type(v) is int for v in values)
        assert _same_float(_mean(values), _left_to_right_mean(values))


def test_mean_sums_left_to_right_without_compensation():
    # Python 3.12's sum() and math.fsum both give 2.0, so a mean of 0.5
    assert _mean([1e16, 1.0, -1e16, 1.0]) == 0.25
    assert _same_float(_mean([-0.0]), 0.0)


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 128, 129, 257])
def test_mean_matches_numpy_on_signed_zeros(n):
    cases = ([-0.0] * n, [0.0] * n, [-0.0, 0.0] * n, [0.0, -0.0] * n, [-0.0] * n + [1e-300, -1e-300])
    for values in cases:
        assert _same_float(_mean(values), float(np.mean(values))), values


# -- reported-value regressions -------------------------------------------------


def test_learning_time_floor_for_first_iteration_success():
    # a single replication succeeding at iteration 1 of 100
    assert learning_time([[R_MAX] + [0.0] * 99], R_MAX, 100) == pytest.approx(0.01)


def test_learning_time_upper_bound():
    row = [0.0] * 99 + [R_MAX]
    assert learning_time([row], R_MAX, 100) == pytest.approx(1.0)


def test_success_seven_of_ten():
    matrix = [[R_MAX if j < 7 else 100.0] * 10 for j in range(10)]
    assert success(matrix, R_MAX, T_MAX) == pytest.approx(0.7)


def test_success_boundary_inclusion_at_t_max():
    row = [0.0] * (T_MAX - 1) + [R_MAX]
    assert success([row], R_MAX, T_MAX) == 1.0
    # one iteration past the budget does not count
    late = [0.0] * T_MAX + [R_MAX]
    assert success([late], R_MAX, T_MAX) == 0.0


def test_improvement_ratio_at_the_maximum():
    records = make_records([[18.31, 250.0, 500.0]])
    assert improvement_ratio(records, r_max=500.0) == pytest.approx(1.00)


def test_improvement_ratio_against_batch_best():
    # no defined maximum: the reference is the best reward seen in the batch
    records = make_records([[-200.0, -110.0], [-200.0, -90.0]], task="Acrobot", epochs=50)
    initial, best, reference = -200.0, np.mean([-110.0, -90.0]), -90.0
    expected = (best - initial) / (reference - initial)
    assert improvement_ratio(records) == pytest.approx(expected)
    assert improvement_ratio_values(-200.0, -110.0, -90.0) == pytest.approx(0.818, abs=1e-3)


def test_improvement_ratio_zero_without_improvement():
    # flat trajectory: zero gain no matter the reference
    assert improvement_ratio_values(-500.0, -500.0, -90.0) == 0.0
    assert improvement_ratio_values(-500.0, -500.0, 500.0) == 0.0


def test_improvement_ratio_degenerate_reference():
    assert improvement_ratio_values(-500.0, -500.0, -500.0) is None
    records = make_records([[-500.0, -500.0]], task="Acrobot", epochs=50)
    assert improvement_ratio(records) is None


@pytest.mark.parametrize(
    "rob,succ,lt,expected",
    [(1.0, 1.0, 0.01, 100.0), (1.0, 0.7, 0.04, 12.25), (0.5, 1.0, 1.0, 0.5)],
)
def test_figure_of_merit_values(rob, succ, lt, expected):
    assert figure_of_merit(rob, succ, lt) == pytest.approx(expected)


# -- unit behaviors ---------------------------------------------------------------


def test_average_reward_simple_means():
    assert average_reward([[100.0, 300.0]]) == 200.0
    assert average_reward([[500.0] * 100, [500.0] * 100]) == 500.0


def test_average_reward_linear_ramp_matches_hand_computation():
    matrix = [[float(100 * j + k) for k in range(100)] for j in range(10)]
    expected = sum(100 * j + k for j in range(10) for k in range(100)) / 1000
    assert average_reward(matrix) == pytest.approx(expected, abs=1e-9)


def test_average_reward_carries_early_stop_forward():
    # stopped after hitting the max at iteration 3 of 5
    matrix = [[100.0, 300.0, R_MAX]]
    padded_mean = (100.0 + 300.0 + R_MAX * 3) / 5
    assert average_reward(matrix, r_max=R_MAX, t_max=5) == pytest.approx(padded_mean)
    # aborted rows (no max at the end) are not padded
    aborted = [[100.0, 300.0]]
    assert average_reward(aborted, r_max=R_MAX, t_max=5) == 200.0


def test_average_reward_empty_errors():
    with pytest.raises(MetricsError):
        average_reward([])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_average_reward_rejects_non_finite(bad):
    with pytest.raises(MetricsError, match="non-finite"):
        average_reward([[1.0, 2.0], [3.0, bad]])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_robustness_from_returns_rejects_non_finite(bad):
    with pytest.raises(MetricsError, match="non-finite"):
        robustness_from_returns({0: [R_MAX, R_MAX], 3: [R_MAX, bad]}, R_MAX)


def test_success_requires_r_max():
    with pytest.raises(MetricNotApplicableError):
        success([[1.0]], None, 10)


def test_first_hit_is_one_based():
    assert first_hit([R_MAX], R_MAX, 10) == 1
    assert first_hit([0.0, R_MAX], R_MAX, 10) == 2
    assert first_hit([0.0, 0.0], R_MAX, 10) is None


def test_learning_time_hand_average():
    rows = [
        [0.0] * 3 + [R_MAX] + [0.0] * 96,   # first hit at 4
        [0.0] * 9 + [R_MAX] + [0.0] * 90,   # first hit at 10
        [0.0] * 100,                         # never
    ]
    assert learning_time(rows, R_MAX, 100) == pytest.approx(0.07)


def test_learning_time_none_without_successes():
    assert learning_time([[0.0] * 10], R_MAX, 10) is None
    assert figure_of_merit(None, 0.0, None) is None


# -- properties --------------------------------------------------------------------


def test_success_monotone_in_added_successful_replication():
    rng = random.Random(5)
    for _ in range(20):
        matrix = synthetic_matrix(rng, n_reps=6)
        base = success(matrix, R_MAX, T_MAX)
        grown = matrix + [[R_MAX] * 100]
        assert success(grown, R_MAX, T_MAX) >= base


def test_learning_time_improves_with_earlier_hit():
    row = [0.0] * 50 + [R_MAX] + [0.0] * 49
    earlier = [R_MAX] + [0.0] * 99
    assert learning_time([earlier], R_MAX, T_MAX) <= learning_time([row], R_MAX, T_MAX)


def test_range_conformance_on_random_matrices():
    rng = random.Random(11)
    for _ in range(50):
        matrix = synthetic_matrix(rng, n_reps=8, n_iters=40)
        s = success(matrix, R_MAX, 40)
        assert 0.0 <= s <= 1.0
        lt = learning_time(matrix, R_MAX, 40)
        if lt is not None:
            assert 1.0 / 40 <= lt <= 1.0
        returns = synthetic_eval_returns(rng, successful_set(matrix, R_MAX, 40), n_eval=50)
        rob = robustness_from_returns(returns, R_MAX)
        if rob is not None:
            assert 0.0 <= rob <= 1.0


# -- robustness re-evaluation -------------------------------------------------------


FRAGILE = (
    "def get_action(cart_position, cart_velocity, pole_angle, pole_angular_velocity):\n"
    "    if 0.02 * cart_position + 0.1 * cart_velocity + 0.5 * pole_angle + pole_angular_velocity > 1:\n"
    "        return 2\n"
    "    return 1\n"
)


def test_robust_policy_scores_one():
    records = make_records(
        [[R_MAX]], program_source=transcript_text("code_optimal.py") + "\n"
    )
    assert robustness(records, R_MAX, t_max=10, n_eval=40) == 1.0


def test_fragile_policy_matches_independent_estimate():
    """The biased controller recovers only from initial states leaning one
    way; its re-evaluated success fraction must match an independent
    Monte-Carlo estimate of the same probability within binomial noise."""
    import random as pyrandom

    from policyloop.dsl import parse, run_episode
    from policyloop.envs import TaskId
    from policyloop.envs.core import derive_seed

    n_eval = 300
    records = make_records([[R_MAX]], program_source=FRAGILE, seed_root=0)
    fraction = robustness(records, R_MAX, t_max=10, n_eval=n_eval)

    program = parse(FRAGILE)
    wins = 0
    for ep in range(n_eval):
        seed = derive_seed(99, "independent-estimate", ep)
        trace = run_episode(program, TaskId.CARTPOLE_STAR2, seed, pyrandom.Random(0))
        wins += trace.total_reward == R_MAX
    estimate = wins / n_eval

    sigma = (0.25 / n_eval) ** 0.5  # worst-case binomial sd
    assert 0.2 < fraction < 0.8  # genuinely fragile
    assert abs(fraction - estimate) < 6 * sigma * 2**0.5


# FRAGILE with a coin flip in the band below its threshold, so that both the
# initial states and the policy's draws move its score
FRAGILE_COIN = (
    "def get_action(cart_position, cart_velocity, pole_angle, pole_angular_velocity):\n"
    "    if 0.02 * cart_position + 0.1 * cart_velocity + 0.5 * pole_angle + pole_angular_velocity > 1:\n"
    "        return 2\n"
    "    if 0.02 * cart_position + 0.1 * cart_velocity + 0.5 * pole_angle + pole_angular_velocity > 0.5:\n"
    "        return random.randint(1, 2)\n"
    "    return 1\n"
)


def test_robustness_episode_seeds_are_frozen():
    """Robustness episode ``ep`` of replication ``r`` under seed root ``s``
    starts from ``derive_seed(s, r, "robustness", ep, "env")`` and feeds its
    policy a ``random.Random(derive_seed(s, r, "robustness", ep, "policy"))``.
    Each of these keys changed alone moves the value: the two last parts
    swapped give 0.92, "policy" renamed 0.92, iteration 0 in place of
    "robustness" 0.90, and the replication left out 0.88."""
    record = make_records([[R_MAX]] * 4, program_source=FRAGILE_COIN, seed_root=5)[3]
    assert record.replication_index == 3
    assert robustness([record], R_MAX, t_max=10, n_eval=200) == 0.87
    fragile = make_records([[R_MAX]], program_source=FRAGILE, seed_root=0)
    assert robustness(fragile, R_MAX, t_max=10, n_eval=300) == 146 / 300


def test_robustness_keeps_at_most_two_traces_alive(monkeypatch):
    # each trace holds every observation of its episode; 2000 of them are
    # the default rerun
    refs = []
    most = 0

    def spy(*args, **kwargs):
        nonlocal most
        trace = real_run_episode(*args, **kwargs)
        refs.append(weakref.ref(trace))
        most = max(most, sum(ref() is not None for ref in refs))
        return trace

    real_run_episode = runner.run_episode
    monkeypatch.setattr(runner, "run_episode", spy)
    records = make_records([[R_MAX]], program_source=FRAGILE)
    robustness(records, R_MAX, t_max=10, n_eval=50)
    assert len(refs) == 50
    assert most <= 2


def test_robustness_is_deterministic():
    records = make_records([[R_MAX]], program_source=FRAGILE)
    a = robustness(records, R_MAX, t_max=10, n_eval=60)
    b = robustness(records, R_MAX, t_max=10, n_eval=60)
    assert a == b


@pytest.mark.parametrize("n_eval", [0, -1])
def test_robustness_refuses_fewer_than_one_episode(n_eval):
    records = make_records([[R_MAX]], program_source="this is not parsed")
    with pytest.raises(MetricsError, match=f"n_eval must be at least 1, got {n_eval}"):
        robustness(records, R_MAX, t_max=10, n_eval=n_eval)
    with pytest.raises(MetricsError, match="n_eval"):
        compute_report(records, n_eval=n_eval)


def test_robustness_absent_without_successes():
    records = make_records([[10.0, 20.0]])
    assert robustness(records, R_MAX, t_max=10, n_eval=10) is None


# -- reports -----------------------------------------------------------------------


def test_compute_report_composes_components():
    rows = [[100.0, R_MAX], [50.0, 60.0]]
    records = make_records(rows, program_source=transcript_text("code_optimal.py") + "\n", epochs=2)
    report = compute_report(records, n_eval=20)
    assert report.success == 0.5
    assert report.learning_time == pytest.approx(1.0)
    assert report.robustness == 1.0
    assert report.fom == pytest.approx(1.0 * 0.25 / 1.0)
    assert report.successful_set == [0]
    assert report.n_reps == 2
    data = report.to_dict()
    assert data["fom"] == report.fom


def test_compute_report_without_defined_max():
    records = make_records([[-500.0, -200.0]], task="Acrobot", epochs=50)
    report = compute_report(records)
    assert report.to_dict() == {
        "task_id": "Acrobot",
        "model_name": "scripted-model",
        "temperature": 0.0,
        "average_reward": -350.0,
        "success": None,
        "robustness": None,
        "learning_time": None,
        "fom": None,
        "improvement_ratio": 1.0,
        "successful_set": [],
        "n_reps": 1,
        "n_episodes": 50,
        "r_max": None,
        "n_eval": 2000,
    }
    assert render_table([report]).splitlines() == [
        "Task     Model           Temp  AvgReward  Success  Robustness  LearnTime  FoM  Improv",
        "-------  --------------  ----  ---------  -------  ----------  ---------  ---  ------",
        "Acrobot  scripted-model  0.0   -350.00    -        -           -          -    1.00  ",
    ]


def test_compute_report_rejects_mixed_cells():
    a = make_records([[1.0]], temperature=0.0)
    b = make_records([[1.0]], temperature=0.8)
    with pytest.raises(MetricsError, match="one cell"):
        compute_report(a + b)


def test_compute_report_refuses_two_records_of_one_replication():
    """Two records of one seed root and replication index would count that
    replication twice (three copies of a success beside a failure read
    success 0.75); a record of another seed root is another replication."""
    repaired, aborted = (
        RunRecord.load(FIXTURES / "records" / f"CartPoleStar2_{name}.json")
        for name in ("code_repaired", "aborted_backend")
    )
    message = "cell CartPoleStar2/scripted-model/t0.0 holds two records of seed root 3, replication 0"
    for records in ([repaired] * 3 + [aborted], [repaired, aborted]):
        for include_robustness in (True, False):
            with pytest.raises(MetricsError, match=re.escape(message)):
                compute_report(records, n_eval=5, include_robustness=include_robustness)
    report = compute_report([repaired] + make_records([[100.0]], seed_root=4), n_eval=5)
    assert (report.n_reps, report.success, report.successful_set) == (2, 0.5, [0])


def test_compute_report_refuses_a_reward_above_the_task_maximum():
    """Only a hand-edited record can hold one; scored, it would count as
    no success at all."""
    records = make_records([[100.0, R_MAX], [50.0, 600.0]], epochs=2)
    message = "a record reached 600.0, above the task maximum 500.0"
    for include_robustness in (True, False):
        with pytest.raises(MetricsError, match=re.escape(message)):
            compute_report(records, n_eval=5, include_robustness=include_robustness)
    assert compute_report(records[:1], include_robustness=False).success == 1.0


@pytest.mark.parametrize("task", ALL_TASKS, ids=lambda t: t.value)
def test_compute_report_scores_against_the_task_maximum(task):
    r_max = get_spec(task).r_max
    top = r_max if r_max is not None else -90.0
    records = make_records([[top - 50.0, top], [top - 60.0] * 4], task=task, epochs=4)
    report = compute_report(records, include_robustness=False)
    assert (report.r_max, report.n_episodes) == (r_max, 4)
    if r_max is None:
        assert (report.success, report.learning_time, report.successful_set) == (None, None, [])
    else:
        assert (report.success, report.learning_time, report.successful_set) == (0.5, 0.5, [0])


def test_compute_report_averages_every_row_over_the_epoch_budget():
    """A row that stopped early at the maximum is carried to the budget, so
    it counts as many epochs as a row that ran the whole budget."""
    records = make_records([[100.0, R_MAX], [200.0] * 10], epochs=10)
    report = compute_report(records, include_robustness=False)
    assert report.average_reward == (100.0 + 9 * R_MAX + 10 * 200.0) / 20
    assert report.n_episodes == 10


COMPLETED = FIXTURES / "records" / "CartPoleStar2_completed.json"


@pytest.mark.parametrize("n_eval", [0, -5])
def test_compute_report_refuses_fewer_than_one_evaluation_episode(n_eval):
    """Checked whether or not robustness runs."""
    records = [RunRecord.load(COMPLETED)]
    with pytest.raises(MetricsError, match=f"n_eval must be at least 1, got {n_eval}"):
        compute_report(records, n_eval=n_eval, include_robustness=False)
    assert compute_report(records, include_robustness=False).success == 1.0


def test_render_table_and_csv():
    records = make_records([[100.0, R_MAX]], epochs=2)
    report = compute_report(records, include_robustness=False)
    table = render_table([report])
    assert "AvgReward" in table and "CartPoleStar2" in table
    csv_text = reward_curve_csv(records)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "task,model,temperature,replication,iteration,mean_reward"
    assert len(lines) == 3


def test_compute_report_default_horizon_does_not_depend_on_record_order():
    two = make_records([[100.0, R_MAX]], epochs=2)
    three = make_records([[R_MAX]], epochs=3, seed_root=1)
    reports = [
        compute_report(records, include_robustness=False).to_dict()
        for records in (two + three, three + two)
    ]
    assert reports[0] == reports[1]
    assert reports[0]["n_episodes"] == 3


def test_compute_report_does_not_depend_on_record_order():
    rng = random.Random(20)
    for _ in range(40):
        rows = []
        for _ in range(3):
            row = [round(rng.uniform(9.0, 499.0), 2) for _ in range(rng.randint(1, 6))]
            if rng.random() < 0.5:
                row.append(R_MAX)
            rows.append(row)
        records = make_records(rows, task="CartPole", epochs=8)
        reports = {
            json.dumps(compute_report(order, include_robustness=False).to_dict(), sort_keys=True)
            for order in itertools.permutations(records)
        }
        assert len(reports) == 1, rows


def test_compute_report_names_successful_replications_by_index():
    records = make_records([[100.0, R_MAX], [100.0, 200.0]], epochs=2)
    for order in (records, records[::-1]):
        assert compute_report(order, include_robustness=False).successful_set == [0]
    # replication 1 alone succeeded
    records = make_records([[100.0, 200.0], [100.0, R_MAX]], epochs=2)
    assert compute_report(records[1:], include_robustness=False).successful_set == [1]


@pytest.mark.parametrize("include_robustness", [True, False])
def test_a_cell_with_no_evaluation_scores_success_zero_and_nothing_else(include_robustness):
    """Every replication aborted before its first evaluation: success 0.0
    where the task has a maximum, every reward-based metric absent."""
    records = make_records([[], []], epochs=5)
    report = compute_report(records, n_eval=5, include_robustness=include_robustness)
    assert report.to_dict() == {
        "task_id": "CartPoleStar2",
        "model_name": "scripted-model",
        "temperature": 0.0,
        "average_reward": None,
        "success": 0.0,
        "robustness": None,
        "learning_time": None,
        "fom": None,
        "improvement_ratio": None,
        "successful_set": [],
        "n_reps": 2,
        "n_episodes": 5,
        "r_max": R_MAX,
        "n_eval": 5,
    }
    assert render_table([report]).splitlines()[-1].split() == [
        "CartPoleStar2", "scripted-model", "0.0", "-", "0.00", "-", "-", "-", "-",
    ]
    # a task without a maximum has no success to score either
    report = compute_report(make_records([[]], task="Acrobot", epochs=5))
    assert (report.average_reward, report.success, report.improvement_ratio) == (None, None, None)
    # the matrix-level functions still refuse rows with no reward
    with pytest.raises(MetricsError, match="reward rows are all empty"):
        average_reward([[], []])
    with pytest.raises(MetricsError, match="no evaluated strategies"):
        improvement_ratio(records, R_MAX)


def test_a_first_maximal_program_that_no_longer_parses_is_a_metrics_error():
    records = make_records([[100.0, 200.0], [100.0, R_MAX, R_MAX]], program_source="def (")
    message = r"replication 1, iteration 1: the first maximal program no longer parses \("
    with pytest.raises(MetricsError, match=message):
        robustness(records, R_MAX, t_max=10, n_eval=5)
    with pytest.raises(MetricsError, match=message):
        compute_report(records, n_eval=5)
    assert compute_report(records, include_robustness=False).success == 0.5
