import pytest

from perfbench import measure
from perfbench.workloads import WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_small_run_checks_out_and_repeats_its_digest(name, tmp_path):
    first = measure.untraced_run(WORKLOADS[name], 7, 0.2, tmp_path / "a")
    second = measure.untraced_run(WORKLOADS[name], 7, 0.2, tmp_path / "b")
    assert first.problems == [] and first.failed == 0
    assert first.detail["digest"] == second.detail["digest"]
    assert set(first.values) >= {"setup_s", "wall_s", "harness_ms_per_call"}
    assert all(value > 0 for value, _ in first.values.values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_the_traced_run_shows_why_the_workload_exists(name, tmp_path):
    outcome = measure.traced_run(WORKLOADS[name], 7, 0.2, tmp_path)
    values = {key: value for key, (value, _) in outcome.values.items()}
    assert outcome.problems == []
    if name == "live-http":
        assert values["gateway.attempts_per_call"] > 1
    else:
        assert values["gateway.calls"] == 0
    if name == "robustness":
        assert values["rollout_self_share"] > 0.5
    if name == "refine-repair":
        assert values["rollout_self_share"] < 0.5
        assert values["prompts.repair_useful_ratio"] < 1
