"""Turns a workload run into the benchmark's metrics.

An untraced run sets the workload up several times (``setup_s`` is the
median), runs the timed part once and checks its outputs. Every time is
scaled by the host's speed, read beside it from a reference loop (see
``speed``). A traced run
first repeats the untraced timed part for reference, then runs it again with
spans on every layer boundary (see ``tracing``) and derives the per-layer
metrics; ``trace_overhead_share`` compares the two walls.
"""

from __future__ import annotations

import resource
import statistics
from dataclasses import dataclass
from typing import Optional

from .speed import Meter
from .tracing import EpisodeCounter, SpanStats, Tracer

# Reference readings on each side of a set-up.
SETUP_READINGS = 3
# Set-ups per untraced run, before and after the timed part, so that their
# median spans the run rather than one moment of it.
SETUP_BEFORE = 3
SETUP_AFTER = 6

LAYERS = ("envs", "dsl", "prompts", "loop", "gateway", "metrics")
STEP_TASKS = (
    "CartPole",
    "CartPoleStar1",
    "CartPoleStar2",
    "InvertedPendulum",
    "Acrobot",
    "Pendulum",
    "MountainCarContinuous",
)
# Self time of these spans is the rollout cost: simulation, policy evaluation
# and the episode loop around them.
ROLLOUT_SPANS = ("envs.step.", "envs.reset", "envs.derive_seed", "dsl.evaluate", "dsl.run_episode.")


@dataclass
class Outcome:
    values: dict  # name -> (value, unit)
    detail: dict
    problems: list
    attempted: int
    failed: int
    tracer: Optional[Tracer] = None


def tail(samples: list) -> tuple[int, float]:
    """(p, value): the highest whole percentile with at least 10 samples above
    it, by nearest rank. With 20 samples or fewer it is the median."""
    values = sorted(samples)
    n = len(values)
    for pct in range(99, 50, -1):
        rank = -(-pct * n // 100)
        if n - rank >= 10:
            return pct, values[rank - 1]
    return 50, values[-(-50 * n // 100) - 1]


def timed_setup(cls, seed: int, seconds: float, out_dir):
    """A set-up workload and the seconds its set-up took, scaled."""
    workload = cls(seed, seconds, out_dir)
    meter = Meter()
    meter.mark(SETUP_READINGS)
    workload.setup()
    meter.mark(SETUP_READINGS)
    return workload, meter.scaled()[0]


def _run_and_check(workload, tracer: Tracer):
    try:
        with tracer:
            timed = workload.run(tracer)
        return timed, workload.check(timed)
    finally:
        workload.close()


def untraced_run(cls, seed: int, seconds: float, out_dir) -> Outcome:
    times = []
    for _ in range(SETUP_BEFORE):
        workload, took = timed_setup(cls, seed, seconds, out_dir)
        times.append(took)
        if len(times) < SETUP_BEFORE:
            workload.close()
    timed, checked = _run_and_check(workload, EpisodeCounter())
    for _ in range(SETUP_AFTER):
        extra, took = timed_setup(cls, seed, seconds, out_dir)
        extra.close()
        times.append(took)
    setup_s = statistics.median(times)
    pct, tail_value = tail(timed.samples)
    wall = timed.wall_s
    calls = checked.chat_calls or len(timed.samples)
    values = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "replications_per_s": (checked.units / wall, "1/s"),
        "replication_s_p50": (statistics.median(timed.samples), "s"),
        "replication_s_tail": (tail_value, "s"),
        "episodes_per_s": (timed.episodes / wall, "1/s"),
        "steps_per_s": (timed.steps / wall, "1/s"),
        "harness_ms_per_call": ((wall - timed.model_s) / calls * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {
        "replication_s_tail_percentile": pct,
        "replication_samples": len(timed.samples),
        "harness_calls": calls,
        "harness_calls_are": "chat calls" if checked.chat_calls else "compute_report calls",
        "failed_share": checked.failed / checked.attempted,
        "digest": checked.digest,
        "raw_wall_s": timed.raw_wall_s,
        "host_speed": timed.host_speed,
    }
    return Outcome(values, detail, checked.problems, checked.attempted, checked.failed)


def traced_run(cls, seed: int, seconds: float, out_dir) -> Outcome:
    reference, _ = timed_setup(cls, seed, seconds, out_dir / "untraced")
    try:
        with EpisodeCounter() as counter:
            untraced = reference.run(counter)
    finally:
        reference.close()
    workload, _ = timed_setup(cls, seed, seconds, out_dir / "traced")
    tracer = Tracer()
    timed, checked = _run_and_check(workload, tracer)
    problems = list(checked.problems)
    if checked.digest != reference.digest(untraced):
        problems.append("traced outputs differ from untraced ones")
    values = per_layer(tracer.stats, timed)
    values["trace_overhead_share"] = (timed.wall_s / untraced.wall_s - 1, "ratio")
    detail = {
        "untraced_wall_s": untraced.wall_s,
        "traced_wall_s": timed.wall_s,
        "traced_raw_wall_s": timed.raw_wall_s,
        "failed_share": checked.failed / checked.attempted,
        "digest": checked.digest,
    }
    return Outcome(values, detail, problems, checked.attempted, checked.failed, tracer)


def per_layer(stats: dict, timed) -> dict:
    """Per-layer metrics from the span totals of one traced timed part."""
    empty = SpanStats()

    def span(name: str) -> SpanStats:
        return stats.get(name, empty)

    def spans(prefix: str) -> list:
        return [s for name, s in stats.items() if name.startswith(prefix)]

    def per(total: float, count: float, scale: float = 1.0) -> float:
        return total / count * scale if count else 0.0

    def mean(name: str, scale: float) -> float:
        s = span(name)
        return per(s.total, s.count, scale)

    steps = spans("envs.step.")
    episodes = spans("dsl.run_episode.")
    extracts = [span("prompts.extract"), span("prompts.extract_code")]
    code = span("prompts.extract_code")
    iteration = span("loop.iteration")
    loop_self = sum(span(n).self_time for n in ("loop.run_replication", "loop.iteration", "loop.evaluate_program"))
    gateway = span("gateway.complete")
    calls = gateway.count
    call_ms = sorted(x * 1e3 for x in gateway.samples or ())
    wall = timed.raw_wall_s  # spans are not scaled
    values = {
        "envs.step_calls": (sum(s.count for s in steps), "count"),
        "envs.step_us": (per(sum(s.total for s in steps), sum(s.count for s in steps), 1e6), "us"),
    }
    for task in STEP_TASKS:
        values[f"envs.step_us.{task}"] = (mean(f"envs.step.{task}", 1e6), "us")
    values.update(
        {
            "envs.reset_us": (mean("envs.reset", 1e6), "us"),
            "envs.derive_seed_us": (mean("envs.derive_seed", 1e6), "us"),
            "envs.render_lines": (span("envs.render").count, "count"),
            "envs.render_us": (mean("envs.render", 1e6), "us"),
            "dsl.policy_calls": (span("dsl.evaluate").count, "count"),
            "dsl.policy_us": (mean("dsl.evaluate", 1e6), "us"),
            "dsl.episodes": (sum(s.count for s in episodes), "count"),
            "dsl.episode_self_us_per_step": (
                per(sum(s.self_time for s in episodes), sum(s.units for s in episodes), 1e6),
                "us",
            ),
            "dsl.parse_calls": (span("dsl.parse").count, "count"),
            "dsl.parse_us": (mean("dsl.parse", 1e6), "us"),
            "dsl.parse_errors": (span("dsl.parse").errors, "count"),
            "prompts.render_us": (mean("prompts.render", 1e6), "us"),
            "prompts.prompt_chars": (per(span("prompts.render").units, span("prompts.render").count), "chars"),
            "prompts.extract_us": (
                per(sum(s.self_time for s in extracts), sum(s.count for s in extracts), 1e6),
                "us",
            ),
            "prompts.code_responses": (code.count, "count"),
            "prompts.repair_useful_ratio": (per(code.count - code.errors, code.count), "ratio"),
            "loop.iterations": (iteration.count, "count"),
            "loop.iteration_ms": (mean("loop.iteration", 1e3), "ms"),
            "loop.evaluate_program_ms": (mean("loop.evaluate_program", 1e3), "ms"),
            "loop.self_ms_per_iteration": (per(loop_self, iteration.count, 1e3), "ms"),
            "loop.record_save_ms": (mean("loop.record_save", 1e3), "ms"),
            "loop.record_load_ms": (per(timed.load_s, len(timed.record_bytes), 1e3), "ms"),
            "loop.replay_ms": (per(timed.replay_s, len(timed.record_bytes), 1e3), "ms"),
            "loop.record_bytes": (per(sum(timed.record_bytes), len(timed.record_bytes)), "bytes"),
            "gateway.calls": (calls, "count"),
            "gateway.http_attempts": (timed.http_attempts, "count"),
            "gateway.attempts_per_call": (per(timed.http_attempts, calls), "ratio"),
            "gateway.call_ms_p50": (statistics.median(call_ms) if call_ms else 0.0, "ms"),
            "gateway.call_ms_tail": (tail(call_ms)[1] if call_ms else 0.0, "ms"),
            "gateway.client_ms_per_call": (per(gateway.total - timed.model_s, calls, 1e3), "ms"),
            "gateway.failed_calls": (gateway.errors, "count"),
            "metrics.robustness_s": (span("metrics.robustness").total, "s"),
            "metrics.robustness_episodes": (span("dsl.run_episode.metrics").count, "count"),
            "metrics.report_ms": (mean("metrics.compute_report", 1e3), "ms"),
        }
    )
    for layer in LAYERS:
        self_time = sum(s.self_time for s in spans(layer + "."))
        values[f"{layer}.self_share"] = (self_time / wall, "ratio")
    rollout = sum(s.self_time for prefix in ROLLOUT_SPANS for s in spans(prefix))
    values["rollout_self_share"] = (rollout / wall, "ratio")
    return values
