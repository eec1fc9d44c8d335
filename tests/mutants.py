"""Mutation checks: each entry changes one exact text in one file of ``src/``
and names the tests that must then fail.

Run from anywhere, with pytest, hypothesis and numpy installed:

    python tests/mutants.py

First the named tests must pass on ``src/`` as it is. Then, for each mutant,
``src/`` is copied to a temporary directory, the one replacement is applied
there, and the named tests run against the copy with ``-x -q``. Each mutant
prints ``killed`` or ``survived`` with the time taken; the exit status is 1
when any survives. ``tests/test_mutants.py`` checks that every old text
occurs exactly once in its file, so a change that moves one fails tier-1
instead of leaving this list stale. List no equivalent mutant: one that no
test can kill says nothing about the tests.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/
    old: str
    new: str
    tests: tuple[str, ...]  # pytest ids, relative to the repository root


RUNNER = "policyloop/loop/runner.py"
SEEDING = "policyloop/envs/seeding.py"
METRICS = "policyloop/metrics.py"
EPISODE = "policyloop/dsl/episode.py"
CLI = "policyloop/cli.py"
GATEWAY = "policyloop/gateway.py"
PIPELINE = "policyloop/prompts/pipeline.py"
CORE = "policyloop/envs/core.py"
CARTPOLE = "policyloop/envs/cartpole.py"
ACROBOT = "policyloop/envs/acrobot.py"
PENDULUM = "policyloop/envs/pendulum.py"
MOUNTAIN_CAR = "policyloop/envs/mountain_car.py"
PARSER = "policyloop/dsl/parser.py"
LOOP_REFERENCE = ("tests/test_loop_reference.py::test_the_runner_is_the_reference_loop",)
# the corpus reruns kill a runner mutant in ~1-2 s, where the reference
# loop's hypothesis examples take 4-20 s
REQUESTS = ("tests/test_request_digests.py::test_the_replayed_requests_are_frozen",)
CORPUS_REPLAY = ("tests/test_record_corpus.py::test_replay_gives_the_stored_canonical_json",)
NUMPY_DRAWS = ("tests/test_seeding.py::test_uniform_draws_match_numpy_on_20000_seeds",)
ROBUSTNESS_SEEDS = ("tests/test_metrics.py::test_robustness_episode_seeds_are_frozen",)
ACTION_CHECK = (
    "tests/test_dynamics_oracle.py::test_action_check_is_exactly_the_original_coerce_form",
)
BAD_POLICY = (
    "tests/test_dynamics_oracle.py"
    "::test_float_task_rollout_with_a_bad_policy_matches_the_frozen_form",
)
FIRST_STEP = ("tests/test_episode.py::test_first_step_outcome_is_the_frozen_check",)
BATCH_INPUTS = (
    "tests/test_cli.py::test_batch_refuses_a_record_path_that_names_one_of_its_files",
)
CLAMP_EDGES = (
    "tests/test_dynamics_oracle.py::test_float_task_clamps_at_their_edges_match_the_frozen_form",
)
R_MAX_REFUSALS = ("tests/test_metrics.py::test_success_requires_r_max",)
METRICS_TESTS = "tests/test_metrics.py::"
FLAT_ROWS = (
    METRICS_TESTS + "test_improvement_ratio_of_rows_that_start_at_the_reference_is_none_at_any_count",
)
ENVIRONMENTS = "tests/test_environments.py::"
EPISODE_TESTS = "tests/test_episode.py::"
PARSER_TESTS = "tests/test_dsl_parser.py::"

# The one action check of each space, in envs/core.py: a bool taken as a
# label, a non-finite number taken as an action, a clamp dropped; and each
# rollout's except branch keeping the value instead of reporting None for a
# call or a check that raised.
_EXCEPT = "            except POLICY_ERRORS:\n"
_RAISED = _EXCEPT + "                value = None\n"
_REFUSED = "            if action is None:\n                "
ROLLOUT_MUTANTS = [
    *(
        Mutant(f"action-check-{what}", CORE, old, new, ACTION_CHECK)
        for what, old, new in (
            (
                "bool-taken-as-a-label",
                "return None if value.__class__ is bool else get(value)",
                "return get(value)",
            ),
            ("non-finite-taken", "if not neg_inf < action < inf:", "if False:"),
            ("lo-clamp-dropped", "return lo if action < lo else ", "return "),
            ("hi-clamp-dropped", "hi if action > hi else action", "action"),
        )
    ),
    # the check raises only on a continuous task's int too large for a float,
    # and Acrobot's actions are labels, so its killer makes the policy raise
    *(
        Mutant(f"{name}-raise-keeps-the-value", file, _RAISED, _EXCEPT, tests)
        for name, file, tests in (
            ("cartpole", CARTPOLE, ACTION_CHECK),
            ("mountain-car", MOUNTAIN_CAR, ACTION_CHECK),
            ("pendulum", PENDULUM, ACTION_CHECK),
            ("acrobot", ACROBOT, BAD_POLICY),
        )
    ),
    # each rollout's own refusal: a value the check refuses ends the episode
    *(
        Mutant(f"{name}-refusal-does-not-break", file, _REFUSED + "break\n",
               _REFUSED + "pass\n", ACTION_CHECK)
        for name, file in (
            ("cartpole", CARTPOLE),
            ("mountain-car", MOUNTAIN_CAR),
            ("pendulum", PENDULUM),
            ("acrobot", ACROBOT),
        )
    ),
]

# An episode's end is only where its actions end: each termination test's
# break dropped or never taken, and an unusable value's text read off an
# episode that ended on none.
FOLD_MUTANTS = [
    Mutant(
        "cartpole-bounds-test-never-ends",
        CARTPOLE,
        "if x > x_limit or x < x_floor or theta > theta_limit or theta < theta_floor:",
        "if False:",
        (ENVIRONMENTS + "test_cartpole_terminates_past_angle_limit",),
    ),
    Mutant(
        "mountain-car-goal-does-not-break",
        MOUNTAIN_CAR,
        "            if terminated:\n                break\n",
        "            if terminated:\n                pass\n",
        (ENVIRONMENTS + "test_mountain_car_discrete_goal_termination",),
    ),
    Mutant(
        "acrobot-goal-does-not-break",
        ACROBOT,
        "                total_reward += 0.0\n                break\n",
        "                total_reward += 0.0\n",
        (ENVIRONMENTS + "test_acrobot_reward_and_goal",),
    ),
    Mutant(
        "episode-ended-invalid-negated",
        EPISODE,
        "return self.invalid_value_text is not None",
        "return self.invalid_value_text is None",
        (EPISODE_TESTS + "test_empty_body_program_is_one_invalid_step",),
    ),
    Mutant(
        "episode-value-text-on-an-episode-without-one",
        EPISODE,
        "if len(observations) > len(actions) else None",
        "if len(observations) >= len(actions) else None",
        (EPISODE_TESTS + "test_optimal_program_runs_full_episode",),
    ),
]

# The float tasks' step: a clamp dropped, the mountain-car wall that stops
# the car dropped, an angle wrapped without its ``+ pi``. The states at each
# clamp edge reach every one.
FLOAT_STEP_MUTANTS = [
    Mutant(name, file, old, new, CLAMP_EDGES)
    for name, file, old, new in (
        ("mountain-car-wall-does-not-stop", MOUNTAIN_CAR, "velocity = 0.0\n", "pass\n"),
        ("mountain-car-speed-ceiling-dropped", MOUNTAIN_CAR, "velocity = max_speed\n", "pass\n"),
        (
            "mountain-car-position-floor-dropped",
            MOUNTAIN_CAR,
            "position = min_position\n",
            "pass\n",
        ),
        (
            "mountain-car-position-ceiling-dropped",
            MOUNTAIN_CAR,
            "position = max_position\n",
            "pass\n",
        ),
        (
            "pendulum-wrap-without-pi",
            PENDULUM,
            "angle = (theta + pi) % two_pi - pi",
            "angle = theta % two_pi - pi",
        ),
        ("pendulum-speed-floor-dropped", PENDULUM, "theta_dot = neg_max_speed\n", "pass\n"),
        ("pendulum-speed-ceiling-dropped", PENDULUM, "theta_dot = max_speed\n", "pass\n"),
        ("acrobot-first-velocity-ceiling-dropped", ACROBOT, "w1 = max_vel_1\n", "pass\n"),
        ("acrobot-second-velocity-floor-dropped", ACROBOT, "w2 = neg_max_vel_2\n", "pass\n"),
        (
            "acrobot-second-angle-wrap-without-pi",
            ACROBOT,
            "t2 = (t2 + sixth * (w2 + 2.0 * b2 + 2.0 * b3 + b4) + pi) % two_pi - pi",
            "t2 = (t2 + sixth * (w2 + 2.0 * b2 + 2.0 * b3 + b4)) % two_pi - pi",
        ),
    )
]

# Acrobot's RK4 stage function and the stages that call it: a wrong factor
# in phi1, a stage's angle from the wrong velocity, the sign of the first
# acceleration dropped, a full stage stepped by half.
ACROBOT_STEP = (
    "tests/test_dynamics_oracle.py::test_acrobot_step_is_bitwise_equal_to_the_generator_form",
)
ACROBOT_STAGE_MUTANTS = [
    Mutant(name, ACROBOT, old, new, ACROBOT_STEP)
    for name, old, new in (
        ("acrobot-phi1-b-times-a-made-a-times-a", "* b * a * sin2", "* a * a * sin2"),
        ("acrobot-stage-3-angle-from-w1", "t1 + half * a2", "t1 + half * w1"),
        ("acrobot-first-acceleration-sign-dropped", "return -(m12 * d", "return (m12 * d"),
        ("acrobot-stage-4-velocity-stepped-by-half", "a4 = w1 + dt * c3", "a4 = w1 + half * c3"),
    )
]

# The improvement ratio's reference and its degenerate cases, and each
# refusal of a task without a maximum.
METRIC_ROW_MUTANTS = [
    Mutant(
        "metrics-improvement-reference-always-the-batch-maximum",
        METRICS,
        "reference = r_max if r_max is not None else max(max(row) for row in rows)",
        "reference = max(max(row) for row in rows)",
        (METRICS_TESTS + "test_improvement_ratio_zero_without_improvement",),
    ),
    Mutant(
        "metrics-improvement-degenerate-reference-not-refused",
        METRICS,
        "    if reference == initial:\n        return None\n",
        "",
        FLAT_ROWS,
    ),
    Mutant(
        "metrics-improvement-rows-at-the-reference-not-refused",
        METRICS,
        "    if all(row[0] == reference for row in rows):\n        return None\n",
        "",
        FLAT_ROWS,
    ),
    *(
        Mutant(f"metrics-{name}-scores-a-task-without-a-maximum", METRICS, old, new, R_MAX_REFUSALS)
        for name, old, new in (
            (
                "successful-set",
                "    _require_r_max(r_max)\n    return [j",
                "    pass\n    return [j",
            ),
            ("learning-time", "    _require_r_max(r_max)\n    hits = [", "    pass\n    hits = ["),
            (
                "robustness-from-returns",
                "    _require_r_max(r_max)\n    if not eval_returns:",
                "    pass\n    if not eval_returns:",
            ),
        )
    ),
]

MUTANTS = [
    Mutant(
        "runner-previous-and-best-swapped",
        RUNNER,
        "            previous=previous,\n            best=best,\n",
        "            previous=best,\n            best=previous,\n",
        REQUESTS,
    ),
    Mutant(
        "runner-latest-of-equal-rewards-is-best",
        RUNNER,
        "best = max(history, key=lambda s: s.mean_reward)",
        "best = max(reversed(history), key=lambda s: s.mean_reward)",
        LOOP_REFERENCE,
    ),
    Mutant(
        "runner-p3-seed-key",
        RUNNER,
        'render_p3(spec, rules_text, error=error), "p3")',
        'render_p3(spec, rules_text, error=error), "p3#1")',
        REQUESTS,
    ),
    Mutant(
        "runner-retest-iteration-plus-one",
        RUNNER,
        "iteration = len(strategies)\n",
        "iteration = len(strategies) + 1\n",
        CORPUS_REPLAY,
    ),
    Mutant(
        "runner-window-from-the-last-episode",
        RUNNER,
        "if worst is None or trace.total_reward < worst.total_reward:",
        "if True:",
        REQUESTS,
    ),
    Mutant(
        "runner-request-seed-32-bits",
        RUNNER,
        "& 0x7FFFFFFF",
        "& 0xFFFFFFFF",
        REQUESTS,
    ),
    Mutant(
        "runner-p1-seed-key",
        RUNNER,
        'Stage.P1_STRATEGY, "p1", render_p1(spec)',
        'Stage.P1_STRATEGY, "p4", render_p1(spec)',
        REQUESTS,
    ),
    Mutant(
        "runner-p1-asked-at-the-p4-stage",
        RUNNER,
        "stage, seed_key, prompt = Stage.P1_STRATEGY",
        "stage, seed_key, prompt = Stage.P4_REFLECT",
        REQUESTS,
    ),
    Mutant(
        "runner-p4-asked-at-the-p1-stage",
        RUNNER,
        'stage, seed_key = Stage.P4_REFLECT, "p4"',
        'stage, seed_key = Stage.P1_STRATEGY, "p4"',
        REQUESTS,
    ),
    Mutant(
        "runner-p2-reask-from-the-first-attempt",
        RUNNER,
        "reask=attempt > 1",
        "reask=attempt > 0",
        REQUESTS,
    ),
    Mutant(
        "runner-p3-repair-without-the-error",
        RUNNER,
        "render_p3(spec, rules_text, error=error)",
        "render_p3(spec, rules_text, error=None)",
        REQUESTS,
    ),
    Mutant(
        "runner-episode-seed-keys-swapped",
        RUNNER,
        '        rng = random.Random(derive_seed(seed_root, replication, iteration, ep, "policy"))\n'
        '        seed = derive_seed(seed_root, replication, iteration, ep, "env")\n',
        '        rng = random.Random(derive_seed(seed_root, replication, iteration, ep, "env"))\n'
        '        seed = derive_seed(seed_root, replication, iteration, ep, "policy")\n',
        ROBUSTNESS_SEEDS,
    ),
    Mutant(
        "metrics-robustness-seeded-as-iteration-0",
        METRICS,
        '"robustness", n_eval,',
        "0, n_eval,",
        ROBUSTNESS_SEEDS,
    ),
    Mutant(
        "seeding-seed-words-swapped",
        SEEDING,
        "words = (seed & _M32, seed >> 32, 0, 0)",
        "words = (seed >> 32, seed & _M32, 0, 0)",
        NUMPY_DRAWS,
    ),
    Mutant(
        "seeding-output-words-swapped",
        SEEDING,
        "start = w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2]",
        "start = w[0] << 96 | w[1] << 64 | w[3] << 32 | w[2]",
        NUMPY_DRAWS,
    ),
    Mutant(
        "seeding-state-stepped-after-the-output",
        SEEDING,
        "        state = (state * _PCG_MULT + inc) & _M128\n"
        "        top = state >> 64\n"
        "        word = (top ^ state) & _M64\n"
        "        rot = top >> 58\n"
        "        word = ((word >> rot) | (word << (64 - rot))) & _M64\n"
        "        draws.append(low + (high - low) * ((word >> 11) * _TO_UNIT))\n",
        "        top = state >> 64\n"
        "        word = (top ^ state) & _M64\n"
        "        rot = top >> 58\n"
        "        word = ((word >> rot) | (word << (64 - rot))) & _M64\n"
        "        draws.append(low + (high - low) * ((word >> 11) * _TO_UNIT))\n"
        "        state = (state * _PCG_MULT + inc) & _M128\n",
        NUMPY_DRAWS,
    ),
    *ROLLOUT_MUTANTS,
    *FLOAT_STEP_MUTANTS,
    *ACROBOT_STAGE_MUTANTS,
    Mutant(
        "episode-ints-printed-as-floats",
        EPISODE,
        'str(value) if isinstance(value, int) else f"{float(value):g}"',
        'f"{float(value):g}"',
        FIRST_STEP,
    ),
    Mutant(
        "episode-value-text-without-its-none-test",
        EPISODE,
        '    if value is None:\n        return "None"\n    try:\n',
        "    try:\n",
        FIRST_STEP,
    ),
    *FOLD_MUTANTS,
    Mutant(
        "parser-source-size-cap-dropped",
        PARSER,
        "if len(source) > MAX_SOURCE_CHARS:",
        "if False:",
        (PARSER_TESTS + "test_a_source_over_the_size_cap_is_refused_before_it_is_read",),
    ),
    Mutant(
        "parser-int-literal-cap-dropped",
        PARSER,
        "node.value >= MAX_INT_LITERAL",
        "False",
        (PARSER_TESTS + "test_an_integer_literal_of_ten_to_the_thirty_is_a_parse_error",),
    ),
    Mutant(
        "cli-batch-record-path-not-checked-against-its-files",
        CLI,
        '        _check_output(str(cell.path), "record", args.config, args.gateway_config)\n',
        "        pass\n",
        BATCH_INPUTS,
    ),
    *METRIC_ROW_MUTANTS,
    Mutant(
        "prompts-blank-strategy-accepted",
        PIPELINE,
        "    if not trimmed:\n        raise MalformedResponseError",
        "    if False:\n        raise MalformedResponseError",
        ("tests/test_prompts.py::test_extract_strategy_rejects_whitespace_only",),
    ),
    # the gateway retries a garbled status line or header block, and a body
    # it cannot read
    Mutant(
        "gateway-http-exception-not-retried",
        GATEWAY,
        "except (OSError, http.client.HTTPException, MalformedResponseError) as exc:",
        "except (OSError, MalformedResponseError) as exc:",
        (
            "tests/test_gateway.py"
            "::test_a_garbled_status_line_or_header_block_is_a_retried_transport_error",
        ),
    ),
    Mutant(
        "gateway-malformed-response-not-retried",
        GATEWAY,
        "except (OSError, http.client.HTTPException, MalformedResponseError) as exc:",
        "except (OSError, http.client.HTTPException) as exc:",
        ("tests/test_gateway.py::test_empty_completion_is_retried",),
    ),
]


def _pytest(tests: tuple[str, ...], src: Path) -> tuple[int, float]:
    """Exit status and seconds of ``pytest -x -q tests`` importing ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    return done.returncode, time.perf_counter() - started


def run_mutant(mutant: Mutant) -> tuple[int, float]:
    """Exit status and seconds of the mutant's tests on a mutated copy of src/."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / mutant.file
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: its old text does not occur exactly once")
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        return _pytest(mutant.tests, src)


def main() -> int:
    started = time.perf_counter()
    for tests in dict.fromkeys(mutant.tests for mutant in MUTANTS):
        status, _ = _pytest(tests, SRC)
        if status != 0:
            print(f"unmutated src/ fails {' '.join(tests)} (pytest exit {status})")
            return 2
    survivors = 0
    for mutant in MUTANTS:
        status, seconds = run_mutant(mutant)
        if status not in (0, 1):  # not a test failure: a collection or usage error
            print(f"error     {seconds:5.1f} s  {mutant.name}: pytest exit {status}")
            return 2
        survivors += status == 0
        verdict = "survived" if status == 0 else "killed"
        print(f"{verdict:9} {seconds:5.1f} s  {mutant.name}", flush=True)
    print(
        f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed"
        f" in {time.perf_counter() - started:.1f} s"
    )
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
