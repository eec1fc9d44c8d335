"""Policy semantics: action validation, invalid outcomes, determinism, and
a brute-force sweep of the scripted session's first program over the whole
integer observation grid.

A policy's outcome on one observation is what the first step of a rollout
makes of it (``conftest.policy_outcome``): the compiled function's value,
the action check of the task's space, and the text of a refused value.
"""

import random
import warnings

import pytest

from policyloop.dsl import parse, run_episode
from policyloop.envs import get_spec, make

from conftest import big_int_expression, policy_outcome, transcript_text
from reference_dynamics import discrete_coerce_original


@pytest.fixture
def pendulum_spec():
    return get_spec("Pendulum")


def test_first_rule_wins(iter0_program, star2_spec):
    outcome = policy_outcome(iter0_program, (0, 0, 5, 0), random.Random(0), star2_spec)
    assert outcome.value_text is None
    assert outcome.action == 2  # positive pole angle -> move right


def test_seeded_replay_is_identical(iter0_program, star2_spec):
    # all-zero observation falls through to the random fallback
    actions = [
        policy_outcome(iter0_program, (0, 0, 0, 0), random.Random(42), star2_spec).action
        for _ in range(10)
    ]
    assert len(set(actions)) == 1


def test_fallback_draws_follow_the_rng(iter0_program, star2_spec):
    rng = random.Random(7)
    drawn = [
        policy_outcome(iter0_program, (0, 0, 0, 0), rng, star2_spec).action
        for _ in range(50)
    ]
    assert set(drawn) == {1, 2}
    rng2 = random.Random(7)
    replay = [
        policy_outcome(iter0_program, (0, 0, 0, 0), rng2, star2_spec).action
        for _ in range(50)
    ]
    assert drawn == replay


def test_no_rule_fired_reports_none(star2_spec):
    program = parse(transcript_text("code_iter1.py"), expected_params=star2_spec.obs_names)
    outcome = policy_outcome(program, (0, 0, 0, 0), random.Random(0), star2_spec)
    assert outcome == (None, "None")


def test_discrete_out_of_range(star2_spec):
    program = parse(
        "def get_action(cart_position, cart_velocity, pole_angle, pole_angular_velocity):\n"
        "    return 3\n"
    )
    outcome = policy_outcome(program, (0, 0, 0, 0), random.Random(0), star2_spec)
    assert outcome == (None, "3")


def test_discrete_accepts_float_equal_to_label(star2_spec):
    program = parse(
        "def get_action(cart_position, cart_velocity, pole_angle, pole_angular_velocity):\n"
        "    return 4 / 2\n"
    )
    outcome = policy_outcome(program, (0, 0, 0, 0), random.Random(0), star2_spec)
    assert outcome == (2, None)
    assert isinstance(outcome.action, int)


def test_randint_empty_range_is_runtime_error(star2_spec):
    program = parse(
        "def get_action(cart_position, cart_velocity, pole_angle, pole_angular_velocity):\n"
        "    return random.randint(2, cart_position)\n"
    )
    outcome = policy_outcome(program, (0, 0, 0, 0), random.Random(0), star2_spec)
    assert outcome == (None, "None")
    # the empty range is what failed: a non-empty one draws a valid action
    outcome = policy_outcome(program, (2, 0, 0, 0), random.Random(0), star2_spec)
    assert outcome == (2, None)


def test_division_by_zero_is_runtime_error(star2_spec):
    program = parse(
        "def get_action(cart_position, cart_velocity, pole_angle, pole_angular_velocity):\n"
        "    return 1 / cart_position\n"
    )
    outcome = policy_outcome(program, (0, 0, 0, 0), random.Random(0), star2_spec)
    assert outcome == (None, "None")
    # the zero divisor is what failed: a nonzero one gives a valid action
    outcome = policy_outcome(program, (1, 0, 0, 0), random.Random(0), star2_spec)
    assert outcome == (1, None)


_ZEROS_400 = big_int_expression(400)  # an integer too large for a float


@pytest.mark.parametrize(
    "body",
    [
        f"return {_ZEROS_400}",
        f"return pole_angle * {_ZEROS_400}",
        f"return {_ZEROS_400} / 3",
        "return random.randint(1e308 * 10, 2)",
        "return random.randint(1e308 * 10 - 1e308 * 10, 2)",
        f"return random.uniform(0, {_ZEROS_400})",
    ],
    ids=["int-literal", "float-times-int", "int-division", "randint-inf", "randint-nan", "uniform-int"],
)
def test_numbers_out_of_float_range_are_runtime_errors(body):
    spec = get_spec("InvertedPendulum")
    program = parse(f"def get_action({', '.join(spec.obs_names)}):\n    {body}\n")
    outcome = policy_outcome(program, (0.0, 0.1, 0.0, 0.0), random.Random(0), spec)
    assert outcome == (None, "None")


def test_integer_too_long_to_print_is_a_runtime_error(star2_spec):
    big = big_int_expression(2150)
    program = parse(
        "def get_action(cart_position, cart_velocity, pole_angle, pole_angular_velocity):\n"
        f"    return {big} * {big}\n"
    )
    outcome = policy_outcome(program, (0, 0, 0, 0), random.Random(0), star2_spec)
    assert outcome == (None, "None")


def test_continuous_results_are_clamped(pendulum_spec):
    program = parse("def get_action(x, y, angular_velocity):\n    return 10 * x\n")
    outcome = policy_outcome(program, (1.0, 0.0, 0.0), random.Random(0), pendulum_spec)
    assert outcome == (2.0, None)  # clamped to the torque bound
    outcome = policy_outcome(program, (-1.0, 0.0, 0.0), random.Random(0), pendulum_spec)
    assert outcome.action == -2.0


def test_uniform_fallback_for_continuous(pendulum_spec):
    program = parse(
        "def get_action(x, y, angular_velocity):\n"
        "    if x > 2:\n"
        "        return 0\n"
        "    return random.uniform(-2.0, 2.0)\n"
    )
    rng = random.Random(3)
    before = rng.getstate()
    outcome = policy_outcome(program, (0.0, 0.0, 0.0), rng, pendulum_spec)
    assert outcome.value_text is None
    assert -2.0 <= outcome.action <= 2.0
    assert rng.getstate() != before  # the fallback drew


def test_observation_length_mismatch(iter0_program):
    # Pendulum observes 3 values; the program takes CartPoleStar2's 4
    with pytest.raises(ValueError, match="4 parameters"):
        run_episode(iter0_program, "Pendulum", 0, random.Random(0))


def test_purity_no_environment_side_effects(iter0_program, star2_spec):
    obs = [1, 2, 3, 4]
    policy_outcome(iter0_program, obs, random.Random(0), star2_spec)
    assert obs == [1, 2, 3, 4]
    env = make(star2_spec.task_id)
    obs = env.reset(0)
    state = env.state
    iter0_program.compiled(random.Random(0), obs)
    assert env.state == state and env.observe() == obs


# -- differential check against real interpreter semantics -------------------


def test_evaluator_matches_python_execution_on_random_programs(star2_spec):
    """The language is a strict subset of the host syntax, so running the
    same source through the host interpreter (with the rng object standing
    in for the random module) must produce identical raw results, draw for
    draw."""
    from test_dsl_parser import random_program

    params = ("cart_position", "cart_velocity", "pole_angle", "pole_angular_velocity")
    rng = random.Random(42)
    checked = 0
    for case in range(150):
        source = random_program(rng, params)
        program = parse(source)
        for _ in range(8):
            obs = tuple(rng.randint(-50, 50) for _ in range(4))
            seed = rng.randrange(2**30)
            mine = policy_outcome(program, obs, random.Random(seed), star2_spec)

            host_rng = random.Random(seed)
            exec(source, {"random": host_rng, "__builtins__": {}}, ns := {})
            try:
                with warnings.catch_warnings():
                    # integral-float randint bounds are deprecated host-side
                    warnings.simplefilter("ignore", DeprecationWarning)
                    raw = ns["f"](*obs)
            except (ZeroDivisionError, ValueError):
                # division by zero, or randint on an empty/non-integer range
                assert mine == (None, "None")
                checked += 1
                continue

            if raw is None:
                assert mine == (None, "None")
            elif isinstance(raw, bool) or raw not in (1, 2):
                assert mine == (
                    None,
                    str(raw) if isinstance(raw, (bool, int)) else f"{float(raw):g}",
                )
            else:
                assert mine == (raw, None)
            checked += 1
    assert checked == 1200


# -- brute-force equivalence over the integer grid --------------------------


def _hand_transcribed_iter0(cp, cv, pa, pav, fallthrough):
    """Direct transcription of the first session program's rule chain,
    written against the rule list rather than the parsed tree."""
    if pa > 0:
        return 2
    if pa < 0:
        return 1
    if cp >= 20:
        return 1
    if cp <= -20:
        return 2
    if pav > 10:
        return 2
    if pav < -10:
        return 1
    if cv > 10:
        return 1
    if cv < -10:
        return 2
    if -5 <= pa <= 5:
        if cv > 0:
            return 1
        if cv < 0:
            return 2
    return fallthrough


def test_iter0_program_matches_hand_transcription_on_grid(iter0_program, star2_spec):
    grid = range(-50, 51, 10)
    checked = 0
    fallback_points = 0
    for cp in grid:
        for cv in grid:
            for pa in grid:
                for pav in grid:
                    expected = _hand_transcribed_iter0(cp, cv, pa, pav, "random")
                    rng = random.Random(checked)
                    before = rng.getstate()
                    value = iter0_program.compiled(rng, (cp, cv, pa, pav))
                    action = discrete_coerce_original(star2_spec.action.labels, value)
                    drew = rng.getstate() != before
                    if expected == "random":
                        assert drew, (cp, cv, pa, pav)
                        assert action in (1, 2)
                        fallback_points += 1
                    else:
                        assert not drew, (cp, cv, pa, pav)
                        assert action == expected, (cp, cv, pa, pav)
                    checked += 1
    assert checked == 14_641
    # the fallback is reachable exactly where pa == 0 and cv == 0 and the
    # velocity guards pass: 11 cart positions in (-20, 20) x 1 value of pav
    assert fallback_points == sum(
        1
        for cp in grid
        for cv in grid
        for pa in grid
        for pav in grid
        if pa == 0 and -20 < cp < 20 and cv == 0 and -10 <= pav <= 10
    )
