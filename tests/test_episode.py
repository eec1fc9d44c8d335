"""Episode rollouts: invalid-action semantics, trace rendering, replay."""

import hashlib
import random
import textwrap

import pytest

from policyloop.dsl import parse, run_episode
from policyloop.dsl import episode
from policyloop.envs import ALL_TASKS, TaskId, cartpole, get_spec, make
from policyloop.envs.core import POLICY_ERRORS

from conftest import big_int_expression, reference_step_forms, step, transcript_text


def test_gappy_program_ends_with_literal_none_line(star2_spec):
    program = parse(transcript_text("code_iter1.py"), expected_params=star2_spec.obs_names)
    trace = run_episode(program, TaskId.CARTPOLE_STAR2, seed=1, rng=random.Random(0))
    assert trace.ended_invalid and trace.invalid_value_text == "None"
    last = trace.lines()[-1]
    assert last.endswith(";None")
    # the invalid step contributes no reward
    assert trace.total_reward == trace.length - 1


def test_optimal_program_runs_full_episode(star2_spec):
    program = parse(transcript_text("code_optimal.py"), expected_params=star2_spec.obs_names)
    trace = run_episode(program, TaskId.CARTPOLE_STAR2, seed=9, rng=random.Random(0))
    assert trace.length == 500 and len(trace.actions) == 500
    assert trace.total_reward == 500.0
    assert not trace.ended_invalid


def test_empty_body_program_is_one_invalid_step():
    program = parse(
        "def get_action(cart_position, cart_velocity, pole_angle, pole_angular_velocity):\n"
        "    pass\n"
    )
    trace = run_episode(program, TaskId.CARTPOLE_STAR2, seed=0, rng=random.Random(0))
    assert trace.length == 1
    assert trace.total_reward == 0.0
    assert trace.ended_invalid


def test_replay_bit_identical_given_same_seeds(iter0_program):
    def play():
        trace = run_episode(
            iter0_program, TaskId.CARTPOLE_STAR2, seed=77, rng=random.Random(5)
        )
        return trace.lines(), trace.total_reward, trace.invalid_value_text

    assert play() == play()


def test_trace_lines_match_integer_rendering(iter0_program):
    trace = run_episode(iter0_program, TaskId.CARTPOLE_STAR2, seed=3, rng=random.Random(1))
    line = trace.lines()[0]
    obs_part, action_part = line.rsplit(";", 1)
    assert obs_part.startswith("[") and obs_part.endswith("]")
    assert action_part in ("1", "2")
    # numpy integer-vector rendering: no commas, no decimal points
    assert "," not in obs_part and "." not in obs_part


def test_window_lines_take_the_tail(iter0_program):
    trace = run_episode(iter0_program, TaskId.CARTPOLE_STAR2, seed=3, rng=random.Random(1))
    window = trace.window_lines(20)
    assert window == trace.lines()[-20:]
    assert trace.window_lines(10_000) == trace.lines()


@pytest.mark.parametrize(
    "task", [TaskId.INVERTED_PENDULUM, TaskId.PENDULUM, TaskId.MOUNTAIN_CAR_CONTINUOUS]
)
def test_nan_action_ends_the_episode_invalid(task):
    spec = get_spec(task)
    program = parse(
        f"def get_action({', '.join(spec.obs_names)}):\n"
        "    return 1e308 * 10 - 1e308 * 10\n"
    )
    trace = run_episode(program, task, seed=0, rng=random.Random(0))
    assert trace.ended_invalid
    assert trace.length == 1
    assert trace.total_reward == 0.0
    assert trace.invalid_value_text == "nan"
    assert trace.lines()[0].endswith(";nan")


def test_continuous_episode_records_float_actions():
    program = parse(
        "def get_action(x, y, angular_velocity):\n"
        "    return -2 * y - 0.5 * angular_velocity\n"
    )
    trace = run_episode(program, TaskId.PENDULUM, seed=4, rng=random.Random(0))
    assert trace.length == 200
    action = trace.lines()[0].rsplit(";", 1)[1]
    float(action)  # parses as a number


# Pinned at the commit before observations became Python tuples: sha256 of
# the joined trace lines and the return, per (policy, seed). The
# "random" policy is the task's random_default_text; "optimal" is the
# code_optimal.py fixture. Any change here breaks byte-identical replay.
GOLDEN = {
    TaskId.CARTPOLE: [
        ("random", 0, "d455a09957c9ba280b1046f8cddb073220cb551f341535c396b9cac89f58e792", 10.0),
        ("random", 1, "d5b1949c5c27d5ad611959cc37dbfcda31cbd0f281e10270e81ea041ce3b53aa", 50.0),
        ("random", 2, "f944afb011c38624a79f497d98678b97f77c6b9a98ee7a50231b1d03612071ef", 13.0),
    ],
    TaskId.CARTPOLE_STAR1: [
        ("random", 0, "a401d9f1dd878fb9ebf23f3dfc8b181b4fc53dba76480737d8c07d9c0c7b2bc7", 10.0),
        ("random", 1, "b97f1449d9ed4d69c6aa52664093dbaf3eb7502450c73a8d55471a047e2d597a", 50.0),
        ("random", 2, "5b3d680c01d789c81a3ccc105ab16c17ebe3dd571b85a9bfa19aa3668a35c2c2", 13.0),
    ],
    TaskId.CARTPOLE_STAR2: [
        ("random", 0, "4848f558dff1515251960f603a513fbabaeb4fdad7c19a5890a3d84fe0d6c105", 10.0),
        ("random", 1, "9367178d10275342da5d29209d54e105d64c0b80785f015611ac112fc71378e2", 50.0),
        ("random", 2, "ed791bdd1388571f6a588c2a8a0c3ae9164c2a43f785227bc73ff904822ebf71", 13.0),
        ("optimal", 0, "ebbf24746d809758e68ffdc0118cb1953b5f539da1fb73371a787a6475ad2c00", 500.0),
        ("optimal", 1, "944175a72b28e42d173b7c9b33e00bf8a85c94f1a5d4e0b1f9abe175a5bca734", 500.0),
        ("optimal", 2, "4f1ca751e40e51c893ec0f090af3549eba08bbab548f4cd413b57afdc6b86918", 500.0),
    ],
    TaskId.INVERTED_PENDULUM: [
        ("random", 0, "9cdf519c6a7f59ef4ebba29b4899221f7d195494e09d71b84f1e3e3d39a2c769", 28.0),
        ("random", 1, "803302268a1257e1192467727abb369c78bcfa8a0d657ca702855ae17cb4f2c2", 48.0),
        ("random", 2, "d97faaa6e46d4b0f4d318066c91b8d43ab3365374dc31db0cceecc70d9367391", 41.0),
    ],
    TaskId.ACROBOT: [
        ("random", 0, "3a3aa9f13a23b0265aeb2f08fe3402541c6f1e7bf21b07aeac470c3fc3bdbc5d", -500.0),
        ("random", 1, "bf683bca86bfdd2970b1e3e97b3500054ce2c5f8ac2459d31752106f9d8d1f0f", -500.0),
        ("random", 2, "31da5ad2046c14bdc0032affd01abd4e52fcfbdc90e7762e98ecc844f2ef988e", -500.0),
    ],
    TaskId.PENDULUM: [
        ("random", 0, "6ebe8e9162e2040ac3ff858b1a4068ca42bc4fea5fead2273d0860a2e8370105", -979.5448456906965),
        ("random", 1, "7ab1dc6df52c6488aeb77df86b2b2b95548e5c2127aca6de3348f689a4e68789", -1064.266084139851),
        ("random", 2, "80ade53cbdf842c5e567387bb01b66908cf19d872abe46861fb51f2ab6cc60af", -1309.141627229594),
    ],
    TaskId.MOUNTAIN_CAR_DISCRETE: [
        ("random", 0, "13d50abe8743f2f28f231d3ae3fe06c1cf053f26df6ebbd5848ae9332cb84da9", -200.0),
        ("random", 1, "d64a6f5985d30b6c88ad9c1a10709c2b70f9b2d71642de7e8a85e69b6190d746", -200.0),
        ("random", 2, "85456367c4672207ebb000c01531ae18f67de421eeed8380289aab33984ec781", -200.0),
    ],
    TaskId.MOUNTAIN_CAR_CONTINUOUS: [
        ("random", 0, "edf4b2fa71faf1a7130e047ca4b8b84ccb015ded9090e75c64e3eaf54973420d", -33.65996167462546),
        ("random", 1, "4f8110d215586182aeb0b97f9df1b5c3f5daded7244fcbd41fea2271036b372e", -33.57771856420937),
        ("random", 2, "5308bdb07769d7763e91b8c2b9d06e5599560c62afa6e1c7136c068961cb447f", -32.69619727936421),
    ],
}


def _header(spec):
    return f"def get_action({', '.join(spec.obs_names)}):\n"


@pytest.mark.parametrize("task", ALL_TASKS)
def test_golden_trajectories(task):
    spec = get_spec(task)
    sources = {
        "random": _header(spec) + f"    {spec.random_default_text}\n",
        "optimal": transcript_text("code_optimal.py"),
    }
    assert len(GOLDEN[task]) >= 3
    for policy, seed, digest, total_reward in GOLDEN[task]:
        program = parse(sources[policy], expected_params=spec.obs_names)
        trace = run_episode(program, task, seed=seed, rng=random.Random(seed))
        text = "\n".join(trace.lines())
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest, (policy, seed)
        assert trace.total_reward == total_reward, (policy, seed)
        assert not trace.ended_invalid, (policy, seed)


@pytest.mark.parametrize("task", ALL_TASKS)
def test_policy_sees_python_scalars(task):
    spec = get_spec(task)
    scalar = int if task is TaskId.CARTPOLE_STAR2 else float
    env = make(task)
    rng = random.Random(3)
    for seed in range(2):
        obs, terminated = env.reset(seed), False
        for _ in range(spec.max_steps):
            assert type(obs) is tuple and len(obs) == spec.obs_dim
            assert all(type(v) is scalar for v in obs), obs
            if terminated:
                break
            if spec.is_discrete:
                action = rng.choice(spec.action.labels)
            else:
                action = rng.uniform(spec.action.lo, spec.action.hi)
            obs, _, terminated = step(env, action)

    first = spec.obs_names[0]
    program = parse(_header(spec) + f"    return {first} / ({first} - {first})\n")
    trace = run_episode(program, task, seed=0, rng=random.Random(0))
    assert trace.ended_invalid
    assert trace.invalid_value_text == "None"
    assert trace.length == 1 and trace.total_reward == 0.0
    assert trace.lines()[0].endswith(";None")


# run_episode plays an episode through the env's _rollout, the fused loop
# of its task or family. These tests pin it to a step loop that shares no
# code with the rollout: the frozen forms of tests/reference_dynamics.py.

# A policy per task that survives to the step limit, and one that makes the
# physics terminate early (Pendulum never terminates, so it has none).
_TO_LIMIT = {
    TaskId.CARTPOLE: (
        "    if 0.1 * cart_velocity + 3 * pole_angle + pole_angular_velocity > 0:\n"
        "        return 1\n"
        "    return 0\n"
    ),
    TaskId.CARTPOLE_STAR1: (
        "    if 0.1 * cart_velocity + 3 * pole_angle + pole_angular_velocity > 0:\n"
        "        return 2\n"
        "    return 1\n"
    ),
    TaskId.CARTPOLE_STAR2: (
        "    if 0.02 * cart_position + 0.1 * cart_velocity + 0.5 * pole_angle"
        " + pole_angular_velocity > 0:\n"
        "        return 2\n"
        "    return 1\n"
    ),
    TaskId.INVERTED_PENDULUM: (
        "    return 1.0 * cart_position + 2.0 * cart_velocity + 30.0 * pole_angle"
        " + 5.0 * pole_angular_velocity\n"
    ),
    TaskId.ACROBOT: "    return 1\n",
    TaskId.PENDULUM: "    return 0.0\n",
    TaskId.MOUNTAIN_CAR_DISCRETE: "    return 1\n",
    TaskId.MOUNTAIN_CAR_CONTINUOUS: "    return 0.0\n",
}
_TO_TERMINATION = {
    TaskId.CARTPOLE: "    return 1\n",
    TaskId.CARTPOLE_STAR1: "    return 2\n",
    TaskId.CARTPOLE_STAR2: "    return 1\n",
    TaskId.INVERTED_PENDULUM: "    return 3.0\n",
    TaskId.ACROBOT: (
        "    if angular_velocity_theta1 < 0:\n"
        "        return 2\n"
        "    return 0\n"
    ),
    TaskId.MOUNTAIN_CAR_DISCRETE: (
        "    if velocity > 0:\n"
        "        return 2\n"
        "    return 0\n"
    ),
    TaskId.MOUNTAIN_CAR_CONTINUOUS: (
        "    if velocity >= 0:\n"
        "        return 1.0\n"
        "    return -1.0\n"
    ),
}
_SEEDS = range(3)


def _policy_source(task, kind):
    """A policy for ``task`` whose episodes end the way ``kind`` names.

    The invalid kinds play the step-limit policy and, on a 3 % draw from
    the policy's rng, end it mid-episode: with a label that is no action
    (discrete), by falling off the end (None, continuous), or by dividing
    by zero. The odd values are, on further draws, a float label, a bool,
    inf, NaN and an int too large for a float; the task takes some of them
    as actions and the episode goes on, until one it refuses ends it.
    """
    spec = get_spec(task)
    if kind == "limit":
        return _header(spec) + _TO_LIMIT[task]
    if kind == "terminated":
        return _header(spec) + _TO_TERMINATION[task]
    first = spec.obs_names[0]
    if kind == "runtime_error":
        tail = f"    return {first} / ({first} - {first})\n"
    elif kind == "odd_value":
        tail = (
            "    if random.uniform(0, 1) < 0.2:\n"
            "        return 2.0\n"
            "    if random.uniform(0, 1) < 0.2:\n"
            "        return 1 < 2\n"
            "    if random.uniform(0, 1) < 0.2:\n"
            "        return 1e308 * 10\n"
            "    if random.uniform(0, 1) < 0.4:\n"
            "        return 1e308 * 10 - 1e308 * 10\n"
            f"    return {_HUGE}\n"
        )
    else:
        tail = "    return 7\n" if spec.is_discrete else ""
    gate = "    if random.uniform(0, 1) < 0.97:\n" + textwrap.indent(_TO_LIMIT[task], "    ")
    return _header(spec) + gate + tail


def _step_by_step(program, seed, rng, env):
    """The rollout written as a loop of reference steps from the state that
    ``env.reset(seed)`` draws; also returns the native state it ends in."""
    spec = env.spec
    coerce, tick, observe = reference_step_forms(env)
    env.reset(seed)
    state = env.state
    observations, actions, total_reward = [], [], 0.0
    while True:
        obs = observe(state)
        observations.append(obs)
        try:
            value = program.compiled(rng, obs)
            action = coerce(value)
        except POLICY_ERRORS:
            value, action = None, None
        if action is None:
            # its text as run_episode gives it; test_first_step_outcome pins
            # what that is for each kind of value
            text = episode._value_text(value)
            return observations, actions, total_reward, text, state
        actions.append(action)
        state, reward, terminated = tick(state, action)
        total_reward += reward
        if terminated or len(actions) == spec.max_steps:
            return observations, actions, total_reward, None, state


_CASES = [
    (task, kind)
    for task in ALL_TASKS
    for kind in ("limit", "terminated", "invalid_value", "runtime_error", "odd_value")
    if kind != "terminated" or task in _TO_TERMINATION
]


@pytest.mark.parametrize("task, kind", _CASES, ids=[f"{t.value}-{k}" for t, k in _CASES])
def test_run_episode_matches_the_reference_step_loop(task, kind):
    spec = get_spec(task)
    program = parse(_policy_source(task, kind), expected_params=spec.obs_names)
    env, reference_env = make(task), make(task)  # each reused across seeds
    lengths = []
    for seed in _SEEDS:
        trace = run_episode(program, task, seed, random.Random(seed), env=env)
        expected = _step_by_step(program, seed, random.Random(seed), reference_env)
        got = (
            trace.observations,
            trace.actions,
            trace.total_reward,
            trace.invalid_value_text,
            env.state,
        )
        assert got == expected, (kind, seed)
        # bit for bit: repr tells -0.0 from 0.0 and an int from an equal float
        assert repr(got) == repr(expected), (kind, seed)

        # each policy ends its episodes the way its kind says
        if kind == "limit":
            assert not trace.ended_invalid
            assert len(trace.actions) == spec.max_steps
        elif kind == "terminated":
            assert not trace.ended_invalid
            assert len(trace.actions) < spec.max_steps
        else:
            text = trace.invalid_value_text
            if kind == "runtime_error":
                assert text == "None"
            elif kind == "odd_value":
                # a refused number, or an int too large for a continuous task
                assert text is not None
            elif spec.is_discrete:
                assert text == "7"
            else:
                assert text == "None"
            assert len(trace.actions) == trace.length - 1
        lengths.append(trace.length)
    # no kind ends every episode on its first step, invalid ones included
    assert max(lengths) > 1, lengths


def test_the_cartpole_family_has_no_step_or_observe_hooks():
    """Its physics, bounds test and encoding are written once, in its
    _rollout, which reset and observe run too."""
    assert not {"_step_state", "_observe"} & set(vars(cartpole._CartPoleFamily))


# Each way a step's policy call can end, on its first step: run_episode's
# rollout calls the compiled policy and the action check on its value, and must
# take the action the frozen coerce form makes of the value the compiled
# function returns on the same observation and rng, or refuse the value
# with the text the table says. No text: a valid action.
_HUGE = big_int_expression(400)  # too large for a float
_LONG = big_int_expression(2150)  # its square is too long to print
_OUTCOMES = {
    "fall-through": (TaskId.CARTPOLE_STAR2, "if pole_angle > 10000:\n        return 1", None, "None"),
    "out-of-range-label": (TaskId.CARTPOLE_STAR2, "return 3", None, "3"),
    "true": (TaskId.CARTPOLE, "return pole_angle == pole_angle", None, "True"),
    "float-label": (TaskId.CARTPOLE, "return 2 / 2", 1, None),
    "nan": (TaskId.PENDULUM, "return 1e308 * 10 - 1e308 * 10", None, "nan"),
    "inf": (TaskId.MOUNTAIN_CAR_CONTINUOUS, "return -1e308 * 10", None, "-inf"),
    "clamped-high": (TaskId.INVERTED_PENDULUM, "return 7.5", 3.0, None),
    "clamped-low": (TaskId.INVERTED_PENDULUM, "return -4", -3.0, None),
    "int-too-large-for-a-float": (TaskId.INVERTED_PENDULUM, f"return {_HUGE}", None, "None"),
    "int-too-long-to-print": (TaskId.ACROBOT, f"return {_LONG} * {_LONG}", None, "None"),
    "division-by-zero": (TaskId.CARTPOLE_STAR1, "return 1 / (pole_angle - pole_angle)", None, "None"),
    "bad-randint-bounds": (TaskId.MOUNTAIN_CAR_DISCRETE, "return random.randint(2, 1)", None, "None"),
}


@pytest.mark.parametrize("task, body, action, text", _OUTCOMES.values(), ids=list(_OUTCOMES))
def test_first_step_outcome_is_the_frozen_check(task, body, action, text):
    spec = get_spec(task)
    coerce, _, _ = reference_step_forms(make(task))
    program = parse(_header(spec) + f"    {body}\n", expected_params=spec.obs_names)
    for seed in range(3):
        trace = run_episode(program, task, seed, random.Random(seed))
        first_obs = make(task).reset(seed)
        assert trace.observations[0] == first_obs
        try:
            expected = coerce(program.compiled(random.Random(seed), first_obs))
        except POLICY_ERRORS:
            expected = None
        if text is None:
            assert trace.actions[0] == expected == action
            assert type(trace.actions[0]) is type(expected) is type(action)
            assert trace.invalid_value_text is None
        else:
            assert expected is None
            assert trace.length == 1 and trace.actions == []
            assert trace.invalid_value_text == text
            assert trace.lines()[0].endswith(f";{text}")


def test_wrong_arity_raises_before_any_draw():
    program = parse("def get_action(a, b, c):\n    return random.randint(0, 1)\n")
    rng = random.Random(0)
    before = rng.getstate()
    with pytest.raises(ValueError) as rolled:
        run_episode(program, TaskId.CARTPOLE, 0, rng)
    assert str(rolled.value) == "observation has 4 values but the policy takes 3 parameters"
    assert rng.getstate() == before
