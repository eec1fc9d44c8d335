import sys
from pathlib import Path
from typing import NamedTuple, Optional

import pytest

FIXTURES = Path(__file__).parent / "fixtures"
TRANSCRIPTS = FIXTURES / "transcripts"

sys.path.insert(0, str(Path(__file__).parent))


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def transcript_text(name: str) -> str:
    return (TRANSCRIPTS / name).read_text(encoding="utf-8").strip()


def scripted_session() -> list[str]:
    """The canned CartPoleStar2 session used by the end-to-end tests.

    Four iterations: the initial rule chain with a random fallback, a
    gappy revision that emits unusable actions, a broader covering chain,
    and finally a weighted-sum policy that balances from every start.
    """
    return [
        transcript_text("strategy_iter0.txt"),
        transcript_text("rules_iter0.txt"),
        transcript_text("code_iter0.py"),
        transcript_text("strategy_iter1.txt"),
        transcript_text("rules_iter1.txt"),
        transcript_text("code_iter1.py"),
        transcript_text("strategy_iter2.txt"),
        transcript_text("rules_iter2.txt"),
        transcript_text("code_iter2.py"),
        transcript_text("strategy_iter3.txt"),
        transcript_text("rules_iter3.txt"),
        transcript_text("code_optimal.py"),
    ]


def assert_same_policy(program, expected):
    """``program`` has ``expected``'s name and parameters, and its compiled
    function returns the same action and draws the same numbers at every
    point of the stride-10 CartPoleStar2 grid, under equal-seeded rngs."""
    import itertools
    import random

    assert (program.name, program.params) == (expected.name, expected.params)
    mine, theirs = random.Random(0), random.Random(0)
    for obs in itertools.product(range(-50, 51, 10), repeat=4):
        assert program.compiled(mine, obs) == expected.compiled(theirs, obs), obs
    assert mine.getstate() == theirs.getstate()


def make_records(
    reward_rows,
    task="CartPoleStar2",
    epochs=100,
    eval_episodes=20,
    model="scripted-model",
    temperature=0.0,
    seed_root=0,
    program_source="def get_action(cart_position, cart_velocity, pole_angle, pole_angular_velocity):\n    return 1\n",
):
    """RunRecords with the given per-iteration mean-reward rows; the other
    strategy fields are placeholders, enough for aggregation-level metrics."""
    from policyloop.loop import LoopConfig, RunRecord, Strategy
    from policyloop.prompts import SensoryMotorWindow

    records = []
    for j, row in enumerate(reward_rows):
        config = LoopConfig.for_task(
            task,
            epochs=epochs,
            eval_episodes=eval_episodes,
            model_name=model,
            seed_root=seed_root,
            stop_on_max=False,
        )
        strategies = [
            Strategy(
                iteration_index=k,
                strategy_text=f"strategy {k}",
                rules_text=f"rules {k}",
                program_source=program_source,
                mean_reward=float(reward),
                per_episode_returns=[float(reward)] * eval_episodes,
                window=SensoryMotorWindow(lines=("[0 0 0 0];1",), source_episode=0, episode_return=float(reward)),
            )
            for k, reward in enumerate(row)
        ]
        records.append(
            RunRecord(
                task_id=config_task(task),
                model_name=model,
                temperature=temperature,
                replication_index=j,
                seed_root=seed_root,
                config=config,
                strategies=strategies,
            )
        )
    return records


def reference_step_forms(env):
    """(coerce, tick, observe) of one step of ``env``'s task, written without
    the env's ``_rollout``: ``coerce(value)`` is the action or None,
    ``tick(state, action)`` is (next state, reward, terminated), and
    ``observe(state)`` the observation. All three are frozen forms of
    ``reference_dynamics``.
    """
    from functools import partial

    import reference_dynamics as ref

    spec = env.spec
    if spec.is_discrete:
        coerce = partial(ref.discrete_coerce_original, spec.action.labels)
    else:
        coerce = partial(ref.continuous_coerce_min_max_form, spec.action.lo, spec.action.hi)
    task = spec.task_id.value
    if task in ref.CARTPOLE_FAMILY_TASKS:
        return (
            coerce,
            partial(ref.cartpole_family_step_form, task),
            partial(ref.cartpole_family_observation_form, task),
        )
    tick, observe = ref.FLOAT_TASK_FORMS[task]
    return coerce, tick, observe


def step(env, action):
    """One step of ``env`` from its state: a two-step ``_rollout``, the env's
    only driver, under a policy that returns ``action``, which the env's
    action check must take, and then None, which ends the rollout with no
    reward and no change of state. Returns (observation after it, reward,
    terminated); ``terminated`` says the env did not ask the policy again."""
    observations, taken = [], []
    policy = lambda rng, obs: None if taken else action
    reward, _ = env._rollout(policy, None, 2, observations, taken)
    assert taken, f"the rollout refused {action!r}"
    return env.observe(), reward, len(observations) == 1


class Outcome(NamedTuple):
    """A policy's action on one observation, or None with the value text an
    episode ending there records."""

    action: object
    value_text: Optional[str] = None


def policy_outcome(program, obs, rng, spec) -> Outcome:
    """The ``Outcome`` of ``program`` on ``obs``: its compiled function
    called with ``rng``, the value checked by one step of the rollout of
    ``spec``'s task, and a refused value's text as ``run_episode`` gives
    that of the one that ends an episode."""
    from policyloop.dsl.episode import _value_text
    from policyloop.envs import make

    env = make(spec.task_id)
    env.reset(0)
    taken = []
    _, value = env._rollout(lambda rng, _: program.compiled(rng, obs), rng, 1, [], taken)
    return Outcome(taken[0]) if taken else Outcome(None, _value_text(value))


def big_int_expression(digits: int) -> str:
    """A bracketed product of 29-digit literals, each under the parser's
    cap on an int literal, whose value has more than ``digits`` digits."""
    factors = ["9" * 29] * (digits // 29 + 1)
    groups = [" * ".join(factors[i : i + 25]) for i in range(0, len(factors), 25)]
    return "(" + " * ".join(f"({group})" for group in groups) + ")"


def config_task(task):
    from policyloop.envs import parse_task_id

    return parse_task_id(task)


@pytest.fixture
def star2_spec():
    from policyloop.envs import get_spec

    return get_spec("CartPoleStar2")


@pytest.fixture
def iter0_program(star2_spec):
    from policyloop.dsl import parse

    return parse(transcript_text("code_iter0.py"), expected_params=star2_spec.obs_names)
