import sys
from pathlib import Path

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
    ``observe(state)`` the observation. ``coerce`` is a frozen coerce form
    of ``reference_dynamics``; on the cart-pole family ``tick`` and
    ``observe`` are its frozen forms too, and on the other tasks the env's
    own ``_step_state``/``_observe`` hooks.
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
    return coerce, env._step_state, env._observe


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
