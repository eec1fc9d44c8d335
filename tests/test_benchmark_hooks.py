"""The benchmark's tracer finds its spans by name (module globals, methods
of the environment classes); a renamed target would silently read 0, and
the untraced run counts its episodes and steps through one of them. The
names the code no longer has are the one exemption: they must stay gone,
and a span that only they fed must read 0."""

import importlib
import random
import sys
from pathlib import Path

import pytest

from policyloop import metrics
from policyloop.dsl import episode, parse, run_episode
from policyloop.envs import ENV_CLASSES, TaskId, get_spec
from policyloop.gateway import HttpChatBackend, ScriptedBackend
from policyloop.loop import run_batch, runner
from policyloop.loop.records import RunRecord
from policyloop.prompts import pipeline

from conftest import make_records, scripted_session, transcript_text

ROOT = str(Path(__file__).resolve().parent.parent)
if ROOT not in sys.path:
    sys.path.append(ROOT)

from perfbench.tracing import MODULE_SPANS, UNITS, Tracer

# (owner, name) -> span: what the tracer still patches but the code no longer
# has. The single-step API that whole-episode rollouts replaced
# (``dsl.episode.evaluate`` and each env class's ``step``); the episode loop
# of ``metrics.robustness``, which now plays ``loop.runner``'s
# ``seeded_episodes``; and the wrappers ``initialize``, ``refine`` and
# ``retest`` that ``run_replication`` folded, with the parse that only
# ``retest`` made; and ``generate_program``, whose code requests
# ``_next_strategy`` now builds itself. The tracer skips a missing name.
# Keyed by the pair: ``envs.derive_seed`` is also the span of
# ``loop.runner.derive_seed``, and ``dsl.parse`` that of
# ``prompts.pipeline.parse`` and ``metrics.parse``.
RETIRED = {
    (episode, "evaluate"): "dsl.evaluate",
    (metrics, "run_episode"): "dsl.run_episode.metrics",
    (metrics, "derive_seed"): "envs.derive_seed",
    (runner, "initialize"): "loop.iteration",
    (runner, "refine"): "loop.iteration",
    (runner, "retest"): "loop.iteration",
    (runner, "parse_policy"): "dsl.parse",
    (runner, "generate_program"): "prompts.generate_program",
} | {(cls, "step"): f"envs.step.{task.value}" for task, cls in ENV_CLASSES.items()}

LIVE = [
    (module_name, attr, span)
    for module_name, attr, span in MODULE_SPANS
    if (importlib.import_module(module_name), attr) not in RETIRED
]

# spans that only retired names fed
DEAD = sorted(set(RETIRED.values()) - {span for _, _, span in LIVE})

# (module, name) -> why: live names that no call of a run reaches, because
# their callers now hold them under other names
SILENT = {
    (pipeline, "render_p3"): "loop.runner renders Prompt 3 through its own import",
    (pipeline, "extract_code"): "loop.runner extracts each code answer through its own import",
}


@pytest.mark.parametrize("module_name, attr", [(m, a) for m, a, _ in LIVE])
def test_every_traced_module_name_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))


@pytest.mark.parametrize("task", list(ENV_CLASSES), ids=lambda task: task.value)
def test_every_environment_class_has_reset(task):
    assert callable(ENV_CLASSES[task].reset)


# a span that several retired names fed is named with each of them
RETIRED_IDS = [
    span if list(RETIRED.values()).count(span) == 1 else f"{span}-{attr}"
    for (_, attr), span in RETIRED.items()
]


@pytest.mark.parametrize("owner, attr", list(RETIRED), ids=RETIRED_IDS)
def test_retired_names_do_not_resolve(owner, attr):
    assert not hasattr(owner, attr)


@pytest.mark.parametrize("task", list(ENV_CLASSES), ids=lambda task: task.value)
def test_retired_spans_count_nothing_in_an_episode(task):
    spec = get_spec(task)
    program = parse(f"def get_action({', '.join(spec.obs_names)}):\n    {spec.random_default_text}\n")
    with Tracer() as tracer:
        trace = run_episode(program, task, 0, random.Random(0))
    assert trace.length > 0 and tracer.stats["envs.reset"].count == 1
    assert {span: tracer.stats[span].count for span in DEAD} == dict.fromkeys(DEAD, 0)


def test_robustness_episodes_are_timed_under_the_loops_span():
    records = make_records([[500.0]], program_source=transcript_text("code_optimal.py") + "\n")
    with Tracer() as tracer:
        assert metrics.robustness(records, 500.0, t_max=10, n_eval=3) == 1.0
    spans = ("dsl.run_episode.loop", "dsl.run_episode.metrics", "envs.derive_seed")
    counts = {span: tracer.stats[span].count for span in spans}
    # an env seed and a policy seed per episode
    assert counts == {"dsl.run_episode.loop": 3, "dsl.run_episode.metrics": 0, "envs.derive_seed": 6}


def test_every_live_name_is_called_in_a_traced_run(tmp_path, monkeypatch):
    """A counter on each live name, then a traced scripted batch that saves
    its record and the report on it: every live name is called but the
    ``SILENT`` ones, which are not."""
    calls = dict.fromkeys(
        [(importlib.import_module(module_name), attr) for module_name, attr, _ in LIVE], 0
    )
    for owner, attr in calls:

        def counted(*args, _key=(owner, attr), _original=getattr(owner, attr), **kwargs):
            calls[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
    with Tracer():
        records = run_batch(
            ["CartPoleStar2"],
            lambda *_: ScriptedBackend(scripted_session()),
            replications=1,
            out_dir=tmp_path,
            seed_root=3,
            config_overrides={"epochs": 5},
        )
        report = metrics.compute_report(records, n_eval=3)
    assert report.successful_set == [0] and report.robustness == 1.0
    assert [key for key, count in calls.items() if count == 0] == list(SILENT)


def test_traced_methods_resolve():
    assert callable(RunRecord.save) and callable(HttpChatBackend.complete)


def test_episode_steps_are_read_from_a_real_trace(iter0_program):
    trace = run_episode(iter0_program, TaskId.CARTPOLE_STAR2, 0, random.Random(0))
    assert UNITS["dsl.run_episode.loop"](trace) == len(trace.actions) > 0
