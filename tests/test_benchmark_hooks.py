"""The benchmark's tracer finds its spans by name (module globals, methods
of the environment classes); a renamed target would silently read 0, and
the untraced run counts its episodes and steps through one of them. The
names of the retired single-step API are the one exemption: they must stay
gone, and their spans must read 0."""

import importlib
import random
import sys
from pathlib import Path

import pytest

from policyloop.dsl import episode, parse, run_episode
from policyloop.envs import ENV_CLASSES, TaskId, get_spec
from policyloop.gateway import HttpChatBackend
from policyloop.loop.records import RunRecord

ROOT = str(Path(__file__).resolve().parent.parent)
if ROOT not in sys.path:
    sys.path.append(ROOT)

from perfbench.tracing import MODULE_SPANS, UNITS, Tracer

# span -> (owner, name): what the tracer still patches of the single-step
# API that whole-episode rollouts replaced (``dsl.episode.evaluate`` and
# each env class's ``step``). The tracer skips a missing name, so these
# spans read 0.
RETIRED = {"dsl.evaluate": (episode, "evaluate")} | {
    f"envs.step.{task.value}": (cls, "step") for task, cls in ENV_CLASSES.items()
}


@pytest.mark.parametrize(
    "module_name, attr", [(m, a) for m, a, span in MODULE_SPANS if span not in RETIRED]
)
def test_every_traced_module_name_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))


@pytest.mark.parametrize("task", list(ENV_CLASSES), ids=lambda task: task.value)
def test_every_environment_class_has_reset(task):
    assert callable(ENV_CLASSES[task].reset)


@pytest.mark.parametrize("span", sorted(RETIRED))
def test_retired_names_do_not_resolve(span):
    owner, attr = RETIRED[span]
    assert not hasattr(owner, attr)


@pytest.mark.parametrize("task", list(ENV_CLASSES), ids=lambda task: task.value)
def test_retired_spans_count_nothing_in_an_episode(task):
    spec = get_spec(task)
    program = parse(f"def get_action({', '.join(spec.obs_names)}):\n    {spec.random_default_text}\n")
    with Tracer() as tracer:
        trace = run_episode(program, task, 0, random.Random(0))
    assert trace.length > 0 and tracer.stats["envs.reset"].count == 1
    assert {span: tracer.stats[span].count for span in RETIRED} == dict.fromkeys(RETIRED, 0)


def test_traced_methods_resolve():
    assert callable(RunRecord.save) and callable(HttpChatBackend.complete)


def test_episode_steps_are_read_from_a_real_trace(iter0_program):
    trace = run_episode(iter0_program, TaskId.CARTPOLE_STAR2, 0, random.Random(0))
    assert UNITS["dsl.run_episode.loop"](trace) == len(trace.actions) > 0
