"""The benchmark's tracer finds its spans by name (module globals, methods
of the environment classes); a renamed target would silently read 0, and
the untraced run counts its episodes and steps through one of them."""

import importlib
import random
import sys
from pathlib import Path

import pytest

from policyloop.dsl import run_episode
from policyloop.envs import ENV_CLASSES, TaskId
from policyloop.gateway import HttpChatBackend
from policyloop.loop.records import RunRecord

ROOT = str(Path(__file__).resolve().parent.parent)
if ROOT not in sys.path:
    sys.path.append(ROOT)

from perfbench.tracing import MODULE_SPANS, UNITS


@pytest.mark.parametrize("module_name, attr", [(m, a) for m, a, _ in MODULE_SPANS])
def test_every_traced_module_name_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))


@pytest.mark.parametrize("task", list(ENV_CLASSES), ids=lambda task: task.value)
def test_every_environment_class_has_step_and_reset(task):
    cls = ENV_CLASSES[task]
    assert callable(cls.step) and callable(cls.reset)


def test_traced_methods_resolve():
    assert callable(RunRecord.save) and callable(HttpChatBackend.complete)


def test_episode_steps_are_read_from_a_real_trace(iter0_program):
    trace = run_episode(iter0_program, TaskId.CARTPOLE_STAR2, 0, random.Random(0))
    assert UNITS["dsl.run_episode.loop"](trace) == len(trace.actions) > 0
