"""Spans around the calls into each policyloop layer, for the traced run.

A span is recorded by replacing a function with a timing wrapper at the
place its caller looks it up: a module global such as
``policyloop.dsl.episode.evaluate``, or a method on a class such as
``CartPoleStar2Env.step``. Nothing under ``src/`` is edited, and the
originals are put back by :meth:`Tracer.uninstall`. A name that no longer
exists is skipped, so its counts read 0.

Spans are kept in memory as per-name totals (count, time, self time, errors)
and per (parent, child) edge, because the rollout layers make millions of
calls per run. A span's self time is its duration minus the time its child
spans cover. :meth:`Tracer.dump` writes everything out at the end.
"""

from __future__ import annotations

import importlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

_MISSING = object()

# (module, name, span) for module globals, looked up where they are called.
MODULE_SPANS = (
    ("policyloop.dsl.episode", "evaluate", "dsl.evaluate"),
    ("policyloop.dsl.episode", "step_line", "envs.render"),
    ("policyloop.loop.runner", "run_episode", "dsl.run_episode.loop"),
    ("policyloop.metrics", "run_episode", "dsl.run_episode.metrics"),
    ("policyloop.loop.runner", "derive_seed", "envs.derive_seed"),
    ("policyloop.metrics", "derive_seed", "envs.derive_seed"),
    ("policyloop.prompts.pipeline", "parse", "dsl.parse"),
    ("policyloop.loop.runner", "parse_policy", "dsl.parse"),
    ("policyloop.metrics", "parse", "dsl.parse"),
    ("policyloop.loop.runner", "render_p1", "prompts.render"),
    ("policyloop.loop.runner", "render_p2", "prompts.render"),
    ("policyloop.loop.runner", "render_p4", "prompts.render"),
    ("policyloop.prompts.pipeline", "render_p3", "prompts.render"),
    ("policyloop.loop.runner", "extract_strategy", "prompts.extract"),
    ("policyloop.loop.runner", "extract_rules", "prompts.extract"),
    ("policyloop.prompts.pipeline", "extract_code", "prompts.extract_code"),
    ("policyloop.loop.runner", "generate_program", "prompts.generate_program"),
    ("policyloop.loop.runner", "initialize", "loop.iteration"),
    ("policyloop.loop.runner", "refine", "loop.iteration"),
    ("policyloop.loop.runner", "retest", "loop.iteration"),
    ("policyloop.loop.runner", "evaluate_program", "loop.evaluate_program"),
    ("policyloop.loop.batch", "run_replication", "loop.run_replication"),
    ("policyloop.metrics", "compute_report", "metrics.compute_report"),
    ("policyloop.metrics", "robustness", "metrics.robustness"),
)


def _episode_steps(trace) -> int:
    """Environment steps in one episode (an invalid last action is no step)."""
    return trace.length - (1 if trace.ended_invalid else 0)


# Spans whose result carries a unit of work, and how to read it.
UNITS: dict[str, Callable] = {
    "prompts.render": len,
    "dsl.run_episode.loop": _episode_steps,
    "dsl.run_episode.metrics": _episode_steps,
}

# Spans whose individual durations are kept for percentiles.
SAMPLED = ("gateway.complete",)


@dataclass
class SpanStats:
    count: int = 0
    total: float = 0.0
    self_time: float = 0.0
    errors: int = 0
    units: float = 0.0
    samples: Optional[list] = None


@dataclass
class Tracer:
    stats: dict = field(default_factory=dict)
    edges: dict = field(default_factory=dict)
    _stack: list = field(default_factory=lambda: [["", 0.0]])
    _undo: list = field(default_factory=list)

    def get(self, name: str) -> SpanStats:
        if name not in self.stats:
            self.stats[name] = SpanStats(samples=[] if name in SAMPLED else None)
        return self.stats[name]

    def wrap(self, name: str, fn: Callable) -> Callable:
        stats = self.get(name)
        units = UNITS.get(name)
        samples = stats.samples
        stack = self._stack
        edges = self.edges
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats.errors += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                stats.count += 1
                stats.total += elapsed
                stats.self_time += elapsed - frame[1]
                edge = edges.get((parent[0], name))
                if edge is None:
                    edges[(parent[0], name)] = [1, elapsed]
                else:
                    edge[0] += 1
                    edge[1] += elapsed
                if samples is not None:
                    samples.append(elapsed)
            if units is not None:
                stats.units += units(result)
            return result

        traced.__wrapped__ = fn
        traced.perfbench_span = name
        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a span; a missing name stays at 0."""
        self.get(name)
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        if hasattr(fn, "perfbench_span") and attr not in vars(owner):
            fn = fn.__wrapped__  # inherited from a class patched already
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, self.wrap(name, fn))

    def install(self) -> "Tracer":
        for module_name, attr, name in MODULE_SPANS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            self.patch(module, attr, name)
        from policyloop import envs, gateway
        from policyloop.loop import records

        for task, cls in getattr(envs, "ENV_CLASSES", {}).items():
            self.patch(cls, "step", f"envs.step.{task.value}")
            self.patch(cls, "reset", "envs.reset")
        self.patch(getattr(records, "RunRecord", None), "save", "loop.record_save")
        self.patch(getattr(gateway, "HttpChatBackend", None), "complete", "gateway.complete")
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def dump(self, path: Path, extra: dict) -> None:
        data = {
            "spans": {
                name: {
                    "count": s.count,
                    "total_s": s.total,
                    "self_s": s.self_time,
                    "errors": s.errors,
                    "units": s.units,
                }
                for name, s in sorted(self.stats.items())
            },
            "edges": [
                {"parent": parent or None, "child": child, "count": c, "total_s": t}
                for (parent, child), (c, t) in sorted(self.edges.items())
            ],
            **extra,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(data, indent=1), encoding="utf-8")


class EpisodeCounter(Tracer):
    """Counts episodes of the refinement loop and their steps, and nothing
    else: the one wrapper an untraced run keeps, once per episode."""

    def install(self) -> "EpisodeCounter":
        module = importlib.import_module("policyloop.loop.runner")
        self.patch(module, "run_episode", "dsl.run_episode.loop")
        return self
