"""The benchmark's three workloads: inputs from a seed, the timed part, checks.

Every workload is a closed loop with one client in one process: the next
call goes out only when the previous one has returned.

* ``refine-repair``: a scripted ``run_batch`` over the cart-pole family with
  generated sessions. Programs are long and weak, so episodes are short; a
  third of the code answers fail to parse and go through the repair loop;
  records are saved as a batch saves them, then reloaded and replayed. Most
  of the time goes to prompt rendering and extraction, parsing, window
  rendering and record I/O.
* ``robustness``: ``metrics.compute_report`` with robustness at ``N_EVAL``
  on records built at set-up, whose first-hit policies reach the task
  maximum (CartPoleStar2 with its integer observations, and the
  continuous-action InvertedPendulum). Almost all the time goes to
  ``env.step``, policy evaluation and episode bookkeeping.
* ``live-http``: ``run_batch`` through ``HttpChatBackend`` against the fake
  endpoint on localhost, on Acrobot, Pendulum and MountainCarContinuous. The
  only workload that goes through the gateway (HTTP, JSON, retries), and its
  episodes are long, float-valued and of fixed length.

In both batch workloads one replication is run, saved, reloaded and
replayed inside the timed part, and the replay must match byte for byte.

``--seconds`` sets the amount of work, not a deadline: each workload runs a
fixed number of replications or reports per second asked for, calibrated so
that the timed part lasts about that long on the 2-core reference machine.
A faster program then shows as a shorter ``wall_s``.

The timed part is cut into pieces (a replication, its reload and replay, a
report) with a reading of the reference loop between them, and each piece
is scaled by the host's speed beside it (see ``speed``).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from policyloop import metrics
from policyloop.dsl import parse
from policyloop.envs import TaskId, get_spec
from policyloop.gateway import GatewayConfig, HttpChatBackend, ScriptedBackend
from policyloop.loop import (
    LoopConfig,
    RunRecord,
    RunStatus,
    Strategy,
    default_record_name,
    replay,
    run_batch,
)
from policyloop.prompts import SensoryMotorWindow

from . import sessions, speed
from .fake_endpoint import FakeChatServer

# -- sizes --------------------------------------------------------------------

REFINE_TASKS = (TaskId.CARTPOLE, TaskId.CARTPOLE_STAR1, TaskId.CARTPOLE_STAR2)
REFINE_EPOCHS = 4
REFINE_EVAL_EPISODES = 5
REFINE_BROKEN = 2  # failing code answers per replication: 2 of 6 code answers
REFINE_REPLICATIONS_PER_S = 19.0

LIVE_TASKS = (TaskId.ACROBOT, TaskId.PENDULUM, TaskId.MOUNTAIN_CAR_CONTINUOUS)
LIVE_EPOCHS = 3
LIVE_EVAL_EPISODES = 1
LIVE_REPLICATIONS_PER_S = 3.4
LIVE_LATENCY_S = 0.004
LIVE_SHARE_503 = 0.2
LIVE_SHARE_EMPTY = 0.05
LIVE_BACKOFF_S = 0.005

N_EVAL = 5
ROBUSTNESS_CELLS_PER_S = 8.0
# Every third cell is InvertedPendulum, the rest CartPoleStar2, so the
# median report is a CartPoleStar2 one and the tail an InvertedPendulum one.
ROBUSTNESS_TASKS = (TaskId.CARTPOLE_STAR2, TaskId.CARTPOLE_STAR2, TaskId.INVERTED_PENDULUM)
WEAK_REWARD = {TaskId.CARTPOLE_STAR2: (8.0, 60.0), TaskId.INVERTED_PENDULUM: (5.0, 120.0)}


@dataclass
class Timed:
    """What the timed part produced, before any check."""

    wall_s: float  # scaled to the reference machine, like samples
    samples: list  # seconds per replication, or per report
    outputs: list  # RunRecords, or MetricsReports
    episodes: int = 0
    steps: int = 0
    model_s: float = 0.0  # time the stand-in model spent on the calls
    http_attempts: int = 0
    verdicts: list = field(default_factory=list)  # per record: what reload and replay found
    load_s: float = 0.0
    replay_s: float = 0.0
    record_bytes: list = field(default_factory=list)
    raw_wall_s: float = 0.0  # as measured, without the reference readings
    host_speed: float = 1.0  # see speed.Meter.host_speed


@dataclass
class Checked:
    attempted: int
    failed: int
    problems: list
    digest: str
    units: int  # replications run, or successful replications scored
    chat_calls: int


def _digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def _read(meter: speed.Meter, timed: Timed) -> Timed:
    """Fill in the walls of a timed part from its meter."""
    timed.wall_s = sum(meter.scaled())
    timed.raw_wall_s = sum(meter.raw())
    timed.host_speed = meter.host_speed()
    return timed


class Workload:
    name = ""

    def __init__(self, seed: int, seconds: float, out_dir: Path):
        self.seed = seed
        self.seconds = seconds
        self.out_dir = out_dir

    def setup(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def run(self, counter) -> Timed:
        """The timed part; ``counter`` is the installed tracer that counts
        episodes and their steps (see ``tracing.EpisodeCounter``)."""
        raise NotImplementedError

    def check(self, timed: Timed) -> Checked:
        raise NotImplementedError

    def digest(self, timed: Timed) -> str:
        """Hash of the canonical outputs, for comparing runs and commits."""
        raise NotImplementedError

    def _size(self, per_second: float, groups: int) -> int:
        return max(2, round(self.seconds * per_second / groups))


# -- refine-repair and live-http ----------------------------------------------


class _Batch(Workload):
    """Shared by the two workloads that run ``run_batch``."""

    tasks: tuple = ()
    epochs = 0
    overrides: dict = {}
    fallback_share = 1.0  # share of weak programs that end in a fallback return

    def _build_sessions(self, reps: int, broken_for) -> None:
        self.reps = reps
        self.sessions = {}
        self.broken = {}
        for task in self.tasks:
            spec = get_spec(task)
            for rep in range(reps):
                rng = random.Random(f"{self.name}/{self.seed}/{task.value}/{rep}")
                counts = sessions.spread_broken(self.epochs, broken_for(rep), rng)
                self.sessions[(task, rep)] = sessions.session(
                    spec, rng, counts, fallback_share=self.fallback_share
                )
                self.broken[(task, rep)] = counts

    def backend(self, task: TaskId, rep: int):
        raise NotImplementedError

    def digest(self, timed: Timed) -> str:
        return _digest(r.canonical_json() for r in timed.outputs)

    def meter(self) -> speed.Meter:
        return speed.Meter()

    def run(self, counter) -> Timed:
        meter = self.meter()
        started = []  # the piece each replication is

        def factory(task, model, temperature, rep):
            meter.mark()
            started.append(len(meter) - 1)
            return self.backend(task, rep)

        meter.mark()
        records = run_batch(
            self.tasks,
            factory,
            replications=self.reps,
            out_dir=self.out_dir,
            seed_root=self.seed,
            config_overrides=self.overrides,
        )
        meter.mark()
        timed = Timed(0.0, [], records)
        for record in records:
            timed.verdicts.append(self._reload_and_replay(record, timed))
            meter.mark()
        # pieces: the batch's start, then one per replication, then one per
        # reload and replay; a replication sample is its two pieces together
        scaled = meter.scaled()
        reloads = scaled[len(started) + 1 :]
        timed.samples = [scaled[i] + (reloads[k] if k < len(reloads) else 0.0) for k, i in enumerate(started)]
        episodes = counter.get("dsl.run_episode.loop")
        timed.episodes, timed.steps = episodes.count, int(episodes.units)
        return _read(meter, timed)

    def _reload_and_replay(self, record, timed: Timed) -> list:
        """Problems found when the saved record is reloaded and replayed."""
        path = self.out_dir / default_record_name(record)
        if not path.exists():
            return ["record was not saved"]
        timed.record_bytes.append(path.stat().st_size)
        problems = []
        started = time.perf_counter()
        loaded = RunRecord.load(path)
        loaded_at = time.perf_counter()
        if loaded.canonical_json() != record.canonical_json():
            problems.append("saved record differs from the returned one")
        replayed_from = time.perf_counter()
        matches, _ = replay(loaded)
        timed.replay_s += time.perf_counter() - replayed_from
        timed.load_s += loaded_at - started
        if not matches:
            problems.append("replay mismatch")
        return problems

    def check(self, timed: Timed) -> Checked:
        problems, failed = [], 0
        for record, found in zip(timed.outputs, timed.verdicts):
            key = (record.task_id, record.replication_index)
            mine = list(found)
            counts = self.broken.get(key)
            if counts is None:
                mine.append("record for a cell that was not run")
                counts = []
            if record.status is not RunStatus.COMPLETED:
                mine.append(f"status {record.status.value}")
            if [s.repair_attempts for s in record.strategies] != [c + 1 for c in counts]:
                mine.append("code attempts differ from the session")
            if record.responses != self.sessions.get(key):
                mine.append("transcript differs from the session")
            if mine:
                failed += 1
                problems.append(f"{key[0].value} r{key[1]}: " + ", ".join(mine))
        expected = len(self.tasks) * self.reps
        if len(timed.outputs) != expected:
            problems.append(f"{len(timed.outputs)} records for {expected} cells")
            failed += abs(expected - len(timed.outputs))
        return Checked(
            attempted=max(expected, len(timed.outputs)),
            failed=failed,
            problems=problems,
            digest=self.digest(timed),
            units=len(timed.outputs),
            chat_calls=sum(len(r.responses) for r in timed.outputs),
        )


class RefineRepair(_Batch):
    name = "refine-repair"
    tasks = REFINE_TASKS
    epochs = REFINE_EPOCHS
    overrides = {"epochs": REFINE_EPOCHS, "eval_episodes": REFINE_EVAL_EPISODES}
    # without a fallback an uncovered observation ends the episode on None
    fallback_share = 0.5

    def setup(self) -> None:
        reps = self._size(REFINE_REPLICATIONS_PER_S, len(self.tasks))
        self._build_sessions(reps, lambda rep: REFINE_BROKEN)

    def backend(self, task, rep):
        return ScriptedBackend(self.sessions[(task, rep)])


class LiveHttp(_Batch):
    name = "live-http"
    tasks = LIVE_TASKS
    epochs = LIVE_EPOCHS
    overrides = {"epochs": LIVE_EPOCHS, "eval_episodes": LIVE_EVAL_EPISODES}
    server = None

    def setup(self) -> None:
        reps = self._size(LIVE_REPLICATIONS_PER_S, len(self.tasks))
        # 1 or 2 failing code answers among 3 iterations: a third on average
        self._build_sessions(reps, lambda rep: 1 + rep % 2)
        self.server = FakeChatServer(
            {self._cell(task, rep): s for (task, rep), s in self.sessions.items()},
            seed=self.seed,
            latency_s=LIVE_LATENCY_S,
            share_503=LIVE_SHARE_503,
            share_empty=LIVE_SHARE_EMPTY,
        ).start()

    def close(self) -> None:
        if self.server is not None:
            self.server.close()

    @staticmethod
    def _cell(task: TaskId, rep: int) -> str:
        return f"{task.value}/{rep}"

    def meter(self) -> speed.Meter:
        # the endpoint's handling time stands for the model's: it is not scaled
        return speed.Meter(fixed=lambda: self.server.stats()[1])

    def backend(self, task, rep):
        config = GatewayConfig(
            base_url=self.server.base_url(self._cell(task, rep)),
            backoff=LIVE_BACKOFF_S,
            timeout=30.0,
        )
        return HttpChatBackend(config)

    def run(self, counter) -> Timed:
        attempts, handling = self.server.stats()
        timed = super().run(counter)
        after_attempts, after_handling = self.server.stats()
        timed.model_s = after_handling - handling
        timed.http_attempts = after_attempts - attempts
        return timed

    def check(self, timed: Timed) -> Checked:
        checked = super().check(timed)
        for (task, rep), responses in self.sessions.items():
            if self.server.served(self._cell(task, rep)) != len(responses):
                checked.problems.append(f"{task.value} r{rep}: endpoint queue not drained")
        return checked


# -- robustness ---------------------------------------------------------------


@dataclass
class _Cell:
    records: list
    expected: dict


def _strategy(index: int, source: str, rules: str, reward: float, episodes: int) -> Strategy:
    return Strategy(
        iteration_index=index,
        strategy_text=f"strategy {index}",
        rules_text=rules,
        program_source=source,
        mean_reward=reward,
        per_episode_returns=[reward] * episodes,
        window=SensoryMotorWindow(lines=(), source_episode=0, episode_return=reward),
    )


def _robustness_cell(task: TaskId, rng: random.Random) -> _Cell:
    """A successful replication and an aborted one, with the report they must give."""
    spec = get_spec(task)
    seed_root = rng.getrandbits(31)
    config = LoopConfig.for_task(task, model_name="scripted-model", seed_root=seed_root)
    t_max, r_max, eps = config.epochs, spec.r_max, config.eval_episodes
    lo, hi = WEAK_REWARD[task]
    hit = rng.randint(1, 8)
    weak_source, weak_rules = sessions.weak_program(spec, rng)
    best_source, best_rules = sessions.maximal_program(spec, rng)
    parse(best_source, expected_params=spec.obs_names)

    rewards = [round(rng.uniform(lo, hi), 2) for _ in range(hit - 1)] + [r_max]
    if not config.stop_on_max:  # retests of the maximal strategy fill the budget
        rewards += [r_max] * (t_max - hit)
    success = [
        _strategy(k, weak_source, weak_rules, r, eps)
        if k < hit - 1
        else _strategy(k, best_source, best_rules, r, eps)
        for k, r in enumerate(rewards)
    ]
    aborted_rewards = [round(rng.uniform(lo, hi), 2) for _ in range(rng.randint(2, 6))]
    aborted = [_strategy(k, weak_source, weak_rules, r, eps) for k, r in enumerate(aborted_rewards)]
    records = [
        RunRecord(task, "scripted-model", 0.0, rep, seed_root, config, strategies, status)
        for rep, strategies, status in (
            (0, success, RunStatus.COMPLETED),
            (1, aborted, RunStatus.ABORTED_REPAIR_BUDGET),
        )
    ]

    padded = rewards + [r_max] * (t_max - len(rewards))
    values = padded + aborted_rewards
    initial = (rewards[0] + aborted_rewards[0]) / 2
    best = (r_max + max(aborted_rewards)) / 2
    learning = hit / t_max
    expected = {
        "average_reward": sum(values) / len(values),
        "success": 0.5,
        "robustness": 1.0,
        "learning_time": learning,
        "fom": 0.25 / learning,
        "improvement_ratio": (best - initial) / (r_max - initial),
        "successful_set": [0],
    }
    return _Cell(records, expected)


class Robustness(Workload):
    name = "robustness"

    def setup(self) -> None:
        count = self._size(ROBUSTNESS_CELLS_PER_S, 1)
        self.cells = []
        for i in range(count):
            rng = random.Random(f"{self.name}/{self.seed}/{i}")
            task = ROBUSTNESS_TASKS[i % len(ROBUSTNESS_TASKS)]
            self.cells.append(_robustness_cell(task, rng))

    def run(self, counter) -> Timed:
        meter, reports = speed.Meter(), []
        for cell in self.cells:
            meter.mark()
            reports.append(metrics.compute_report(cell.records, n_eval=N_EVAL))
        meter.mark()
        # every episode of a correct report runs to the task's step limit
        steps = sum(N_EVAL * get_spec(c.records[0].task_id).max_steps for c in self.cells)
        return _read(meter, Timed(0.0, meter.scaled(), reports, episodes=N_EVAL * len(reports), steps=steps))

    def check(self, timed: Timed) -> Checked:
        problems = []
        for i, (cell, report) in enumerate(zip(self.cells, timed.outputs)):
            got = report.to_dict()
            wrong = [
                key
                for key, want in cell.expected.items()
                if not (
                    got[key] == want
                    if isinstance(want, list)
                    else got[key] is not None and math.isclose(got[key], want, rel_tol=1e-9)
                )
            ]
            if wrong:
                problems.append(f"cell {i} ({report.task_id}): wrong {', '.join(wrong)}")
        if len(timed.outputs) != len(self.cells):
            problems.append(f"{len(timed.outputs)} reports for {len(self.cells)} cells")
        return Checked(
            attempted=len(self.cells),
            failed=len(problems),
            problems=problems,
            digest=self.digest(timed),
            units=len(timed.outputs),
            chat_calls=0,
        )

    def digest(self, timed: Timed) -> str:
        return _digest(json.dumps(r.to_dict(), sort_keys=True) for r in timed.outputs)


WORKLOADS = {w.name: w for w in (RefineRepair, Robustness, LiveHttp)}
