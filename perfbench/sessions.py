"""Seeded chat sessions: the responses one replication consumes, in order.

Each refinement iteration takes a strategy text (Prompt 1 or 4), a rule text
(Prompt 2) and one or more code responses (Prompt 3). The code responses are
zero or more that fail to parse, each answered by the loop with a repair
prompt, and then one that parses. Everything is a pure function of the task's
``EnvSpec`` and the ``random.Random`` passed in, so one seed gives the same
bytes on every run.

Two policy families are generated:

* ``weak``: long if/elif chains whose first rule is a guard that keeps the
  system from its goal. On the cart-pole family the episodes therefore end
  within tens of steps, or on ``None`` when no rule fires and the program has
  no fallback. On the other tasks the episodes run to their fixed length.
* ``maximal``: the weighted-sum and PD controllers below, each checked to
  score the task maximum on every seed (CartPoleStar2 and InvertedPendulum).
"""

from __future__ import annotations

import random
import textwrap

from policyloop.envs import ContinuousAction, EnvSpec, TaskId

# Typical range of each observation; thresholds and gains are drawn inside it.
_RANGES = {
    "cart_position": (-2.4, 2.4),
    "cart_velocity": (-2.0, 2.0),
    "pole_angle": (-0.2, 0.2),
    "pole_angular_velocity": (-2.0, 2.0),
    "cos_theta1": (-1.0, 1.0),
    "sin_theta1": (-1.0, 1.0),
    "cos_theta2": (-1.0, 1.0),
    "sin_theta2": (-1.0, 1.0),
    "angular_velocity_theta1": (-4.0, 4.0),
    "angular_velocity_theta2": (-6.0, 6.0),
    "x": (-1.0, 1.0),
    "y": (-1.0, 1.0),
    "angular_velocity": (-8.0, 8.0),
    "position": (-1.2, 0.6),
    "velocity": (-0.07, 0.07),
}
_GRID = (-50, 50)  # CartPoleStar2 reports every observation on this grid

# The guard of a weak program: (observation, (band with a fallback, band
# without), action above the band, action below it). On the cart-pole family
# the guard pushes the wrong way, so the pole falls. Without a fallback the
# band holds most start states, so the chain decides the first steps and an
# observation no rule covers ends the episode on ``None``. On the other tasks
# the guards were checked to keep every episode at its full length.
_WRONG_WAY = ("pole_angle", (0.005, 0.05), "LEFT", "RIGHT")
_GUARDS = {
    TaskId.CARTPOLE: _WRONG_WAY,
    TaskId.CARTPOLE_STAR1: _WRONG_WAY,
    TaskId.CARTPOLE_STAR2: ("pole_angle", (0, 6), "LEFT", "RIGHT"),
    TaskId.INVERTED_PENDULUM: ("pole_angle", (0.005, 0.05), "-3.0", "3.0"),
    TaskId.ACROBOT: ("angular_velocity_theta1", (0.5, 0.5), "2", "0"),
    TaskId.PENDULUM: ("angular_velocity", (1.0, 1.0), "-2.0", "2.0"),
    TaskId.MOUNTAIN_CAR_CONTINUOUS: ("velocity", (0.002, 0.002), "-1.0", "1.0"),
}

_ONE_WAY = (TaskId.CARTPOLE, TaskId.CARTPOLE_STAR1, TaskId.CARTPOLE_STAR2)

# Gains that reach the maximum from every start state the task draws.
_MAXIMAL_GAINS = {
    TaskId.CARTPOLE_STAR2: (
        (0.02, 0.1, 0.5, 1.0),
        (0.05, 0.2, 1.0, 1.0),
        (0.02, 0.15, 0.8, 1.0),
        (0.03, 0.1, 0.6, 1.2),
        (0.05, 0.1, 0.4, 1.0),
    ),
    TaskId.INVERTED_PENDULUM: (
        (20.0, 3.0, 0.5, 0.1),
        (25.0, 4.0, 0.6, 0.2),
        (15.0, 2.5, 0.4, 0.1),
        (30.0, 5.0, 1.0, 0.3),
        (20.0, 3.0, 0.8, 0.3),
    ),
}

_WORDS = {
    "cart_position": "Cart Position",
    "cart_velocity": "Cart Velocity",
    "pole_angle": "Pole Angle",
    "pole_angular_velocity": "Pole Angular Velocity",
}

_STRATEGY_SENTENCES = (
    "Watch the observation that matters most and react before it drifts far.",
    "Apply the action that opposes the current error, and stay gentle near the centre.",
    "Keep the rules short enough to cover every observation the task can report.",
    "When the velocities are small, hold the previous tendency instead of switching.",
    "Prefer the action that reduced the error in the last evaluation window.",
    "Large readings call for the strongest action; small ones for a random nudge.",
    "Check the extreme cases first, then fall through to the fine adjustments.",
    "The previous strategy ended early, so the thresholds must move inwards.",
    "Use the sign of the angle as the main cue and the velocity as a tie breaker.",
    "Combine position and velocity into one score and act on its sign.",
)

_PROSE_BEFORE = (
    "Here is the policy function:",
    "Sure! Based on the rules above, the function is:",
    "The rules translate into the following code.",
)
_PROSE_AFTER = (
    "This function follows the rules in order and returns one action.",
    "Each branch corresponds to one of the numbered rules.",
    "Note that the checks are evaluated from top to bottom.",
)


def _number(value: float) -> str:
    text = f"{value:.3g}"
    return "0" if text in ("-0", "0") else text


class _Writer:
    """Draws conditions, actions and whole programs for one task."""

    def __init__(self, spec: EnvSpec, rng: random.Random):
        self.spec = spec
        self.rng = rng
        self.integer = spec.integer_observations
        if isinstance(spec.action, ContinuousAction):
            self.labels = None
        else:
            self.labels = spec.action.labels
        # On the cart-pole family every rule after the guard pushes one way
        # (or at random), so no chain can balance the pole by chance.
        self.push = None

    def _range(self, name: str) -> tuple[float, float]:
        return _GRID if self.integer else _RANGES.get(name, (-1.0, 1.0))

    def threshold(self, name: str, spread: float = 0.5) -> str:
        lo, hi = self._range(name)
        mid, half = (lo + hi) / 2, (hi - lo) / 2 * spread
        value = self.rng.uniform(mid - half, mid + half)
        return str(round(value)) if self.integer else _number(value)

    def comparison(self) -> str:
        name = self.rng.choice(self.spec.obs_names)
        kind = self.rng.random()
        if kind < 0.5:
            op = self.rng.choice(("<", "<=", ">", ">="))
            return f"{name} {op} {self.threshold(name)}"
        if kind < 0.75:
            a, b = sorted((float(self.threshold(name)), float(self.threshold(name))))
            fmt = (lambda v: str(round(v))) if self.integer else _number
            return f"{fmt(a)} <= {name} <= {fmt(b)}"
        other = self.rng.choice(self.spec.obs_names)
        gain = _number(self.rng.uniform(0.1, 2.0))
        return f"{gain} * {name} + {other} > {self.threshold(other, 0.3)}"

    def condition(self, narrow: bool = False) -> str:
        kind = self.rng.random()
        if narrow:
            return f"{self.comparison()} and {self.comparison()}"
        if kind < 0.45:
            return self.comparison()
        if kind < 0.75:
            return f"{self.comparison()} and {self.comparison()}"
        if kind < 0.9:
            return f"({self.comparison()}) or {self.comparison()}"
        return f"not ({self.comparison()})"

    def action(self) -> str:
        if self.labels is not None:
            if self.rng.random() < 0.1:
                return f"random.randint({self.labels[0]}, {self.labels[-1]})"
            if self.push is not None:
                return self.push
            return str(self.rng.choice(self.labels))
        lo, hi = self.spec.action.lo, self.spec.action.hi
        kind = self.rng.random()
        if kind < 0.4:
            return _number(self.rng.uniform(lo, hi))
        if kind < 0.8:
            name = self.rng.choice(self.spec.obs_names)
            return f"{_number(self.rng.uniform(-2.0, 2.0))} * {name}"
        return f"random.uniform({_number(lo)}, {_number(hi)})"

    def _guard_action(self, token: str) -> str:
        if token == "LEFT":
            return str(self.labels[0])
        if token == "RIGHT":
            return str(self.labels[-1])
        return token

    def weak(self, fallback: bool) -> tuple[str, str]:
        """A long weak program and the numbered rules it implements."""
        name, bands, high, low = _GUARDS[self.spec.task_id]
        band = bands[0] if fallback else bands[1]
        high, low = self._guard_action(high), self._guard_action(low)
        self.push = self.rng.choice((high, low)) if self.spec.task_id in _ONE_WAY else None
        body = [
            f"if {name} > {band}:",
            f"    return {high}",
            f"elif {name} < -{band}:",
            f"    return {low}",
        ]
        rules = [
            f"If {_WORDS.get(name, name)} > {band} Then return {high}",
            f"Else If {_WORDS.get(name, name)} < -{band} Then return {low}",
        ]
        # Without a fallback the rules are narrow, so some observations match
        # none of them and the episode ends on None.
        narrow = not fallback
        for _ in range(self.rng.randint(8, 16)):
            cond, act = self.condition(narrow), self.action()
            if self.rng.random() < 0.3:
                inner, inner_act = self.condition(narrow), self.action()
                body += [
                    f"if {cond}:",
                    f"    if {inner}:",
                    f"        return {inner_act}",
                    "    else:",
                    f"        return {act}",
                ]
                rules.append(f"If {cond} Then (if {inner} then return {inner_act}, else return {act})")
            else:
                keyword = "elif" if body[-1].startswith("    return") and self.rng.random() < 0.5 else "if"
                body += [f"{keyword} {cond}:", f"    return {act}"]
                rules.append(f"If {cond} Then return {act}")
        if fallback:
            body.append(self.spec.random_default_text)
            rules.append(f"Otherwise {self.spec.random_default_text}")
        return self._program(body), _numbered(rules)

    def maximal(self) -> tuple[str, str]:
        """A controller that reaches the task maximum on every seed."""
        a, b, c, d = (_number(g) for g in self.rng.choice(_MAXIMAL_GAINS[self.spec.task_id]))
        if self.spec.task_id is TaskId.CARTPOLE_STAR2:
            score = f"{a} * cart_position + {b} * cart_velocity + {c} * pole_angle + {d} * pole_angular_velocity"
            body = [f"if {score} > 0:", "    return 2", "else:", "    return 1"]
            rules = [f"If {score} > 0 Then Move Right (2)", "Else Move Left (1)"]
        else:
            force = f"{a} * pole_angle + {b} * pole_angular_velocity + {c} * cart_velocity + {d} * cart_position"
            body = [f"return {force}"]
            rules = [f"If the pole leans Then apply force = {force}"]
        return self._program(body), _numbered(rules)

    def _program(self, body: list[str]) -> str:
        head = f"def get_action({', '.join(self.spec.obs_names)}):"
        lines = [head] + ["    " + line for line in body]
        if self.rng.random() < 0.3:
            lines.insert(1, "    # rules are checked from top to bottom")
        return "\n".join(lines) + "\n"


def _numbered(rules: list[str]) -> str:
    return "\n".join(f"{i}. {rule}" for i, rule in enumerate(rules, start=1))


def strategy_text(rng: random.Random) -> str:
    sentences = rng.sample(_STRATEGY_SENTENCES, rng.randint(3, 6))
    return "Strategy:\n\n" + " ".join(sentences)


def rules_response(rules: str, rng: random.Random) -> str:
    """Rules with prose around them, as Prompt 2 answers usually come."""
    before = rng.choice(("Here are the rules:", "The IF-THEN-ELSE rules are:", ""))
    after = rng.choice(("", "These rules cover every observation.", "Follow them in order."))
    return "\n\n".join(part for part in (before, rules, after) if part)


def code_response(code: str, rng: random.Random) -> str:
    """A parseable answer in one of the sloppy formats models emit."""
    if "random." in code or rng.random() < 0.3:
        code = "import random\n\n" + code
    kind = rng.randrange(4)
    if kind == 0:
        return code
    if kind == 1:
        return f"{rng.choice(_PROSE_BEFORE)}\n\n```python\n{code}```\n\n{rng.choice(_PROSE_AFTER)}"
    if kind == 2:
        return f"{code}\n{rng.choice(_PROSE_AFTER)}"
    return f"{rng.choice(_PROSE_BEFORE)}\n{textwrap.indent(code, '    ')}\n{rng.choice(_PROSE_AFTER)}"


def broken_response(code: str, rng: random.Random) -> str:
    """An answer that fails to parse, derived from the good program."""
    lines = code.rstrip("\n").split("\n")
    head, body = lines[0], lines[1:]
    kind = rng.randrange(6)
    if kind == 0:  # a loop
        body = ["    for step in range(3):", "        pass"] + body
    elif kind == 1:  # an assignment
        name = head[head.index("(") + 1 : head.index(",")]
        body = [f"    scaled = 2 * {name}"] + body
    elif kind == 2:  # missing colon on the first branch
        first = next(i for i, line in enumerate(body) if line.endswith(":"))
        body[first] = body[first][:-1]
    elif kind == 3:  # wrong parameters
        head = "def get_action(observation):"
    elif kind == 4:  # a call outside the sandbox
        body = ["    if abs(" + head[head.index("(") + 1 : head.index(",")] + ") > 100:", "        return 0"] + body
    else:  # prose only
        return "I need more details about the task before I can write the function."
    return "```python\n" + "\n".join([head] + body) + "\n```"


def session(
    spec: EnvSpec,
    rng: random.Random,
    broken_per_iteration: list[int],
    fallback_share: float = 0.5,
) -> list[str]:
    """Responses for ``len(broken_per_iteration)`` weak iterations.

    Iteration ``i`` sends ``broken_per_iteration[i]`` code answers that fail
    to parse before the one that parses; keep each count below the loop's
    repair budget.
    """
    writer = _Writer(spec, rng)
    responses: list[str] = []
    for broken in broken_per_iteration:
        code, rules = writer.weak(fallback=rng.random() < fallback_share)
        responses.append(strategy_text(rng))
        responses.append(rules_response(rules, rng))
        responses.extend(broken_response(code, rng) for _ in range(broken))
        responses.append(code_response(code, rng))
    return responses


def spread_broken(iterations: int, broken: int, rng: random.Random) -> list[int]:
    """Place ``broken`` failing code answers over the iterations at random."""
    counts = [0] * iterations
    for _ in range(broken):
        counts[rng.randrange(iterations)] += 1
    return counts


def weak_program(spec: EnvSpec, rng: random.Random) -> tuple[str, str]:
    """(program source, rules text) of one weak policy with a fallback."""
    return _Writer(spec, rng).weak(fallback=True)


def maximal_program(spec: EnvSpec, rng: random.Random) -> tuple[str, str]:
    """(program source, rules text) of a policy that reaches the maximum."""
    return _Writer(spec, rng).maximal()
