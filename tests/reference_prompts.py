"""The reflection prompt's block assembly as it was written before its
ablation conditions became one table, kept unchanged so that
``tests/test_prompt_reference.py`` can compare the package's ``p4_blocks``
and ``render_p4`` against it, block for block and byte for byte.

Only the assembly and its reward-line helper are frozen here; the
templates, ``_fill``, ``format_reward`` and the task description are the
package's own, so the comparison isolates which blocks each condition keeps
and the order and text they are filled in with.
"""

from typing import Optional, Sequence

from policyloop.envs.core import EnvSpec
from policyloop.loop import Strategy
from policyloop.prompts import Ablation, PromptError
from policyloop.prompts.pipeline import _fill, format_reward, render_task_description


def _reward_with_max(value: float, r_max: Optional[float]) -> str:
    if r_max is None:
        return format_reward(value)
    return f"{format_reward(value)}/{format_reward(r_max)}"


def p4_blocks_reference(
    spec: EnvSpec,
    current: Strategy,
    previous: Optional[Strategy],
    best: Optional[Strategy],
    window_size: int,
    ablation: Ablation = Ablation.BASELINE,
    history_rewards: Sequence[float] = (),
) -> list[tuple[str, str]]:
    """Ordered named blocks of the reflection prompt.

    ``previous`` and ``best`` are supplied by the caller when they exist
    (from iteration 2 on); the reward-sequence line appears once
    ``history_rewards`` has at least two entries. Ablations excise blocks:

      NoData              -> everything between description and instruction
      NoSensoryMotorData  -> current window replaced by its reward line
      NoPreviousStrategy  -> previous block
      NoBestStrategy      -> best block
      OnlyCurrentStrategy -> keeps current + window only
      OnlyBestStrategyData-> keeps best only
    """
    if current.window is not None and len(current.window.lines) > window_size:
        raise PromptError(
            f"window has {len(current.window.lines)} lines, more than the "
            f"configured size {window_size}"
        )

    r_max = spec.r_max
    blocks: list[tuple[str, str]] = [
        ("task_description", "The task description is: " + render_task_description(spec))
    ]

    keep_sequence = ablation in (
        Ablation.BASELINE,
        Ablation.NO_SENSORY_MOTOR_DATA,
        Ablation.NO_PREVIOUS_STRATEGY,
        Ablation.NO_BEST_STRATEGY,
    )
    keep_current = ablation not in (Ablation.NO_DATA, Ablation.ONLY_BEST_STRATEGY_DATA)
    keep_window = keep_current and ablation is not Ablation.NO_SENSORY_MOTOR_DATA
    keep_previous = previous is not None and ablation in (
        Ablation.BASELINE,
        Ablation.NO_SENSORY_MOTOR_DATA,
        Ablation.NO_BEST_STRATEGY,
    )
    keep_best = best is not None and ablation in (
        Ablation.BASELINE,
        Ablation.NO_SENSORY_MOTOR_DATA,
        Ablation.NO_PREVIOUS_STRATEGY,
        Ablation.ONLY_BEST_STRATEGY_DATA,
    )

    if keep_sequence and len(history_rewards) >= 2:
        blocks.append(
            (
                "reward_sequence",
                _fill(
                    "p4_reward_sequence",
                    count=len(history_rewards),
                    rewards=", ".join(format_reward(r) for r in history_rewards),
                ),
            )
        )

    if keep_current:
        blocks.append(("current_strategy", _fill("p4_current", rules=current.rules_text)))
        reward_text = _reward_with_max(current.mean_reward, r_max)
        if keep_window and current.window is not None:
            blocks.append(
                (
                    "current_window",
                    _fill(
                        "p4_window",
                        window_len=len(current.window.lines),
                        episodes=len(current.per_episode_returns),
                        reward=reward_text,
                        lines="\n".join(current.window.lines),
                    ),
                )
            )
        else:
            blocks.append(
                (
                    "current_reward",
                    _fill("p4_reward", episodes=len(current.per_episode_returns), reward=reward_text),
                )
            )

    if keep_previous:
        assert previous is not None
        blocks.append(
            (
                "previous_strategy",
                _fill(
                    "p4_previous",
                    rules=previous.rules_text,
                    episodes=len(previous.per_episode_returns),
                    reward=_reward_with_max(previous.mean_reward, r_max),
                ),
            )
        )

    if keep_best:
        assert best is not None
        blocks.append(
            (
                "best_strategy",
                _fill(
                    "p4_best",
                    rules=best.rules_text,
                    episodes=len(best.per_episode_returns),
                    reward=_reward_with_max(best.mean_reward, r_max),
                ),
            )
        )

    blocks.append(("instruction", _fill("p4_instruction", improve_goal=spec.improve_goal_text)))

    window = current.window
    if (
        keep_current
        and window is not None
        and window.invalid_value_text is not None
        and ablation is not Ablation.NO_DATA
    ):
        blocks.append(
            (
                "error_feedback",
                _fill(
                    "p4_error",
                    valid_actions=spec.action_invalid_text,
                    value=window.invalid_value_text,
                ),
            )
        )
    return blocks


def render_p4_reference(
    spec: EnvSpec,
    current: Strategy,
    previous: Optional[Strategy] = None,
    best: Optional[Strategy] = None,
    history_rewards: Sequence[float] = (),
    window_size: int = 20,
    ablation: Ablation = Ablation.BASELINE,
) -> str:
    blocks = p4_blocks_reference(
        spec, current, previous, best, window_size, ablation, history_rewards
    )
    return "\n\n".join(text for _, text in blocks)
