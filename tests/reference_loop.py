"""One replication of the refinement loop, written out straight from the
paper's description and kept unchanged, so that ``tests/test_loop_reference.py``
can compare the package's ``run_replication`` against it: the canonical
JSON of the record, and every request sent, in order.

It calls the environments, the parser, episodes, answer extraction and the
prompt renderers, which have oracles of their own, and nothing in
``policyloop.loop``. What it freezes is the loop itself:

- Prompt 1 at iteration 0, Prompt 4 on the current, previous and best
  strategies after it (the best is the earliest of equal mean rewards);
- Prompt 2, re-asked while its answer holds no rules, and Prompt 3,
  repaired with the parser's error, both within the repair budget;
- ``eval_episodes`` seeded episodes, the window from the worst one (the
  earliest of equal returns), the mean summed left to right;
- until the epoch budget, or the task maximum: there the run stops
  (``stop_on_max``), or re-evaluates the same program on the next
  iteration's seeds (``retest_at_max``), or reflects as usual;
- each request's seed, keyed by iteration and stage, and its token limit.
"""

import random

from policyloop.dsl import PolicyParseError, run_episode
from policyloop.envs import derive_seed, get_spec, make, parse_task_id
from policyloop.gateway import ChatRequest, GatewayError
from policyloop.prompts import (
    NoRulesError,
    SensoryMotorWindow,
    StrategySummary,
    extract_code,
    extract_rules,
    render_p1,
    render_p2,
    render_p3,
    render_p4,
)

MAX_TOKENS = {"P1_strategy": 2048, "P2_rules": 1024, "P3_code": 1024, "P4_reflect": 4096}

CONFIG_FIELDS = (
    "epochs",
    "eval_episodes",
    "window_size",
    "ablation",
    "stop_on_max",
    "retest_at_max",
    "temperatures",
    "model_name",
    "repair_budget",
    "seed_root",
)


class _Abort(Exception):
    def __init__(self, status):
        self.status = status


def run_replication_reference(task, config, backend, replication=0, temperature=None):
    """``(record, requests)``: the record as the dict whose sorted JSON is
    its canonical form, and ``(stage, request)`` for every request sent."""
    task_id = parse_task_id(task)
    spec = get_spec(task_id)
    if temperature is None:
        temperature = config.temperatures[0]
    root = config.seed_root
    requests = []
    responses = []

    def ask(stage, prompt, iteration, key):
        seed = derive_seed(root, replication, iteration, key) & 0x7FFFFFFF
        request = ChatRequest(
            model_name=config.model_name,
            temperature=temperature,
            messages=[{"role": "user", "content": prompt}],
            max_tokens=MAX_TOKENS[stage],
            request_seed=seed,
        )
        requests.append((stage, request))
        text = backend.complete(request).text
        responses.append(text)
        return text

    def evaluate(program, iteration):
        returns = []
        traces = []
        for ep in range(config.eval_episodes):
            rng = random.Random(derive_seed(root, replication, iteration, ep, "policy"))
            seed = derive_seed(root, replication, iteration, ep, "env")
            trace = run_episode(program, task_id, seed, rng, env=make(task_id))
            returns.append(trace.total_reward)
            traces.append(trace)
        worst_ep = 0
        for ep in range(1, len(returns)):
            if returns[ep] < returns[worst_ep]:
                worst_ep = ep
        worst = traces[worst_ep]
        total = 0.0
        for value in returns:
            total += value
        window = {
            "lines": worst.window_lines(config.window_size),
            "source_episode": worst_ep,
            "episode_return": returns[worst_ep],
            "invalid_value_text": worst.invalid_outcome.value_text if worst.ended_invalid else None,
        }
        return total / len(returns), returns, window

    def summary(strategy):
        window = strategy["window"]
        return StrategySummary(
            rules_text=strategy["rules_text"],
            mean_reward=strategy["mean_reward"],
            eval_episodes=config.eval_episodes,
            window=SensoryMotorWindow(
                lines=tuple(window["lines"]),
                source_episode=window["source_episode"],
                episode_return=window["episode_return"],
                invalid_value_text=window["invalid_value_text"],
            ),
        )

    def iterate(history):
        iteration = len(history)
        if iteration == 0:
            answer = ask("P1_strategy", render_p1(spec), 0, "p1")
        else:
            current = history[-1]
            previous = best = None
            if iteration >= 2:
                previous = history[-2]
                best = history[0]
                for strategy in history[1:]:
                    if strategy["mean_reward"] > best["mean_reward"]:
                        best = strategy
            prompt = render_p4(
                spec,
                summary(current),
                previous=summary(previous) if previous else None,
                best=summary(best) if best else None,
                history_rewards=[s["mean_reward"] for s in history],
                ablation=config.ablation,
            )
            answer = ask("P4_reflect", prompt, iteration, "p4")
        strategy_text = answer.strip()
        if not strategy_text:
            raise _Abort("aborted_backend")

        rules_text = None
        for attempt in range(1, config.repair_budget + 1):
            prompt = render_p2(spec, strategy_text, reask=attempt > 1)
            answer = ask("P2_rules", prompt, iteration, f"p2#{attempt}")
            try:
                rules_text = extract_rules(answer)
                break
            except NoRulesError:
                pass
        if rules_text is None:
            raise _Abort("aborted_repair_budget")

        program = error = None
        for attempt in range(1, config.repair_budget + 1):
            answer = ask("P3_code", render_p3(spec, rules_text, error=error), iteration, "p3")
            try:
                program = extract_code(answer, spec)
                break
            except PolicyParseError as exc:
                error = str(exc)
        if program is None:
            raise _Abort("aborted_repair_budget")

        reward, returns, window = evaluate(program, iteration)
        return {
            "iteration_index": iteration,
            "strategy_text": strategy_text,
            "rules_text": rules_text,
            "program_source": program.source_text,
            "mean_reward": reward,
            "per_episode_returns": returns,
            "window": window,
            "repair_attempts": attempt,
        }, program

    strategies = []
    status, error = "completed", None
    try:
        strategy, program = iterate(strategies)
        strategies.append(strategy)
        while len(strategies) < config.epochs:
            last = strategies[-1]
            at_max = spec.r_max is not None and last["mean_reward"] >= spec.r_max
            if at_max and config.stop_on_max:
                break
            if at_max and config.retest_at_max:
                reward, returns, window = evaluate(program, len(strategies))
                strategies.append(
                    dict(
                        last,
                        iteration_index=len(strategies),
                        mean_reward=reward,
                        per_episode_returns=returns,
                        window=window,
                        repair_attempts=0,
                    )
                )
                continue
            strategy, program = iterate(strategies)
            strategies.append(strategy)
    except _Abort as abort:
        status = abort.status
    except GatewayError:
        status = "aborted_backend"
    except Exception as exc:
        status, error = "aborted_error", f"{type(exc).__name__}: {exc}"

    config_dict = {}
    for name in CONFIG_FIELDS:
        config_dict[name] = getattr(config, name)
    config_dict["ablation"] = config.ablation.value
    config_dict["temperatures"] = list(config.temperatures)
    record = {
        "task_id": task_id.value,
        "model_name": config.model_name,
        "temperature": temperature,
        "replication_index": replication,
        "seed_root": root,
        "config": config_dict,
        "strategies": strategies,
        "status": status,
        "responses": responses,
    }
    if error is not None:
        record["error"] = error
    return record, requests
