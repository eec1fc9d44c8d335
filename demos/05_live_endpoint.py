"""Short live run against a real chat-completions endpoint (optional).

Point POLICYLOOP_BASE_URL at any OpenAI-compatible server (a local model
host works) and optionally set POLICYLOOP_MODEL, then:

    POLICYLOOP_BASE_URL=http://localhost:11434 python demos/05_live_endpoint.py

Five epochs on the shifted-action cart-pole, five evaluation episodes per
epoch. No reward is asserted; the point is to watch the pipeline converse:
strategy -> rules -> code -> evaluate -> reflect.
"""

import os
import sys

from policyloop import HttpChatBackend, LoopConfig, run_replication
from policyloop.gateway import GatewayConfig
from policyloop.loop import default_record_name

base_url = os.environ.get("POLICYLOOP_BASE_URL")
if not base_url:
    sys.exit("set POLICYLOOP_BASE_URL to a chat-completions endpoint first")

config = LoopConfig.for_task(
    "CartPoleStar1",
    epochs=5,
    eval_episodes=5,
    model_name=os.environ.get("POLICYLOOP_MODEL", "llama3"),
    seed_root=1,
)
backend = HttpChatBackend(GatewayConfig.load())

record = run_replication("CartPoleStar1", config, backend, replication_index=0, temperature=0.0)

print("status:", record.status.value)
print("rewards:", [round(r, 2) for r in record.per_iteration_rewards])
for strategy in record.strategies:
    print(f"\n--- iteration {strategy.iteration_index} "
          f"(mean {strategy.mean_reward:.2f}, {strategy.repair_attempts} code attempt(s)) ---")
    print(strategy.rules_text)

path = record.save(default_record_name(record))
print("\nrecord saved to", path)
