"""Benchmark of policyloop; run it with ``python3 perfbench/run.py``."""
