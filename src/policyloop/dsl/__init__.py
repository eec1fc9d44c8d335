"""Sandboxed, loop-free rule-policy language: CPython's parser plus a node
whitelist, compilation, evaluation, episodes."""

from .episode import EpisodeTrace, run_episode
from .evaluator import InvalidReason, PolicyOutcome, evaluate
from .parser import PolicyParseError, PolicyProgram, parse, to_source

__all__ = [
    "EpisodeTrace",
    "InvalidReason",
    "PolicyOutcome",
    "PolicyParseError",
    "PolicyProgram",
    "evaluate",
    "parse",
    "run_episode",
    "to_source",
]
