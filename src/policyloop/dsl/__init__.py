"""Sandboxed, loop-free rule-policy language: CPython's parser plus a node
whitelist, compilation, evaluation, episodes."""

from .episode import EpisodeTrace, InvalidReason, PolicyOutcome, evaluate, run_episode
from .parser import PolicyParseError, PolicyProgram, parse

__all__ = [
    "EpisodeTrace",
    "InvalidReason",
    "PolicyOutcome",
    "PolicyParseError",
    "PolicyProgram",
    "evaluate",
    "parse",
    "run_episode",
]
