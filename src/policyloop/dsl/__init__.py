"""Sandboxed, loop-free rule-policy language: CPython's parser plus a node
whitelist, compilation, episodes."""

from .episode import EpisodeTrace, InvalidReason, PolicyOutcome, run_episode
from .parser import PolicyParseError, PolicyProgram, parse

__all__ = [
    "EpisodeTrace",
    "InvalidReason",
    "PolicyOutcome",
    "PolicyParseError",
    "PolicyProgram",
    "parse",
    "run_episode",
]
