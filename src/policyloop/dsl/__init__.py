"""Sandboxed, loop-free rule-policy language: CPython's parser plus a node
whitelist, compilation, episodes."""

from .episode import EpisodeTrace, run_episode
from .parser import PolicyParseError, PolicyProgram, parse

__all__ = [
    "EpisodeTrace",
    "PolicyParseError",
    "PolicyProgram",
    "parse",
    "run_episode",
]
