"""Hereditarily finite sets: the values of check names and of the oracle.

A set is a frozenset of sets; canonical form is the representation itself.
"""
from __future__ import annotations

HF = frozenset

EMPTY: HF = frozenset()


def parse_hf(data) -> HF:
    """Nested lists from the workspace format, e.g. [[], [[]]]."""
    if not isinstance(data, list):
        raise ValueError(f"hereditarily finite literal must be a nested list, got {data!r}")
    return frozenset(parse_hf(m) for m in data)

