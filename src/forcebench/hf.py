"""Hereditarily finite sets: the oracle universe for the name audits.

A set is a frozenset of sets; canonical form is the representation itself.
"""
from __future__ import annotations

from functools import lru_cache

HF = frozenset

EMPTY: HF = frozenset()


def hf(*members: HF) -> HF:
    return frozenset(members)


def hf_rank(x: HF) -> int:
    return 0 if not x else 1 + max(hf_rank(m) for m in x)


def format_hf(x: HF) -> str:
    return "{" + ",".join(sorted(format_hf(m) for m in x)) + "}"


def parse_hf(data) -> HF:
    """Nested lists from the workspace format, e.g. [[], [[]]]."""
    if not isinstance(data, list):
        raise ValueError(f"hereditarily finite literal must be a nested list, got {data!r}")
    return frozenset(parse_hf(m) for m in data)


@lru_cache(maxsize=None)
def von_neumann(k: int) -> HF:
    """The k-th von Neumann natural: {0, 1, ..., k-1}."""
    return frozenset(von_neumann(j) for j in range(k))


@lru_cache(maxsize=None)
def hf_universe(rank: int) -> frozenset[HF]:
    """Every set of rank <= rank; tetrational growth, keep rank <= 3."""
    if rank == 0:
        return frozenset({EMPTY})
    below = hf_universe(rank - 1)
    out = set()
    members = sorted(below, key=format_hf)
    for bits in range(1 << len(members)):
        out.add(frozenset(m for k, m in enumerate(members) if bits >> k & 1))
    return frozenset(out)
