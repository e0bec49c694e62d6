"""Finite posets, separative quotients, and boolean completions.

The completion of a finite poset is the powerset of the minimal classes of
its separative quotient; the dense embedding sends p to the set of minimal
classes below the class of p.  The equivalence-of-subsets route (density of
intersections of downward closures) is kept in the test suite as the
independent oracle for this construction.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .finite_cba import FiniteCBA


@dataclass(frozen=True)
class Poset:
    """A finite poset; ``relation`` holds every pair (p, q) with p <= q."""

    elements: tuple[str, ...]
    relation: frozenset[tuple[str, str]]

    def __post_init__(self) -> None:
        elems = set(self.elements)
        if len(elems) != len(self.elements):
            raise ValueError("duplicate poset elements")
        for p, q in self.relation:
            if p not in elems or q not in elems:
                raise ValueError(f"relation pair ({p!r}, {q!r}) outside the element set")
        for p in self.elements:
            if (p, p) not in self.relation:
                raise ValueError(f"order not reflexive at {p!r}")
        for p, q in self.relation:
            if (q, p) in self.relation and p != q:
                raise ValueError(f"order not antisymmetric on {p!r}, {q!r}")
        rel = self.relation
        for (p, q), (q2, r) in itertools.product(rel, rel):
            if q == q2 and (p, r) not in rel:
                raise ValueError(f"order not transitive: {p!r} <= {q!r} <= {r!r}")

    @classmethod
    def from_pairs(cls, elements: list[str] | tuple[str, ...], pairs: list[tuple[str, str]]) -> "Poset":
        """Build from covering pairs, closing reflexively and transitively."""
        elems = tuple(elements)
        rel = {(p, p) for p in elems} | set(pairs)
        changed = True
        while changed:
            changed = False
            for (p, q), (q2, r) in itertools.product(tuple(rel), tuple(rel)):
                if q == q2 and (p, r) not in rel:
                    rel.add((p, r))
                    changed = True
        return cls(elems, frozenset(rel))

    def leq(self, p: str, q: str) -> bool:
        return (p, q) in self.relation

    def below(self, p: str) -> frozenset[str]:
        return frozenset(r for r in self.elements if self.leq(r, p))

    def down(self, subset: frozenset[str] | set[str]) -> frozenset[str]:
        return frozenset(r for r in self.elements if any(self.leq(r, q) for q in subset))

    def up(self, subset: frozenset[str] | set[str]) -> frozenset[str]:
        return frozenset(r for r in self.elements if any(self.leq(q, r) for q in subset))

    def compatible(self, p: str, q: str) -> bool:
        return any(self.leq(r, p) and self.leq(r, q) for r in self.elements)

    def incompatible(self, p: str, q: str) -> bool:
        return not self.compatible(p, q)

    def is_dense(self, subset: frozenset[str] | set[str]) -> bool:
        return self.up(subset) == frozenset(self.elements)

    def is_predense(self, subset: frozenset[str] | set[str]) -> bool:
        return self.is_dense(self.down(subset))

    def is_antichain(self, subset: frozenset[str] | set[str]) -> bool:
        return all(self.incompatible(p, q) for p, q in itertools.combinations(subset, 2))

    def is_maximal_antichain(self, subset: frozenset[str] | set[str]) -> bool:
        if not self.is_antichain(subset):
            return False
        return all(any(self.compatible(p, q) for q in subset) for p in self.elements)

    def minimal_elements(self) -> tuple[str, ...]:
        return tuple(
            p for p in self.elements
            if all(not self.leq(q, p) or q == p for q in self.elements)
        )


def _separative_leq(poset: Poset, p: str, q: str) -> bool:
    """p <=* q: every r <= p has something below it below both p and q."""
    for r in poset.elements:
        if poset.leq(r, p):
            if not any(poset.leq(s, r) and poset.leq(s, q) for s in poset.elements):
                return False
    return True


@dataclass(frozen=True)
class SeparativeQuotient:
    quotient: Poset
    projection: dict[str, str] = field(hash=False)


def separative_quotient(poset: Poset) -> SeparativeQuotient:
    """The separative quotient with its canonical projection."""
    classes: list[list[str]] = []
    for p in poset.elements:
        for cls in classes:
            rep = cls[0]
            if _separative_leq(poset, p, rep) and _separative_leq(poset, rep, p):
                cls.append(p)
                break
        else:
            classes.append([p])
    names = {}
    for cls in classes:
        label = "|".join(sorted(cls))
        for p in cls:
            names[p] = label
    labels = tuple(sorted({names[p] for p in poset.elements}))
    rel = set()
    for a, b in itertools.product(labels, repeat=2):
        pa = next(p for p in poset.elements if names[p] == a)
        pb = next(p for p in poset.elements if names[p] == b)
        if _separative_leq(poset, pa, pb):
            rel.add((a, b))
    return SeparativeQuotient(Poset(labels, frozenset(rel)), names)


@dataclass(frozen=True)
class Completion:
    """RO(P) with its dense embedding and the audit evidence."""

    poset: Poset
    algebra: FiniteCBA
    embedding: dict[str, int] = field(hash=False)
    quotient: SeparativeQuotient = field(hash=False)
    atom_classes: tuple[str, ...] = ()

    def audit(self) -> dict[str, bool]:
        """The three dense-embedding conditions, checked directly."""
        p = self.poset
        emb = self.embedding
        order_ok = all(
            not p.leq(a, b) or (emb[a] & ~emb[b] == 0)
            for a, b in itertools.product(p.elements, repeat=2)
        )
        incompat_ok = all(
            not p.incompatible(a, b) or (emb[a] & emb[b] == 0)
            for a, b in itertools.product(p.elements, repeat=2)
        )
        image = set(emb.values())
        dense_ok = all(
            any(e & ~c == 0 for e in image if e != 0)
            for c in self.algebra.nonzero_elements()
        )
        nonzero_ok = all(emb[a] != 0 for a in p.elements)
        return {
            "order_preserving": order_ok,
            "incompatibility_preserving": incompat_ok,
            "dense_image": dense_ok,
            "image_in_b_plus": nonzero_ok,
        }


def boolean_completion(poset: Poset) -> Completion:
    """RO(P): the powerset of the minimal separative classes."""
    sq = separative_quotient(poset)
    minimal = tuple(sorted(sq.quotient.minimal_elements()))
    index = {m: k for k, m in enumerate(minimal)}
    algebra = FiniteCBA(len(minimal))
    embedding = {}
    for p in poset.elements:
        cls = sq.projection[p]
        mask = 0
        for m in minimal:
            if sq.quotient.leq(m, cls):
                mask |= 1 << index[m]
        embedding[p] = mask
    return Completion(poset, algebra, embedding, sq, minimal)
