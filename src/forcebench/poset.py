"""Finite posets and their boolean completions.

A poset is one down-set and one up-set mask per element, over the element
indices.  p <=* q (the separative order, Jech ch. 14) when every r <= p is
compatible with q, so p and q share a separative class exactly when they are
compatible with the same elements.  The completion of a finite poset is the
powerset of its minimal elements; the tests keep the separative quotient as
its oracle, and the equivalence-of-subsets route (density of intersections
of downward closures) as the quotient's.
"""
from __future__ import annotations

import functools
import graphlib
from dataclasses import dataclass, field

from .finite_cba import FiniteCBA, atom_map


def _order_masks(elements, pairs) -> tuple[dict[str, int], list[int], list[int]]:
    """Each element's index, and the down- and up-set that ``pairs`` gives it."""
    index = {p: k for k, p in enumerate(elements)}
    if len(index) != len(elements):
        raise ValueError("duplicate poset elements")
    downs, ups = [0] * len(index), [0] * len(index)
    for p, q in pairs:
        if p not in index or q not in index:
            raise ValueError(f"relation pair ({p!r}, {q!r}) outside the element set")
        downs[index[q]] |= 1 << index[p]
        ups[index[p]] |= 1 << index[q]
    return index, downs, ups


@dataclass(frozen=True, init=False)
class Poset:
    """``downs[k]``/``ups[k]``, the down-/up-set of ``elements[k]``; ``Poset(elements,
    relation)`` validates ``relation``, every pair (p, q) with p <= q."""

    elements: tuple[str, ...]
    downs: tuple[int, ...] = field(repr=False)
    ups: tuple[int, ...] = field(repr=False, compare=False)

    def __init__(self, elements: tuple[str, ...], relation: frozenset[tuple[str, str]]) -> None:
        index, downs, ups = _order_masks(elements, relation)
        names, masks = tuple(elements), FiniteCBA(len(elements))
        for k, p in enumerate(names):
            if not downs[k] >> k & 1:
                raise ValueError(f"order not reflexive at {p!r}")
        for k, q in enumerate(names):
            if both := downs[k] & ups[k] & ~(1 << k):
                p = names[masks.atom_indices(both)[0]]
                raise ValueError(f"order not antisymmetric on {p!r}, {q!r}")
        for k, r in enumerate(names):
            for j in masks.atom_indices(downs[k]):
                if beyond := downs[j] & ~downs[k]:
                    p, q = names[masks.atom_indices(beyond)[0]], names[j]
                    raise ValueError(f"order not transitive: {p!r} <= {q!r} <= {r!r}")
        self.__dict__.update(
            elements=names, index=index, downs=tuple(downs), ups=tuple(ups), masks=masks
        )

    @classmethod
    def from_masks(cls, elements, downs, ups) -> "Poset":
        """The poset of a known order's down- and up-sets, taken as they are."""
        poset, elements = cls.__new__(cls), tuple(elements)
        poset.__dict__.update(
            elements=elements, index={p: k for k, p in enumerate(elements)},
            downs=tuple(downs), ups=tuple(ups), masks=FiniteCBA(len(elements)),
        )
        return poset

    @classmethod
    def from_pairs(cls, elements: list[str] | tuple[str, ...], pairs: list[tuple[str, str]]) -> "Poset":
        """Close covering pairs in one topological order, joining each down-set
        into those above it, then, in reverse, each up-set into those below it;
        a cycle names its lowest-index element and the next-lowest on it."""
        _, covers, _ = _order_masks(elements, pairs)
        bits = FiniteCBA(len(elements)).atom_indices
        below = [bits(c & ~(1 << k)) for k, c in enumerate(covers)]
        try:
            order = list(graphlib.TopologicalSorter(dict(enumerate(below))).static_order())
        except graphlib.CycleError as cycle:
            q, p = [elements[k] for k in sorted(set(cycle.args[1]))[:2]]
            raise ValueError(f"order not antisymmetric on {p!r}, {q!r}") from None
        downs, ups = [1 << k for k in range(len(elements))], [1 << k for k in range(len(elements))]
        for q in order:
            for p in below[q]:
                downs[q] |= downs[p]
        for q in reversed(order):
            for p in below[q]:
                ups[p] |= ups[q]
        return cls.from_masks(elements, downs, ups)

    @functools.cached_property
    def compat(self) -> tuple[int, ...]:
        """``compat[k]``, what is compatible with ``elements[k]``: its down-set's up-sets joined."""
        return tuple(map(atom_map(self.ups), self.downs))

    def _named(self, mask: int) -> frozenset[str]:
        return frozenset(self.elements[k] for k in self.masks.atom_indices(mask))

    def leq(self, p: str, q: str) -> bool:
        return bool(self.downs[self.index[q]] >> self.index[p] & 1)

    def down(self, subset: frozenset[str] | set[str]) -> frozenset[str]:
        return self._named(self.masks.sup(self.downs[self.index[q]] for q in subset))

    def up(self, subset: frozenset[str] | set[str]) -> frozenset[str]:
        return self._named(self.masks.sup(self.ups[self.index[q]] for q in subset))

    def is_dense(self, subset: frozenset[str] | set[str]) -> bool:
        return len(self.up(subset)) == len(self.elements)

    def is_predense(self, subset: frozenset[str] | set[str]) -> bool:
        return self.is_dense(self.down(subset))

    def is_antichain(self, subset: frozenset[str] | set[str]) -> bool:
        return self.masks.is_antichain(self.downs[self.index[q]] for q in subset)

    def is_maximal_antichain(self, subset: frozenset[str] | set[str]) -> bool:
        return self.is_antichain(subset) and self.is_predense(subset)

    def minimal_elements(self) -> tuple[str, ...]:
        return tuple(p for k, p in enumerate(self.elements) if self.downs[k] == 1 << k)


@dataclass(frozen=True)
class Completion:
    """RO(P) with its dense embedding and the audit evidence."""

    poset: Poset
    algebra: FiniteCBA
    embedding: dict[str, int] = field(hash=False)

    def audit(self) -> dict[str, bool]:
        """The three dense-embedding conditions: each image bounds the images below it
        and misses those of the elements outside its compatible set (``join`` reads no
        bit past the elements); every nonzero element bounds a nonzero image, which
        holds exactly when every atom is an image (an atom bounds only itself)."""
        p = self.poset
        images = [self.embedding[e] for e in p.elements]
        join = atom_map(images)
        return {
            "order_preserving": all(join(d) & ~e == 0 for d, e in zip(p.downs, images)),
            "incompatibility_preserving": all(join(~c) & e == 0 for c, e in zip(p.compat, images)),
            "dense_image": set(self.algebra.atoms()) <= set(images),
            "image_in_b_plus": all(images),
        }


def boolean_completion(poset: Poset) -> Completion:
    """RO(P): the powerset of the minimal elements.  Any two are
    incompatible, so each is a separative class of its own, and every class
    lies above one, so no other class is minimal; p goes to the minimal
    elements below it, since a minimal r lies below p separatively iff r <= p."""
    minimal = poset.minimal_elements()
    atoms = dict(zip(minimal, FiniteCBA(len(minimal)).atoms()))
    below = atom_map([atoms.get(p, 0) for p in poset.elements])
    embedding = {p: below(d) for p, d in zip(poset.elements, poset.downs)}
    return Completion(poset, FiniteCBA(len(minimal)), embedding)
