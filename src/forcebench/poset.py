"""Finite posets, separative quotients, and boolean completions.

Every order question reads each element's down- and up-set, one mask over
the element indices.  p <=* q (the separative order, Jech ch. 14) when every
r <= p is compatible with q, so p and q share a separative class exactly when
they are compatible with the same elements.  The completion of a finite
poset is the powerset of its minimal elements; the tests keep the separative
quotient as its oracle, and the equivalence-of-subsets route (density of
intersections of downward closures) as the quotient's.
"""
from __future__ import annotations

import functools
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


@dataclass(frozen=True)
class Poset:
    """A finite poset; ``relation`` holds every pair (p, q) with p <= q, and
    ``downs[k]``/``ups[k]`` the down-/up-set of ``elements[k]`` in ``masks``."""

    elements: tuple[str, ...]
    relation: frozenset[tuple[str, str]]
    index: dict[str, int] = field(init=False, repr=False, compare=False)
    downs: tuple[int, ...] = field(init=False, repr=False, compare=False)
    ups: tuple[int, ...] = field(init=False, repr=False, compare=False)
    masks: FiniteCBA = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        index, downs, ups = _order_masks(self.elements, self.relation)
        names, masks = self.elements, FiniteCBA(len(self.elements))
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
        self.__dict__.update(index=index, downs=tuple(downs), ups=tuple(ups), masks=masks)

    @classmethod
    def from_pairs(cls, elements: list[str] | tuple[str, ...], pairs: list[tuple[str, str]]) -> "Poset":
        """Build from covering pairs, closed by Warshall's algorithm on the down-sets."""
        elems = tuple(elements)
        _, downs, _ = _order_masks(elems, pairs)
        downs = [d | 1 << k for k, d in enumerate(downs)]
        for k in range(len(downs)):
            for i, d in enumerate(downs):
                if d >> k & 1:
                    downs[i] = d | downs[k]
        bits = FiniteCBA(len(elems)).atom_indices
        return cls(elems, frozenset((elems[p], q) for q, d in zip(elems, downs) for p in bits(d)))

    @functools.cached_property
    def compat(self) -> tuple[int, ...]:
        """``compat[k]``, what is compatible with ``elements[k]``: its down-set's up-sets joined."""
        return tuple(map(atom_map(self.ups), self.downs))

    def _named(self, mask: int) -> frozenset[str]:
        return frozenset(self.elements[k] for k in self.masks.atom_indices(mask))

    def leq(self, p: str, q: str) -> bool:
        return bool(self.downs[self.index[q]] >> self.index[p] & 1)

    def below(self, p: str) -> frozenset[str]:
        return self._named(self.downs[self.index[p]])

    def down(self, subset: frozenset[str] | set[str]) -> frozenset[str]:
        return self._named(self.masks.sup(self.downs[self.index[q]] for q in subset))

    def up(self, subset: frozenset[str] | set[str]) -> frozenset[str]:
        return self._named(self.masks.sup(self.ups[self.index[q]] for q in subset))

    def compatible(self, p: str, q: str) -> bool:
        return not self.incompatible(p, q)

    def incompatible(self, p: str, q: str) -> bool:
        return self.downs[self.index[p]] & self.downs[self.index[q]] == 0

    def is_dense(self, subset: frozenset[str] | set[str]) -> bool:
        return len(self.up(subset)) == len(self.elements)

    def is_predense(self, subset: frozenset[str] | set[str]) -> bool:
        return self.is_dense(self.down(subset))

    def is_antichain(self, subset: frozenset[str] | set[str]) -> bool:
        return self.masks.is_antichain(self.downs[self.index[q]] for q in subset)

    def is_maximal_antichain(self, subset: frozenset[str] | set[str]) -> bool:
        if not self.is_antichain(subset):
            return False
        return all(any(self.compatible(p, q) for q in subset) for p in self.elements)

    def minimal_elements(self) -> tuple[str, ...]:
        return tuple(p for k, p in enumerate(self.elements) if self.downs[k] == 1 << k)


@dataclass(frozen=True)
class SeparativeQuotient:
    quotient: Poset
    projection: dict[str, str] = field(hash=False)


def separative_quotient(poset: Poset) -> SeparativeQuotient:
    """The separative quotient and its projection: a class per compatibility
    mask, and p <=* q when the down-set of p is compatible with q throughout."""
    classes: dict[int, list[str]] = {}
    for p, compat in zip(poset.elements, poset.compat):
        classes.setdefault(compat, []).append(p)
    names = {p: "|".join(sorted(cls)) for cls in classes.values() for p in cls}
    rep = {names[cls[0]]: poset.index[cls[0]] for cls in classes.values()}
    labels = tuple(sorted(rep))
    below = [(a, poset.downs[rep[a]]) for a in labels]
    rel = frozenset((a, b) for b in labels for a, d in below if d & ~poset.compat[rep[b]] == 0)
    return SeparativeQuotient(Poset(labels, rel), names)


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
