"""Finite complete boolean algebras presented by their atoms.

An algebra with n atoms is the powerset of {0, ..., n-1}; an element is an
int whose set bits name the atoms it contains.  Every lattice operation is a
bit operation, so all the identities of the theory are decidable exactly.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from .errors import ImproperFilter


@dataclass(frozen=True)
class FiniteCBA:
    """Complete boolean algebra on ``atom_count`` atoms; elements are bitmasks."""

    atom_count: int

    def __post_init__(self) -> None:
        if self.atom_count < 0:
            raise ValueError("atom_count must be >= 0")

    @property
    def one(self) -> int:
        return (1 << self.atom_count) - 1

    zero: int = field(default=0, init=False, repr=False)

    # -- lattice operations ------------------------------------------------

    def join(self, a: int, b: int) -> int:
        return a | b

    def meet(self, a: int, b: int) -> int:
        return a & b

    def neg(self, a: int) -> int:
        return self.one & ~a

    def diff(self, a: int, b: int) -> int:
        return a & ~b

    def symm_diff(self, a: int, b: int) -> int:
        return a ^ b

    def implies(self, a: int, b: int) -> int:
        return self.neg(a) | b

    def leq(self, a: int, b: int) -> bool:
        return a & ~b == 0

    def sup(self, xs: Iterable[int]) -> int:
        out = 0
        for x in xs:
            out |= x
        return out

    def inf(self, xs: Iterable[int]) -> int:
        out = self.one
        for x in xs:
            out &= x
        return out

    # -- structure ---------------------------------------------------------

    def contains(self, a: int) -> bool:
        return 0 <= a <= self.one

    def atoms(self) -> list[int]:
        """Atom masks in index order."""
        return [1 << k for k in range(self.atom_count)]

    def atom_indices(self, a: int) -> list[int]:
        return [k for k in range(self.atom_count) if a >> k & 1]

    def elements(self) -> Iterator[int]:
        """All elements; only sensible for small algebras."""
        return iter(range(self.one + 1))

    def nonzero_elements(self) -> Iterator[int]:
        return iter(range(1, self.one + 1))

    def compatible(self, a: int, b: int) -> bool:
        return a & b != 0

    def is_antichain(self, xs: Iterable[int]) -> bool:
        """Pairwise incompatible nonzero elements."""
        seen = 0
        for x in xs:
            if x == 0 or x & seen:
                return False
            seen |= x
        return True

    def is_maximal_antichain(self, xs: Iterable[int]) -> bool:
        xs = list(xs)
        return self.is_antichain(xs) and self.sup(xs) == self.one

    def is_predense(self, xs: Iterable[int]) -> bool:
        """In a CBA a set is predense in B+ exactly when its join is 1."""
        return self.sup(xs) == self.one


def atom_map(images: Sequence[int]) -> Callable[[int], int]:
    """x -> the join of ``images[k]`` over the set bits k of x.

    Every finite homomorphism and reindexing is such a map on atoms.  It
    reads one byte-indexed table per 8 atoms, so a call costs one lookup
    per byte of x; bits past ``len(images)`` are ignored.
    """
    tables = []
    for base in range(0, len(images), 8):
        table = [0]
        for image in images[base : base + 8]:
            table += [x | image for x in table]
        tables.append(table)
    *full, last = tables or [[0]]
    top = len(last) - 1
    if not full:
        return lambda x: last[x & top]
    shift = 8 * len(full)

    def mapped(x: int) -> int:
        out = last[x >> shift & top]
        for table in full:
            out |= table[x & 0xFF]
            x >>= 8
        return out

    return mapped


def format_element(algebra: FiniteCBA, a: int) -> str:
    """Canonical element syntax: atom-index set, e.g. ``{0,2}``."""
    return "{" + ",".join(str(k) for k in algebra.atom_indices(a)) + "}"


def parse_element(algebra: FiniteCBA, text: str) -> int:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError(f"element must look like '{{0,2}}', got {text!r}")
    body = text[1:-1].strip()
    mask = 0
    if body:
        for piece in body.split(","):
            k = int(piece.strip())
            if not 0 <= k < algebra.atom_count:
                raise ValueError(f"atom index {k} out of range for {algebra.atom_count} atoms")
            mask |= 1 << k
    return mask


@dataclass(frozen=True)
class Ultrafilter:
    """Principal ultrafilter at an atom; for finite algebras these are all of them."""

    algebra: FiniteCBA
    atom: int  # atom index

    def __post_init__(self) -> None:
        if not 0 <= self.atom < self.algebra.atom_count:
            raise ValueError(f"atom index {self.atom} out of range")

    def contains(self, a: int) -> bool:
        return bool(a >> self.atom & 1)

    def members(self) -> Iterator[int]:
        bit = 1 << self.atom
        return (a for a in self.algebra.elements() if a & bit)


def ultrafilters(algebra: FiniteCBA) -> tuple[Ultrafilter, ...]:
    """One ultrafilter per atom: the whole Stone space at finite scale."""
    return tuple(Ultrafilter(algebra, k) for k in range(algebra.atom_count))


def basic_open(algebra: FiniteCBA, b: int) -> frozenset[int]:
    """N_b: the atoms whose ultrafilters contain b (= the set bits of b)."""
    return frozenset(algebra.atom_indices(b))


@dataclass(frozen=True)
class FilterSpec:
    """A filter (or ideal) given by a finite generating set."""

    algebra: FiniteCBA
    generators: frozenset[int]
    kind: str = "filter"  # "filter" | "ideal"
    allow_improper: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("filter", "ideal"):
            raise ValueError(f"kind must be 'filter' or 'ideal', got {self.kind!r}")
        for g in self.generators:
            if not self.algebra.contains(g):
                raise ValueError("generator outside the algebra")
        if not self.allow_improper and not self.proper:
            raise ImproperFilter(f"generated {self.kind} is improper")

    @property
    def core(self) -> int:
        """Meet of the generators (filter) / join (ideal): the principal core."""
        if self.kind == "filter":
            return self.algebra.inf(self.generators)
        return self.algebra.sup(self.generators)

    @property
    def proper(self) -> bool:
        if self.kind == "filter":
            return self.core != 0
        return self.core != self.algebra.one


@dataclass(frozen=True)
class Restriction:
    """The algebra B|b below a fixed element, with atom reindexing maps."""

    parent: FiniteCBA
    mask: int
    algebra: FiniteCBA = field(init=False)
    atom_of_sub: tuple[int, ...] = field(init=False)  # sub atom index -> parent atom index
    sub_of_atom: dict[int, int] = field(init=False, compare=False)  # the inverse, on the mask
    _to_sub: Callable[[int], int] = field(init=False, repr=False, compare=False)
    _from_sub: Callable[[int], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.parent.contains(self.mask):
            raise ValueError("restriction mask outside the algebra")
        atoms = tuple(self.parent.atom_indices(self.mask))
        sub_of_atom = {k: j for j, k in enumerate(atoms)}
        compress = [0] * self.parent.atom_count
        for k, j in sub_of_atom.items():
            compress[k] = 1 << j
        object.__setattr__(self, "atom_of_sub", atoms)
        object.__setattr__(self, "sub_of_atom", sub_of_atom)
        object.__setattr__(self, "algebra", FiniteCBA(len(atoms)))
        object.__setattr__(self, "_to_sub", atom_map(compress))
        object.__setattr__(self, "_from_sub", atom_map([1 << k for k in atoms]))

    def to_sub(self, parent_element: int) -> int:
        """Compress a parent element (implicitly meeting with the mask)."""
        return self._to_sub(parent_element)

    def from_sub(self, sub_element: int) -> int:
        return self._from_sub(sub_element)


def quotient_by_filter(
    algebra: FiniteCBA, spec: FilterSpec
) -> tuple[Restriction, "QuotientMap"]:
    """B modulo the symmetric-difference equivalence a Δ b ∈ I.

    For a finite algebra the quotient by the ideal dual to a filter with core
    m is the restriction B|m, with class map c -> c ∧ m.
    """
    if spec.algebra != algebra:
        raise ValueError("filter spec is over a different algebra")
    if not spec.proper:
        raise ImproperFilter(f"generated {spec.kind} is improper")
    if spec.kind == "filter":
        m = spec.core
    else:
        m = algebra.neg(spec.core)
    view = Restriction(algebra, m)
    return view, QuotientMap(view)


@dataclass(frozen=True)
class QuotientMap:
    view: Restriction

    def __call__(self, c: int) -> int:
        return self.view.to_sub(c)

    def same_class(self, c: int, d: int) -> bool:
        return (c ^ d) & self.view.mask == 0
