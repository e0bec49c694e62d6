"""Finite complete boolean algebras presented by their atoms.

An algebra with n atoms is the powerset of {0, ..., n-1}; an element is an
int whose set bits name the atoms it contains.  Every lattice operation is a
bit operation, so all the identities of the theory are decidable exactly.
"""
from __future__ import annotations

import functools
import types
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
        """The set bits of ``a`` below ``atom_count``, lowest first."""
        out, a = [], a & (1 << self.atom_count) - 1
        while a:
            low = a & -a
            out.append(low.bit_length() - 1)
            a ^= low
        return out

    def elements(self) -> Iterator[int]:
        """All elements; only sensible for small algebras."""
        return iter(range(self.one + 1))

    def nonzero_elements(self) -> Iterator[int]:
        return iter(range(1, self.one + 1))

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
    reads one byte-indexed table per 8 atoms: in one expression up to 8
    tables, else once per nonzero byte.  Bits past ``len(images)`` are ignored.
    The map keeps its tables, lowest byte first, as ``tables``.
    """
    tables = [subset_join_table(images[base : base + 8]) for base in range(0, len(images), 8)]
    *full, last = tables = tables or [[0]]
    top = len(last) - 1
    if len(full) < len(_STRAIGHT_LINE):
        mapped = _STRAIGHT_LINE[len(full)](*full, last, top)
    else:
        shift, low = 8 * len(full), (1 << 8 * len(full)) - 1

        def mapped(x: int) -> int:
            out = last[x >> shift & top]
            for table, byte in zip(full, (x & low).to_bytes(len(full), "little")):
                if byte:
                    out |= table[byte]
            return out

    mapped.tables = tables
    return mapped


def subset_join_table(images: Sequence[int]) -> list[int]:
    """At each x below 2^len(images), the join of the images[k] over the bits k of x."""
    table = [0]
    for image in images:
        table += [x | image for x in table]
    return table


def _straight_line(count: int) -> Callable:
    """For ``count`` byte tables, (t0, .., top) -> x -> t0[x & 255] | t1[x >> 8 & 255]
    | .. | t_last[x >> 8 * (count - 1) & top]: every lookup of atom_map in one expression."""
    terms = [f"t{k}[x >> {8 * k} & {255 if k < count - 1 else 'top'}]" for k in range(count)]
    tables = ", ".join(f"t{k}" for k in range(count))
    return eval(f"lambda {tables}, top: lambda x: {' | '.join(terms)}")


_STRAIGHT_LINE = tuple(map(_straight_line, range(1, 9)))  # atom_map up to 8 bytes


class ByteRows:
    """A map f on the 2^t elements of a small algebra, packed one byte per
    element: byte d of ``packed`` holds f(d).

    ``join_row(x)`` holds f(x | d) in byte d and ``meet_row(x)`` f(x & d),
    each computed on demand from ``packed`` with one byte mask and one shift
    per atom inside (outside) x, so f is never called again.  A law over
    every pair (c, d) then checks all d of one c in a few big-int operations:
    bit-slicing (Biham 1997) applied to bytes.  Two pair laws need no row:
    f(c | d) = f(c) | f(d) at every pair iff each f(c) is f(0) joined with f
    at the atoms of c (induct on c; conversely both sides are that join over
    c | d), and f(c & d) <= f(c) & f(d) at every pair iff f is monotone (take
    c <= d; conversely c & d lies below both).
    """

    def __init__(self, values: Sequence[int]) -> None:
        """``values[d]`` = f(d) for each of the 2^t elements d; raises
        ValueError or TypeError unless every value is an int in 0..255."""
        self.raw = bytes(values)
        self.packed = int.from_bytes(self.raw, "little")
        self.ones, self.masks = _byte_masks(len(values))

    def join_row(self, x: int) -> int:
        """Byte d holds f(x | d): per atom a of x, f(d | a) moves down to each d."""
        row = self.packed
        for a, mask in enumerate(self.masks):
            if x >> a & 1:
                row = row & mask | (row & mask) >> (8 << a)
        return row

    def meet_row(self, x: int) -> int:
        """Byte d holds f(x & d): per atom a outside x, f(d - a) moves up to each d."""
        row = self.packed
        for a, mask in enumerate(self.masks):
            if not x >> a & 1:
                row = row & ~mask | (row & ~mask) << (8 << a)
        return row

    def preserves_joins(self) -> bool:
        """f(c | d) = f(c) | f(d) at every pair: f at 0 and the atoms, joined below c, is f(c)."""
        low = 0xFF | sum(0xFF << (8 << a) for a in range(len(self.masks)))
        return self.subset_joins(self.packed & low) == self.packed

    def monotone(self) -> bool:
        """f(d) <= f(d | a) at every d and atom a, so f(c & d) <= f(c) & f(d) at every pair."""
        packed = self.packed
        return all(not packed & ~self.join_row(1 << a) for a in range(len(self.masks)))

    def translates_meet(self, x: int, b: int) -> bool:
        """f(d & x) = f(d) & b for every d."""
        return 0 <= b <= 0xFF and self.meet_row(x) == self.packed & b * self.ones

    def at_most(self, b: int) -> int:
        """Byte 0xFF at every d with f(d) <= b, else 0 (one translate)."""
        return int.from_bytes(self.raw.translate(_at_most_table(b & 0xFF)), "little")

    def subset_joins(self, row: int) -> int:
        """Byte d holds the join of bytes e <= d of ``row``: one shift per atom."""
        for a, mask in enumerate(self.masks):
            row |= row << 8 * (1 << a) & mask
        return row


def byte_rows(values: Sequence[int]) -> ByteRows | None:
    """``ByteRows(values)``, or None when some value does not fit in a byte."""
    try:
        return ByteRows(values)
    except (TypeError, ValueError):
        return None


@functools.lru_cache(maxsize=8)
def _byte_masks(size: int) -> tuple[int, tuple[int, ...]]:
    """For the 2^t elements d of a t-atom algebra: byte 1 at every d, and
    for each atom a, byte 0xFF at every d that contains a."""
    ones = int.from_bytes(b"\x01" * size, "little")
    masks = tuple(
        int.from_bytes(bytes(0xFF if d >> a & 1 else 0 for d in range(size)), "little")
        for a in range(size.bit_length() - 1)
    )
    return ones, masks


@functools.lru_cache(maxsize=256)
def _at_most_table(b: int) -> bytes:
    """The ``bytes.translate`` table sending each byte value u to 0xFF when
    u <= b, else to 0."""
    return bytes(0xFF if u & ~b == 0 else 0 for u in range(256))


def format_element(algebra: FiniteCBA, a: int) -> str:
    """Canonical element syntax: atom-index set, e.g. ``{0,2}``."""
    return "{" + ",".join(str(k) for k in algebra.atom_indices(a)) + "}"


def parse_element(algebra: FiniteCBA, text: str) -> int:
    if not isinstance(text, str):
        raise TypeError(f"element must be a string like '{{0,2}}', got {text!r}")
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


@dataclass(frozen=True)
class FilterSpec:
    """A filter (or ideal) given by a finite generating set."""

    algebra: FiniteCBA
    generators: frozenset[int]
    kind: str = "filter"  # "filter" | "ideal"

    def __post_init__(self) -> None:
        if self.kind not in ("filter", "ideal"):
            raise ValueError(f"kind must be 'filter' or 'ideal', got {self.kind!r}")
        for g in self.generators:
            if not self.algebra.contains(g):
                raise ValueError("generator outside the algebra")
        if not self.proper:
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
    # the inverse, on the mask; read-only, since views may be shared
    sub_of_atom: types.MappingProxyType = field(init=False, compare=False)
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
        object.__setattr__(self, "sub_of_atom", types.MappingProxyType(sub_of_atom))
        object.__setattr__(self, "algebra", FiniteCBA(len(atoms)))
        object.__setattr__(self, "_to_sub", atom_map(compress))
        object.__setattr__(self, "_from_sub", atom_map([1 << k for k in atoms]))

    def to_sub(self, parent_element: int) -> int:
        """Compress a parent element (implicitly meeting with the mask)."""
        return self._to_sub(parent_element)

    @functools.cached_property
    def to_sub_table(self) -> tuple[int, ...]:
        """``to_sub`` of every parent element (c at index c), computed on
        first use; only sensible for small parents."""
        return tuple(map(self.to_sub, self.parent.elements()))

    @functools.cached_property
    def packed_to_sub(self) -> int | None:  # to_sub_table as ByteRows.packed; None past a byte
        return getattr(byte_rows(self.to_sub_table), "packed", None)

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
