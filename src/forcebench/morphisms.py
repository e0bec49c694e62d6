"""Complete homomorphisms between finite algebras and their retractions.

A homomorphism is carried by a fiber map on atoms of the target: the
embedding is preimage, the retraction is direct image, and every law of the
retraction calculus reduces to an exact image/preimage identity.
"""
from __future__ import annotations

import functools
import itertools
import operator
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .errors import ArityMismatch, NotRegular, ZeroRestriction
from .finite_cba import (
    FiniteCBA,
    Restriction,
    atom_map,
    byte_rows,
    format_element,
    subset_join_table,
)
from .free_algebra import FreeAlgebra, FreeElement, free_project
from .report import Ledger, bits, draws


@dataclass(frozen=True)
class CompleteHom:
    """i: source -> target carried by fiber: atoms(target) -> atoms(source)."""

    source: FiniteCBA
    target: FiniteCBA
    fiber: tuple[int, ...]
    _atom_image: tuple[int, ...] = field(init=False, repr=False, compare=False)
    regular: bool = field(default=False, init=False, repr=False, compare=False)  # injective
    _apply: Callable[[int], int] = field(init=False, repr=False, compare=False)
    _project: Callable[[int], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.fiber) != self.target.atom_count:
            raise ArityMismatch(
                f"fiber map has {len(self.fiber)} entries for {self.target.atom_count} target atoms"
            )
        for s in self.fiber:
            if not 0 <= s < self.source.atom_count:
                raise ArityMismatch(f"fiber value {s} is not a source atom")
        table = [0] * self.source.atom_count
        for t, s in enumerate(self.fiber):
            table[s] |= 1 << t
        self.__dict__.update(
            _atom_image=tuple(table),
            regular=all(table),
            _apply=atom_map(table),
            _project=atom_map([1 << s for s in self.fiber]),
        )

    def apply(self, b: int) -> int:
        """i(b): preimage of b under the fiber map."""
        return self._apply(b)

    def project(self, c: int) -> int:
        """pi(c): direct image of c under the fiber map."""
        return self._project(c)

    @functools.cached_property
    def byte_columns(self) -> tuple[bytes, ...] | None:
        """pi's own ``atom_map`` tables, one per byte of a target element, as
        256-entry ``bytes.translate`` tables (the last read through its top);
        None past 8 source atoms, where pi's values are no bytes."""
        if self.source.atom_count > 8:
            return None
        *full, last = self._project.tables
        return (*map(bytes, full), bytes(last[u & len(last) - 1] for u in range(256)))

    def then(self, other: "CompleteHom") -> "CompleteHom":
        """Composite source -> other.target (self first, then other)."""
        if other.source != self.target:
            raise ArityMismatch("composition shape mismatch")
        return CompleteHom(
            self.source, other.target, tuple(self.fiber[s] for s in other.fiber)
        )

    def composes_to(self, other: "CompleteHom", composite) -> bool:
        """``self.then(other) == composite``, comparing composed fibers
        instead of building the composite's atom tables."""
        if other.source != self.target:
            raise ArityMismatch("composition shape mismatch")
        return (
            isinstance(composite, CompleteHom)
            and composite.source == self.source
            and composite.target == other.target
            and composite.fiber == tuple(self.fiber[s] for s in other.fiber)
        )


def own_maps(h: CompleteHom) -> bool:
    """Whether h's class keeps CompleteHom's own ``apply`` and ``project``,
    whose values are those of h's ``atom_map`` tables: audits may read them
    there, and audit an override call by call."""
    return type(h).apply is CompleteHom.apply and type(h).project is CompleteHom.project


def value_tables(h: CompleteHom) -> tuple[list[int], list[int]]:
    """i at every element of the source (b at index b) and pi at every
    element of the target (c at index c): h's own tables when ``own_maps(h)``,
    else asked call by call.  Only for homs with at most 8 atoms a side,
    whose maps keep one table each."""
    if own_maps(h):
        return h._apply.tables[0], h._project.tables[0]
    return list(map(h.apply, h.source.elements())), list(map(h.project, h.target.elements()))


def identity_hom(algebra: FiniteCBA) -> CompleteHom:
    return CompleteHom(algebra, algebra, tuple(range(algebra.atom_count)))


def hom_from_fiber_map(
    source: FiniteCBA, target: FiniteCBA, fiber: Iterable[int]
) -> CompleteHom:
    return CompleteHom(source, target, tuple(fiber))


def require_regular(h: CompleteHom) -> None:
    if not h.regular:
        raise NotRegular("operation requires a regular embedding")


def ker_coker(h: CompleteHom) -> tuple[int, int]:
    """ker = join of everything the embedding kills; coker its complement.

    Restricting to the cokernel always yields a regular embedding.
    """
    rng = h.project(h.target.one)
    return h.source.neg(rng), rng


def restrict_to_coker(h: CompleteHom) -> tuple["CompleteHom", Restriction]:
    _, coker = ker_coker(h)
    view = Restriction(h.source, coker)
    fiber = tuple(view.sub_of_atom[s] for s in h.fiber)
    return CompleteHom(view.algebra, h.target, fiber), view


@dataclass(frozen=True)
class RestrictedEmbedding:
    """i_c: B|pi(c) -> C|c, b -> i(b) ∧ c, with both reindexing views."""

    base: CompleteHom
    element: int
    source_view: Restriction
    target_view: Restriction
    hom: CompleteHom


def restrict(h: CompleteHom, c: int) -> RestrictedEmbedding:
    require_regular(h)
    if c == 0:
        raise ZeroRestriction("cannot restrict below 0")
    source_view = Restriction(h.source, h.project(c))
    target_view = Restriction(h.target, c)
    fiber = tuple(source_view.sub_of_atom[h.fiber[t]] for t in target_view.atom_of_sub)
    hom = CompleteHom(source_view.algebra, target_view.algebra, fiber)
    return RestrictedEmbedding(h, c, source_view, target_view, hom)


def stone_dual_quotient(h: CompleteHom) -> tuple[int, ...]:
    """Partition of target ultrafilters by the dual map; one class per source atom."""
    require_regular(h)
    return h._atom_image


# -- free-algebra inclusions ---------------------------------------------------


@dataclass(frozen=True)
class FreeInclusion:
    """Inclusion of free algebras on G into G'; retraction is projection over G'-G.

    ``project`` is ``free_project`` onto the source: one existential
    projection, memoized on each node's kept support, whichever generators
    are fresh.
    """

    source: FreeAlgebra
    target: FreeAlgebra

    def __post_init__(self) -> None:
        if not self.source.generators <= self.target.generators:
            raise ArityMismatch("source generators must be contained in target generators")

    @property
    def regular(self) -> bool:
        return True

    def apply(self, e: FreeElement) -> FreeElement:
        if not self.source.contains(e):
            raise ArityMismatch("element outside the source algebra")
        return e

    def project(self, e: FreeElement) -> FreeElement:
        if not self.target.contains(e):
            raise ArityMismatch("element outside the target algebra")
        return free_project(e, self.source)

    def then(self, other: "FreeInclusion") -> "FreeInclusion":
        if other.source != self.target:
            raise ArityMismatch("composition shape mismatch")
        return FreeInclusion(self.source, other.target)

    def composes_to(self, other: "FreeInclusion", composite) -> bool:
        """``self.then(other) == composite``, without building the composite."""
        if other.source != self.target:
            raise ArityMismatch("composition shape mismatch")
        return (
            isinstance(composite, FreeInclusion)
            and composite.source == self.source
            and composite.target == other.target
        )


# -- the retraction-law audit ---------------------------------------------------

# Every element and pair is a case when asked for and both algebras have at
# most this many atoms (pairs of target elements: 4^n); seeded samples above.
EXHAUSTIVE_MAX_ATOMS = 6
# the cli asks for enumeration up to this many source atoms
EXHAUSTIVE_SOURCE_ATOMS = 4
# every predense family is a case up to this many source atoms; seeded ones above
EXHAUSTIVE_FAMILY_ATOMS = 3


def enumerable(h: CompleteHom) -> bool:
    """Whether the cli asks for every case of h's retraction-law audit."""
    return (
        h.source.atom_count <= EXHAUSTIVE_SOURCE_ATOMS
        and h.target.atom_count <= EXHAUSTIVE_MAX_ATOMS
    )


class _Cases:
    """The case lists of one audit, built once and shared by every law.

    Exhaustive: every element of B and C, every pair, and every e below and
    cover above each target element.  Sampled: seeded elements, pairs with
    the first 16 of them, and the atoms where a law ranges over generators.
    Lists of target elements come with their projections (cs/pcs, ...);
    ``below`` and ``above`` map an element to projections below and above it.
    When both sides are enumerated (``enumerated``), ``ibs`` and ``pcs`` are
    ``value_tables(h)``: read from h's own tables unless h overrides a map,
    which is then asked at every element.  ``rows`` packs the
    projections for the laws over pairs (``finite_cba.ByteRows``; None when
    some value is not a byte), and the scans build ``below`` and ``above``.
    When sampled and ``packs()``, ``images`` reads pi on a whole case list
    at once from pi's byte tables: the cases side by side, one big-int op,
    one translate per byte column.  ``above`` is built so, one batch per d.
    """

    def __init__(self, h: CompleteHom, exhaustive: bool, rng, samples: int) -> None:
        B, C = h.source, h.target
        drawn = draws(_draw, rng, 0, B.atom_count, C.atom_count, exhaustive, samples)
        cs, bs, self.source_sets, self.target_sets = drawn
        self.h = h
        self.enumerated = cs is None
        if cs is None:  # both sides enumerated
            bs, cs = list(B.elements()), list(C.elements())
            ibs, pcs = value_tables(h)
            below = above = None
            self.apply, self.project = ibs.__getitem__, pcs.__getitem__
            self.ds, self.pds, self.b_partners = cs, pcs, bs
            self.probes, self.pprobes = cs, pcs
            self.rows = byte_rows(pcs)
        else:
            self.apply, self.project = h.apply, h.project
            ibs, pcs = list(map(h.apply, bs)), list(map(h.project, cs))
            self.ds, self.pds, self.b_partners = cs[:16], pcs[:16], bs[:16]
            self.probes = C.atoms()
            self.pprobes = list(map(h.project, self.probes))
            atoms = list(zip(self.probes, self.pprobes))
            below = {c: [p for a, p in atoms if a & c] for c in self.ds}
            if self.packs():  # per d, pi(a | d) at every atom a, one byte each
                probes, n = _side_by_side(self.probes, len(h.byte_columns)), len(self.probes)
                per_d = [self.images(operator.or_, d, probes).to_bytes(n, "little") for d in self.ds]
                above = dict(zip(self.probes, map(list, zip(*per_d))))
            else:
                above = {a: [h.project(a | d) for d in self.ds] for a in self.probes}
            self.rows = None
        self.bs, self.ibs, self.cs, self.pcs = bs, ibs, cs, pcs
        self.below, self.above = below, above  # keyed by ds and probes

    def packs(self) -> bool:
        """Whether the cases are sampled, pi's values are bytes and h has
        ``own_maps`` at this call: ``rows`` alone decides enumerated cases."""
        return not self.enumerated and own_maps(self.h) and self.h.byte_columns is not None

    @functools.cached_property
    def packed(self) -> tuple[tuple[int, int, int], int, int]:
        """``cs`` side by side; ``pcs`` one byte each; 1 in each of those bytes."""
        ones = int.from_bytes(b"\x01" * len(self.cs), "little")
        pcs = int.from_bytes(bytes(self.pcs), "little")
        return _side_by_side(self.cs, len(self.h.byte_columns)), pcs, ones

    def images(self, op, x: int, xs: tuple[int, int, int] | None = None) -> int:
        """pi(op(c, x)) at every c of ``cs`` (or of ``xs``, packed as
        ``_side_by_side`` packs), one byte each as one int; only where ``packs()``."""
        columns = self.h.byte_columns
        w, (packed, ones, n) = len(columns), xs or self.packed[0]
        blob = op(packed, x * ones).to_bytes(n * w, "little")
        out = 0
        for k, column in enumerate(columns):
            out |= int.from_bytes(blob[k::w].translate(column), "little")
        return out

    def at(self, **elements: int | None) -> str:
        """``b={..} c={..}`` (b in B, c and d in C); "" when all are None."""
        return " ".join(
            f"{name}={format_element(self.h.source if name == 'b' else self.h.target, x)}"
            for name, x in elements.items()
            if x is not None
        )


def _side_by_side(xs: list[int], w: int) -> tuple[int, int, int]:
    """The xs as one int, w bytes each, the first lowest; the int with 1 at
    the foot of each slot, so x * ones holds x in every slot; len(xs)."""
    packed = int.from_bytes(b"".join(x.to_bytes(w, "little") for x in xs), "little")
    return packed, int.from_bytes(b"\x01".ljust(w, b"\0") * len(xs), "little"), len(xs)


def _draw(
    r: random.Random, source_atoms: int, target_atoms: int, exhaustive: bool, samples: int
):
    """The seeded draws of one audit, in the order it takes them from r:
    ``samples`` target then source elements unless both sides are
    enumerated (None, None), then the source and target families."""
    B, C = FiniteCBA(source_atoms), FiniteCBA(target_atoms)
    cs = bs = None
    if not (exhaustive and max(source_atoms, target_atoms) <= EXHAUSTIVE_MAX_ATOMS):
        cs, bs = bits(r, samples, target_atoms, source_atoms)
    if exhaustive and source_atoms <= EXHAUSTIVE_FAMILY_ATOMS:
        source_sets = _predense_families(source_atoms)
    else:
        source_sets = []
        for _ in range(min(samples, 50)):
            xs = {r.getrandbits(source_atoms) for _ in range(3)} | {B.one}
            source_sets.append(tuple(sorted(xs - {0})))
    target_sets = [(C.one,)]
    for _ in range(min(samples, 50)):
        xs = {r.getrandbits(target_atoms) for _ in range(4)}
        xs.add(C.neg(C.sup(xs)))  # force the join up to 1
        target_sets.append(tuple(sorted(xs - {0})))
    return cs, bs, tuple(source_sets), tuple(target_sets)


@functools.cache
def _predense_families(atoms: int) -> tuple[tuple[int, ...], ...]:
    """Every predense family of nonzero elements: 2^(2^n - 1) sets to scan."""
    B = FiniteCBA(atoms)
    nonzero = range(1, B.one + 1)
    return tuple(
        D for n in nonzero for D in itertools.combinations(nonzero, n) if B.is_predense(D)
    )


# Each law maps the shared case lists to (holds, witness, cases in its
# source); a failing law stops at its first witness.  The packed rows and
# (sampled) images only decide a pass: else the scan finds the first witness.


def _retract_section(k: _Cases):
    """pi(i(b)) = b."""
    bad = next((b for b, ib in zip(k.bs, k.ibs) if k.project(ib) != b), None)
    return bad is None, k.at(b=bad), len(k.bs)


def _expand_dominates(k: _Cases):
    """c <= i(pi(c))."""
    bad = next((c for c, pc in zip(k.cs, k.pcs) if c & ~k.apply(pc)), None)
    return bad is None, k.at(c=bad), len(k.cs)


def _positive_to_positive(k: _Cases):
    """c > 0 implies pi(c) > 0."""
    bad = next((c for c, pc in zip(k.cs, k.pcs) if c and not pc), None)
    return bad is None, k.at(c=bad), len(k.cs)


def _meet_translation(k: _Cases):
    """pi(c ∧ i(b)) = pi(c) ∧ b."""
    project, cs, pcs = k.project, k.cs, k.pcs
    cases = len(k.bs) * len(cs)
    walked, packs = set(), k.packs()
    for b, ib in zip(k.bs, k.ibs):
        if b in walked:
            continue  # a b drawn again asks for the identical row
        walked.add(b)
        if k.rows is not None and k.rows.translates_meet(ib, b):
            continue
        if packs and k.images(operator.and_, ib) == k.packed[1] & b * k.packed[2]:
            continue
        if list(map(project, [c & ib for c in cs])) != [p & b for p in pcs]:
            c = next(c for c, p in zip(cs, pcs) if project(c & ib) != p & b)
            return False, k.at(b=b, c=c), cases
    return True, "", cases


def _meet_translation_join_form(k: _Cases):
    """pi(c) ∧ b is the join of the pi(e) <= b over the e <= c (over the
    atoms of c when sampled: O(atoms) per pair)."""
    cases = len(k.ds) * len(k.b_partners)
    rows = k.rows  # per b: the pi(e) <= b, then their joins over every e <= c
    if rows is not None and all(
        rows.subset_joins(rows.packed & rows.at_most(b)) == rows.packed & b * rows.ones
        for b in k.b_partners
    ):
        return True, "", cases
    for c, pc in zip(k.ds, k.pds):
        below = {p for e, p in zip(k.cs, k.pcs) if e & ~c == 0} if k.enumerated else k.below[c]
        for b in k.b_partners:
            join = 0
            for p in below:
                if p & ~b == 0:
                    join |= p
            if join != pc & b:
                return False, k.at(b=b, c=c), cases
    return True, "", cases


def _join_preserving(k: _Cases):
    """pi(c ∨ d) = pi(c) ∨ pi(d)."""
    project, ds, pds = k.project, k.ds, k.pds
    cases = len(k.cs) * len(ds)
    if k.rows is not None and k.rows.preserves_joins():
        return True, "", cases
    if k.packs():
        _, pcs_row, ones = k.packed
        if all(k.images(operator.or_, d) == pcs_row | pd * ones for d, pd in zip(ds, pds)):
            return True, "", cases
    for c, pc in zip(k.cs, k.pcs):
        for d, pd in zip(ds, pds):
            if project(c | d) != pc | pd:
                return False, k.at(c=c, d=d), cases
    return True, "", cases


def _sub_meet_inequality(k: _Cases):
    """pi(c ∧ d) <= pi(c) ∧ pi(d)."""
    project, ds, pds = k.project, k.ds, k.pds
    cases = len(k.cs) * len(ds)
    if k.rows is not None and k.rows.monotone():
        return True, "", cases
    if k.packs():
        _, pcs_row, ones = k.packed
        if not any(k.images(operator.and_, d) & ~(pcs_row & pd * ones) for d, pd in zip(ds, pds)):
            return True, "", cases
    for c, pc in zip(k.cs, k.pcs):
        for d, pd in zip(ds, pds):
            if project(c & d) & ~(pc & pd):
                return False, k.at(c=c, d=d), cases
    return True, "", cases


def _super_complement_inequality(k: _Cases):
    """-pi(c) <= pi(-c)."""
    B, C = k.h.source, k.h.target
    rows = k.rows  # pi(-c) sits at byte C.one - c: the packed row read in reverse
    if rows and not ~rows.packed & B.one * rows.ones & ~int.from_bytes(rows.raw[::-1], "little"):
        return True, "", len(k.cs)
    cs = zip(k.cs, k.pcs)
    bad = next((c for c, pc in cs if B.neg(pc) & ~k.project(C.neg(c))), None)
    return bad is None, k.at(c=bad), len(k.cs)


def _join_preserving_empty(k: _Cases):
    """pi(0) = 0."""
    ok = k.project(0) == 0
    return ok, "" if ok else k.at(c=0), 1


def _embedding_from_retraction(k: _Cases):
    """i(b) is the join of the elements (atoms suffice) projecting inside b:
    the probes are joined by projection once, and each b glues the groups
    whose projection lies inside it."""
    groups: dict[int, int] = {}
    for e, pe in zip(k.probes, k.pprobes):
        groups[pe] = groups.get(pe, 0) | e
    for b, ib in zip(k.bs, k.ibs):
        glued = 0
        for pe, joined in groups.items():
            if pe & ~b == 0:
                glued |= joined
        if glued != ib:
            return False, k.at(b=b), len(k.bs)
    return True, "", len(k.bs)


def _meet_counterexample(k: _Cases):
    """Meet preservation fails exactly off the image; the witness is built."""
    h, C = k.h, k.h.target
    t0 = next(
        (t for t in range(C.atom_count) if h._atom_image[h.fiber[t]].bit_count() >= 2),
        None,
    )
    if t0 is None:
        return True, "surjective embedding: no meet counterexample exists", 1
    c = 1 << t0
    d = h.apply(h.project(c)) & C.neg(c)
    ok = d != 0 and h.project(d & c) == 0 and h.project(d) & h.project(c) != 0
    return ok, k.at(c=c, d=d), 1


def _predense_forward(k: _Cases):
    """i maps predense families to predense families: on a small enumerated
    source, every one, read from the joins of all sets of nonzero b and of i(b)."""
    C, B, one, B_one = k.h.target, k.h.source, k.h.target.one, k.h.source.one
    if k.enumerated and B.atom_count <= EXHAUSTIVE_FAMILY_ATOMS:
        joins = zip(subset_join_table(range(1, B_one + 1)), subset_join_table(k.ibs[1:]))
        if all(image == one for join, image in joins if join == B_one):
            return True, "", len(k.source_sets)
    bad = next((D for D in k.source_sets if C.sup(map(k.apply, D)) != one), None)
    witness = "" if bad is None else f"D={{{','.join(format_element(B, x) for x in bad)}}}"
    return bad is None, witness, len(k.source_sets)


def _predense_backward(k: _Cases):
    """pi maps predense families to predense families."""
    B, one = k.h.source, k.h.source.one
    bad = next((E for E in k.target_sets if B.sup(map(k.project, E)) != one), None)
    return bad is None, "" if bad is None else f"|E|={len(bad)}", len(k.target_sets)


def _generic_preimage(k: _Cases):
    """The preimage of the generic at target atom t is the generic at fiber[t]:
    t lies in i(b) exactly when fiber[t] lies in b."""
    h = k.h
    pulled = [0] * h.source.atom_count  # target atoms over each source atom
    for t, s in enumerate(h.fiber):
        pulled[s] |= 1 << t
    for b, ib in zip(k.bs, k.ibs):
        expected = 0
        for s, mask in enumerate(pulled):
            if b >> s & 1:
                expected |= mask
        if ib != expected:
            t = ((ib ^ expected) & -(ib ^ expected)).bit_length() - 1
            return False, f"target atom {t}", len(k.bs) * h.target.atom_count
    return True, "", len(k.bs) * h.target.atom_count


def _stone_open_image(k: _Cases):
    """The dual map sends the basic open of c onto the basic open of pi(c):
    the atoms fiber[t] over the atoms t of c, gathered from the fiber map
    itself, are the atoms of pi(c)."""
    fiber, one = k.h.fiber, k.h.source.one
    images = [1 << s for s in fiber]  # at the atoms (the sampled probes), then at every c
    images = subset_join_table(images) if k.enumerated else images
    bad = next(
        (c for c, pc, image in zip(k.probes, k.pprobes, images) if image != pc & one), None
    )
    return bad is None, k.at(c=bad), len(k.probes)


def _filters_to_filters(k: _Cases):
    """pi maps the filter above c onto the filter above pi(c): each d >= c
    (each cover, when exhaustive) projects above pi(c), and each b >= pi(c)
    is pi(c ∨ i(b))."""
    probes = [(c, pc) for c, pc in zip(k.probes, k.pprobes) if c]
    atoms = k.h.target.atoms()  # c has |atoms| - |c| covers; each sampled probe has the ds
    covers = (len(atoms) - c.bit_count() if k.enumerated else len(k.ds) for c, _ in probes)
    cases = sum(covers) + len(probes) * len(k.b_partners)
    if k.rows is not None and _filters_packed(k):
        return True, "", cases
    joins_hold = k.packs() and _filter_joins_batched(k, probes)
    for c, pc in probes:  # monotonicity on covers c < c | a is monotonicity on all c <= d
        above = [k.pcs[c | a] for a in atoms if not c & a] if k.enumerated else k.above[c]
        if any(p & pc != pc for p in above):
            return False, k.at(c=c), cases
        for b in () if joins_hold else k.b_partners:
            b |= pc
            if k.project(c | k.apply(b)) != b:
                return False, k.at(b=b, c=c), cases
    return True, "", cases


def _filters_packed(k: _Cases) -> bool:
    """The filter law read from the rows: pi is monotone, and for each b,
    pi(c ∨ i(b)) = b at every c > 0 with pi(c) <= b, which are the pairs
    b ∨ pi(c) ranges over.  Only when every pi(c) lies in B and every i(b)
    in C; else the scan decides."""
    rows, top = k.rows, len(k.cs) - 1
    if rows.at_most(k.h.source.one) != 0xFF * rows.ones or not rows.monotone():
        return False
    for b, ib in zip(k.bs, k.ibs):
        if not 0 <= ib <= top:
            return False
        if (rows.join_row(ib) ^ b * rows.ones) & rows.at_most(b) & ~0xFF:  # c = 0 is no probe
            return False
    return True


def _filter_joins_batched(k: _Cases, probes: list[tuple[int, int]]) -> bool:
    """pi(c ∨ i(b ∨ pi(c))) = b ∨ pi(c) at every sampled probe c and b of
    ``b_partners``, read from pi's byte tables: the probes with equal pi(c)
    share i(b ∨ pi(c)), so one batch per (b, distinct pi(c)); only where
    ``packs()``."""
    groups: dict[int, list[int]] = {}
    for c, pc in probes:
        groups.setdefault(pc, []).append(c)
    w = len(k.h.byte_columns)
    batches = [
        (pc, _side_by_side(cs, w), int.from_bytes(b"\x01" * len(cs), "little"))
        for pc, cs in groups.items()
    ]
    return all(
        k.images(operator.or_, k.apply(b | pc), xs) == (b | pc) * ones
        for b in k.b_partners
        for pc, xs, ones in batches
    )


def _generics_to_generics(k: _Cases):
    """pi sends each target atom to the source atom under it."""
    fiber = k.h.fiber
    # pi at the atoms, as the cases hold it: the sampled probes are the atoms
    pis = map(k.pcs.__getitem__, k.h.target.atoms()) if k.enumerated else k.pprobes
    bad = next((t for t, (s, p) in enumerate(zip(fiber, pis)) if p != 1 << s), None)
    return bad is None, "" if bad is None else f"atom {bad}", len(fiber)


RETRACTION_LAWS = (
    ("retract_section", _retract_section),
    ("expand_dominates", _expand_dominates),
    ("positive_to_positive", _positive_to_positive),
    ("meet_translation", _meet_translation),
    ("meet_translation_join_form", _meet_translation_join_form),
    ("join_preserving", _join_preserving),
    ("sub_meet_inequality", _sub_meet_inequality),
    ("super_complement_inequality", _super_complement_inequality),
    ("join_preserving_empty", _join_preserving_empty),
    ("embedding_from_retraction", _embedding_from_retraction),
    ("meet_counterexample", _meet_counterexample),
    ("predense_forward", _predense_forward),
    ("predense_backward", _predense_backward),
    ("generic_preimage", _generic_preimage),
    ("stone_open_image", _stone_open_image),
    ("filters_to_filters", _filters_to_filters),
    ("generics_to_generics", _generics_to_generics),
)


def _check(ledger: Ledger, laws, k: _Cases, prefix: str = "") -> None:
    for name, law in laws:
        ok, witness, cases = law(k)
        ledger.record(prefix + name, ok, witness, cases)


def retraction_laws_audit(
    h: CompleteHom,
    exhaustive: bool = True,
    rng: random.Random | None = None,
    samples: int = 200,
) -> Ledger:
    """Audit the full retraction calculus on h, one claim per law of
    ``RETRACTION_LAWS``: every case up to ``EXHAUSTIVE_MAX_ATOMS`` atoms when
    ``exhaustive``, else ``samples`` seeded elements.

    Non-regular h: the generic-preimage law runs on h itself; every law runs
    on the restriction of h to its cokernel, under a ``coker.`` prefix.
    """
    ledger = Ledger()
    if h.regular:
        _check(ledger, RETRACTION_LAWS, _Cases(h, exhaustive, rng, samples))
        return ledger
    core, _ = restrict_to_coker(h)
    generic = (("generic_preimage", _generic_preimage),)
    _check(ledger, generic, _Cases(h, exhaustive, rng, samples))
    _check(ledger, RETRACTION_LAWS, _Cases(core, exhaustive, rng, samples), "coker.")
    return ledger
