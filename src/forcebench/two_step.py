"""Two-step iterations from atomwise presentations, and generic quotients.

Over a finite base the classes of names for elements of a fiber algebra are
in canonical bijection with choice functions on atoms, so the two-step
algebra is the disjoint sum of the fibers, the canonical embedding is
"constant on fibers", and its retraction reads off the support.  Generic
filters are principal at atoms, so quotients are restrictions.
"""
from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field

from .errors import (
    EmptyFiber,
    FiberNotRegular,
    InvariantViolation,
    NonCommuting,
    NotMaximalAntichain,
    ShapeMismatch,
)
from .finite_cba import FiniteCBA, Restriction, Ultrafilter, atom_map, byte_rows, format_element
from .morphisms import EXHAUSTIVE_MAX_ATOMS, CompleteHom, own_maps, require_regular, value_tables
from .report import Ledger, bits, draws


@dataclass(frozen=True)
class AtomwisePresentation:
    """A base algebra with one fiber algebra per atom."""

    base: FiniteCBA
    fibers: tuple[FiniteCBA, ...]

    def __post_init__(self) -> None:
        if len(self.fibers) != self.base.atom_count:
            raise ShapeMismatch(
                f"{len(self.fibers)} fibers for {self.base.atom_count} base atoms"
            )
        for a, f in enumerate(self.fibers):
            if f.atom_count == 0:
                raise EmptyFiber(f"fiber at atom {a} is degenerate")


@dataclass(frozen=True)
class TwoStepAlgebra:
    """The disjoint-sum algebra with its embedding/retraction pair."""

    presentation: AtomwisePresentation
    algebra: FiniteCBA = field(init=False)
    embedding: CompleteHom = field(init=False)
    offsets: tuple[int, ...] = field(init=False)
    tops: tuple[int, ...] = field(init=False)  # the top of each fiber

    def __post_init__(self) -> None:
        sizes = [f.atom_count for f in self.presentation.fibers]
        *offsets, total = itertools.accumulate(sizes, initial=0)
        algebra = FiniteCBA(total)
        fiber_map = tuple(a for a, size in enumerate(sizes) for _ in range(size))
        object.__setattr__(self, "offsets", tuple(offsets))
        object.__setattr__(self, "tops", tuple(f.one for f in self.presentation.fibers))
        object.__setattr__(self, "algebra", algebra)
        embedding = CompleteHom(self.presentation.base, algebra, fiber_map)
        object.__setattr__(self, "embedding", embedding)

    def atom_pair(self, t: int) -> tuple[int, int]:
        """Result atom index -> (base atom, fiber atom)."""
        a = self.embedding.fiber[t]
        return a, t - self.offsets[a]

    def element_from_family(self, family: tuple[int, ...]) -> int:
        """Choice function (one fiber element per base atom) -> element."""
        if len(family) != self.presentation.base.atom_count:
            raise ShapeMismatch("family must pick one value per base atom")
        out = 0
        for a, (val, top, offset) in enumerate(zip(family, self.tops, self.offsets)):
            if not 0 <= val <= top:
                raise ValueError(f"family value at atom {a} outside the fiber")
            out |= val << offset
        return out

    def elements_from_columns(self, columns: list[list[int]], count: int) -> list[int]:
        """``element_from_family`` on ``count`` families at once, given as one
        column of values per base atom (``columns[a][i]``: family i at atom a)."""
        if len(columns) != self.presentation.base.atom_count:
            raise ShapeMismatch("family must pick one value per base atom")
        if any(col and (min(col) < 0 or max(col) > top) for col, top in zip(columns, self.tops)):
            for family in zip(*columns):  # raises at the first family out of its fiber
                self.element_from_family(family)
        out = [0] * count
        for col, offset in zip(columns, self.offsets):
            out = [x | val << offset for x, val in zip(out, col)]
        return out

    def family_of(self, element: int) -> tuple[int, ...]:
        return tuple(
            (element >> offset) & top for offset, top in zip(self.offsets, self.tops)
        )

    def support(self, element: int) -> int:
        """pi([c]) = the base value of "c > 0"."""
        return self.embedding.project(element)

    @functools.cached_property
    def supports(self) -> tuple[int, ...]:
        """``support`` of every element (c at index c), computed on first
        use; only sensible for small sums."""
        return tuple(map(self.support, self.algebra.elements()))

    @functools.cached_property
    def indicators(self) -> bytes:  # ``indicator`` at every base element; at most 8 atoms
        return bytes(map(self.indicator, self.presentation.base.elements()))

    def tv_equals_one(self, element: int) -> int:
        """The base value of "c = 1": atoms whose fiber part is full."""
        out = 0
        for a, (offset, top) in enumerate(zip(self.offsets, self.tops)):
            if element >> offset & top == top:
                out |= 1 << a
        return out

    def tv_equals_zero(self, element: int) -> int:
        out = 0
        for a, (offset, top) in enumerate(zip(self.offsets, self.tops)):
            if not element >> offset & top:
                out |= 1 << a
        return out

    def indicator(self, b: int) -> int:
        """The mixed name d_b: 1 on the fibers inside b, 0 outside; equals i(b)."""
        return self.embedding.apply(b)


def build_two_step(presentation: AtomwisePresentation) -> TwoStepAlgebra:
    """Construct the sum algebra and audit its defining identities."""
    two = TwoStepAlgebra(presentation)
    if not two.embedding.regular:
        raise InvariantViolation("sum embedding must be regular (fibers are nonempty)")
    base = presentation.base
    for b in base.elements():
        d_b = two.indicator(b)
        if two.tv_equals_one(d_b) != b:
            raise InvariantViolation(f"[d_b = 1] differs from b at b={format_element(base, b)}")
        if two.tv_equals_zero(d_b) != base.neg(b):
            raise InvariantViolation(f"[d_b = 0] differs from -b at b={format_element(base, b)}")
    for a in range(base.atom_count):
        fam = [0] * base.atom_count
        fam[a] = presentation.fibers[a].one
        if two.support(two.element_from_family(tuple(fam))) != 1 << a:
            raise InvariantViolation(f"the full fiber at atom {a} has the wrong support")
    return two


# -- generic quotients ----------------------------------------------------------


@dataclass(frozen=True)
class GenericQuotient:
    """C/G for the principal generic at an atom: the restriction below i(atom)."""

    hom: CompleteHom
    atom: int
    view: Restriction = field(init=False)

    def __post_init__(self) -> None:
        h = self.hom
        require_regular(h)
        target = h.target
        # i(atom) is h's own atom image unless h overrides a map
        mask = h._atom_image[self.atom] if own_maps(h) else h.apply(1 << self.atom)
        if target.atom_count <= EXHAUSTIVE_MAX_ATOMS:
            view = _narrow_view(target, mask)
        else:
            view = Restriction(target, mask)
        object.__setattr__(self, "view", view)

    @property
    def algebra(self) -> FiniteCBA:
        return self.view.algebra

    def class_of(self, c: int) -> int:
        return self.view.to_sub(c)

    def same_class(self, c: int, d: int) -> bool:
        return (c ^ d) & self.view.mask == 0

    def representative(self, cls: int) -> int:
        return self.view.from_sub(cls)


# One shared view per (parent, mask) of a parent with at most
# EXHAUSTIVE_MAX_ATOMS atoms: 127 masks in all, where the enumerated iso sweep
# asks for 23,646 views.  Views of wider parents are built per quotient, so
# no audit keeps them alive.
@functools.lru_cache(maxsize=256)
def _narrow_view(parent: FiniteCBA, mask: int) -> Restriction:
    return Restriction(parent, mask)


def quotient_algebra(h: CompleteHom, u: Ultrafilter) -> GenericQuotient:
    if u.algebra != h.source:
        raise ShapeMismatch("ultrafilter must live on the source algebra")
    q = GenericQuotient(h, u.atom)
    _audit_sup_commutation(q)
    return q


def _audit_sup_commutation(q: GenericQuotient) -> None:
    """Joins pass through the class map; exhaustive when the quotient is small."""
    C = q.hom.target
    if q.algebra.atom_count <= SUP_ENUMERATED_ATOMS and C.atom_count <= QUOTIENT_ENUMERATED_ATOMS:
        small = C.atom_count <= SUP_ENUMERATED_ATOMS
        pool = list(C.elements() if small else map(q.representative, q.algebra.elements()))
        subsets = itertools.chain.from_iterable(
            itertools.combinations(pool, r) for r in (0, 1, 2, 3)
        )
    else:  # 50 seeded triples
        (xs,) = draws(bits, None, q.atom, 150, C.atom_count)
        subsets = zip(xs[::3], xs[1::3], xs[2::3])
    for subset in subsets:
        if q.class_of(C.sup(subset)) != q.algebra.sup(q.class_of(c) for c in subset):
            raise InvariantViolation(
                f"the class map does not commute with the join of {len(subset)} elements"
            )


def canonical_representative(
    h: CompleteHom,
    antichain: tuple[int, ...],
    family: tuple[int, ...],
) -> int:
    """The unique c with [c] = [c_a] at every a of a maximal source antichain.

    Built as the join of i(a) ∧ c_a; uniqueness = any element agreeing on
    every class equals it, checked by perturbation.
    """
    require_regular(h)
    if not h.source.is_maximal_antichain(antichain):
        raise NotMaximalAntichain("representative families index maximal antichains")
    if len(antichain) != len(family):
        raise ShapeMismatch("one family member per antichain element")
    c = 0
    for a, c_a in zip(antichain, family):
        c |= h.apply(a) & c_a
    for a, c_a in zip(antichain, family):
        if (c ^ c_a) & h.apply(a):
            raise InvariantViolation("representative misses its class")
    for t in range(h.target.atom_count):
        other = c ^ (1 << t)
        if all((other ^ c_a) & h.apply(a) == 0 for a, c_a in zip(antichain, family)):
            raise InvariantViolation("perturbed element also matches every class")
    return c


# -- the equivalence of two-step iterations and regular embeddings ----------------


@dataclass
class TwoStepIso(Ledger):
    """An explicit isomorphism between B*(C/G-dot) and C, with its audit."""

    hom: CompleteHom
    two: TwoStepAlgebra
    quotients: tuple[GenericQuotient, ...]


# the iso audit enumerates its probe up to EXHAUSTIVE_MAX_ATOMS target atoms,
# and every pair of probe elements up to this many
ISO_ALL_PAIRS_ATOMS = 4
# more audits check every element (pair) up to so many atoms, seeded ones above:
QUOTIENT_ENUMERATED_ATOMS = 8  # targets of quotient_hom and of quotient_algebra's join check
SUP_ENUMERATED_ATOMS = 4  # quotients of the join check; its pool is all of C up to it
ASSOC_ENUMERATED_ATOMS = 10  # the top sum of three_step_assoc_audit


def two_step_iso_audit(h: CompleteHom, rng: random.Random | None = None) -> TwoStepIso:
    """Build the atomwise quotient presentation and the isomorphism onto C.

    The map sends c to the choice function of its per-atom classes; the audit
    checks bijectivity, complements, joins (all pairs on small targets, atom
    pairs plus seeded pairs above), and that the canonical pair transports
    onto i and pi.
    """
    require_regular(h)
    B, C = h.source, h.target
    quotients = tuple(GenericQuotient(h, a) for a in range(B.atom_count))
    presentation = AtomwisePresentation(B, tuple(q.algebra for q in quotients))
    # the sum has C's atoms (h is regular); each wide embedding tends to have
    # a presentation of its own, so only narrow sums are kept
    if C.atom_count <= EXHAUSTIVE_MAX_ATOMS:
        two = _checked_sum(presentation)
    else:
        two = build_two_step(presentation)
    iso = TwoStepIso(h, two, quotients)

    # the class family of c is determined atomwise: target atom t lands at
    # (fiber[t], rank of t inside its fiber), an atom permutation
    atom_image = [0] * C.atom_count
    seen_per_fiber = [0] * B.atom_count
    for t in range(C.atom_count):
        a = h.fiber[t]
        atom_image[t] = 1 << (two.offsets[a] + seen_per_fiber[a])
        seen_per_fiber[a] += 1

    phi = atom_map(atom_image)

    drawn, random_pairs = draws(_iso_draws, rng, 0, C.atom_count)
    exhaustive = C.atom_count <= EXHAUSTIVE_MAX_ATOMS
    probe = list(C.elements()) if exhaustive else [0, C.one, *drawn]
    # phi and every class map are evaluated once over the probe, and each
    # claim reads phi by subscript from phi_of: on the exhaustive probe phi's
    # own atom_map table (c sits at index c), above it a memo for this audit
    # only, one entry per operand it asks for.  The exhaustive probe reads
    # each class map and the support from the tables of the shared view and
    # sum, and i and pi from ``value_tables(h)``, indexed the same way.  Packed
    # one byte per element in ``rows`` (the sum has C's atoms, at most 6), phi
    # may decide that a claim holds; else it scans.
    one, sum_one = C.one, two.algebra.one
    if exhaustive:
        phi_of = phis = phi.tables[0]
        classes = [q.view.to_sub_table for q in quotients]
        table = two.supports
        supports = (table[p & sum_one] for p in phis)  # support ignores bits past the sum
    else:
        phi_of = _Memo(phi)
        phis = [phi_of[c] for c in probe]
        classes = [list(map(q.class_of, probe)) for q in quotients]
        supports = map(two.support, phis)
    rows = byte_rows(phis) if exhaustive else None
    phi_at = rows and rows.raw.ljust(256, b"\0")  # phi as a bytes.translate table

    # phi agrees with the per-atom class maps (packed: phi's bits on each fiber)
    bad = None
    if not rows or rows.packed & ~(sum_one * rows.ones) or not all(
        q.view.packed_to_sub == rows.packed >> offset & top * rows.ones
        for q, offset, top in zip(quotients, two.offsets, two.tops)
    ):
        expected = two.elements_from_columns(classes, len(probe))
        bad = next((c for c, p, e in zip(probe, phis, expected) if p != e), None)
    iso.record("phi_is_the_class_family", bad is None, _at(C, bad), len(probe))

    ok = sorted(atom_image) == [1 << k for k in range(two.algebra.atom_count)]
    iso.record("bijective_on_atoms", ok, "" if ok else "not a bijection on atoms")
    reverse = rows and int.from_bytes(rows.raw[::-1], "little")  # phi(-c) at byte c
    bad = None if rows and reverse == ~rows.packed & sum_one * rows.ones else next(
        (c for c, p in zip(probe, phis) if phi_of[one & ~c] != sum_one & ~p), None
    )
    iso.record("complement_preserved", bad is None, _at(C, bad), len(probe))
    applied, projected = value_tables(h) if rows else (None, None)
    projected = rows and byte_rows(projected)
    support_at = rows and bytes(two.supports) * (256 // (sum_one + 1))  # at every byte
    packed = projected and projected.raw == rows.raw.translate(support_at)
    bad = None if packed else next((c for c, s in zip(probe, supports) if s != h.project(c)), None)
    iso.record("retraction_transported", bad is None, _at(C, bad), len(probe))
    if exhaustive:
        pairs, *indices = _narrow_pairs(C.atom_count, random_pairs)
    else:
        atom_masks = [1 << t for t in range(C.atom_count)]
        pairs = list(itertools.product(atom_masks, repeat=2)) + list(random_pairs)
    if rows:  # phi at each c, d and c | d, packed in the order of the pairs
        cs, ds, joins = (int.from_bytes(x.translate(phi_at), "little") for x in indices)
    bad = None if rows and joins == cs | ds else next(
        ((c, d) for c, d in pairs if phi_of[c | d] != phi_of[c] | phi_of[d]), None
    )
    witness = "" if bad is None else f"{_at(C, bad[0])} {_at(C, bad[1], 'd')}"
    iso.record("join_preserved", bad is None, witness, len(pairs))
    i_sum = two.embedding.apply
    # phi ignores bits past C's atoms, so masking keeps a stray bit readable
    phi_applied = rows and bytes(ib & one for ib in applied).translate(phi_at)
    bad = None if phi_applied and phi_applied == two.indicators else next(
        (b for b in B.elements() if phi_of[h.apply(b) & one] != i_sum(b)), None
    )
    iso.record("embedding_transported", bad is None, _at(B, bad, "b"), B.one + 1)
    return iso


@functools.lru_cache(maxsize=16)
def _narrow_pairs(atoms: int, random_pairs: tuple) -> tuple[tuple, bytes, bytes, bytes]:
    """The iso audit's pairs on an enumerated probe, and their c, d and c | d as bytes."""
    pairs = tuple(itertools.product(range(1 << atoms), repeat=2))
    if atoms > ISO_ALL_PAIRS_ATOMS:
        pairs = tuple(itertools.product([1 << t for t in range(atoms)], repeat=2)) + random_pairs
    return pairs, *map(bytes, zip(*pairs)), bytes(c | d for c, d in pairs)


class _Memo(dict):
    """The values of a function, each computed on its first subscript."""

    def __init__(self, function):
        self.function = function

    def __missing__(self, x):
        self[x] = out = self.function(x)
        return out


# Shape-determined work of the iso audit, done once per shape: the 5,316
# regular embeddings with at most 6 target atoms have 63 presentations.  Each
# cached value is immutable, and lru_cache is thread-safe.
@functools.lru_cache(maxsize=128)
def _checked_sum(presentation: AtomwisePresentation) -> TwoStepAlgebra:
    """``build_two_step``, audited on the first call for each presentation;
    later calls return that same audited sum."""
    return build_two_step(presentation)


def _iso_draws(r: random.Random, atoms: int) -> tuple[tuple, tuple]:
    """The seeded draws of one iso audit on ``atoms`` target atoms, in the
    order it takes them from r: 32 probe elements above the enumerated
    sizes, then 128 random pairs above the all-pairs sizes."""
    drawn = ()
    if atoms > EXHAUSTIVE_MAX_ATOMS:
        (drawn,) = bits(r, 32, atoms)
    pairs = ()
    if atoms > ISO_ALL_PAIRS_ATOMS:
        pairs = tuple((r.getrandbits(atoms), r.getrandbits(atoms)) for _ in range(128))
    return drawn, pairs


def _at(algebra: FiniteCBA, x: int | None, label: str = "c") -> str:
    return "" if x is None else f"{label}={format_element(algebra, x)}"


# -- triangles and quotient homomorphisms ------------------------------------------


@dataclass(frozen=True)
class Triangle:
    """A commuting triangle i1 = j ∘ i0 of regular embeddings."""

    i0: CompleteHom
    i1: CompleteHom
    j: CompleteHom

    def __post_init__(self) -> None:
        if self.i0.source != self.i1.source:
            raise ShapeMismatch("the two legs must share the base")
        if self.j.source != self.i0.target or self.j.target != self.i1.target:
            raise ShapeMismatch("j must map between the two targets")
        if not self.i0.composes_to(self.j, self.i1):
            raise NonCommuting("j ∘ i0 differs from i1")


@dataclass
class QuotientHomResult(Ledger):
    """j/G between the quotients at a base atom, with its audit."""

    hom: CompleteHom
    source_quotient: GenericQuotient
    target_quotient: GenericQuotient


def quotient_hom(t: Triangle, u: Ultrafilter) -> QuotientHomResult:
    """j/G between the quotients at a base atom, with the law audit: every
    element (pair) when both targets have at most QUOTIENT_ENUMERATED_ATOMS
    atoms, 64 seeded ones above."""
    for leg in (t.i0, t.i1, t.j):
        require_regular(leg)
    if u.algebra != t.i0.source:
        raise ShapeMismatch("ultrafilter must live on the base")
    q0 = GenericQuotient(t.i0, u.atom)
    q1 = GenericQuotient(t.i1, u.atom)
    fiber = tuple(q0.view.sub_of_atom[t.j.fiber[t_atom]] for t_atom in q1.view.atom_of_sub)
    hom = CompleteHom(q0.algebra, q1.algebra, fiber)
    result = QuotientHomResult(hom, q0, q1)

    C0, C1, j = t.j.source, t.j.target, t.j
    if max(C0.atom_count, C1.atom_count) <= QUOTIENT_ENUMERATED_ATOMS:
        c0s, c1s = list(C0.elements()), list(C1.elements())
        pairs = _class_pairs(c0s, q0.view.mask)
        applied, projected = value_tables(j)  # j at c sits at index c
        apply, project = applied.__getitem__, projected.__getitem__
        class0, class1 = q0.view.to_sub_table.__getitem__, q1.view.to_sub_table.__getitem__
    else:  # 64 seeded elements of C0 and of C1, then 64 offsets in C0
        c0s, c1s, offsets = draws(bits, None, 1, 64, C0.atom_count, C1.atom_count, C0.atom_count)
        # pairs in one class: d differs from c only off the class mask
        pairs = [(c, c ^ (x & ~q0.view.mask)) for c, x in zip(c0s, offsets)]
        apply, project, class0, class1 = j.apply, j.project, q0.class_of, q1.class_of
    same = q1.same_class
    bad = next(((c, d) for c, d in pairs if not same(apply(c), apply(d))), None)
    witness = "" if bad is None else f"{_at(C0, bad[0])} {_at(C0, bad[1], 'd')}"
    result.record("well_defined_on_classes", bad is None, witness, len(pairs))
    bad = next((c for c in c0s if hom.apply(q0.class_of(c)) != q1.class_of(apply(c))), None)
    result.record("intertwines_class_maps", bad is None, _at(C0, bad), len(c0s))
    result.record("regular", hom.regular, "" if hom.regular else "not regular")
    # retraction law: pi_{j/G}([c]) = [pi_j(c)]
    mask = q1.view.mask
    bad = next((c for c in c1s if hom.project(class1(c)) != class0(project(c & mask))), None)
    result.record("retraction_law", bad is None, _at(C1, bad), len(c1s))
    return result


def _class_pairs(elements: list[int], mask: int) -> list[tuple[int, int]]:
    """The pairs (c, d) of ``elements`` (all of an algebra) that agree on ``mask``, in order."""
    off = [y for y in elements if not y & mask]
    return [(c, c & mask | y) for c in elements for y in off]


# -- lifting atomwise families of embeddings ----------------------------------------


@dataclass
class LiftedEmbedding(Ledger):
    hom: CompleteHom
    two0: TwoStepAlgebra
    two1: TwoStepAlgebra


def lift_embedding_name(
    base: FiniteCBA, family: tuple[CompleteHom, ...]
) -> LiftedEmbedding:
    """From per-atom regular embeddings k_a to a regular embedding of the sums.

    The per-atom quotient action of the result recovers each k_a, which is
    audited through quotient homomorphisms of the evident triangle.
    """
    if len(family) != base.atom_count:
        raise ShapeMismatch("one fiber embedding per base atom")
    for a, k in enumerate(family):
        if not k.regular:
            raise FiberNotRegular(a)
    pres0 = AtomwisePresentation(base, tuple(k.source for k in family))
    pres1 = AtomwisePresentation(base, tuple(k.target for k in family))
    two0 = build_two_step(pres0)
    two1 = build_two_step(pres1)
    fiber = []
    for t_atom in range(two1.algebra.atom_count):
        a, d1 = two1.atom_pair(t_atom)
        fiber.append(two0.offsets[a] + family[a].fiber[d1])
    hom = CompleteHom(two0.algebra, two1.algebra, tuple(fiber))
    out = LiftedEmbedding(hom, two0, two1)
    out.record("regular", hom.regular, "" if hom.regular else "not regular")
    if not hom.regular:
        return out
    tri = Triangle(two0.embedding, two1.embedding, hom)
    for a in range(base.atom_count):
        q = quotient_hom(tri, Ultrafilter(base, a))
        witness = "" if q.passed else f"atom {a}: {q.failures[0]}"
        out.record("quotient_laws", q.passed, witness)
        if not q.passed:
            continue
        # the quotient action is k_a up to the atom reindexing
        k = family[a]
        recovered = tuple(
            q.source_quotient.view.atom_of_sub[q.hom.fiber[t]] - two0.offsets[a]
            for t in range(q.hom.target.atom_count)
        )
        expected = tuple(
            k.fiber[two1.atom_pair(q.target_quotient.view.atom_of_sub[t])[1]]
            for t in range(q.hom.target.atom_count)
        )
        ok = recovered == expected
        out.record("quotient_action_is_k", ok, "" if ok else f"atom {a}")
    return out


# -- three-step associativity ---------------------------------------------------------


def three_step_assoc_audit(
    base: FiniteCBA,
    mid: AtomwisePresentation,
    top: tuple[FiniteCBA, ...],
) -> Ledger:
    """Quotienting twice along an atom pair equals quotienting once at the
    composed atom, via [[c]_G]_K -> [c]_H on every element (64 seeded ones
    above ASSOC_ENUMERATED_ATOMS atoms); one case per atom pair."""
    if mid.base != base:
        raise ShapeMismatch("mid presentation must sit on the base")
    two1 = build_two_step(mid)
    if len(top) != two1.algebra.atom_count:
        raise ShapeMismatch("one top fiber per middle atom")
    pres2 = AtomwisePresentation(two1.algebra, top)
    two2 = build_two_step(pres2)
    i1, i2 = two1.embedding, two2.embedding
    i12 = i1.then(i2)
    top_algebra = two2.algebra
    report = Ledger()
    for u in range(base.atom_count):
        outer = GenericQuotient(i12, u)
        elements = (
            list(top_algebra.elements())
            if top_algebra.atom_count <= ASSOC_ENUMERATED_ATOMS
            else draws(bits, None, u, 64, top_algebra.atom_count)[0]
        )
        for d in range(mid.fibers[u].atom_count):
            mid_atom = two1.offsets[u] + d
            once = GenericQuotient(i2, mid_atom)
            # two-step route: quotient the outer view again at the class of mid_atom
            twice = outer.view.mask & i2.apply(1 << mid_atom)
            bad = next((c for c in elements if c & twice != c & once.view.mask), None)
            report.record(
                "quotient_twice_is_quotient_once",
                bad is None,
                ""
                if bad is None
                else f"(G,K)=({u},{mid_atom}): classes diverge at "
                f"{format_element(top_algebra, bad)}",
            )
    return report
