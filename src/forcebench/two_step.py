"""Two-step iterations from atomwise presentations, and generic quotients.

Over a finite base the classes of names for elements of a fiber algebra are
in canonical bijection with choice functions on atoms, so the two-step
algebra is the disjoint sum of the fibers, the canonical embedding is
"constant on fibers", and its retraction reads off the support.  Generic
filters are principal at atoms, so quotients are restrictions.
"""
from __future__ import annotations

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
from .finite_cba import FiniteCBA, Restriction, Ultrafilter, atom_map, format_element
from .morphisms import CompleteHom, require_regular


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

    def __post_init__(self) -> None:
        offsets = []
        total = 0
        for f in self.presentation.fibers:
            offsets.append(total)
            total += f.atom_count
        algebra = FiniteCBA(total)
        fiber_map = []
        for a, f in enumerate(self.presentation.fibers):
            fiber_map.extend([a] * f.atom_count)
        object.__setattr__(self, "offsets", tuple(offsets))
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(
            self,
            "embedding",
            CompleteHom(self.presentation.base, algebra, tuple(fiber_map)),
        )

    def atom_pair(self, t: int) -> tuple[int, int]:
        """Result atom index -> (base atom, fiber atom)."""
        a = self.embedding.fiber[t]
        return a, t - self.offsets[a]

    def element_from_family(self, family: tuple[int, ...]) -> int:
        """Choice function (one fiber element per base atom) -> element."""
        if len(family) != self.presentation.base.atom_count:
            raise ShapeMismatch("family must pick one value per base atom")
        out = 0
        for a, val in enumerate(family):
            if not self.presentation.fibers[a].contains(val):
                raise ValueError(f"family value at atom {a} outside the fiber")
            out |= val << self.offsets[a]
        return out

    def family_of(self, element: int) -> tuple[int, ...]:
        fam = []
        for a, f in enumerate(self.presentation.fibers):
            fam.append((element >> self.offsets[a]) & f.one)
        return tuple(fam)

    def support(self, element: int) -> int:
        """pi([c]) = the base value of "c > 0"."""
        return self.embedding.project(element)

    def tv_equals_one(self, element: int) -> int:
        """The base value of "c = 1": atoms whose fiber part is full."""
        out = 0
        for a, val in enumerate(self.family_of(element)):
            if val == self.presentation.fibers[a].one:
                out |= 1 << a
        return out

    def tv_equals_zero(self, element: int) -> int:
        out = 0
        for a, val in enumerate(self.family_of(element)):
            if val == 0:
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


def antichain_correspondence_holds(
    two: TwoStepAlgebra, elements: tuple[int, ...]
) -> bool:
    """The family is pairwise disjoint with join 1 in the sum exactly when
    its selected values are so at every base atom (a value may be zero at
    some atoms; that is how sum antichains look fiberwise)."""
    idx = range(len(elements))
    sum_side = (
        all(elements[i] & elements[j] == 0 for i in idx for j in idx if i < j)
        and two.algebra.sup(elements) == two.algebra.one
    )
    fiber_side = True
    for a, f in enumerate(two.presentation.fibers):
        vals = [two.family_of(e)[a] for e in elements]
        if any(vals[i] & vals[j] for i in idx for j in idx if i < j):
            fiber_side = False
            break
        if f.sup(vals) != f.one:
            fiber_side = False
            break
    return sum_side == fiber_side


# -- generic quotients ----------------------------------------------------------


@dataclass(frozen=True)
class GenericQuotient:
    """C/G for the principal generic at an atom: the restriction below i(atom)."""

    hom: CompleteHom
    atom: int
    view: Restriction = field(init=False)

    def __post_init__(self) -> None:
        require_regular(self.hom)
        mask = self.hom.apply(1 << self.atom)
        object.__setattr__(self, "view", Restriction(self.hom.target, mask))

    @property
    def algebra(self) -> FiniteCBA:
        return self.view.algebra

    def class_of(self, c: int) -> int:
        return self.view.to_sub(c)

    def same_class(self, c: int, d: int) -> bool:
        return (c ^ d) & self.view.mask == 0

    def representative(self, cls: int) -> int:
        return self.view.from_sub(cls)


def quotient_algebra(h: CompleteHom, u: Ultrafilter) -> GenericQuotient:
    if u.algebra != h.source:
        raise ShapeMismatch("ultrafilter must live on the source algebra")
    q = GenericQuotient(h, u.atom)
    _audit_sup_commutation(q)
    return q


def _audit_sup_commutation(q: GenericQuotient) -> None:
    """Joins pass through the class map; exhaustive when the quotient is small."""
    C = q.hom.target
    if q.algebra.atom_count <= 4 and C.atom_count <= 8:
        pool = list(C.elements()) if C.atom_count <= 4 else [q.representative(x) for x in q.algebra.elements()]
        subsets = itertools.chain.from_iterable(
            itertools.combinations(pool, r) for r in (0, 1, 2, 3)
        )
    else:
        rng = random.Random(q.atom)
        subsets = ([rng.getrandbits(C.atom_count) for _ in range(3)] for _ in range(50))
    for subset in subsets:
        if q.class_of(C.sup(subset)) != q.algebra.sup(q.class_of(c) for c in subset):
            raise InvariantViolation(
                f"the class map does not commute with the join of {len(subset)} elements"
            )


def canonical_representative(
    h: CompleteHom,
    antichain: tuple[int, ...],
    family: tuple[int, ...],
    audit_uniqueness: bool = True,
) -> int:
    """The unique c with [c] = [c_a] at every a of a maximal source antichain.

    Built as the join of i(a) ∧ c_a; uniqueness = any element agreeing on
    every class equals it, checked by perturbation when requested.
    """
    require_regular(h)
    if not h.source.is_maximal_antichain(antichain):
        raise NotMaximalAntichain("representative families index maximal antichains")
    if len(antichain) != len(family):
        raise ShapeMismatch("one family member per antichain element")
    c = 0
    for a, c_a in zip(antichain, family):
        c |= h.apply(a) & c_a
    if audit_uniqueness and h.target.atom_count <= 8:
        for a, c_a in zip(antichain, family):
            if (c ^ c_a) & h.apply(a):
                raise InvariantViolation("representative misses its class")
        for t in range(h.target.atom_count):
            other = c ^ (1 << t)
            agree = all(
                (other ^ c_a) & h.apply(a) == 0 for a, c_a in zip(antichain, family)
            )
            if agree:
                raise InvariantViolation("perturbed element also matches every class")
    return c


# -- the equivalence of two-step iterations and regular embeddings ----------------


@dataclass
class TwoStepIso:
    """An explicit isomorphism between B*(C/G-dot) and C."""

    hom: CompleteHom
    two: TwoStepAlgebra
    quotients: tuple[GenericQuotient, ...]
    to_sum: dict[int, int] = field(default_factory=dict)
    passed: bool = True
    failures: list[str] = field(default_factory=list)


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
    pres = AtomwisePresentation(B, tuple(q.algebra for q in quotients))
    two = build_two_step(pres)
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

    def check(cond: bool, msg: str) -> None:
        if not cond:
            iso.passed = False
            iso.failures.append(msg)

    # phi agrees with the per-atom class maps
    probe = list(C.elements()) if C.atom_count <= 6 else [0, C.one] + [
        (rng or random.Random(0)).getrandbits(C.atom_count) for _ in range(32)
    ]
    for c in probe:
        expected = two.element_from_family(tuple(q.class_of(c) for q in quotients))
        check(phi(c) == expected, "atom permutation disagrees with the class family")
        iso.to_sum[c] = expected

    check(
        sorted(atom_image) == [1 << k for k in range(C.atom_count)],
        "not a bijection on atoms",
    )
    for c in probe:
        check(phi(C.neg(c)) == two.algebra.neg(phi(c)), "complement moved")
        check(two.support(phi(c)) == h.project(c), "retraction does not transport")
    if C.atom_count <= 4:
        pairs = itertools.product(probe, repeat=2)
    else:
        r = rng or random.Random(1)
        atom_masks = [1 << t for t in range(C.atom_count)]
        pairs = list(itertools.product(atom_masks, repeat=2)) + [
            (r.getrandbits(C.atom_count), r.getrandbits(C.atom_count))
            for _ in range(128)
        ]
    for c, d in pairs:
        check(phi(c | d) == phi(c) | phi(d), "join moved")
    for b in B.elements():
        check(phi(h.apply(b)) == two.embedding.apply(b), "embedding does not transport")
    return iso


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
        if self.i0.then(self.j) != self.i1:
            raise NonCommuting("j ∘ i0 differs from i1")


@dataclass
class QuotientHomResult:
    hom: CompleteHom
    source_quotient: GenericQuotient
    target_quotient: GenericQuotient
    passed: bool = True
    failures: list[str] = field(default_factory=list)


def quotient_hom(t: Triangle, u: Ultrafilter) -> QuotientHomResult:
    """j/G between the quotients at a base atom, with the law audit."""
    for leg in (t.i0, t.i1, t.j):
        require_regular(leg)
    if u.algebra != t.i0.source:
        raise ShapeMismatch("ultrafilter must live on the base")
    q0 = GenericQuotient(t.i0, u.atom)
    q1 = GenericQuotient(t.i1, u.atom)
    fiber = tuple(q0.view.sub_of_atom[t.j.fiber[t_atom]] for t_atom in q1.view.atom_of_sub)
    hom = CompleteHom(q0.algebra, q1.algebra, fiber)
    result = QuotientHomResult(hom, q0, q1)

    def check(cond: bool, msg: str) -> None:
        if not cond:
            result.passed = False
            result.failures.append(msg)

    C0, C1 = t.j.source, t.j.target
    small = C1.atom_count <= 8 and C0.atom_count <= 8
    pairs = (
        itertools.product(C0.elements(), repeat=2)
        if small
        else ((random.Random(1).getrandbits(C0.atom_count),) * 2 for _ in range(64))
    )
    for c, d in pairs:
        if q0.same_class(c, d):
            check(
                q1.same_class(t.j.apply(c), t.j.apply(d)),
                "not well defined on classes",
            )
    for c in C0.elements() if small else []:
        check(
            hom.apply(q0.class_of(c)) == q1.class_of(t.j.apply(c)),
            "does not intertwine the class maps",
        )
    check(hom.regular, "quotient hom not regular")
    # retraction law: pi_{j/G}([c]) = [pi_j(c)]
    for c in C1.elements() if small else []:
        check(
            hom.project(q1.class_of(c)) == q0.class_of(t.j.project(c & q1.view.mask)),
            "retraction law fails on the quotient",
        )
    return result


# -- lifting atomwise families of embeddings ----------------------------------------


@dataclass
class LiftedEmbedding:
    hom: CompleteHom
    two0: TwoStepAlgebra
    two1: TwoStepAlgebra
    passed: bool = True
    failures: list[str] = field(default_factory=list)


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
    if not hom.regular:
        out.passed = False
        out.failures.append("lifted embedding not regular")
        return out
    tri = Triangle(two0.embedding, two1.embedding, hom)
    for a in range(base.atom_count):
        q = quotient_hom(tri, Ultrafilter(base, a))
        if not q.passed:
            out.passed = False
            out.failures.extend(f"atom {a}: {m}" for m in q.failures)
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
        if recovered != expected:
            out.passed = False
            out.failures.append(f"atom {a}: quotient action is not k_a")
    return out


# -- three-step associativity ---------------------------------------------------------


@dataclass
class ThreeStepReport:
    pairs_checked: int = 0
    passed: bool = True
    failures: list[str] = field(default_factory=list)


def three_step_assoc_audit(
    base: FiniteCBA,
    mid: AtomwisePresentation,
    top: tuple[FiniteCBA, ...],
) -> ThreeStepReport:
    """Quotienting twice along an atom pair equals quotienting once at the
    composed atom, via [[c]_G]_K -> [c]_H on every element."""
    if mid.base != base:
        raise ShapeMismatch("mid presentation must sit on the base")
    two1 = build_two_step(mid)
    if len(top) != two1.algebra.atom_count:
        raise ShapeMismatch("one top fiber per middle atom")
    pres2 = AtomwisePresentation(two1.algebra, top)
    two2 = build_two_step(pres2)
    i1, i2 = two1.embedding, two2.embedding
    i12 = i1.then(i2)
    report = ThreeStepReport()
    for u in range(base.atom_count):
        outer = GenericQuotient(i12, u)
        for d in range(mid.fibers[u].atom_count):
            mid_atom = two1.offsets[u] + d
            report.pairs_checked += 1
            once = GenericQuotient(i2, mid_atom)
            # two-step route: quotient the outer view again at the class of mid_atom
            inner_mask = i2.apply(1 << mid_atom)
            for c in (
                two2.algebra.elements()
                if two2.algebra.atom_count <= 10
                else [random.Random(u).getrandbits(two2.algebra.atom_count) for _ in range(64)]
            ):
                lhs = c & outer.view.mask & inner_mask
                rhs = c & once.view.mask
                if lhs != rhs:
                    report.passed = False
                    report.failures.append(
                        f"(G,K)=({u},{mid_atom}): classes diverge at "
                        f"{format_element(two2.algebra, c)}"
                    )
                    break
    return report
