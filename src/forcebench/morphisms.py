"""Complete homomorphisms between finite algebras and their retractions.

A homomorphism is carried by a fiber map on atoms of the target: the
embedding is preimage, the retraction is direct image, and every law of the
retraction calculus reduces to an exact image/preimage identity.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .errors import ArityMismatch, NotRegular, ZeroRestriction
from .finite_cba import (
    FiniteCBA,
    Restriction,
    atom_map,
    basic_open,
    format_element,
    ultrafilters,
)
from .free_algebra import FreeAlgebra, FreeElement, free_project


@dataclass(frozen=True)
class CompleteHom:
    """i: source -> target carried by fiber: atoms(target) -> atoms(source)."""

    source: FiniteCBA
    target: FiniteCBA
    fiber: tuple[int, ...]
    _atom_image: tuple[int, ...] = field(init=False, repr=False, compare=False)
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
        object.__setattr__(self, "_atom_image", tuple(table))
        object.__setattr__(self, "_apply", atom_map(table))
        object.__setattr__(self, "_project", atom_map([1 << s for s in self.fiber]))

    @property
    def regular(self) -> bool:
        """Injective (the fiber map is surjective)."""
        return all(m != 0 for m in self._atom_image)

    def apply(self, b: int) -> int:
        """i(b): preimage of b under the fiber map."""
        return self._apply(b)

    def project(self, c: int) -> int:
        """pi(c): direct image of c under the fiber map."""
        return self._project(c)

    def then(self, other: "CompleteHom") -> "CompleteHom":
        """Composite source -> other.target (self first, then other)."""
        if other.source != self.target:
            raise ArityMismatch("composition shape mismatch")
        return CompleteHom(
            self.source, other.target, tuple(self.fiber[s] for s in other.fiber)
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CompleteHom)
            and self.source == other.source
            and self.target == other.target
            and self.fiber == other.fiber
        )

    def __hash__(self) -> int:
        return hash((self.source, self.target, self.fiber))


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
    return tuple(h._atom_image[s] for s in range(h.source.atom_count))


# -- free-algebra inclusions ---------------------------------------------------


@dataclass(frozen=True)
class FreeInclusion:
    """Inclusion of free algebras on G into G'; retraction is projection over G'-G."""

    source: FreeAlgebra
    target: FreeAlgebra

    def __post_init__(self) -> None:
        if not self.source.generators <= self.target.generators:
            raise ArityMismatch("source generators must be contained in target generators")

    @property
    def fresh(self) -> frozenset[str]:
        return self.target.generators - self.source.generators

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
        return free_project(e, self.fresh)

    def then(self, other: "FreeInclusion") -> "FreeInclusion":
        if other.source != self.target:
            raise ArityMismatch("composition shape mismatch")
        return FreeInclusion(self.source, other.target)


# -- audits --------------------------------------------------------------------


@dataclass
class EmbeddingAuditReport:
    """Per-law verdicts with counterexample witnesses for failures."""

    laws: dict[str, bool] = field(default_factory=dict)
    witnesses: dict[str, str] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(self.laws.values())

    def record(self, law: str, ok: bool, witness: str = "") -> None:
        self.laws[law] = self.laws.get(law, True) and ok
        if not ok and law not in self.witnesses:
            self.witnesses[law] = witness

    def failures(self) -> list[str]:
        return [k for k, v in self.laws.items() if not v]


def retraction_laws_audit(
    h: CompleteHom,
    exhaustive: bool = True,
    rng: random.Random | None = None,
    samples: int = 200,
) -> EmbeddingAuditReport:
    """Audit the full retraction calculus on h.

    Regular h: the section law, the expansion law, join preservation, the
    recovery of i from pi, the translation law pi(c ∧ i(b)) = pi(c) ∧ b with
    both of its forms, the sub-meet and super-complement inequalities, the
    constructed meet-preservation counterexample when i is not surjective,
    predense transfer both ways, the generic-preimage law, the Stone dual
    image of basic opens, and filter transport.

    Non-regular h: the generic-preimage law runs on h itself; everything
    else runs on the restriction of h to its cokernel.
    """
    report = EmbeddingAuditReport()
    if not h.regular:
        core, _ = restrict_to_coker(h)
        report.notes.append("non-regular input: laws audited on the cokernel restriction")
        _generic_preimage_into_report(h, report)
        sub = retraction_laws_audit(core, exhaustive, rng, samples)
        for law, ok in sub.laws.items():
            report.record("coker." + law, ok, sub.witnesses.get(law, ""))
        return report

    B, C = h.source, h.target
    small_pairs = exhaustive and C.atom_count <= 6
    tiny = exhaustive and C.atom_count <= 4  # cubic-space checks stay here
    project, apply = h.project, h.apply

    ok_retract = ok_expand = ok_meet = ok_form = True
    witness = {}
    if small_pairs:
        proj = [project(c) for c in range(C.one + 1)]
        c_all = range(C.one + 1)
    else:
        r = rng or random.Random(1)
        c_all = [r.getrandbits(C.atom_count) for _ in range(samples)]
        proj = {c: project(c) for c in c_all}
    b_all = (
        list(B.elements())
        if exhaustive
        else [(rng or random.Random(0)).getrandbits(B.atom_count) for _ in range(samples)]
    )
    for b in b_all:
        ib = apply(b)
        if project(ib) != b:
            ok_retract = False
            witness.setdefault("retract_section", f"b={format_element(B, b)}")
        for c in c_all:
            pc = proj[c]
            if project(c & ib) != pc & b:
                ok_meet = False
                witness.setdefault(
                    "meet_translation",
                    f"b={format_element(B, b)} c={format_element(C, c)}",
                )
            if tiny:
                best = B.sup(
                    proj[e]
                    for e in range(C.one + 1)
                    if e & ~c == 0 and proj[e] & ~b == 0
                )
                if best != pc & b:
                    ok_form = False
    ok_positive = True
    for c in c_all:
        if c & ~apply(proj[c]):
            ok_expand = False
            witness.setdefault("expand_dominates", f"c={format_element(C, c)}")
        if c != 0 and proj[c] == 0:
            ok_positive = False
            witness.setdefault("positive_to_positive", f"c={format_element(C, c)}")
    report.record("retract_section", ok_retract, witness.get("retract_section", ""))
    report.record("expand_dominates", ok_expand, witness.get("expand_dominates", ""))
    report.record(
        "positive_to_positive", ok_positive, witness.get("positive_to_positive", "")
    )
    report.record("meet_translation", ok_meet, witness.get("meet_translation", ""))
    if tiny:
        report.record("meet_translation_join_form", ok_form)

    # binary joins + empty join decide join preservation for finite algebras
    ok_join = ok_sub = ok_super = True
    if small_pairs:
        one = C.one
        for c in c_all:
            pc = proj[c]
            nc_ok = B.neg(pc) & ~proj[one ^ c] == 0
            if not nc_ok:
                ok_super = False
                witness.setdefault("super_complement_inequality", f"c={format_element(C, c)}")
            for d in c_all:
                pd = proj[d]
                if proj[c | d] != pc | pd:
                    ok_join = False
                    witness.setdefault(
                        "join_preserving",
                        f"c={format_element(C, c)} d={format_element(C, d)}",
                    )
                if proj[c & d] & ~(pc & pd):
                    ok_sub = False
                    witness.setdefault(
                        "sub_meet_inequality",
                        f"c={format_element(C, c)} d={format_element(C, d)}",
                    )
    else:
        for c in c_all:
            for d in c_all[:16]:
                pc, pd = proj[c], proj[d]
                if project(c | d) != pc | pd:
                    ok_join = False
                if project(c & d) & ~(pc & pd):
                    ok_sub = False
            if B.neg(proj[c]) & ~project(C.neg(c)):
                ok_super = False
    report.record("join_preserving", ok_join, witness.get("join_preserving", ""))
    report.record("sub_meet_inequality", ok_sub, witness.get("sub_meet_inequality", ""))
    report.record(
        "super_complement_inequality",
        ok_super,
        witness.get("super_complement_inequality", ""),
    )
    report.record("join_preserving_empty", h.project(0) == 0)

    # i recovered from pi: i(b) = join of everything projecting inside b;
    # atoms generate, so the atom scan decides the identity above tiny sizes
    if small_pairs:
        for b in B.elements():
            glued = C.sup(e for e in c_all if proj[e] & ~b == 0)
            ok = glued == h.apply(b)
            report.record(
                "embedding_from_retraction", ok, "" if ok else f"b={format_element(B, b)}"
            )
    else:
        r = rng or random.Random(2)
        for _ in range(samples):
            b = r.getrandbits(B.atom_count)
            glued = C.sup(
                1 << t for t in range(C.atom_count) if B.leq(h.project(1 << t), b)
            )
            report.record("embedding_from_retraction", glued == h.apply(b))

    # meet preservation fails exactly off the image; witness is constructed
    surjective = all(m.bit_count() == 1 for m in h._atom_image)
    if surjective:
        report.record("meet_counterexample", True)
        report.notes.append("surjective embedding: no meet counterexample exists")
    else:
        t0 = next(
            t
            for t in range(C.atom_count)
            if h._atom_image[h.fiber[t]].bit_count() >= 2
        )
        c = 1 << t0
        d = h.apply(h.project(c)) & C.neg(c)
        ok = (
            d != 0
            and h.project(d & c) == 0
            and h.project(d) & h.project(c) != 0
        )
        report.record(
            "meet_counterexample",
            ok,
            "" if ok else f"c={format_element(C, c)} d={format_element(C, d)}",
        )

    _predense_transfer_into_report(h, report, exhaustive, rng, samples)
    _generic_preimage_into_report(h, report)

    # Stone dual: the image of a basic open is the basic open of the projection
    for c in C.elements() if small_pairs else (1 << t for t in range(C.atom_count)):
        mapped = frozenset(h.fiber[t] for t in basic_open(C, c))
        ok = mapped == basic_open(B, h.project(c))
        report.record("stone_open_image", ok, "" if ok else f"c={format_element(C, c)}")

    # pi transports principal filters to principal filters, generics to generics
    if tiny:
        for c in C.nonzero_elements():
            image = {h.project(d) for d in C.elements() if C.leq(c, d)}
            up = {b for b in B.elements() if B.leq(h.project(c), b)}
            ok = image == up
            report.record(
                "filters_to_filters", ok, "" if ok else f"c={format_element(C, c)}"
            )
    else:
        for t in range(min(C.atom_count, 8)):
            c = 1 << t
            up = {b for b in B.elements() if B.leq(h.project(c), b)} if B.atom_count <= 6 else None
            if up is not None:
                image = {h.project(c | extra) for extra in (0, c, C.one)}
                report.record("filters_to_filters", image <= up)
    for t in range(C.atom_count):
        ok = h.project(1 << t) == 1 << h.fiber[t]
        report.record("generics_to_generics", ok, "" if ok else f"atom {t}")

    return report


def _predense_transfer_into_report(
    h: CompleteHom,
    report: EmbeddingAuditReport,
    exhaustive: bool,
    rng: random.Random | None,
    samples: int,
) -> None:
    B, C = h.source, h.target
    if exhaustive and B.atom_count <= 4:
        source_sets = [
            frozenset(xs)
            for r in range(1, B.one + 2)
            for xs in itertools.combinations(range(1, B.one + 1), r)
            if B.is_predense(xs)
        ] if B.atom_count <= 3 else None
    else:
        source_sets = None
    if source_sets is None:
        r = rng or random.Random(3)
        source_sets = []
        for _ in range(min(samples, 50)):
            xs = frozenset(r.getrandbits(B.atom_count) for _ in range(3)) | {B.one}
            source_sets.append(frozenset(x for x in xs if x))
    for D in source_sets:
        ok = C.is_predense(h.apply(b) for b in D)
        report.record(
            "predense_forward",
            ok,
            "" if ok else f"D={{{','.join(format_element(B, x) for x in sorted(D))}}}",
        )
    r = rng or random.Random(4)
    target_sets = [frozenset({C.one})]
    for _ in range(min(samples, 50)):
        xs = {r.getrandbits(C.atom_count) for _ in range(4)}
        xs.add(C.neg(C.sup(x for x in xs)))  # force the join up to 1
        xs.discard(0)
        if C.is_predense(xs):
            target_sets.append(frozenset(xs))
    for E in target_sets:
        ok = B.is_predense(h.project(c) for c in E)
        report.record("predense_backward", ok, "" if ok else f"|E|={len(E)}")


def _generic_preimage_into_report(
    h: CompleteHom, report: EmbeddingAuditReport, samples: int = 32
) -> None:
    B = h.source
    if B.atom_count <= 4 and h.target.atom_count <= 8:
        bs = list(B.elements())
    else:
        r = random.Random(5)
        bs = list({r.getrandbits(B.atom_count) for _ in range(samples)} | {0, B.one})
    for u in ultrafilters(h.target):
        expected_atom = h.fiber[u.atom]
        ok = all(
            (h.apply(b) >> u.atom & 1) == (b >> expected_atom & 1) for b in bs
        )
        report.record("generic_preimage", ok, "" if ok else f"target atom {u.atom}")


# -- raw element maps: the join-completeness / genericity equivalence -----------


@dataclass(frozen=True)
class ElementMap:
    """An arbitrary table map between small algebras (not assumed a hom)."""

    source: FiniteCBA
    target: FiniteCBA
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.table) != self.source.one + 1:
            raise ArityMismatch("table must cover every source element")

    def apply(self, b: int) -> int:
        return self.table[b]


@dataclass
class GenericPreimageReport:
    join_complete: bool
    all_preimages_generic: bool
    violating_join: tuple[int, ...] | None = None
    violating_ultrafilter: int | None = None

    @property
    def equivalence_holds(self) -> bool:
        return self.join_complete == self.all_preimages_generic


def generic_preimage_equivalence(m: "ElementMap | CompleteHom") -> GenericPreimageReport:
    """Join-completeness against genericity of ultrafilter preimages.

    When a join failure exists the violating ultrafilter is constructed from
    the difference element, never searched: it contains i(sup A) but no i(a).
    """
    B, C = m.source, m.target
    subsets = list(itertools.chain.from_iterable(
        itertools.combinations(range(B.one + 1), r) for r in range(0, min(B.one + 1, 4) + 1)
    ))
    failure = None
    for A in subsets:
        if m.apply(B.sup(A)) != C.sup(m.apply(a) for a in A):
            failure = A
            break
    join_complete = failure is None

    def preimage_generic(atom: int) -> bool:
        # finite ultrafilters are exactly the principal filters at atoms
        pulled = {b for b in B.elements() if m.apply(b) >> atom & 1}
        return any(
            pulled == {b for b in B.elements() if b >> k & 1}
            for k in range(B.atom_count)
        )

    all_generic = all(preimage_generic(t) for t in range(C.atom_count))
    report = GenericPreimageReport(join_complete, all_generic)
    if failure is not None:
        A = failure
        # a hom can only overshoot, a raw table may also undershoot; either
        # way an atom of the symmetric difference carries a violating filter
        d = m.apply(B.sup(A)) ^ C.sup(m.apply(a) for a in A)
        report.violating_join = tuple(A)
        report.violating_ultrafilter = d.bit_length() - 1
    return report
