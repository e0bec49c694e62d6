"""Semigenericity and genericity degrees over explicit model traces.

A model trace is the finite surrogate for a countable elementary submodel:
a carrier of elements plus explicitly designated predense families, maximal
antichains, and ordinal names, with a finite downward-closed ordinal part
standing in for the intersection with the first uncountable cardinal.
Elementarity has no finite analogue, so every use of it in the audited
propositions becomes an explicit, reported closure condition.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    InvariantViolation,
    LabelOutOfRange,
    NotInCarrier,
    NotMaximal,
    NotPredense,
)
from .finite_cba import FiniteCBA, Restriction, format_element
from .morphisms import CompleteHom, require_regular
from .report import Ledger, claim_passed


@dataclass(frozen=True)
class OrdinalName:
    """A name for an ordinal below kappa: a maximal antichain with labels."""

    algebra: FiniteCBA
    antichain: tuple[int, ...]
    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.algebra.is_maximal_antichain(self.antichain):
            raise NotMaximal("ordinal names sit on maximal antichains")
        if len(self.labels) != len(self.antichain):
            raise LabelOutOfRange("labels must be total on the antichain")

    def below_value(self, delta: frozenset[int]) -> int:
        """The boolean value of "this ordinal is in delta"."""
        return self.algebra.sup(
            a for a, lab in zip(self.antichain, self.labels) if lab in delta
        )


@dataclass(frozen=True)
class ModelTrace:
    algebra: FiniteCBA
    carrier: frozenset[int]
    designated_predense: tuple[tuple[int, ...], ...] = ()
    designated_antichains: tuple[tuple[int, ...], ...] = ()
    kappa: int = 1
    delta: frozenset[int] = frozenset({0})
    ordinal_names: tuple[OrdinalName, ...] = ()

    def __post_init__(self) -> None:
        for c in self.carrier:
            if not self.algebra.contains(c):
                raise ValueError("carrier element outside the algebra")
        for k, d in enumerate(self.designated_predense):
            if not self.algebra.is_predense(d):
                raise NotPredense(f"designated predense set {k} has join < 1")
        for k, a in enumerate(self.designated_antichains):
            if not self.algebra.is_maximal_antichain(a):
                raise NotMaximal(f"designated antichain {k} is not maximal")
        for d in self.delta:
            if not 0 <= d < self.kappa:
                raise LabelOutOfRange("delta must sit below kappa")
        if self.delta and max(self.delta) + 1 != len(self.delta):
            raise ValueError("delta must be downward closed")
        for n in self.ordinal_names:
            if n.algebra != self.algebra:
                raise ValueError("ordinal name over a different algebra")
            if any(lab >= self.kappa for lab in n.labels):
                raise LabelOutOfRange("ordinal-name label above kappa")


def _degree(alg: FiniteCBA, carrier: frozenset[int], families) -> int:
    """The meet over ``families`` of the join of each one's carrier part; 1 when none."""
    return alg.inf(alg.sup(x for x in f if x in carrier) for f in families)


def sg_value(trace: ModelTrace) -> int:
    """Degree of semigenericity: meet over designated predense sets of the
    join of their carrier part.  Empty designation yields 1."""
    return _degree(trace.algebra, trace.carrier, trace.designated_predense)


def gen_value(trace: ModelTrace) -> int:
    """Degree of genericity: the same meet over designated maximal antichains."""
    return _degree(trace.algebra, trace.carrier, trace.designated_antichains)


def disjointify(algebra: FiniteCBA, ordered: tuple[int, ...]) -> tuple[int, ...]:
    """Subtract earlier members from each element; prune zeros.

    The result is a maximal antichain below the input, termwise.
    """
    if algebra.sup(ordered) != algebra.one:
        raise NotPredense("disjointification needs a predense input")
    out = []
    seen = 0
    for b in ordered:
        a = b & ~seen
        seen |= b
        if a:
            out.append(a)
    result = tuple(out)
    if not algebra.is_maximal_antichain(result):
        raise InvariantViolation("disjointification is not a maximal antichain")
    return result


@dataclass
class DisjointifyReport(Ledger):
    """The degree equality on a closed carrier, else the bound noting the gaps."""

    gaps: list[str] = field(default_factory=list)
    sg_from_predense: int = 0
    sg_from_antichains: int = 0

    closure_ok = property(lambda self: not self.gaps)
    equal = property(lambda self: self.passed)


def disjointify_sg_audit(trace: ModelTrace) -> DisjointifyReport:
    """sg from predense designations against sg from their disjointifications.

    Exact equality is asserted when the carrier contains every input and
    every constructed term (the stand-in for elementarity); otherwise the
    closure gaps are reported and only the one-sided bound is claimed.
    """
    alg = trace.algebra
    report = DisjointifyReport()
    antichains = []
    for k, d in enumerate(trace.designated_predense):
        ordered = tuple(sorted(d))
        a_d = disjointify(alg, ordered)
        antichains.append(a_d)
        if not set(ordered) <= trace.carrier:
            report.gaps.append(f"predense set {k} leaves the carrier")
        if not set(a_d) <= trace.carrier:
            report.gaps.append(f"disjointification of set {k} leaves the carrier")
    report.sg_from_predense = sg_value(trace)
    report.sg_from_antichains = _degree(alg, trace.carrier, antichains)
    cases = len(trace.designated_predense)  # one per disjointified set
    if report.closure_ok:
        ok = report.sg_from_predense == report.sg_from_antichains
        report.record("disjointification_degree", ok, cases=cases)
    else:
        ok = alg.leq(report.sg_from_antichains, report.sg_from_predense)
        report.record("disjointification_lower_bound", ok, "; ".join(report.gaps), cases)
    return report


@dataclass
class RestrictionReport(Ledger):
    """Claims ``restriction_law`` and ``upward_completion`` (one case per antichain)."""

    lhs: int  # sg of the restricted trace (transported membership)
    rhs: int  # sg(trace) ∧ b, re-expressed inside the restriction

    equal = claim_passed("restriction_law")
    upward_ok = claim_passed("upward_completion")


def restriction_audit(trace: ModelTrace, b: int) -> RestrictionReport:
    """The restriction law: sg below b equals sg meet b.

    Downward the designations map along A -> A ∧ b with membership
    transported (a ∧ b counts as in the restricted carrier exactly when a was
    in the carrier); upward each restricted antichain is completed by ¬b.
    Both transformations are exercised.
    """
    alg = trace.algebra
    if b == 0 or b not in trace.carrier:
        raise NotInCarrier("restriction element must be a nonzero carrier member")
    view = Restriction(alg, b)

    # transported-membership sg of the restricted trace
    lhs = view.algebra.one
    for d in trace.designated_predense:
        lhs &= view.algebra.sup(view.to_sub(x & b) for x in d if x in trace.carrier)
    report = RestrictionReport(lhs, view.to_sub(sg_value(trace) & b))
    witness = f"fails below element {b}"
    ok = report.lhs == report.rhs
    report.record("restriction_law", ok, "" if ok else witness)

    # upward: a restricted maximal antichain plus ¬b is maximal above
    antichains_r = tuple(
        tuple(sorted({view.to_sub(x & b) for x in a} - {0}))
        for a in trace.designated_antichains
    )
    report.record("upward_completion", True, cases=0)
    for a_r in antichains_r:
        lifted = tuple(view.from_sub(x) for x in a_r)
        completed = lifted + ((alg.neg(b),) if alg.neg(b) != 0 else ())
        ok = alg.is_maximal_antichain(completed)
        report.record("upward_completion", ok, "" if ok else witness)
    return report


@dataclass
class SupCharacterizationReport(Ledger):
    """Claims ``sup_characterization`` and ``sg_is_semigeneric``, one case per name."""

    from_antichains: int
    from_names: int
    semigeneric_count: int
    names_audited: int

    equal = claim_passed("sup_characterization")
    sg_is_semigeneric = claim_passed("sg_is_semigeneric")


def semigeneric_sup_audit(trace: ModelTrace) -> SupCharacterizationReport:
    """The finitized supremum characterization of the semigenericity degree.

    Both correspondence directions are constructed: each designated antichain
    becomes an ordinal name whose carrier members are labeled inside delta,
    and each supplied ordinal name contributes its antichain with membership
    read off the labels.  The degree computed from antichains then equals the
    join of all the conditions forcing every designated ordinal below delta,
    scanned exhaustively, and is itself such a condition.
    """
    alg = trace.algebra
    names: list[tuple[OrdinalName, int]] = []  # (name, carrier-part value)

    inside = sorted(trace.delta)
    outside = [k for k in range(trace.kappa) if k not in trace.delta]
    for a in trace.designated_antichains:
        members = [x for x in a if x in trace.carrier]
        strangers = [x for x in a if x not in trace.carrier]
        if members and not inside:
            raise LabelOutOfRange("delta is empty but the antichain meets the carrier")
        if strangers and not outside:
            raise LabelOutOfRange("kappa leaves no labels outside delta")
        # enumeration labels, reusing the last one when the ordinal part is short
        labels = {}
        for i, x in enumerate(members):
            labels[x] = inside[min(i, len(inside) - 1)]
        for i, x in enumerate(strangers):
            labels[x] = outside[min(i, len(outside) - 1)]
        ordered = tuple(sorted(a))
        name = OrdinalName(alg, ordered, tuple(labels[x] for x in ordered))
        names.append((name, alg.sup(members)))
    for name in trace.ordinal_names:
        members_value = name.below_value(trace.delta)
        names.append((name, members_value))

    from_antichains = alg.inf(value for _, value in names)
    below_all = [
        q
        for q in alg.elements()
        if all(alg.leq(q, name.below_value(trace.delta)) for name, _ in names)
    ]
    from_names = alg.sup(below_all)
    report = SupCharacterizationReport(from_antichains, from_names, len(below_all), len(names))
    report.record("sup_characterization", from_antichains == from_names, cases=len(names))
    semigeneric = all(
        alg.leq(from_antichains, name.below_value(trace.delta)) for name, _ in names
    )
    report.record("sg_is_semigeneric", semigeneric, cases=len(names))
    return report


def sp_identity_audit(
    h: CompleteHom, trace_source: ModelTrace, trace_target: ModelTrace
) -> Ledger:
    """The defining identity of semiproper embeddings, on explicit traces.

    ``sp_identity``, per target carrier element: the retraction of (c meet
    the target degree) equals (the retraction of c) meet the source degree.
    ``sp_positivity``, per nonzero source carrier element: it meets the source
    degree.  A per-trace predicate only; no club quantifier at this scale.
    """
    require_regular(h)
    if trace_source.algebra != h.source or trace_target.algebra != h.target:
        raise ValueError("traces must sit on the embedding's two algebras")
    report = Ledger()
    report.record("sp_identity", True, cases=0)
    report.record("sp_positivity", True, cases=0)
    sg_b = sg_value(trace_source)
    sg_c = sg_value(trace_target)
    for c in sorted(trace_target.carrier):
        ok = h.project(c & sg_c) == (h.project(c) & sg_b)
        report.record("sp_identity", ok, "" if ok else format_element(h.target, c))
    for b in sorted(trace_source.carrier):
        if b != 0:
            ok = (b & sg_b) != 0
            report.record("sp_positivity", ok, "" if ok else format_element(h.source, b))
    return report
