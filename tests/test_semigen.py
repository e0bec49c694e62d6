import random

import pytest

from forcebench.errors import LabelOutOfRange, NotInCarrier, NotMaximal, NotPredense
from forcebench.finite_cba import FiniteCBA, Restriction
from forcebench.morphisms import hom_from_fiber_map, identity_hom
from forcebench.report import INDETERMINATE
from forcebench.semigen import (
    ModelTrace,
    OrdinalName,
    disjointify,
    disjointify_sg_audit,
    gen_value,
    restriction_audit,
    semigeneric_sup_audit,
    sg_value,
    sp_identity_audit,
)

B4 = FiniteCBA(4)


def random_trace(algebra, rng, name_count=0):
    carrier = frozenset(
        x for x in algebra.elements() if rng.random() < 0.5
    ) | {algebra.one}
    antichains = []
    for _ in range(rng.randint(1, 3)):
        remaining = algebra.one
        chain = []
        while remaining:
            bits = [k for k in range(algebra.atom_count) if remaining >> k & 1]
            take = rng.randint(1, len(bits))
            part = 0
            for k in rng.sample(bits, take):
                part |= 1 << k
            chain.append(part)
            remaining &= ~part
        antichains.append(tuple(sorted(chain)))
    predense = []
    for a in antichains[: rng.randint(1, len(antichains))]:
        extras = tuple(
            x for x in algebra.nonzero_elements() if rng.random() < 0.1
        )
        predense.append(tuple(sorted(set(a) | set(extras))))
    kappa = algebra.atom_count + 2
    delta = frozenset(range(rng.randint(1, kappa - 1)))
    return ModelTrace(
        algebra,
        carrier,
        designated_predense=tuple(predense),
        designated_antichains=tuple(antichains),
        kappa=kappa,
        delta=delta,
    )


def test_sg_empty_designation_is_one():
    t = ModelTrace(B4, frozenset(B4.elements()))
    assert sg_value(t) == B4.one
    assert gen_value(t) == B4.one


def test_sg_single_antichain_partial_carrier():
    t = ModelTrace(
        B4,
        frozenset({0b0011, B4.one}),
        designated_predense=((0b0011, 0b1100),),
    )
    assert sg_value(t) == 0b0011


def test_sg_full_carrier_is_one():
    t = ModelTrace(
        B4,
        frozenset(B4.elements()),
        designated_predense=((0b0011, 0b1100), (0b0101, 0b1010)),
    )
    assert sg_value(t) == B4.one


def test_gen_missing_atom():
    atoms = (0b0001, 0b0010, 0b0100, 0b1000)
    t = ModelTrace(
        B4,
        frozenset(x for x in B4.elements() if x != 0b0100),
        designated_antichains=(atoms,),
    )
    assert gen_value(t) == B4.neg(0b0100)


def test_gen_leq_sg_when_antichains_refine():
    rng = random.Random(1)
    for _ in range(60):
        algebra = FiniteCBA(rng.randint(2, 5))
        trace = random_trace(algebra, rng)
        refined = ModelTrace(
            algebra,
            trace.carrier,
            designated_predense=trace.designated_predense,
            designated_antichains=trace.designated_antichains
            + tuple(disjointify(algebra, d) for d in trace.designated_predense),
            kappa=trace.kappa,
            delta=trace.delta,
        )
        if all(
            set(disjointify(algebra, d)) <= trace.carrier
            or True
            for d in trace.designated_predense
        ):
            # gen over the refined designation never exceeds sg over predense
            ok_side = gen_value(refined)
            # the bound needs the carrier to see the disjointification terms
            closed = all(
                set(disjointify(algebra, d)) <= trace.carrier
                and set(d) <= trace.carrier
                for d in trace.designated_predense
            )
            if closed:
                assert algebra.leq(ok_side, sg_value(trace))


def test_sg_antitone_in_designations():
    rng = random.Random(2)
    for _ in range(40):
        algebra = FiniteCBA(rng.randint(2, 5))
        trace = random_trace(algebra, rng)
        smaller = ModelTrace(
            algebra,
            trace.carrier,
            designated_predense=trace.designated_predense[:1],
            kappa=trace.kappa,
            delta=trace.delta,
        )
        assert algebra.leq(sg_value(trace), sg_value(smaller))


def test_disjointify_examples():
    b = FiniteCBA(2)
    assert disjointify(b, (b.one, 0b01)) == (b.one,)
    assert disjointify(b, (0b01, 0b10)) == (0b01, 0b10)
    b3 = FiniteCBA(3)
    assert disjointify(b3, (0b011, 0b110, 0b100)) == (0b011, 0b100)


def test_disjointify_termwise_below_and_maximal():
    rng = random.Random(3)
    for _ in range(100):
        algebra = FiniteCBA(rng.randint(1, 6))
        cover = []
        while not algebra.is_predense(cover):
            cover.append(rng.randint(1, algebra.one))
        ordered = tuple(cover)
        a = disjointify(algebra, ordered)
        assert algebra.is_maximal_antichain(a)
        k = 0
        for term in a:
            while not algebra.leq(term, ordered[k]):
                k += 1
            k += 1


def test_disjointify_rejects_non_predense():
    with pytest.raises(NotPredense):
        disjointify(B4, (0b0011,))


def test_disjointify_sg_audit_closed_trace():
    carrier = frozenset(B4.elements())
    t = ModelTrace(
        B4,
        carrier,
        designated_predense=((0b0011, 0b1110, 0b1000),),
    )
    report = disjointify_sg_audit(t)
    assert report.closure_ok and report.equal


def test_disjointify_sg_audit_reports_gap():
    t = ModelTrace(
        B4,
        frozenset({0b0011, 0b1110, B4.one}),
        designated_predense=((0b0011, 0b1110),),
    )
    report = disjointify_sg_audit(t)
    assert not report.closure_ok
    assert report.gaps
    assert B4.leq(report.sg_from_antichains, report.sg_from_predense)
    # the disjointification (0011, 1100) meets the carrier only in 0011
    assert (report.sg_from_predense, report.sg_from_antichains) == (0b1111, 0b0011)


def test_trace_validation():
    with pytest.raises(NotPredense):
        ModelTrace(B4, frozenset(), designated_predense=((0b0011,),))
    with pytest.raises(NotMaximal):
        ModelTrace(B4, frozenset(), designated_antichains=((0b0011,),))
    with pytest.raises(ValueError):
        ModelTrace(B4, frozenset(), kappa=3, delta=frozenset({0, 2}))


def test_restriction_identity_trivial():
    carrier = frozenset(B4.elements())
    t = ModelTrace(B4, carrier, designated_predense=((0b0011, 0b1100),))
    report = restriction_audit(t, B4.one)
    assert report.equal and report.upward_ok


def test_restriction_b4_example():
    t = ModelTrace(
        B4,
        frozenset({0b0011, 0b0101, B4.one}),
        designated_predense=((0b0011, 0b1100),),
        designated_antichains=((0b0011, 0b1100),),
    )
    report = restriction_audit(t, 0b0101)
    assert report.equal
    # both sides are the class of {0}
    assert report.lhs == Restriction(B4, 0b0101).algebra.one & report.lhs
    view_atoms = (0, 2)
    assert report.lhs == 0b01  # atom 0 of the restriction = parent atom 0


def test_restriction_random_traces():
    rng = random.Random(7)
    for _ in range(100):
        algebra = FiniteCBA(rng.randint(2, 6))
        trace = random_trace(algebra, rng)
        b = rng.choice(sorted(trace.carrier - {0}))
        report = restriction_audit(trace, b)
        assert report.equal, (algebra.atom_count, b)
        assert report.upward_ok


def test_restriction_requires_carrier_membership():
    t = ModelTrace(B4, frozenset({B4.one}))
    with pytest.raises(NotInCarrier):
        restriction_audit(t, 0b0011)


def test_sup_characterization_kappa_one():
    b = FiniteCBA(2)
    t = ModelTrace(
        b,
        frozenset(b.elements()),
        designated_antichains=((0b01, 0b10),),
        kappa=1,
        delta=frozenset({0}),
    )
    report = semigeneric_sup_audit(t)
    assert report.equal
    assert report.from_antichains == b.one
    assert report.semigeneric_count == len(list(b.elements()))


def test_sup_characterization_b4_two_fibers():
    # one name labeling the two halves 0,0,1,1 with delta = {0}
    name = OrdinalName(B4, (0b0001, 0b0010, 0b0100, 0b1000), (0, 0, 1, 1))
    t = ModelTrace(
        B4,
        frozenset({0b0011, B4.one}),
        designated_antichains=(),
        kappa=2,
        delta=frozenset({0}),
        ordinal_names=(name,),
    )
    report = semigeneric_sup_audit(t)
    assert report.equal
    assert report.from_antichains == 0b0011


def test_sup_characterization_random_traces():
    rng = random.Random(17)
    for _ in range(200):
        algebra = FiniteCBA(rng.randint(2, 6))
        trace = random_trace(algebra, rng)
        report = semigeneric_sup_audit(trace)
        assert report.equal
        assert report.sg_is_semigeneric


def test_sup_characterization_label_overflow():
    # strangers need a label outside delta; kappa = 1 leaves none
    t = ModelTrace(
        B4,
        frozenset({B4.one}),
        designated_antichains=((0b0001, 0b0010, 0b0100, 0b1000),),
        kappa=1,
        delta=frozenset({0}),
    )
    with pytest.raises(LabelOutOfRange):
        semigeneric_sup_audit(t)


def test_sp_identity_identity_hom():
    carrier = frozenset(B4.elements())
    t = ModelTrace(B4, carrier, designated_predense=((0b0011, 0b1100),))
    report = sp_identity_audit(identity_hom(B4), t, t)
    assert report.claims["sp_identity"].passed


def test_sp_identity_doubling_with_image_antichains():
    h = hom_from_fiber_map(FiniteCBA(2), B4, [0, 0, 1, 1])
    tb = ModelTrace(
        FiniteCBA(2),
        frozenset(FiniteCBA(2).elements()),
        designated_predense=((0b01, 0b10),),
    )
    tc = ModelTrace(
        B4,
        frozenset(B4.elements()),
        designated_predense=((0b0011, 0b1100),),
    )
    report = sp_identity_audit(h, tb, tc)
    assert report.claims["sp_identity"].passed and report.claims["sp_positivity"].passed


def test_sp_identity_negative_control():
    # an antichain entirely outside the carrier forces sg = 0
    h = identity_hom(B4)
    dead = ModelTrace(
        B4,
        frozenset({B4.one}),
        designated_predense=((0b0001, 0b0010, 0b0100, 0b1000),),
    )
    report = sp_identity_audit(h, dead, dead)
    assert sg_value(dead) == 0
    assert not report.claims["sp_positivity"].passed


def test_sp_identity_on_a_zero_source_carrier_is_indeterminate():
    # no nonzero source element: the positivity clause is checked on 0 cases
    h = identity_hom(B4)
    zero = ModelTrace(B4, frozenset({0}))
    report = sp_identity_audit(h, zero, ModelTrace(B4, frozenset(B4.elements())))
    assert report.claims["sp_identity"].cases == 16
    assert report.claims["sp_positivity"].cases == 0
    assert report.verdict == INDETERMINATE and not report.passed


def test_semigenericity_claims_count_their_cases():
    t = ModelTrace(
        B4,
        frozenset(B4.elements()),
        designated_predense=((0b0011, 0b1100),),
        designated_antichains=((0b0011, 0b1100), (0b0001, 0b1110)),
        kappa=2,
    )
    sup = semigeneric_sup_audit(t)
    assert sup.names_audited == 2 and sup.passed
    assert {c.cases for c in sup.claims.values()} == {2}
    rr = restriction_audit(t, 0b0011)
    assert rr.claims["upward_completion"].cases == 2 and rr.passed
    bare = ModelTrace(B4, t.carrier, designated_predense=t.designated_predense)
    assert semigeneric_sup_audit(bare).verdict == INDETERMINATE
    assert restriction_audit(bare, 0b0011).verdict == INDETERMINATE
