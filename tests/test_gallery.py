import pytest

import forcebench.gallery as gallery
from forcebench.free_algebra import FREE_ONE, ChainVerdict, all_meet, generator
from forcebench.gallery import (
    build_fresh_tower,
    sup_gap_audit,
    wedge_meet_audit,
)
from forcebench.iteration import ConstantThread, coordinate


def test_tower_minimal():
    tower = build_fresh_tower(2)
    assert tower.stage_algebra(1).generators >= {"y0"}
    step = tower.system.step_at(0)
    assert step.project(generator("y0")) == FREE_ONE
    assert step.project(~generator("y0")) == FREE_ONE


def test_tower_projection_example():
    tower = build_fresh_tower(4)
    inc = tower.system.hom(0, 1)
    assert inc.project(generator("x0") & generator("y0")) == generator("x0")


def test_tower_commutation_audited():
    tower = build_fresh_tower(6)
    assert tower.system.audited_depth == 6


def test_tower_depth_guard():
    with pytest.raises(ValueError):
        build_fresh_tower(1)


def test_sup_gap_audit_depth16():
    report = sup_gap_audit(16)
    assert report.passed, {k: v for k, v in report.claims.items() if not v.passed}
    assert report.claims["first_member_projects_to_one"].passed
    assert report.claims["no_constant_below_diagonal"].certified_depth == 16


def test_sup_gap_family_values():
    tower = build_fresh_tower(5)
    report = sup_gap_audit(5, tower)
    assert report.passed
    # t_1(0) = projection of the first fresh generator = 1
    t1 = ConstantThread(1, ~generator("y0"))
    assert coordinate(tower.system, t1, 0) == FREE_ONE


def test_sup_gap_pairwise_meet_witness():
    # (n, m) = (1, 2) vanish at coordinate 2
    s1 = ~generator("y0")
    s2 = ~generator("y1") & generator("y0")
    tower = build_fresh_tower(4)
    c1 = coordinate(tower.system, ConstantThread(1, s1), 2)
    c2 = coordinate(tower.system, ConstantThread(2, s2), 2)
    assert (c1 & c2).is_zero


def test_wedge_audit_depth16():
    report = wedge_meet_audit(16)
    assert report.passed, {k: v for k, v in report.claims.items() if not v.passed}


def test_wedge_meet_value_at_3():
    report = wedge_meet_audit(4)
    assert report.passed
    # (d ∨ a) ∧ (¬d ∨ a) = a in the free algebra
    d = generator("y2")
    a3 = all_meet(generator(f"x{k}") for k in range(3))
    assert (d | a3) & (~d | a3) == a3


def test_wedge_sample_candidate_fails_at_2():
    report = wedge_meet_audit(5)
    assert report.claims["sample_lower_bound_fails_escape"].passed


def test_shared_tower_is_reusable():
    tower = build_fresh_tower(8)
    r1 = sup_gap_audit(8, tower)
    r2 = wedge_meet_audit(8, tower)
    assert r1.passed and r2.passed


def test_family_fails_stage_antichain_precondition():
    # the gap family is never an antichain at a single stage once members
    # beyond that stage enter: their projections collapse onto each other,
    # consistent with the strict inequality between the two suprema
    from forcebench.errors import NotAntichainAtStage
    from forcebench.iteration import antichain_sup_audit

    tower = build_fresh_tower(6)
    family = []
    for n in range(1, 7):
        seed = ~generator(f"y{n-1}") & all_meet(generator(f"y{k}") for k in range(n - 1))
        family.append(ConstantThread(n, seed))
    for stage in range(0, 5):
        with pytest.raises(NotAntichainAtStage):
            antichain_sup_audit(tower.system, family, stage=stage, depth=6)


# (passed, cases, witness, certified_depth) of every claim at depth 5
SUP_GAP_5 = {
    "first_member_projects_to_one": (True, 1, "", 0),
    "pairwise_incompatible": (True, 10, "", 5),
    "pointwise_sup_is_one": (True, 5, "", 5),
    "diagonal_avoids_family": (True, 5, "", 5),
    "no_constant_below_diagonal": (True, 6, "", 5),
}
WEDGE_MEET_5 = {
    "meets_are_nonzero_cylinders": (True, 5, "", 5),
    "pointwise_meet_not_a_thread": (True, 1, "pointwise meet loses coherence at (0,1)", 5),
    "lower_bounds_squeezed_under_cylinders": (True, 5, "", 5),
    "sample_lower_bound_fails_escape": (True, 1, "x0 candidate fails at chain step 2", 5),
    "zero_is_the_only_survivor": (True, 1, "", 5),
}


def _claims(report):
    return {
        name: (c.passed, c.cases, c.witness, c.certified_depth)
        for name, c in report.claims.items()
    }


@pytest.mark.parametrize(
    "audit, expected", [(sup_gap_audit, SUP_GAP_5), (wedge_meet_audit, WEDGE_MEET_5)]
)
def test_every_claim_at_depth_5_is_pinned(audit, expected):
    claims = _claims(audit(5))
    assert claims == expected
    assert list(claims) == list(expected)


def test_gap_certificate_witness_is_the_first_failing_stage(monkeypatch):
    # a planted chain test that lets every seed through: each of the six
    # stages fails, and the claim keeps the first
    monkeypatch.setattr(
        gallery, "chain_vanishing", lambda h, chain: ChainVerdict("lower_bound_zero", None, 0)
    )
    claim = sup_gap_audit(5).claims["no_constant_below_diagonal"]
    assert (claim.passed, claim.cases, claim.certified_depth) == (False, 6, 5)
    assert claim.witness == "stage-0 seed slipped through the chain"
