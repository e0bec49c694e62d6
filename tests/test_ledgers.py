"""Every public law audit returns the one evidence type, ``report.Ledger``."""
import random

import pytest

from forcebench.bvm import (
    delta1_audit,
    forcing_audit,
    standard_formula_pool,
    standard_name_pool,
)
from forcebench.finite_cba import FiniteCBA, Ultrafilter
from forcebench.gallery import sup_gap_audit, wedge_meet_audit
from forcebench.iteration import (
    ConstantThread,
    antichain_sup_audit,
    build_system,
    cofinal_reindex_audit,
    direct_limit_correspondence_audit,
)
from forcebench.morphisms import hom_from_fiber_map, identity_hom, retraction_laws_audit
from forcebench.report import Ledger
from forcebench.semigen import (
    ModelTrace,
    disjointify_sg_audit,
    restriction_audit,
    semigeneric_sup_audit,
    sp_identity_audit,
)
from forcebench.two_step import (
    AtomwisePresentation,
    Triangle,
    lift_embedding_name,
    quotient_hom,
    three_step_assoc_audit,
    two_step_iso_audit,
)

B1, B2, B4 = FiniteCBA(1), FiniteCBA(2), FiniteCBA(4)
DOUBLING = hom_from_fiber_map(B2, B4, [0, 0, 1, 1])


def _system():
    return build_system([B1, B2], [hom_from_fiber_map(B1, B2, [0, 0])])


def _trace():
    return ModelTrace(
        B2,
        frozenset(B2.elements()),
        designated_predense=((0b01, 0b10),),
        designated_antichains=((0b01, 0b10),),
        kappa=2,
    )


AUDITS = {
    "retraction_laws_audit": lambda: retraction_laws_audit(DOUBLING),
    "two_step_iso_audit": lambda: two_step_iso_audit(DOUBLING, random.Random(0)),
    "quotient_hom": lambda: quotient_hom(
        Triangle(DOUBLING, DOUBLING, identity_hom(B4)), Ultrafilter(B2, 0)
    ),
    "lift_embedding_name": lambda: lift_embedding_name(B2, (identity_hom(B1), DOUBLING)),
    "three_step_assoc_audit": lambda: three_step_assoc_audit(
        B1, AtomwisePresentation(B1, (B2,)), (B1, B2)
    ),
    "delta1_audit": lambda: delta1_audit(
        DOUBLING, standard_name_pool(B2, max_rank=1), standard_formula_pool()
    ),
    "forcing_audit": lambda: forcing_audit(
        B2, standard_name_pool(B2, max_rank=1), standard_formula_pool()
    ),
    "antichain_sup_audit": lambda: antichain_sup_audit(
        _system(), [ConstantThread(1, 0b01), ConstantThread(1, 0b10)], stage=1, depth=2
    ),
    "direct_limit_correspondence_audit": lambda: direct_limit_correspondence_audit(_system()),
    "cofinal_reindex_audit": lambda: cofinal_reindex_audit(_system(), (0, 1)),
    "sup_gap_audit": lambda: sup_gap_audit(3),
    "wedge_meet_audit": lambda: wedge_meet_audit(3),
    "disjointify_sg_audit": lambda: disjointify_sg_audit(_trace()),
    "restriction_audit": lambda: restriction_audit(_trace(), 0b01),
    "semigeneric_sup_audit": lambda: semigeneric_sup_audit(_trace()),
    "sp_identity_audit": lambda: sp_identity_audit(identity_hom(B2), _trace(), _trace()),
}


@pytest.mark.parametrize("name", sorted(AUDITS))
def test_law_audit_returns_a_ledger(name):
    report = AUDITS[name]()
    assert isinstance(report, Ledger) and report.claims
    assert all(claim.passed for claim in report.claims.values()), report.failures
