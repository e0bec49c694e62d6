import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from forcebench.errors import ArityMismatch, NotRegular, ZeroRestriction
from forcebench.finite_cba import FiniteCBA
from forcebench.free_algebra import FreeAlgebra, all_meet, generator
from forcebench.morphisms import (
    CompleteHom,
    ElementMap,
    FreeInclusion,
    generic_preimage_equivalence,
    hom_from_fiber_map,
    identity_hom,
    ker_coker,
    restrict,
    restrict_to_coker,
    retraction_laws_audit,
    stone_dual_quotient,
)


B2 = FiniteCBA(2)
C4 = FiniteCBA(4)


def doubling_hom():
    # fibers {0,1} -> 0, {2,3} -> 1
    return hom_from_fiber_map(B2, C4, [0, 0, 1, 1])


def all_regular_homs(max_source, max_target):
    for t in range(1, max_target + 1):
        target = FiniteCBA(t)
        for s in range(1, min(max_source, t) + 1):
            source = FiniteCBA(s)
            for fiber in itertools.product(range(s), repeat=t):
                if len(set(fiber)) == s:
                    yield CompleteHom(source, target, fiber)


def test_identity_hom_regular():
    h = identity_hom(B2)
    assert h.regular
    assert all(h.apply(b) == b and h.project(b) == b for b in B2.elements())


def test_doubling_embedding_values():
    h = doubling_hom()
    assert h.regular
    assert h.apply(0b01) == 0b0011
    assert h.apply(0b10) == 0b1100
    assert h.project(0b0001) == 0b01
    assert h.project(0b0110) == 0b11


def test_fiber_map_must_be_total():
    with pytest.raises(ArityMismatch):
        CompleteHom(B2, C4, (0, 0, 1))
    with pytest.raises(ArityMismatch):
        CompleteHom(B2, C4, (0, 0, 1, 5))


def test_constant_fiber_not_regular_ker():
    h = hom_from_fiber_map(B2, FiniteCBA(2), [0, 0])
    assert not h.regular
    assert h.apply(0b10) == 0  # the missed atom dies
    ker, coker = ker_coker(h)
    assert ker == 0b10 and coker == 0b01


def test_ker_coker_regular_trivial():
    h = doubling_hom()
    assert ker_coker(h) == (0, B2.one)


def test_ker_coker_missing_atom():
    b3 = FiniteCBA(3)
    h = hom_from_fiber_map(b3, C4, [0, 0, 1, 1])  # atom 2 never hit
    ker, coker = ker_coker(h)
    assert ker == 0b100 and coker == 0b011
    core, view = restrict_to_coker(h)
    assert core.regular
    assert view.mask == 0b011


def test_retraction_laws_identity_hom():
    report = retraction_laws_audit(identity_hom(B2))
    assert report.passed
    assert any("surjective" in n for n in report.notes)


def test_retraction_laws_doubling():
    report = retraction_laws_audit(doubling_hom())
    assert report.passed, report.failures()


def test_meet_counterexample_witness_matches_construction():
    h = doubling_hom()
    # pi({0} ∧ {1}) = 0 while pi({0}) ∧ pi({1}) = {0}
    assert h.project(0b0001 & 0b0010) == 0
    assert h.project(0b0001) & h.project(0b0010) == 0b01


def test_retraction_laws_enumerated_small():
    for h in all_regular_homs(2, 4):
        report = retraction_laws_audit(h)
        assert report.passed, (h.fiber, report.failures())


def test_retraction_laws_random_embeddings():
    rng = random.Random(11)
    for _ in range(100):
        s = rng.randint(1, 8)
        t = rng.randint(s, 16)
        fiber = list(range(s)) + [rng.randrange(s) for _ in range(t - s)]
        rng.shuffle(fiber)
        h = CompleteHom(FiniteCBA(s), FiniteCBA(t), tuple(fiber))
        report = retraction_laws_audit(h, exhaustive=False, rng=rng, samples=60)
        assert report.passed, (s, t, report.failures())


def test_key_identity_exhaustive_small_randomized_above():
    # pi(c ∧ i(b)) = pi(c) ∧ b: exhaustive <= 4 source atoms, seeded above
    for h in all_regular_homs(2, 4):
        for b in h.source.elements():
            for c in h.target.elements():
                assert h.project(c & h.apply(b)) == h.project(c) & b
    rng = random.Random(5)
    for _ in range(200):
        s = rng.randint(5, 8)
        t = rng.randint(s, 32)
        fiber = list(range(s)) + [rng.randrange(s) for _ in range(t - s)]
        rng.shuffle(fiber)
        h = CompleteHom(FiniteCBA(s), FiniteCBA(t), tuple(fiber))
        b, c = rng.getrandbits(s), rng.getrandbits(t)
        assert h.project(c & h.apply(b)) == h.project(c) & b


def test_non_regular_audit_runs_on_coker():
    h = hom_from_fiber_map(B2, FiniteCBA(2), [0, 0])
    report = retraction_laws_audit(h)
    assert report.passed
    assert any(law.startswith("coker.") for law in report.laws)


def test_restrict_identity():
    r = restrict(identity_hom(B2), B2.one)
    assert r.hom.fiber == (0, 1)


def test_restrict_doubling_example():
    h = doubling_hom()
    r = restrict(h, 0b0101)  # c = {0,2}
    assert r.source_view.mask == 0b11
    assert r.target_view.mask == 0b0101
    assert r.hom.regular
    # restricted retraction = original retraction on C|c
    for c_sub in r.target_view.algebra.elements():
        c_parent = r.target_view.from_sub(c_sub)
        assert r.source_view.from_sub(r.hom.project(c_sub)) == h.project(c_parent)
    report = retraction_laws_audit(r.hom)
    assert report.passed


def test_restrict_composes():
    # (i_c)_d = i_d for d <= c, for every regular h with <= 4 target atoms
    for h in all_regular_homs(2, 4):
        for c in h.target.nonzero_elements():
            rc = restrict(h, c)
            for d_sub in rc.target_view.algebra.nonzero_elements():
                d = rc.target_view.from_sub(d_sub)
                once = restrict(h, d)
                twice = restrict(rc.hom, d_sub)
                # compare fibers through the index maps
                for t_idx, t_atom in enumerate(once.target_view.atom_of_sub):
                    s_atom = once.source_view.atom_of_sub[once.hom.fiber[t_idx]]
                    inner_t = rc.target_view.to_sub(1 << t_atom).bit_length() - 1
                    tt = twice.target_view.to_sub(1 << inner_t).bit_length() - 1
                    inner_s = twice.source_view.atom_of_sub[twice.hom.fiber[tt]]
                    s_atom2 = rc.source_view.atom_of_sub[inner_s]
                    assert s_atom == s_atom2


def test_restrict_zero_raises():
    with pytest.raises(ZeroRestriction):
        restrict(doubling_hom(), 0)
    with pytest.raises(NotRegular):
        restrict(hom_from_fiber_map(B2, FiniteCBA(2), [0, 0]), 1)


def test_stone_dual_quotient_identity_discrete():
    assert stone_dual_quotient(identity_hom(C4)) == (0b0001, 0b0010, 0b0100, 0b1000)


def test_stone_dual_quotient_doubling():
    assert stone_dual_quotient(doubling_hom()) == (0b0011, 0b1100)


def test_stone_dual_class_count_equals_source_atoms():
    for h in all_regular_homs(3, 5):
        classes = stone_dual_quotient(h)
        assert len(classes) == h.source.atom_count
        assert h.target.sup(classes) == h.target.one


def test_generic_preimage_equivalence_on_homs():
    for h in all_regular_homs(2, 4):
        table = tuple(h.apply(b) for b in h.source.elements())
        report = generic_preimage_equivalence(ElementMap(h.source, h.target, table))
        assert report.join_complete and report.all_preimages_generic


def test_generic_preimage_violation_constructed():
    # a deliberately non-complete map: joins of atoms overshoot
    b2, c3 = FiniteCBA(2), FiniteCBA(3)
    table = (0, 0b001, 0b010, 0b111)  # i(1) = 1 but i({0}) ∨ i({1}) = {0,1}
    report = generic_preimage_equivalence(ElementMap(b2, c3, table))
    assert not report.join_complete
    assert not report.all_preimages_generic
    assert report.equivalence_holds
    assert report.violating_ultrafilter == 2
    # the constructed ultrafilter's preimage misses the violating join's parts
    pulled = {b for b in b2.elements() if table[b] >> 2 & 1}
    assert pulled == {0b11}  # a filter that is not an ultrafilter


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_retraction_laws_hypothesis_random_fibers(data):
    s = data.draw(st.integers(min_value=1, max_value=4))
    t = data.draw(st.integers(min_value=s, max_value=6))
    fiber = data.draw(
        st.lists(st.integers(min_value=0, max_value=s - 1), min_size=t, max_size=t).filter(
            lambda f: len(set(f)) == s
        )
    )
    h = CompleteHom(FiniteCBA(s), FiniteCBA(t), tuple(fiber))
    b = data.draw(st.integers(min_value=0, max_value=h.source.one))
    c = data.draw(st.integers(min_value=0, max_value=h.target.one))
    assert h.project(h.apply(b)) == b
    assert h.target.leq(c, h.apply(h.project(c)))
    assert h.project(c & h.apply(b)) == h.project(c) & b


def test_free_inclusion_retraction_matches_defining_infimum():
    # sampling: all elements with support in <= 3 of the 4 source generators
    gens4 = ("g0", "g1", "g2", "g3")
    fresh = ("h0", "h1")
    inc = FreeInclusion(
        FreeAlgebra(frozenset(gens4)), FreeAlgebra(frozenset(gens4) | frozenset(fresh))
    )
    h0 = generator("h0")
    shapes = []
    for g in gens4:
        gg = generator(g)
        shapes += [gg & h0, gg | h0, gg & ~h0, (gg | ~h0) & generator(gens4[0])]
    for c in shapes:
        p = inc.project(c)
        # defining infimum over all source elements above c, scanned over the
        # support universe of c restricted to source generators
        assert c.leq(p)
        assert p.support <= frozenset(gens4)
        # any source element above c dominates p: spot-check over cube elements
        for combo_size in range(0, 3):
            for combo in itertools.combinations(gens4, combo_size):
                for signs in itertools.product((False, True), repeat=combo_size):
                    cube = all_meet(
                        (generator(g) if s else ~generator(g))
                        for g, s in zip(combo, signs)
                    )
                    if c.leq(cube):
                        assert p.leq(cube)


@pytest.mark.parametrize("width", [4, 20])
def test_audit_fails_when_project_drops_an_atom_image(width):
    # fibers pair up target atoms; project forgets the image of target atom 2
    fiber = tuple(t // 2 for t in range(width))

    class DroppingHom(CompleteHom):
        def project(self, c):
            return super().project(c & ~0b100)

    h = DroppingHom(FiniteCBA(width // 2), FiniteCBA(width), fiber)
    report = retraction_laws_audit(h)
    assert not report.passed
    assert not report.laws["stone_open_image"]
    assert report.witnesses["stone_open_image"] == "c={2}"
    assert not report.laws["generics_to_generics"]
    assert report.witnesses["generics_to_generics"] == "atom 2"
