import itertools
import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from forcebench.errors import ArityMismatch, NotRegular, ZeroRestriction
from forcebench.finite_cba import FiniteCBA, format_element
from forcebench.free_algebra import FreeAlgebra, all_meet, generator
from forcebench.morphisms import (
    RETRACTION_LAWS,
    CompleteHom,
    _Cases,
    _embedding_from_retraction,
    _filters_packed,
    _filters_to_filters,
    _meet_translation_join_form,
    _side_by_side,
    FreeInclusion,
    hom_from_fiber_map,
    identity_hom,
    ker_coker,
    restrict,
    restrict_to_coker,
    retraction_laws_audit,
    stone_dual_quotient,
)

from .oracles import (
    ElementMap,
    generic_preimage_equivalence,
    packed_row,
    reference_embedding_from_retraction,
    reference_filters_to_filters,
    reference_meet_translation_join_form,
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


def test_hom_equality_is_structural():
    h = CompleteHom(FiniteCBA(2), FiniteCBA(4), (0, 0, 1, 1))
    same = hom_from_fiber_map(B2, C4, [0, 0, 1, 1])
    assert h is not same and h == same and hash(h) == hash(same)
    assert len({h, same}) == 1
    assert h != CompleteHom(B2, C4, (0, 1, 1, 1))  # only the fiber differs
    assert h != CompleteHom(FiniteCBA(3), C4, (0, 0, 1, 1))  # only the source
    # a fiber has one entry per target atom, so a target of another size
    # comes with a longer fiber
    assert h != CompleteHom(B2, FiniteCBA(5), (0, 0, 1, 1, 1))
    assert h != (B2, C4, (0, 0, 1, 1)) and h != "h"


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
    assert "surjective" in report.claims["meet_counterexample"].witness


def test_retraction_laws_doubling():
    report = retraction_laws_audit(doubling_hom())
    assert report.passed, report.failures


def test_meet_counterexample_witness_matches_construction():
    h = doubling_hom()
    # pi({0} ∧ {1}) = 0 while pi({0}) ∧ pi({1}) = {0}
    assert h.project(0b0001 & 0b0010) == 0
    assert h.project(0b0001) & h.project(0b0010) == 0b01


def test_retraction_laws_enumerated_small():
    for h in all_regular_homs(2, 4):
        report = retraction_laws_audit(h)
        assert report.passed, (h.fiber, report.failures)


def test_retraction_laws_random_embeddings():
    rng = random.Random(11)
    for _ in range(100):
        s = rng.randint(1, 8)
        t = rng.randint(s, 16)
        fiber = list(range(s)) + [rng.randrange(s) for _ in range(t - s)]
        rng.shuffle(fiber)
        h = CompleteHom(FiniteCBA(s), FiniteCBA(t), tuple(fiber))
        report = retraction_laws_audit(h, exhaustive=False, rng=rng, samples=60)
        assert report.passed, (s, t, report.failures)


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
    assert any(law.startswith("coker.") for law in report.claims)


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
    assert not report.claims["stone_open_image"].passed
    assert report.claims["stone_open_image"].witness == "c={2}"
    assert not report.claims["generics_to_generics"].passed
    assert report.claims["generics_to_generics"].witness == "atom 2"


LAW_SIZES = [(1, 1), (1, 2), (2, 4), (3, 6), (6, 6), (4, 8), (5, 17), (8, 40), (8, 64)]


@pytest.mark.parametrize("exhaustive", [True, False])
@pytest.mark.parametrize("s, t", LAW_SIZES)
def test_every_law_records_cases(s, t, exhaustive):
    # exhaustive=True enumerates up to 6 atoms on each side and samples above
    rng = random.Random(s * 100 + t)
    fiber = list(range(s)) + [rng.randrange(s) for _ in range(t - s)]
    rng.shuffle(fiber)
    h = CompleteHom(FiniteCBA(s), FiniteCBA(t), tuple(fiber))
    report = retraction_laws_audit(h, exhaustive=exhaustive, rng=rng, samples=40)
    assert list(report.claims) == [name for name, _ in RETRACTION_LAWS]
    assert all(claim.cases >= 1 for claim in report.claims.values()), report.claims
    assert report.verdict == "PASS", report.failures
    enumerated = exhaustive and t <= 6
    assert (report.claims["meet_translation"].cases == 2**s * 2**t) == enumerated


class NonAtomsLoseSourceAtom7(CompleteHom):
    """pi forgets source atom 7 on every target element that is not an atom."""

    def project(self, c):
        p = super().project(c)
        return p & ~0x80 if c & (c - 1) else p


class ImagesGainTargetAtom0(CompleteHom):
    """i adds target atom 0 to every nonzero image."""

    def apply(self, b):
        ib = super().apply(b)
        return ib | 1 if ib else ib


@pytest.mark.parametrize(
    "law, defect, witness",
    [
        ("meet_translation_join_form", NonAtomsLoseSourceAtom7, "b={"),
        ("filters_to_filters", NonAtomsLoseSourceAtom7, "c={0}"),  # d >= c leaves the filter
        ("filters_to_filters", ImagesGainTargetAtom0, "b={"),  # pi(c | i(b)) misses b
    ],
)
def test_sampled_join_form_and_filter_transport_catch_planted_defects(law, defect, witness):
    rng = random.Random(40)
    fiber = list(range(8)) + [rng.randrange(8) for _ in range(32)]
    rng.shuffle(fiber)
    k = fiber.index(7)  # target atom 0 sits over source atom 7
    fiber[0], fiber[k] = fiber[k], fiber[0]
    h = defect(FiniteCBA(8), FiniteCBA(40), tuple(fiber))
    report = retraction_laws_audit(h, exhaustive=False, rng=rng)
    claim = report.claims[law]
    assert not claim.passed and claim.cases >= 1
    assert claim.witness.startswith(witness), claim.witness
    assert report.verdict == "FAIL"
    assert f"{law}: {claim.witness}" in report.failures


def test_sampled_meet_translation_reaches_a_defect_behind_a_repeated_draw():
    B, C = FiniteCBA(3), FiniteCBA(40)
    fiber = tuple(t % 3 for t in range(40))
    k = _Cases(CompleteHom(B, C, fiber), False, random.Random(5), 200)
    # the first draw that repeats an earlier one, away from 0 and 1
    b = next(b for j, b in enumerate(k.bs) if b in k.bs[:j] and b not in (0, B.one))
    wrong_at = k.cs[0] & k.ibs[k.bs.index(b)]
    reaching = [b2 for b2, ib2 in zip(k.bs, k.ibs) if any(c & ib2 == wrong_at for c in k.cs)]
    assert reaching == [b] * k.bs.count(b) and len(reaching) > 1

    class ProjectWrongBelowB(CompleteHom):
        def project(self, c):
            p = super().project(c)
            return p ^ 1 if c == wrong_at else p

    h = ProjectWrongBelowB(B, C, fiber)
    report = retraction_laws_audit(h, exhaustive=False, rng=random.Random(5))
    claim = report.claims["meet_translation"]
    assert not claim.passed and claim.cases == 200 * 200
    assert claim.witness == f"b={format_element(B, b)} c={format_element(C, k.cs[0])}"


@pytest.mark.parametrize("exhaustive", [True, False])
@pytest.mark.parametrize("s, t", [(2, 4), (3, 6), (4, 6), (5, 17), (8, 40)])
def test_rngless_cases_draw_what_random_0_draws(s, t, exhaustive):
    h = CompleteHom(FiniteCBA(s), FiniteCBA(t), tuple(x % s for x in range(t)))
    seeded = _Cases(h, exhaustive, random.Random(0), 40)
    for _ in range(2):  # the second call may be served from a cache
        k = _Cases(h, exhaustive, None, 40)
        assert list(k.bs) == list(seeded.bs) and list(k.cs) == list(seeded.cs)
        assert list(k.source_sets) == list(seeded.source_sets)
        assert list(k.target_sets) == list(seeded.target_sets)


# -- the packed byte rows decide exactly what the scan decides ----------------------


def _laws_both_ways(h):
    """Every law's (holds, witness, cases), or the error it raises, once
    with the packed rows and once with the scan alone."""
    k = _Cases(h, True, None, 200)

    def run():
        out = {}
        for name, law in RETRACTION_LAWS:
            try:
                out[name] = law(k)
            except Exception as exc:  # compared as a value
                out[name] = repr(exc)
        return out

    packed = run()
    rows, k.rows = k.rows, None
    return k, rows, packed, run()


def _assert_rows_decide_as_the_scan(k, rows, scanned):
    # the kernel's own verdicts and rows, not only the claims it leaves to
    # the scan: a kernel that fails on a passing hom would hide behind it
    pcs = k.pcs
    for c in k.cs:
        assert rows.join_row(c) == packed_row(pcs, lambda d: c | d)
        assert rows.meet_row(c) == packed_row(pcs, lambda d: c & d)
    assert rows.preserves_joins() == scanned["join_preserving"][0]
    assert rows.monotone() == scanned["sub_meet_inequality"][0]
    for b, ib in zip(k.bs, k.ibs):
        row_holds = all(pcs[c & ib] == p & b for c, p in zip(k.cs, pcs))
        assert rows.translates_meet(ib, b) == row_holds, (b, ib)


def test_packed_rows_decide_every_narrow_law_embedding():
    homs = list(all_regular_homs(3, 6))
    assert len(homs) == 852
    for h in homs:
        k, rows, packed, scanned = _laws_both_ways(h)
        assert packed == scanned, h.fiber
        assert all(ok for ok, _, _ in scanned.values()), h.fiber
        assert rows.preserves_joins() and rows.monotone()
        assert all(rows.translates_meet(ib, b) for b, ib in zip(k.bs, k.ibs))
    # the rows themselves, on one embedding per target width
    for t in range(2, 7):
        h = CompleteHom(FiniteCBA(2), FiniteCBA(t), tuple(x % 2 for x in range(t)))
        k, rows, _, scanned = _laws_both_ways(h)
        _assert_rows_decide_as_the_scan(k, rows, scanned)


def _project_wrong_at(element, wrong):
    class ProjectWrongAt(CompleteHom):
        def project(self, c):
            p = super().project(c)
            return wrong(p) if c == element else p

    return ProjectWrongAt


@pytest.mark.parametrize("defect", ["flip", 256, -1])
@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_packed_rows_decide_a_project_wrong_at_each_element(s, defect):
    fiber = tuple(t % s for t in range(4))
    k, rows, _, scanned = _laws_both_ways(CompleteHom(FiniteCBA(s), C4, fiber))
    _assert_rows_decide_as_the_scan(k, rows, scanned)  # the honest hom passes
    wrong = (lambda p: p ^ 1) if defect == "flip" else (lambda p: defect)
    failed = set()
    for element in range(16):  # every element of the 4-atom target
        h = _project_wrong_at(element, wrong)(FiniteCBA(s), C4, fiber)
        k, rows, packed, scanned = _laws_both_ways(h)
        assert packed == scanned, element
        if defect == "flip":
            _assert_rows_decide_as_the_scan(k, rows, scanned)
        else:  # no byte holds the value: the scan alone decides
            assert rows is None
        failed |= {name for name, out in scanned.items() if out[0] is not True}
    assert {"meet_translation", "join_preserving", "sub_meet_inequality"} <= failed


# -- the packed filter and join-form laws return what a pair scan returns ------------


def _outcome(law, arg):
    try:
        return law(arg)
    except Exception as exc:  # compared as a value
        return repr(exc)


def _assert_as_the_reference_scans(h):
    """``filters_to_filters``, ``meet_translation_join_form`` and
    ``embedding_from_retraction`` of h's exhaustive audit; each must equal
    its per-pair reference scan."""
    k = _Cases(h, True, None, 200)
    out = []
    for law, reference, arg in (
        (_filters_to_filters, reference_filters_to_filters, h),
        (_meet_translation_join_form, reference_meet_translation_join_form, h),
        (_embedding_from_retraction, reference_embedding_from_retraction, k),
    ):
        got = _outcome(law, k)
        assert got == _outcome(reference, arg), (law.__name__, h.fiber)
        out.append(got)
    return k, out


class _NonMonotoneAt(CompleteHom):
    """pi at ``element`` drops the lowest bit of pi below its lowest atom: pi
    is not monotone at the cover element - low < element."""

    element = 0

    def project(self, c):
        p = super().project(c)
        if c != self.element or c & c - 1 == 0:
            return p
        q = super().project(c & c - 1)
        return p & ~(q & -q)


def _defective(defect, element):
    if defect == "flip":
        return _project_wrong_at(element, lambda p: p ^ 1)
    if defect == "past a byte":
        return _project_wrong_at(element, lambda p: p | 256)
    if defect == "past the source top":  # still a byte
        return _project_wrong_at(element, lambda p: p | 8)
    if defect == "non-monotone":
        return type("NonMonotone", (_NonMonotoneAt,), {"element": element})

    class ApplyPastTheTop(CompleteHom):  # i(b) gains a bit past C.one at one b
        def apply(self, b):
            ib = super().apply(b)
            return ib | self.target.one + 1 if b == element else ib

    return ApplyPastTheTop


def test_packed_filter_laws_match_the_scan_on_every_narrow_law_embedding():
    homs = list(all_regular_homs(3, 6))
    assert len(homs) == 852
    failed = 0
    for n, h in enumerate(homs):
        k, out = _assert_as_the_reference_scans(h)
        assert all(ok for ok, _, _ in out), h.fiber
        assert _filters_packed(k), h.fiber  # the rows decide every honest pass
        # pi flipped at one element, a different one from embedding to embedding
        wrong = _defective("flip", n % (h.target.one + 1))(h.source, h.target, h.fiber)
        _, out = _assert_as_the_reference_scans(wrong)
        failed += not all(ok for ok, _, _ in out)
    assert failed > 800


@pytest.mark.parametrize("s, t", [(5, 17), (8, 40), (8, 64)])
def test_sampled_embedding_from_retraction_glues_as_the_pair_scan(s, t):
    # the probes are the target atoms; pi flipped at one of them fails the law
    rng = random.Random(s * t)
    for n in range(4):
        fiber = [x % s for x in range(t)]
        rng.shuffle(fiber)
        honest = CompleteHom(FiniteCBA(s), FiniteCBA(t), tuple(fiber))
        wrong = _project_wrong_at(1 << rng.randrange(t), lambda p: p ^ 1)
        for h in (honest, wrong(honest.source, honest.target, honest.fiber)):
            k = _Cases(h, True, random.Random(n), 200)
            assert not k.enumerated
            got = _embedding_from_retraction(k)
            assert got == reference_embedding_from_retraction(k), h.fiber
            assert got[0] == (h is honest), h.fiber


@pytest.mark.parametrize(
    "defect", ["flip", "non-monotone", "apply past the top", "past the source top", "past a byte"]
)
@pytest.mark.parametrize("s, t", [(1, 4), (2, 4), (3, 5), (2, 6)])
def test_packed_filter_laws_match_the_scan_under_a_planted_defect(s, t, defect):
    source, target = FiniteCBA(s), FiniteCBA(t)
    fiber = tuple(x % s for x in range(t))
    size = source if defect == "apply past the top" else target
    filters, join_form, glued = set(), set(), set()  # what each law reads, over the elements
    for element in size.elements():
        _, out = _assert_as_the_reference_scans(_defective(defect, element)(source, target, fiber))
        (f, j, g) = (o if isinstance(o, str) else o[0] for o in out)
        filters.add(f)
        join_form.add(j)
        glued.add(g)
    if defect == "apply past the top":  # the filter scan reads past the projections
        assert filters == {True, "IndexError('list index out of range')"}
        assert join_form == {True}  # it never applies i
        assert glued == {False}  # no probe glues the bit past C's top
    else:  # each law fails at some element, and no scan raises
        assert False in filters and False in join_form
        assert filters | join_form | glued <= {True, False}
    # a projection off every b only drops its probe from the joins, which the
    # other probes below it may still cover
    if defect in ("flip", "non-monotone"):
        assert False in glued


def test_packed_filter_law_leaves_projections_outside_the_source_to_the_scan():
    # pi(c) | 8 at every c > 0 stays monotone, and no c has pi(c) <= b for a b
    # of B, so the rows would pass by selecting nothing; the scan reads i past
    # the table of B's elements instead
    class ProjectPastTheSourceTop(CompleteHom):
        def project(self, c):
            p = super().project(c)
            return p | 8 if c else p

    h = ProjectPastTheSourceTop(B2, C4, (0, 0, 1, 1))
    _, (filters, _, _) = _assert_as_the_reference_scans(h)
    assert filters == "IndexError('list index out of range')"


# -- the laws the packed tables decide: a planted defect reads the scan's witness ----

B3C6 = (FiniteCBA(3), FiniteCBA(6), tuple(t % 3 for t in range(6)))


def _apply_wrong_at(element, wrong):
    class ApplyWrongAt(CompleteHom):
        def apply(self, b):
            ib = super().apply(b)
            return wrong(ib) if b == element else ib

    return ApplyWrongAt


def _the_scan_ran(*_):
    raise RuntimeError("a scan ran")


class _ScanOnly:
    """Stands in for a case list that only a scan reads: any use raises."""

    __call__ = __iter__ = __getitem__ = _the_scan_ran


# the witness and case count of each, as the per-element scans give them
@pytest.mark.parametrize(
    "defect, law, witness, cases",
    [
        (
            _project_wrong_at(0b100100, lambda p: 0),
            "super_complement_inequality", "c={0,1,3,4}", 64,
        ),
        (_project_wrong_at(0b010110, lambda p: p ^ 1), "stone_open_image", "c={1,2,4}", 64),
        (_project_wrong_at(0b110100, lambda p: p & p - 1), "stone_open_image", "c={2,4,5}", 64),
        (_apply_wrong_at(0b011, lambda ib: ib & ib - 1), "predense_forward", "D={{0,1},{2}}", 109),
        (_apply_wrong_at(0b110, lambda ib: ib & ib - 1), "predense_forward", "D={{0},{1,2}}", 109),
        (
            _project_wrong_at(0b010110, lambda p: p ^ 1),
            "meet_translation_join_form", "b={0} c={1,2,4}", 512,
        ),
        (_project_wrong_at(0b010110, lambda p: p ^ 1), "filters_to_filters", "c={1,2,4}", 690),
        (_project_wrong_at(0b110100, lambda p: p & p - 1), "filters_to_filters", "c={2,4}", 690),
    ],
    ids=[
        "super-complement", "stone-flip", "stone-drop", "predense-01", "predense-12",
        "join-form", "filters-flip", "filters-drop",
    ],
)
def test_planted_defect_fails_a_packed_law_with_the_scans_witness(defect, law, witness, cases):
    h = defect(*B3C6)
    k = _Cases(h, True, None, 200)
    assert k.enumerated and k.rows is not None
    assert k.below is None and k.above is None  # only the scans build them
    claim = retraction_laws_audit(h).claims[law]
    assert (claim.passed, claim.witness, claim.cases) == (False, witness, cases)
    honest = retraction_laws_audit(CompleteHom(*B3C6)).claims[law]
    assert (honest.passed, honest.witness, honest.cases) == (True, "", cases)


@pytest.mark.parametrize(
    "law, scanned",
    [
        ("super_complement_inequality", ("project",)),
        ("predense_forward", ("apply",)),
        ("filters_to_filters", ("project", "apply")),
        ("meet_translation_join_form", ("pds",)),
    ],
)
@pytest.mark.parametrize("s, t", [(1, 1), (2, 4), (3, 6), (3, 5)])
def test_packed_tables_decide_every_honest_pass(law, scanned, s, t):
    # what only the law's scan reads raises: the pass comes from the tables
    h = CompleteHom(FiniteCBA(s), FiniteCBA(t), tuple(x % s for x in range(t)))
    k = _Cases(h, True, None, 200)
    expected = dict(RETRACTION_LAWS)[law](k)
    for name in scanned:
        setattr(k, name, _ScanOnly())
    assert dict(RETRACTION_LAWS)[law](k) == expected and expected[0]


# -- sampled laws read pi on a whole case list from its byte tables ------------------

# target widths around every byte boundary: exact multiples of 8 and partial last bytes
PACKED_WIDTHS = [9, 15, 16, 17, 23, 24, 31, 40, 41, 63, 64, 65, 72]


@pytest.mark.parametrize("t", PACKED_WIDTHS)
def test_packed_images_equal_project_byte_for_byte(t):
    rng = random.Random(t)
    for s in range(1, 9):
        fiber = tuple(rng.randrange(s) for _ in range(t))  # not always onto
        h = CompleteHom(FiniteCBA(s), FiniteCBA(t), fiber)
        k = _Cases(h, False, rng, 40)
        assert k.packs() and len(h.byte_columns) == (t + 7) // 8
        assert all(len(column) == 256 for column in h.byte_columns)
        probes = [0, h.target.one, *k.probes, *(rng.getrandbits(t) for _ in range(20))]
        packed = _side_by_side(probes, len(h.byte_columns))
        for x in (0, h.target.one, 1 << t - 1, *(rng.getrandbits(t) for _ in range(8))):
            for op in (operator.and_, operator.or_):
                got = k.images(op, x).to_bytes(len(k.cs), "little")
                assert got == bytes(h.project(op(c, x)) for c in k.cs), (s, fiber, x)
                got = k.images(op, x, packed).to_bytes(len(probes), "little")
                assert got == bytes(h.project(op(c, x)) for c in probes), (s, fiber, x)
        assert k.above == {a: [h.project(a | d) for d in k.ds] for a in k.probes}


def test_wider_sources_and_overrides_are_audited_call_by_call():
    fiber = tuple(x % 9 for x in range(20))
    assert CompleteHom(FiniteCBA(9), FiniteCBA(20), fiber).byte_columns is None
    assert not _Cases(CompleteHom(FiniteCBA(9), FiniteCBA(20), fiber), False, None, 40).packs()

    class CallByCall(CompleteHom):
        def project(self, c):
            return super().project(c)

    h = CallByCall(FiniteCBA(3), FiniteCBA(20), tuple(x % 3 for x in range(20)))
    assert not _Cases(h, False, None, 40).packs()
    assert "byte_columns" not in vars(h)  # not built for a hom that never packs


@pytest.mark.parametrize("s, t", [(1, 1), (2, 4), (3, 6), (6, 6)])
def test_enumerated_audits_are_decided_by_rows_alone(s, t):
    h = CompleteHom(FiniteCBA(s), FiniteCBA(t), tuple(x % s for x in range(t)))
    k = _Cases(h, True, None, 200)
    assert k.enumerated and k.rows is not None and not k.packs()
    assert retraction_laws_audit(h, exhaustive=True).passed
    assert "byte_columns" not in vars(h)  # pi's byte columns serve sampled cases only


PACKED_LAWS = ("meet_translation", "join_preserving", "sub_meet_inequality")


@pytest.mark.parametrize("s, t", [(3, 20), (5, 24), (8, 41), (2, 64)])
def test_a_defect_in_a_shared_byte_table_fails_alike_with_and_without_packing(s, t):
    # one entry of one of pi's atom_map tables is wrong: h.project and the
    # packed images read the same table, so every law fails as the scan does
    class CallByCall(CompleteHom):
        def project(self, c):
            return super().project(c)

    rng = random.Random(s * t)
    fiber = [1 + x % (s - 1) for x in range(t)]
    rng.shuffle(fiber)
    byte = rng.randrange(t // 8)
    fiber[8 * byte] = 0  # no other byte of c adds source atom 0 to pi(c)
    honest = CompleteHom(FiniteCBA(s), FiniteCBA(t), tuple(fiber))
    entry = _Cases(honest, False, random.Random(7), 200).cs[0] >> 8 * byte & 0xFF
    ledgers = []
    for cls in (CompleteHom, CallByCall):
        h = cls(FiniteCBA(s), FiniteCBA(t), tuple(fiber))
        h._project.tables[byte][entry] ^= 1  # pi at the first drawn c is off at atom 0
        assert _Cases(h, False, None, 200).packs() == (cls is CompleteHom)
        report = retraction_laws_audit(h, exhaustive=False, rng=random.Random(7))
        ledgers.append({n: (c.passed, c.witness, c.cases) for n, c in report.claims.items()})
    packed, scanned = ledgers
    assert packed == scanned
    assert not any(packed[law][0] for law in PACKED_LAWS), packed


@pytest.mark.parametrize("s, t", [(2, 17), (3, 40), (8, 64)])
def test_sampled_filter_joins_are_batched_and_scanned_only_on_a_mismatch(monkeypatch, s, t):
    # one packed batch per (b, distinct pi(c)) decides an honest pass with no
    # project call; a defect in pi's byte table fails both routes alike
    class CallByCall(CompleteHom):
        def project(self, c):
            return super().project(c)

    asked, project = [], CompleteHom.project
    monkeypatch.setattr(CompleteHom, "project", lambda self, c: asked.append(c) or project(self, c))
    B, C, fiber = FiniteCBA(s), FiniteCBA(t), tuple(x % s for x in range(t))
    k = _Cases(CompleteHom(B, C, fiber), False, random.Random(t), 200)
    asked.clear()
    assert k.packs() and _filters_to_filters(k)[0] and asked == []
    # pi gains a source atom outside b ∨ pi(c) at c ∨ i(b ∨ pi(c)), c the first probe
    c, pc = k.probes[0], k.pprobes[0]
    b = next(b | pc for b in k.b_partners if b | pc != B.one)
    x, extra = c | k.apply(b), (B.one & ~b) & -(B.one & ~b)
    outcomes = []
    for cls in (CompleteHom, CallByCall):
        h = cls(B, C, fiber)
        h._project.tables[0][x & 0xFF] |= extra  # before any use reads the table
        k = _Cases(h, False, random.Random(t), 200)
        assert k.packs() == (cls is CompleteHom)
        outcomes.append(_filters_to_filters(k))
    packed, scanned = outcomes
    assert packed == scanned and not packed[0] and packed[1].startswith("b="), packed
