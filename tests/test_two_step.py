import functools
import itertools
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import pytest

from forcebench import finite_cba, report, tables, two_step
from forcebench.errors import (
    EmptyFiber,
    NonCommuting,
    NotMaximalAntichain,
    ShapeMismatch,
)
from forcebench.finite_cba import FiniteCBA, Restriction, Ultrafilter
from forcebench.morphisms import (
    CompleteHom,
    hom_from_fiber_map,
    identity_hom,
    retraction_laws_audit,
)
from forcebench.two_step import (
    AtomwisePresentation,
    GenericQuotient,
    Triangle,
    build_two_step,
    canonical_representative,
    lift_embedding_name,
    quotient_algebra,
    quotient_hom,
    three_step_assoc_audit,
    two_step_iso_audit,
)

from .oracles import antichain_correspondence_holds
from .test_morphisms import all_regular_homs

B1 = FiniteCBA(1)
B2 = FiniteCBA(2)


def doubling_hom():
    return hom_from_fiber_map(B2, FiniteCBA(4), [0, 0, 1, 1])


def test_trivial_fibers_give_base():
    pres = AtomwisePresentation(B2, (B1, B1))
    two = build_two_step(pres)
    assert two.algebra.atom_count == 2
    assert two.embedding.fiber == (0, 1)


def test_mixed_fiber_sizes():
    pres = AtomwisePresentation(B2, (FiniteCBA(2), B1))
    two = build_two_step(pres)
    assert two.algebra.atom_count == 3
    assert two.embedding.apply(0b01) == 0b011


def test_support_example():
    pres = AtomwisePresentation(B2, (FiniteCBA(2), FiniteCBA(2)))
    two = build_two_step(pres)
    elem = two.element_from_family((0, two.presentation.fibers[1].one))
    assert two.support(elem) == 0b10


def test_empty_fiber_rejected():
    with pytest.raises(EmptyFiber):
        AtomwisePresentation(B2, (FiniteCBA(0), B1))


def test_family_roundtrip():
    pres = AtomwisePresentation(B2, (FiniteCBA(3), FiniteCBA(2)))
    two = build_two_step(pres)
    for e in two.algebra.elements():
        assert two.element_from_family(two.family_of(e)) == e


def test_element_from_family_rejects_bad_families():
    two = build_two_step(AtomwisePresentation(B2, (FiniteCBA(3), FiniteCBA(2))))
    with pytest.raises(ShapeMismatch):
        two.element_from_family((0,))
    # each value lies outside its own fiber, though inside the other one
    for family in ((0b1000, 0), (0, 0b100), (-1, 0)):
        with pytest.raises(ValueError, match="outside the fiber"):
            two.element_from_family(family)


def test_indicator_characterization():
    pres = AtomwisePresentation(FiniteCBA(3), (FiniteCBA(2), B1, FiniteCBA(3)))
    two = build_two_step(pres)
    for b in pres.base.elements():
        d = two.indicator(b)
        assert two.tv_equals_one(d) == b
        assert two.tv_equals_zero(d) == pres.base.neg(b)


def test_antichain_correspondence_exhaustive_small():
    # <= 3 base atoms, fibers <= 2 atoms, all families of <= 3 elements
    for base_n in (1, 2, 3):
        base = FiniteCBA(base_n)
        fibers = tuple(FiniteCBA(2) for _ in range(base_n))
        two = build_two_step(AtomwisePresentation(base, fibers))
        elems = list(two.algebra.elements())
        rng = random.Random(base_n)
        pool = [tuple(rng.sample(elems, k)) for k in (1, 2, 3) for _ in range(40)]
        for family in pool:
            assert antichain_correspondence_holds(two, family)


def test_retraction_pair_laws_rerun():
    from forcebench.morphisms import retraction_laws_audit

    pres = AtomwisePresentation(B2, (FiniteCBA(2), FiniteCBA(3)))
    two = build_two_step(pres)
    report = retraction_laws_audit(two.embedding)
    assert report.passed, report.failures


def test_quotient_identity_hom():
    q = quotient_algebra(identity_hom(B2), Ultrafilter(B2, 0))
    assert q.algebra.atom_count == 1


def test_quotient_doubling_atom0():
    h = doubling_hom()
    q = quotient_algebra(h, Ultrafilter(B2, 0))
    assert q.view.mask == 0b0011
    assert q.view.atom_of_sub == (0, 1)


def test_quotient_class_map_characterization():
    h = doubling_hom()
    q = quotient_algebra(h, Ultrafilter(B2, 0))
    for c, d in itertools.product(h.target.elements(), repeat=2):
        assert (q.class_of(c) == q.class_of(d)) == ((c ^ d) & 0b0011 == 0)


def test_canonical_representative_constant_family():
    h = doubling_hom()
    c0 = 0b0110
    rep = canonical_representative(h, (0b01, 0b10), (c0, c0))
    assert rep == c0


def test_canonical_representative_example():
    h = doubling_hom()
    rep = canonical_representative(h, (0b01, 0b10), (0b0001, 0b1000))
    assert rep == 0b1001


def test_canonical_representative_uniqueness_perturbations():
    h = doubling_hom()
    rep = canonical_representative(h, (0b01, 0b10), (0b0001, 0b1000))
    # perturbing inside a fiber changes the class there
    for t in range(4):
        other = rep ^ (1 << t)
        q = quotient_algebra(h, Ultrafilter(B2, h.fiber[t]))
        assert q.class_of(other) != q.class_of(rep)


def test_canonical_representative_requires_maximal_antichain():
    h = doubling_hom()
    with pytest.raises(NotMaximalAntichain):
        canonical_representative(h, (0b01,), (0b0001,))


def test_two_step_iso_identity():
    iso = two_step_iso_audit(identity_hom(FiniteCBA(3)))
    assert iso.passed, iso.failures


def test_two_step_iso_doubling():
    iso = two_step_iso_audit(doubling_hom())
    assert iso.passed, iso.failures
    assert iso.two.algebra.atom_count == 4


def test_two_step_iso_enumerated_targets_up_to_5():
    count = 0
    for t in range(1, 6):
        target = FiniteCBA(t)
        for s in range(1, t + 1):
            source = FiniteCBA(s)
            for fiber in itertools.product(range(s), repeat=t):
                if len(set(fiber)) == s:
                    iso = two_step_iso_audit(CompleteHom(source, target, fiber))
                    assert iso.passed, (fiber, iso.failures)
                    count += 1
    assert count > 500


def test_two_step_iso_random_seeds():
    rng = random.Random(0)
    for _ in range(50):
        s = rng.randint(1, 6)
        t = rng.randint(s, 6)
        fiber = list(range(s)) + [rng.randrange(s) for _ in range(t - s)]
        rng.shuffle(fiber)
        iso = two_step_iso_audit(CompleteHom(FiniteCBA(s), FiniteCBA(t), tuple(fiber)))
        assert iso.passed


def test_triangle_validation():
    i0 = doubling_hom()
    j = hom_from_fiber_map(FiniteCBA(4), FiniteCBA(8), [0, 0, 1, 1, 2, 2, 3, 3])
    i1 = i0.then(j)
    Triangle(i0, i1, j)
    with pytest.raises(NonCommuting):
        Triangle(i0, hom_from_fiber_map(B2, FiniteCBA(8), [1] * 4 + [0] * 4), j)


def test_quotient_hom_identities():
    h = identity_hom(B2)
    tri = Triangle(h, h, h)
    q = quotient_hom(tri, Ultrafilter(B2, 0))
    assert q.passed and q.hom.fiber == (0,)


def test_quotient_hom_trivial_base():
    i0 = hom_from_fiber_map(B1, B2, [0, 0])
    j = hom_from_fiber_map(B2, FiniteCBA(4), [0, 0, 1, 1])
    tri = Triangle(i0, i0.then(j), j)
    q = quotient_hom(tri, Ultrafilter(B1, 0))
    assert q.passed
    # trivial base: quotient is j itself
    assert q.hom.fiber == j.fiber


def test_quotient_hom_doubling_chain():
    i0 = doubling_hom()
    j = hom_from_fiber_map(FiniteCBA(4), FiniteCBA(8), [0, 0, 1, 1, 2, 2, 3, 3])
    tri = Triangle(i0, i0.then(j), j)
    q = quotient_hom(tri, Ultrafilter(B2, 0))
    assert q.passed, q.failures
    # the restricted quotient is again a 2 -> 4 doubling embedding
    assert q.hom.source.atom_count == 2 and q.hom.target.atom_count == 4
    assert q.hom.fiber == (0, 0, 1, 1)
    assert q.hom.regular


def test_quotient_hom_regular_for_every_atom():
    rng = random.Random(4)
    for _ in range(40):
        b = FiniteCBA(rng.randint(1, 2))
        c0 = FiniteCBA(rng.randint(b.atom_count, 4))
        c1 = FiniteCBA(rng.randint(c0.atom_count, 8))
        f0 = list(range(b.atom_count)) + [
            rng.randrange(b.atom_count) for _ in range(c0.atom_count - b.atom_count)
        ]
        rng.shuffle(f0)
        fj = list(range(c0.atom_count)) + [
            rng.randrange(c0.atom_count) for _ in range(c1.atom_count - c0.atom_count)
        ]
        rng.shuffle(fj)
        i0 = CompleteHom(b, c0, tuple(f0))
        j = CompleteHom(c0, c1, tuple(fj))
        tri = Triangle(i0, i0.then(j), j)
        for atom in range(b.atom_count):
            q = quotient_hom(tri, Ultrafilter(b, atom))
            assert q.passed and q.hom.regular


def _seeded_triangle(rng, base, c0, c1):
    """A triangle B -> C0 -> C1 of seeded regular embeddings with these atom counts."""
    legs = []
    for source, target in ((base, c0), (c0, c1)):
        fiber = list(range(source)) + [rng.randrange(source) for _ in range(target - source)]
        rng.shuffle(fiber)
        legs.append(CompleteHom(FiniteCBA(source), FiniteCBA(target), tuple(fiber)))
    i0, j = legs
    return Triangle(i0, i0.then(j), j)


def test_enumerated_class_pairs_are_the_same_class_filter():
    rng = random.Random(25)
    shapes = [(1, 1, 1), (1, 6, 8), (2, 6, 8), (3, 6, 8)]
    shapes += [(b, c0, rng.randint(c0, 8)) for b in (1, 2, 3) for c0 in range(b, 7)]
    for base, c0, c1 in shapes:
        tri = _seeded_triangle(rng, base, c0, c1)
        c0s = list(tri.j.source.elements())
        for atom in range(base):
            q0 = GenericQuotient(tri.i0, atom)
            filtered = [(c, d) for c in c0s for d in c0s if q0.same_class(c, d)]
            assert two_step._class_pairs(c0s, q0.view.mask) == filtered, (tri, atom)
            q = quotient_hom(tri, Ultrafilter(tri.i0.source, atom))
            assert q.passed and q.claims["well_defined_on_classes"].cases == len(filtered)


def _j_wrong_at(element, wrong):
    """The 4 -> 8-atom doubling leg j of a triangle over the 2 -> 4 doubling,
    its ``apply`` given ``wrong(value)`` at ``element``."""
    j = _wrong_at("apply", element, wrong)(FiniteCBA(4), FiniteCBA(8), (0, 0, 1, 1, 2, 2, 3, 3))
    return Triangle(doubling_hom(), doubling_hom().then(j), j)


def _class_claims_by_scan(tri, atom):
    """(passed, witness, cases) of the two class claims, from every pair of
    C0 put through ``same_class`` and one ``j.apply`` per use."""
    j, fmt = tri.j, functools.partial(finite_cba.format_element, tri.j.source)
    q0, q1 = GenericQuotient(tri.i0, atom), GenericQuotient(tri.i1, atom)
    hom = quotient_hom(tri, Ultrafilter(tri.i0.source, atom)).hom
    c0s = list(j.source.elements())
    pairs = [(c, d) for c in c0s for d in c0s if q0.same_class(c, d)]
    bad = next(((c, d) for c, d in pairs if not q1.same_class(j.apply(c), j.apply(d))), None)
    well = (bad is None, "" if bad is None else f"c={fmt(bad[0])} d={fmt(bad[1])}", len(pairs))
    bad = next((c for c in c0s if hom.apply(q0.class_of(c)) != q1.class_of(j.apply(c))), None)
    return well, (bad is None, "" if bad is None else f"c={fmt(bad)}", len(c0s))


@pytest.mark.parametrize("wrong", [lambda ib: ib ^ 1, lambda ib: ib & ib - 1], ids=["flip", "drop"])
@pytest.mark.parametrize("element", range(16))
def test_planted_j_apply_defect_fails_the_class_claims_with_the_scans_witness(element, wrong):
    tri = _j_wrong_at(element, wrong)
    verdicts = set()
    for atom in (0, 1):
        q = quotient_hom(tri, Ultrafilter(B2, atom))
        claims = [q.claims[name] for name in ("well_defined_on_classes", "intertwines_class_maps")]
        got = tuple((c.passed, c.witness, c.cases) for c in claims)
        assert got == _class_claims_by_scan(tri, atom), (element, atom)
        verdicts.add(tuple(c.passed for c in claims))
    # a changed j(c) fails both claims at the atom whose class mask holds the change
    honest = CompleteHom.apply(tri.j, element)
    assert verdicts == ({(True, True), (False, False)} if wrong(honest) != honest else {(True, True)})


@pytest.mark.parametrize(
    "element, pair, single",
    [(0, "c={} d={2}", "c={}"), (5, "c={0} d={0,2}", "c={0,2}"), (13, "c={0} d={0,2,3}", "c={0,2,3}")],
)
def test_planted_j_apply_flip_witnesses(element, pair, single):
    q = quotient_hom(_j_wrong_at(element, lambda ib: ib ^ 1), Ultrafilter(B2, 0))
    assert q.failures == [f"well_defined_on_classes: {pair}", f"intertwines_class_maps: {single}"]
    assert q.claims["well_defined_on_classes"].cases == 64


@pytest.mark.parametrize("base, c0, c1", [(2, 4, 8), (3, 6, 8)])
def test_enumerated_quotient_hom_applies_j_once_per_element(base, c0, c1):
    calls = []

    class Counting(CompleteHom):
        def apply(self, b):
            calls.append(b)
            return super().apply(b)

    tri = _seeded_triangle(random.Random(c0), base, c0, c1)
    j = Counting(tri.j.source, tri.j.target, tri.j.fiber)
    tri = Triangle(tri.i0, tri.i1, j)
    for atom in range(base):
        calls.clear()
        assert quotient_hom(tri, Ultrafilter(tri.i0.source, atom)).passed
        assert calls == list(range(1 << c0))  # |C0| calls, one per element


def test_lift_embedding_identity_family():
    fam = (identity_hom(FiniteCBA(2)), identity_hom(FiniteCBA(3)))
    out = lift_embedding_name(B2, fam)
    assert out.passed
    assert out.hom.fiber == tuple(range(5))


def test_lift_embedding_doubling_fiber():
    k0 = hom_from_fiber_map(B1, B2, [0, 0])  # doubling 1 -> 2 atoms
    k1 = identity_hom(FiniteCBA(2))
    out = lift_embedding_name(B2, (k0, k1))
    assert out.passed, out.failures
    assert out.two0.algebra.atom_count == 3
    assert out.two1.algebra.atom_count == 4


def test_lift_embedding_rejects_nonregular_fiber():
    from forcebench.errors import FiberNotRegular

    bad = hom_from_fiber_map(B2, B2, [0, 0])
    with pytest.raises(FiberNotRegular):
        lift_embedding_name(B2, (bad, identity_hom(B2)))


def test_three_step_trivial_fibers():
    mid = AtomwisePresentation(B2, (B1, B1))
    report = three_step_assoc_audit(B2, mid, (B1, B1))
    assert report.passed and report.claims["quotient_twice_is_quotient_once"].cases == 2


def test_three_step_222_doubling_tower():
    mid = AtomwisePresentation(B2, (FiniteCBA(2), FiniteCBA(2)))
    top = tuple(FiniteCBA(2) for _ in range(4))
    report = three_step_assoc_audit(B2, mid, top)
    assert report.passed
    assert report.claims["quotient_twice_is_quotient_once"].cases == 4


def test_three_step_random_towers():
    rng = random.Random(12)
    for _ in range(25):
        b = FiniteCBA(rng.randint(1, 2))
        mid = AtomwisePresentation(
            b, tuple(FiniteCBA(rng.randint(1, 2)) for _ in range(b.atom_count))
        )
        two1 = build_two_step(mid)
        total = 0
        top = []
        for _ in range(two1.algebra.atom_count):
            n = rng.randint(1, 2)
            total += n
            top.append(FiniteCBA(n))
        if two1.algebra.atom_count + total > 16:
            continue
        report = three_step_assoc_audit(b, mid, tuple(top))
        assert report.passed


def test_three_step_shape_mismatch():
    mid = AtomwisePresentation(B2, (B1, B1))
    with pytest.raises(ShapeMismatch):
        three_step_assoc_audit(B2, mid, (B1,))


def test_sampled_two_step_audits_draw_distinct_cases(monkeypatch):
    # above their enumeration sizes both audits draw fresh seeded cases
    i0 = doubling_hom()
    j = hom_from_fiber_map(FiniteCBA(4), FiniteCBA(12), [t % 4 for t in range(12)])
    probed = set()  # the iso audit maps exactly its probe through the classes
    honest = GenericQuotient.class_of
    monkeypatch.setattr(GenericQuotient, "class_of", lambda q, c: probed.add(c) or honest(q, c))
    iso = two_step_iso_audit(i0.then(j))
    monkeypatch.undo()
    assert iso.passed and len(probed) > 30  # 0, 1 and 32 draws
    q = quotient_hom(Triangle(i0, i0.then(j), j), Ultrafilter(B2, 0))
    assert q.verdict == "PASS"
    assert [c.cases for c in q.claims.values()] == [64, 64, 1, 64]


# -- the iso audit catches one planted defect per claim ----------------------------

ISO_TARGETS = {"exhaustive": (3, 6), "sampled": (3, 9)}  # probe: all 64 / 34 drawn


def _iso_hom(cls, size):
    s, t = ISO_TARGETS[size]
    return cls(FiniteCBA(s), FiniteCBA(t), tuple(x % s for x in range(t)))


class ProjectWrongAtOne(CompleteHom):
    """pi flips source atom 0 at the top element only."""

    def project(self, c):
        p = super().project(c)
        return p ^ 1 if c == self.target.one else p


class NonAtomImagesGainTargetAtom0(CompleteHom):
    """i adds target atom 0 to the image of every non-atom; the quotients,
    built from the images of atoms, stay as they are."""

    def apply(self, b):
        ib = super().apply(b)
        return ib | 1 if b & (b - 1) else ib


class ImagesGainTargetAtom0(CompleteHom):
    """i adds target atom 0 to every nonzero image: the fibers grow."""

    def apply(self, b):
        ib = super().apply(b)
        return ib | 1 if ib else ib


@pytest.fixture
def cleared_tables():
    """Every computed table is empty when the test starts and when it ends,
    so no shared view keeps a class table built before or during the test."""
    tables.clear()
    yield
    tables.clear()


def _class_of_wrong_at(monkeypatch, size, element, wrong):
    """The class map of the quotient at source atom 1 gives ``wrong(class)``
    at one element.  The exhaustive probe reads each class map from its
    shared view's table, so there the defect goes into the layer the table is
    built through, ``Restriction.to_sub`` (use with ``cleared_tables``)."""
    if size == "sampled":
        honest_class_of = GenericQuotient.class_of

        def class_of(self, c):
            cls = honest_class_of(self, c)
            return wrong(cls) if c == element and self.atom == 1 else cls

        monkeypatch.setattr(GenericQuotient, "class_of", class_of)
        return
    honest_to_sub = Restriction.to_sub
    mask = _iso_hom(CompleteHom, size).apply(1 << 1)  # the view of the quotient at atom 1

    def to_sub(self, c):
        cls = honest_to_sub(self, c)
        return wrong(cls) if c == element and self.mask == mask else cls

    monkeypatch.setattr(Restriction, "to_sub", to_sub)


def _phi_wrong_at(monkeypatch, element, flip=1):
    def atom_map(images):
        honest = finite_cba.atom_map(images)
        wrong = lambda c: honest(c) ^ flip * (c == element)  # noqa: E731
        if len(honest.tables) == 1:  # one table holds phi at every element: the defect too
            wrong.tables = [list(map(wrong, range(len(honest.tables[0]))))]
        return wrong

    monkeypatch.setattr(two_step, "atom_map", atom_map)


@pytest.mark.parametrize(
    "size, claim, witness",
    [
        ("exhaustive", "retraction_transported", "c={0,1,2,3,4,5}"),
        ("sampled", "retraction_transported", "c={0,1,2,3,4,5,6,7,8}"),
    ],
)
def test_iso_audit_catches_project_wrong_at_one_element(size, claim, witness):
    iso = two_step_iso_audit(_iso_hom(ProjectWrongAtOne, size))
    assert iso.failures == [f"{claim}: {witness}"]


@pytest.mark.parametrize("size", ["exhaustive", "sampled"])
def test_iso_audit_catches_apply_adding_an_atom_off_the_atoms(size):
    iso = two_step_iso_audit(_iso_hom(NonAtomImagesGainTargetAtom0, size))
    assert iso.failures == ["embedding_transported: b={1,2}"]
    assert iso.claims["embedding_transported"].cases == 8


@pytest.mark.parametrize(
    "size, class_witness",
    [("exhaustive", "c={0}"), ("sampled", "c={0,1,2,3,4,5,6,7,8}")],
)
def test_iso_audit_catches_apply_adding_an_atom_everywhere(size, class_witness):
    iso = two_step_iso_audit(_iso_hom(ImagesGainTargetAtom0, size))
    assert iso.failures == [
        f"phi_is_the_class_family: {class_witness}",
        "bijective_on_atoms: not a bijection on atoms",
        "complement_preserved: c={}",
        "embedding_transported: b={1}",
    ]


@pytest.mark.parametrize(
    "size, element, witness, cases",
    [
        ("exhaustive", 0b000101, "c={0,2}", 64),
        ("sampled", 0b111111111, "c={0,1,2,3,4,5,6,7,8}", 34),
    ],
)
def test_iso_audit_catches_class_of_wrong_at_one_element(
    monkeypatch, cleared_tables, size, element, witness, cases
):
    _class_of_wrong_at(monkeypatch, size, element, lambda cls: cls ^ 1)
    iso = two_step_iso_audit(_iso_hom(CompleteHom, size))
    assert iso.failures == [f"phi_is_the_class_family: {witness}"]
    assert iso.claims["phi_is_the_class_family"].cases == cases


@pytest.mark.parametrize("size", ["exhaustive", "sampled"])
def test_iso_audit_keeps_the_out_of_fiber_error(monkeypatch, cleared_tables, size):
    _class_of_wrong_at(monkeypatch, size, 0, lambda cls: cls | 1 << 10)
    with pytest.raises(ValueError, match="family value at atom 1 outside the fiber"):
        two_step_iso_audit(_iso_hom(CompleteHom, size))


@pytest.mark.parametrize(
    "size, element, claim, witness",
    [
        ("exhaustive", 0b111111, "complement_preserved", "c={}"),
        ("sampled", 0b111111111, "complement_preserved", "c={}"),
        ("exhaustive", 0b11, "join_preserved", "c={0} d={1}"),
        ("sampled", 0b11, "join_preserved", "c={0} d={1}"),
    ],
)
def test_iso_audit_catches_phi_wrong_at_one_element(monkeypatch, size, element, claim, witness):
    _phi_wrong_at(monkeypatch, element)
    iso = two_step_iso_audit(_iso_hom(CompleteHom, size))
    assert iso.claims[claim].witness == witness and not iso.claims[claim].passed


class _WrongAt(CompleteHom):
    """``method`` (project or apply) gives ``wrong(value)`` at ``element``."""

    method, element, wrong = "project", 0, None

    def project(self, c):
        p = super().project(c)
        return self.wrong(p) if self.method == "project" and c == self.element else p

    def apply(self, b):
        ib = super().apply(b)
        return self.wrong(ib) if self.method == "apply" and b == self.element else ib


def _wrong_at(method, element, wrong):
    attributes = {"method": method, "element": element, "wrong": staticmethod(wrong)}
    return type("WrongAt", (_WrongAt,), attributes)


def _planted(monkeypatch, defect):
    """The exhaustive iso hom (3 -> 6 atoms) with one defect planted."""
    if defect == "class map":
        _class_of_wrong_at(monkeypatch, "exhaustive", 0b101101, lambda cls: cls ^ 1)
    elif defect == "phi":
        _phi_wrong_at(monkeypatch, 0b010110)
    elif defect == "phi past the sum":  # a bit no fiber holds, still in the byte
        _phi_wrong_at(monkeypatch, 0b010110, 0x80)
    elif defect == "project":
        return _iso_hom(_wrong_at("project", 0b011010, lambda p: p ^ 1), "exhaustive")
    elif defect == "apply":
        return _iso_hom(_wrong_at("apply", 0b101, lambda ib: ib & ib - 1), "exhaustive")
    return _iso_hom(CompleteHom, "exhaustive")


# the witness and case count of each, as the per-element scans give them
@pytest.mark.parametrize(
    "defect, claim, witness, cases",
    [
        ("class map", "phi_is_the_class_family", "c={0,2,3,5}", 64),
        ("phi", "phi_is_the_class_family", "c={1,2,4}", 64),
        ("phi", "complement_preserved", "c={1,2,4}", 64),
        ("phi", "join_preserved", "c={1,2,3,4} d={1,2,4}", 6 * 6 + 128),
        ("phi past the sum", "phi_is_the_class_family", "c={1,2,4}", 64),
        ("phi past the sum", "complement_preserved", "c={0,3,5}", 64),
        ("project", "retraction_transported", "c={1,3,4}", 64),
        ("apply", "embedding_transported", "b={0,2}", 8),
    ],
)
def test_planted_defect_fails_a_packed_iso_claim_with_the_scans_witness(
    monkeypatch, cleared_tables, defect, claim, witness, cases
):
    iso = two_step_iso_audit(_planted(monkeypatch, defect))
    got = iso.claims[claim]
    assert (got.passed, got.witness, got.cases) == (False, witness, cases)
    assert iso.verdict == "FAIL"
    if defect in ("class map", "project", "apply"):  # the one claim it reaches
        assert iso.failures == [f"{claim}: {witness}"]


def test_packed_phi_decides_an_honest_enumerated_pass(monkeypatch, cleared_tables):
    # no scan runs (each takes its first failure with next), and there is one
    # project per probe element and one apply per quotient and per source
    # element, as the scans would make them
    calls = []

    class Counting(CompleteHom):
        def project(self, c):
            calls.append("project")
            return super().project(c)

        def apply(self, b):
            calls.append("apply")
            return super().apply(b)

    def the_scan_ran(*_):
        raise RuntimeError("a scan ran")

    monkeypatch.setattr(two_step, "next", the_scan_ran, raising=False)
    for s in (1, 2, 3):
        calls.clear()
        h = Counting(FiniteCBA(s), FiniteCBA(6), tuple(x % s for x in range(6)))
        iso = two_step_iso_audit(h)
        assert iso.passed
        assert sorted(calls) == ["apply"] * (s + (1 << s)) + ["project"] * 64


def test_iso_audit_counts_atoms_of_the_sum_not_of_the_target():
    # i(atom 0) already holds target atom 0, so only fiber 1 grows: phi still
    # hits 9 atoms in a row, but the sum has 10
    h = ImagesGainTargetAtom0(FiniteCBA(2), FiniteCBA(9), tuple(t % 2 for t in range(9)))
    iso = two_step_iso_audit(h)
    assert iso.two.algebra.atom_count == 10
    assert not iso.claims["bijective_on_atoms"].passed


# -- enumerated audits read a plain hom's own value tables ---------------------------


def _counted_maps(monkeypatch):
    """CompleteHom's own apply and project rebound at class level, as the
    bench tracer rebinds them, to count their calls per (map, hom): a plain
    hom keeps its own maps, so the table routes stay open."""
    from collections import Counter

    calls, apply, project = Counter(), CompleteHom.apply, CompleteHom.project

    def counted_apply(self, b):
        calls["apply", self] += 1
        return apply(self, b)

    def counted_project(self, c):
        calls["project", self] += 1
        return project(self, c)

    monkeypatch.setattr(CompleteHom, "apply", counted_apply)
    monkeypatch.setattr(CompleteHom, "project", counted_project)
    return calls


def _doubling_triangle(j_class):
    """The triangle over the 2 -> 4 doubling whose leg j is the 4 -> 8 doubling,
    built as a ``j_class``."""
    j = j_class(FiniteCBA(4), FiniteCBA(8), (0, 0, 1, 1, 2, 2, 3, 3))
    return Triangle(doubling_hom(), doubling_hom().then(j), j)


def test_enumerated_audits_read_a_plain_homs_tables_not_its_maps(monkeypatch):
    calls = _counted_maps(monkeypatch)
    h = _iso_hom(CompleteHom, "exhaustive")
    assert retraction_laws_audit(h).passed
    # only meet_counterexample asks: i(pi(c)), then pi at c, at d and at d ∧ c
    assert calls == {("apply", h): 1, ("project", h): 4}
    assert two_step_iso_audit(h).passed  # builds the sum of h's shape, if not yet built
    calls.clear()
    assert two_step_iso_audit(h).passed
    assert calls == {}
    q = quotient_hom(_doubling_triangle(CompleteHom), Ultrafilter(B2, 0))
    assert q.passed
    # no leg is asked, and the quotient hom is read from its own tables
    assert calls == {}


@pytest.mark.parametrize(
    "method, element, wrong, failures",
    [
        (
            "project", 0b011010, lambda p: p ^ 1,
            [
                "expand_dominates: c={1,3,4}", "meet_translation: b={0} c={1,3,4}",
                "meet_translation_join_form: b={0} c={1,3,4}", "join_preserving: c={1} d={3,4}",
                "sub_meet_inequality: c={3} d={1,3,4}", "embedding_from_retraction: b={1}",
                "stone_open_image: c={1,3,4}", "filters_to_filters: c={1,3}",
            ],
        ),
        (
            "apply", 0b010, lambda ib: ib | 1,
            [
                "retract_section: b={1}", "meet_translation: b={1} c={0}",
                "embedding_from_retraction: b={1}", "generic_preimage: target atom 0",
                "filters_to_filters: b={1} c={1}",
            ],
        ),
    ],
    ids=["project", "apply"],
)
def test_enumerated_cases_ask_an_overriding_map_at_every_element(method, element, wrong, failures):
    from forcebench.morphisms import _Cases

    h = _iso_hom(_wrong_at(method, element, wrong), "exhaustive")
    k = _Cases(h, True, None, 200)
    assert k.enumerated
    assert k.ibs == list(map(h.apply, range(8))) and k.pcs == list(map(h.project, range(64)))
    assert retraction_laws_audit(h).failures == failures


@pytest.mark.parametrize("size", ["exhaustive", "sampled"])
def test_generic_quotient_asks_an_overriding_apply_for_its_mask(size):
    # i at atom 1 drops its lowest target atom; the fibers, and so regularity, stay
    h = _iso_hom(_wrong_at("apply", 0b010, lambda ib: ib & ib - 1), size)
    honest = _iso_hom(CompleteHom, size)
    for atom in range(3):
        mask = GenericQuotient(honest, atom).view.mask
        expected = mask & mask - 1 if atom == 1 else mask
        assert GenericQuotient(h, atom).view.mask == expected != 0


@pytest.mark.parametrize(
    "element, witness", [(0b0001, "c={0}"), (0b0101, "c={0,2}"), (0b1111, "c={0,1,2,3}")]
)
def test_quotient_hom_asks_an_overriding_j_project_call_by_call(element, witness):
    tri = _doubling_triangle(_wrong_at("project", element, lambda p: p ^ 1))
    q = quotient_hom(tri, Ultrafilter(B2, 0))
    assert q.failures == [f"retraction_law: {witness}"]
    assert q.claims["retraction_law"].cases == 256
    assert quotient_hom(tri, Ultrafilter(B2, 1)).passed  # j is asked only inside atom 0's class


def test_no_audit_changes_a_homs_tables():
    h = _iso_hom(CompleteHom, "exhaustive")
    i0 = CompleteHom(B2, h.source, (0, 1, 1))
    tri = Triangle(i0, i0.then(h), h)
    maps = [m for g in (i0, tri.i1, h) for m in (g._apply, g._project)]
    before = [[list(table) for table in m.tables] for m in maps]
    assert retraction_laws_audit(h).passed and two_step_iso_audit(h).passed
    assert all(quotient_hom(tri, Ultrafilter(B2, a)).passed for a in range(2))
    assert [m.tables for m in maps] == before


# -- shape-determined work is done once per shape -----------------------------------


def _compositions(total):
    """Every tuple of positive fiber sizes summing to ``total``."""
    if total == 0:
        yield ()
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


def test_cached_sum_is_the_built_sum():
    # every presentation of the enumerated iso sweep: 63 of them
    sizes = [c for total in range(1, 7) for c in _compositions(total)]
    assert len(sizes) == 63
    for fibers in sizes:
        pres = AtomwisePresentation(FiniteCBA(len(fibers)), tuple(map(FiniteCBA, fibers)))
        cached, built = two_step._checked_sum(pres), build_two_step(pres)
        assert two_step._checked_sum(pres) is cached
        assert (cached.algebra, cached.offsets, cached.tops) == (
            built.algebra,
            built.offsets,
            built.tops,
        )
        assert cached.embedding == built.embedding
        # the support table the enumerated iso audit reads, once per sum
        assert cached.supports == tuple(map(built.support, built.algebra.elements()))
        assert cached.supports is cached.supports


@pytest.mark.parametrize("atoms", [5, 6, 12])
def test_rng_less_iso_draws_are_a_fresh_random_0s(atoms):
    r = random.Random(0)
    drawn = tuple(r.getrandbits(atoms) for _ in range(32)) if atoms > 6 else ()
    pairs = tuple((r.getrandbits(atoms), r.getrandbits(atoms)) for _ in range(128))
    assert report.draws(two_step._iso_draws, None, 0, atoms) == (drawn, pairs)
    h = hom_from_fiber_map(B2, FiniteCBA(atoms), [t % 2 for t in range(atoms)])
    rng_less, seeded = two_step_iso_audit(h), two_step_iso_audit(h, random.Random(0))
    assert rng_less.claims == seeded.claims
    assert rng_less.claims["join_preserved"].cases == atoms * atoms + 128


def _first_random_pair(atoms):
    r = random.Random(0)
    for _ in range(32):
        r.getrandbits(atoms)
    return r.getrandbits(atoms), r.getrandbits(atoms)


def _fresh_bits(seed, count, atoms):
    r = random.Random(seed)
    return [r.getrandbits(atoms) for _ in range(count)]


def test_rng_less_quotient_hom_draws_from_a_fresh_random_1():
    # above 8 atoms: 64 elements of C0, 64 of C1, then 64 offsets in C0
    calls = []

    class RecordingHom(CompleteHom):
        def apply(self, b):
            calls.append(("apply", b))
            return super().apply(b)

        def project(self, c):
            calls.append(("project", c))
            return super().project(c)

    C0, C1 = FiniteCBA(9), FiniteCBA(12)
    i0 = hom_from_fiber_map(B2, C0, [t % 2 for t in range(9)])
    j = RecordingHom(C0, C1, tuple(t % 9 for t in range(12)))
    for atom in (0, 1):
        calls.clear()
        result = quotient_hom(Triangle(i0, i0.then(j), j), Ultrafilter(B2, atom))
        r = random.Random(1)
        c0s = [r.getrandbits(9) for _ in range(64)]
        c1s = [r.getrandbits(12) for _ in range(64)]
        mask0, mask1 = i0.apply(1 << atom), i0.then(j).apply(1 << atom)
        pairs = [(c, c ^ (r.getrandbits(9) & ~mask0)) for c in c0s]
        assert calls == (
            [("apply", x) for pair in pairs for x in pair]
            + [("apply", c) for c in c0s]
            + [("project", c & mask1) for c in c1s]
        )
        assert [c.cases for c in result.claims.values()] == [64, 64, 1, 64]
        assert result.passed


class _RecordingMask:
    """A class mask that records each element it is and-ed with."""

    def __init__(self, mask, seen):
        self.mask, self.seen = mask, seen

    def __rand__(self, c):
        self.seen.append(c)
        return c & self.mask


def test_rng_less_three_step_draws_from_a_fresh_random_u(monkeypatch):
    # above 10 top atoms each base atom u draws 64 elements from Random(u)
    real, seen = two_step.GenericQuotient, {}

    def quotient(h, atom):
        q = real(h, atom)
        if h.source.atom_count == 4:  # quotienting once, at a middle atom
            mask = _RecordingMask(q.view.mask, seen.setdefault(atom, []))
            object.__setattr__(q, "view", SimpleNamespace(mask=mask))
        return q

    monkeypatch.setattr(two_step, "GenericQuotient", quotient)
    mid = AtomwisePresentation(B2, (B2, B2))
    ledger = three_step_assoc_audit(B2, mid, (FiniteCBA(3),) * 4)
    assert ledger.passed and ledger.claims["quotient_twice_is_quotient_once"].cases == 4
    assert seen == {m: _fresh_bits(m // 2, 64, 12) for m in range(4)}


def test_rng_less_sup_check_draws_from_a_fresh_random_atom(monkeypatch):
    # above 8 target atoms: 50 triples from Random(atom), each checked once
    calls = []

    class RecordingQuotient(GenericQuotient):
        def class_of(self, c):
            calls.append(c)
            return super().class_of(c)

    monkeypatch.setattr(two_step, "GenericQuotient", RecordingQuotient)
    h = hom_from_fiber_map(B2, FiniteCBA(10), [t % 2 for t in range(10)])
    for atom in (0, 1):
        calls.clear()
        quotient_algebra(h, Ultrafilter(B2, atom))
        xs, expected = _fresh_bits(atom, 150, 10), []
        for x, y, z in zip(xs[::3], xs[1::3], xs[2::3]):
            expected += [x | y | z, x, y, z]
        assert calls == expected


def test_join_defect_on_a_wide_target_survives_the_phi_memo(monkeypatch):
    # reached only through the first random pair, then through atoms 62 and 63
    C = FiniteCBA(64)
    c, d = _first_random_pair(64)
    h = CompleteHom(FiniteCBA(3), C, tuple(t % 3 for t in range(64)))
    for element, witness in (
        (c | d, f"c={finite_cba.format_element(C, c)} d={finite_cba.format_element(C, d)}"),
        (3 << 62, "c={62} d={63}"),
    ):
        _phi_wrong_at(monkeypatch, element)
        iso = two_step_iso_audit(h)
        assert iso.failures == [f"join_preserved: {witness}"]
        assert iso.claims["join_preserved"].cases == 64 * 64 + 128


def test_iso_audits_agree_across_threads():
    # the shape caches are shared: racing first calls give the same verdicts
    homs = [
        hom_from_fiber_map(FiniteCBA(s), FiniteCBA(t), [x % s for x in range(t)])
        for s in (1, 2, 3)
        for t in (4, 5, 6, 9, 17)
    ]
    expected = [two_step_iso_audit(h).claims for h in homs]
    tables.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            runs = [
                pool.submit(lambda: [two_step_iso_audit(h).claims for h in homs])
                for _ in range(8)
            ]
            results = [run.result(timeout=120) for run in runs]
    finally:
        sys.setswitchinterval(interval)
    assert results == [expected] * 8


def test_wide_iso_audit_leaves_the_sum_cache_alone():
    # each wide hom has its own presentation: its sum is built, not kept
    h = hom_from_fiber_map(FiniteCBA(8), FiniteCBA(40), [t % 8 for t in range(40)])
    before = two_step._checked_sum.cache_info().currsize
    assert two_step_iso_audit(h).passed
    assert two_step._checked_sum.cache_info().currsize == before


def test_narrow_quotients_share_one_view_and_wide_ones_do_not():
    narrow = hom_from_fiber_map(B2, FiniteCBA(6), [t % 2 for t in range(6)])
    wide = hom_from_fiber_map(B2, FiniteCBA(7), [t % 2 for t in range(7)])
    assert GenericQuotient(narrow, 1).view is GenericQuotient(narrow, 1).view
    before = two_step._narrow_view.cache_info().currsize
    first, second = GenericQuotient(wide, 1), GenericQuotient(wide, 1)
    assert first.view == second.view and first.view is not second.view
    assert two_step._narrow_view.cache_info().currsize == before


def test_narrow_audits_agree_across_threads_from_cold_caches():
    # every computed table starts empty, and 8 threads race to fill it
    homs = [
        hom_from_fiber_map(FiniteCBA(s), FiniteCBA(t), [x % s for x in fiber])
        for s in (1, 2, 3, 4)
        for t in (4, 5, 6, 9)
        for fiber in (range(t), range(t, 0, -1))
    ]

    def audit_all():
        return [(retraction_laws_audit(h).claims, two_step_iso_audit(h).claims) for h in homs]

    expected = audit_all()
    tables.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            runs = [pool.submit(audit_all) for _ in range(8)]
            results = [run.result(timeout=120) for run in runs]
    finally:
        sys.setswitchinterval(interval)
    assert results == [expected] * 8
