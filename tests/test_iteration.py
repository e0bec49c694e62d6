import collections
import dataclasses
import random

import pytest

import forcebench.iteration as iteration

from forcebench.errors import (
    CoherenceFailure,
    CommutationFailure,
    NotAntichainAtStage,
    NotEager,
    NotRegular,
)
from forcebench.finite_cba import FiniteCBA, Ultrafilter
from forcebench.free_algebra import FreeAlgebra, all_meet, generator
from forcebench.iteration import (
    ConstantThread,
    RuleThread,
    VectorThread,
    _audit_commutation,
    antichain_sup_audit,
    build_lazy_system,
    build_system,
    cofinal_reindex_audit,
    coordinate,
    direct_limit_correspondence_audit,
    largest_constant_below,
    meet_with_constant,
    omega_length_oracle,
    pointwise_sup,
    quotient_system,
    quotient_thread_representative,
    rcs_membership,
    reindex_system,
    thread_validate,
    CofinalityOracle,
)
from forcebench.morphisms import CompleteHom, FreeInclusion, hom_from_fiber_map
from forcebench.poset import Poset
from forcebench.report import FAIL, INDETERMINATE, PASS

from .oracles import reference_round_trips


def doubling_chain():
    b1, b2, b4 = FiniteCBA(1), FiniteCBA(2), FiniteCBA(4)
    return build_system(
        [b1, b2, b4],
        [hom_from_fiber_map(b1, b2, [0, 0]), hom_from_fiber_map(b2, b4, [0, 0, 1, 1])],
    )


def free_tower(depth, base=("x0", "x1")):
    def algebra_rule(n):
        return FreeAlgebra(frozenset(base) | frozenset(f"y{k}" for k in range(n)))

    def step_rule(n):
        return FreeInclusion(algebra_rule(n), algebra_rule(n + 1))

    return build_lazy_system(algebra_rule, step_rule, depth)


def test_single_algebra_system():
    sys1 = build_system([FiniteCBA(2)], [])
    assert sys1.length == 1


def test_doubling_chain_valid():
    system = doubling_chain()
    assert system.hom(0, 2).fiber == (0, 0, 0, 0)
    assert system.hom(1, 2).project(0b0110) == 0b11


def test_build_rejects_nonregular_step():
    b2 = FiniteCBA(2)
    with pytest.raises(NotRegular):
        build_system([b2, b2], [hom_from_fiber_map(b2, b2, [0, 0])])


def test_free_tower_system():
    system = free_tower(4)
    inc = system.hom(0, 2)
    x0, y0 = generator("x0"), generator("y0")
    assert inc.project(x0 & y0) == x0


def test_constant_thread_valid_any_depth():
    system = doubling_chain()
    t = ConstantThread(1, 0b01)
    cert = thread_validate(system, t)
    assert cert.pairs_checked == 3
    assert coordinate(system, t, 0) == 1
    assert coordinate(system, t, 2) == 0b0011


def test_wedge_style_thread_valid_on_tower():
    system = free_tower(16)
    x = [generator(f"x{k}") for k in range(2)]

    def rule(n):
        # meet of fresh-generator disjunctions, per the gallery construction
        out = generator("x0")
        for m in range(1, n + 1):
            out = out & (generator(f"y{m-1}") | generator("x0"))
        return out

    t = RuleThread(rule)
    cert = thread_validate(system, t, depth=16)
    assert cert.depth == 16


def test_invalid_vector_thread_caught():
    system = doubling_chain()
    bad = VectorThread((1, 0b01, 0b1100))
    with pytest.raises(CoherenceFailure):
        thread_validate(system, bad)


def test_pointwise_sup_single_and_complements():
    system = doubling_chain()
    t = ConstantThread(1, 0b01)
    s = pointwise_sup(system, [t])
    assert s.coords == tuple(coordinate(system, t, n) for n in range(3))
    u = ConstantThread(1, 0b10)
    s2 = pointwise_sup(system, [t, u])
    assert s2.coords[-1] == system.algebra(2).one
    thread_validate(system, s2)


def test_antichain_sup_doubling_chain():
    system = doubling_chain()
    t = ConstantThread(1, 0b01)
    u = ConstantThread(1, 0b10)
    report = antichain_sup_audit(system, [t, u], stage=1, depth=2)
    assert report.passed
    claim = report.claims["pointwise_sup_is_the_sup"]
    assert claim.cases > 0  # constant seeds searched
    # sup equals pointwise sup: every candidate found among constants is refuted
    assert claim.passed


def test_antichain_sup_singleton_is_its_own_sup():
    system = doubling_chain()
    t = ConstantThread(1, 0b01)
    report = antichain_sup_audit(system, [t], stage=1, depth=2)
    assert report.passed
    sup = pointwise_sup(system, [t])
    assert sup.coords == tuple(coordinate(system, t, n) for n in range(3))


def test_antichain_sup_precondition_violated():
    system = doubling_chain()
    t = ConstantThread(1, 0b01)
    with pytest.raises(NotAntichainAtStage):
        antichain_sup_audit(system, [t, t], stage=1, depth=2)


def test_antichain_sup_with_supplied_candidate():
    system = doubling_chain()
    t = ConstantThread(2, 0b0001)
    u = ConstantThread(2, 0b0100)
    # candidate below the sup but below neither listed thread
    g = ConstantThread(2, 0b0101)
    report = antichain_sup_audit(system, [t, u], stage=2, depth=2, candidates=[g])
    assert report.passed
    claim = report.claims["pointwise_sup_is_the_sup"]
    assert claim.cases == 1 and claim.passed  # the one candidate is refuted


def test_antichain_sup_names_the_first_incoherent_pair_of_the_refinement(monkeypatch):
    # stage 2's 0b1100 projects to 0b10 at stage 1, not to the planted 0b01
    monkeypatch.setattr(iteration, "meet_with_constant", lambda *_: VectorThread((1, 0b01, 0b1100)))
    system = doubling_chain()
    t = ConstantThread(2, 0b0001)
    u = ConstantThread(2, 0b0100)
    g = ConstantThread(2, 0b0101)
    report = antichain_sup_audit(system, [t, u], stage=2, depth=2, candidates=[g])
    claim = report.claims["pointwise_sup_is_the_sup"]
    assert not claim.passed
    assert claim.witness == "refinement not coherent at (1,2)"


def test_correspondence_finite_length():
    system = doubling_chain()
    report = direct_limit_correspondence_audit(system)
    assert report.passed, report.failures


def test_correspondence_finite_every_small_chain():
    rng = random.Random(3)
    for _ in range(20):
        algebras = [FiniteCBA(1)]
        steps = []
        while len(algebras) < 3:
            prev = algebras[-1]
            grow = rng.randint(prev.atom_count, min(prev.atom_count + 2, 5))
            nxt = FiniteCBA(grow)
            fiber = list(range(prev.atom_count)) + [
                rng.randrange(prev.atom_count) for _ in range(grow - prev.atom_count)
            ]
            rng.shuffle(fiber)
            steps.append(CompleteHom(prev, nxt, tuple(fiber)))
            algebras.append(nxt)
        system = build_system(algebras, steps)
        report = direct_limit_correspondence_audit(system)
        assert report.passed, report.failures


def _plant_in_completion(monkeypatch, plant):
    """The eager correspondence audit gets ``plant`` of the completion it builds."""
    complete = iteration.boolean_completion
    monkeypatch.setattr(iteration, "boolean_completion", lambda poset: plant(complete(poset)))


def test_correspondence_round_trip_fails_on_swapped_constant_images(monkeypatch):
    # on 1 -> 2 atoms the constants 1 and 3 trade images: {1} now holds the
    # image of 3, so the round trip sends it to the join of every constant
    def swap(c):
        e = c.embedding
        return dataclasses.replace(c, embedding={**e, "t1": e["t3"], "t3": e["t1"]})

    _plant_in_completion(monkeypatch, swap)
    report = direct_limit_correspondence_audit(_two_stage_system())
    assert report.verdict == FAIL
    claim = report.claims["round_trip"]
    assert (claim.passed, claim.cases, claim.witness) == (False, 4, "moved 1 to 3")


def test_correspondence_fails_on_a_dropped_completion_atom(monkeypatch):
    # the completion loses its last atom, from the algebra and every image
    def drop(c):
        top = c.algebra.atom_count - 1
        images = {p: x & ~(1 << top) for p, x in c.embedding.items()}
        return dataclasses.replace(c, algebra=FiniteCBA(top), embedding=images)

    _plant_in_completion(monkeypatch, drop)
    report = direct_limit_correspondence_audit(doubling_chain())
    assert report.verdict == FAIL
    assert list(report.claims) == ["completion_atom_count"]
    assert report.claims["completion_atom_count"].witness == "completion has the wrong atom count"


def test_constant_thread_poset_is_the_subset_order(monkeypatch):
    # the poset the eager correspondence audit completes has the masks the
    # pair constructor validates from every pair d <= e of nonzero elements
    built = []
    complete = iteration.boolean_completion
    monkeypatch.setattr(iteration, "boolean_completion", lambda p: complete(built.append(p) or p))
    for atoms in range(1, 7):
        alg = FiniteCBA(atoms)
        system = build_system([FiniteCBA(1), alg], [CompleteHom(FiniteCBA(1), alg, (0,) * atoms)])
        assert direct_limit_correspondence_audit(system).passed
        names = tuple(f"t{e}" for e in alg.nonzero_elements())
        pairs = frozenset(
            (f"t{d}", f"t{e}") for d in alg.nonzero_elements() for e in alg.nonzero_elements()
            if d & ~e == 0
        )
        expected, poset = Poset(names, pairs), built[-1]
        assert (poset.elements, poset.downs, poset.ups) == (names, expected.downs, expected.ups)


@pytest.mark.parametrize("atoms", range(1, 9))
def test_round_trip_matches_the_per_pair_scan(monkeypatch, atoms):
    # the completion as built, with two constants' images swapped, with an
    # image past the completion's atoms, and with both: the round_trip claim
    # reads as the per-pair scan of the same completion says it must
    alg, rng = FiniteCBA(atoms), random.Random(atoms)
    system = build_system([FiniteCBA(1), alg], [CompleteHom(FiniteCBA(1), alg, (0,) * atoms)])
    names = [f"t{e}" for e in alg.nonzero_elements()]

    def swapped(images):
        a, b = rng.sample(names, 2) if len(names) > 1 else names * 2
        return {**images, a: images[b], b: images[a]}

    def beyond(images):
        return {**images, rng.choice(names): images[rng.choice(names)] | 1 << atoms}

    complete, planted, verdicts = iteration.boolean_completion, [], set()
    for plant in (dict, swapped, beyond, lambda images: beyond(swapped(images))):

        def build(poset, plant=plant):
            c = complete(poset)
            planted.append(dataclasses.replace(c, embedding=plant(c.embedding)))
            return planted[-1]

        monkeypatch.setattr(iteration, "boolean_completion", build)
        claim = direct_limit_correspondence_audit(system).claims["round_trip"]
        monkeypatch.undo()
        backs = reference_round_trips(alg, planted[-1])
        moved = [(m, back) for m, back in enumerate(backs) if back != m]
        witness = f"moved {moved[0][0]} to {moved[0][1]}" if moved else ""
        assert (claim.passed, claim.cases, claim.witness) == (not moved, 1 << atoms, witness)
        verdicts.add(claim.passed)
    assert verdicts == {True, False}


def test_correspondence_lazy_constant_reaches():
    system = free_tower(6)
    t = ConstantThread(1, generator("y0"))
    report = direct_limit_correspondence_audit(system, depth=5, threads=[t])
    assert report.details["threads"][0]["verdict"] == "members-evidence"
    assert report.verdict == PASS
    assert report.claims["threads_reached_or_gapped"].cases == 1


def test_correspondence_lazy_gap_certificate():
    system = free_tower(8)

    def rule(n):
        return all_meet(generator(f"y{k}") for k in range(n)) if n else system.algebra(0).one

    t = RuleThread(rule, description="all fresh generators")
    report = direct_limit_correspondence_audit(system, depth=6, threads=[t])
    assert report.details["threads"][0]["verdict"] == "gap"
    assert report.verdict == PASS


def test_correspondence_lazy_partial_thread_fails():
    # x0 or (y0 and ... and y_{n-1}): the constant x0 lies below it, but no
    # constant reaches the shrinking meets of fresh generators
    system = free_tower(8)

    def rule(n):
        meets = all_meet(generator(f"y{k}") for k in range(n)) if n else system.algebra(0).one
        return generator("x0") | meets

    reaches = ConstantThread(1, generator("y0"))
    partial = RuleThread(rule, description="x0 or all fresh generators")
    report = direct_limit_correspondence_audit(system, depth=5, threads=[reaches, partial])
    assert [d["verdict"] for d in report.details["threads"]] == ["members-evidence", "partial"]
    assert report.verdict == FAIL
    claim = report.claims["threads_reached_or_gapped"]
    assert claim.cases == 2
    assert "thread 1" in claim.witness and "depth 5" in claim.witness


def test_correspondence_lazy_without_threads_is_indeterminate():
    report = direct_limit_correspondence_audit(free_tower(4), depth=3, threads=[])
    assert report.verdict == INDETERMINATE


def test_rcs_constant_member():
    system = doubling_chain()
    v = rcs_membership(system, ConstantThread(0, 1), omega_length_oracle())
    assert v.member is True and "constant" in v.reason


def test_rcs_omega_oracle_always_member_for_rule_threads():
    system = free_tower(6)
    t = RuleThread(lambda n: generator("x0"), constant_from=None)
    v = rcs_membership(system, t, omega_length_oracle(), depth=5)
    assert v.member is True


def test_rcs_refuting_oracle_nonmember():
    system = free_tower(6)
    refuter = CofinalityOracle(lambda stage, elem: "refutes")
    t = RuleThread(lambda n: generator("x0"))
    v = rcs_membership(system, t, refuter, depth=5)
    assert v.member is False


def test_rcs_unknown_is_indeterminate():
    system = free_tower(6)
    agnostic = CofinalityOracle(lambda stage, elem: "unknown")
    t = RuleThread(lambda n: generator("x0"))
    v = rcs_membership(system, t, agnostic, depth=5)
    assert v.member is None


def test_rcs_declared_constancy_audited():
    system = free_tower(6)
    t = RuleThread(lambda n: generator("x0"), constant_from=0)
    v = rcs_membership(system, t, CofinalityOracle(lambda s, e: "unknown"), depth=5)
    assert v.member is True
    bad = RuleThread(
        lambda n: generator("x0") if n < 3 else generator("x1"), constant_from=0
    )
    v2 = rcs_membership(system, bad, CofinalityOracle(lambda s, e: "unknown"), depth=5)
    assert v2.member is None


@pytest.mark.parametrize(
    "oracle",
    [omega_length_oracle(), CofinalityOracle(lambda stage, elem: "refutes")],
    ids=["omega", "refuting"],
)
def test_rcs_membership_refuses_an_incoherent_vector(oracle):
    a1, a2 = FiniteCBA(1), FiniteCBA(2)
    system = build_system([a1, a2], [CompleteHom(a1, a2, (0, 0))])
    bad = VectorThread((0, 0b01))
    with pytest.raises(CoherenceFailure):
        thread_validate(system, bad)
    v = rcs_membership(system, bad, oracle)
    assert v.member is False and "(0,1)" in v.reason
    # a coherent vector on the same system stays a member
    good = VectorThread((0, 0))
    thread_validate(system, good)
    assert rcs_membership(system, good, oracle).member is True


def test_rcs_sandwich_for_validated_threads():
    # C(F) ⊆ RCS(F) ⊆ T(F) as verdicts
    system = doubling_chain()
    oracle = omega_length_oracle()
    for e in system.algebra(2).nonzero_elements():
        t = ConstantThread(2, e)
        thread_validate(system, t)
        assert rcs_membership(system, t, oracle).member is True


def test_thread_determined_by_tail():
    system = doubling_chain()
    for e in system.algebra(2).elements():
        t = ConstantThread(2, e)
        coords = tuple(coordinate(system, t, n) for n in range(3))
        # two threads agreeing at the last stage agree everywhere below
        assert coords[0] == system.hom(0, 2).project(e)
        assert coords[1] == system.hom(1, 2).project(e)


def test_limit_embedding_and_projection():
    system = doubling_chain()
    for b in system.algebra(1).elements():
        t = ConstantThread(1, b)
        thread_validate(system, t)
        assert coordinate(system, t, 1) == b  # pi_alpha on the limit is evaluation
    # meet of a thread and a constant thread is their infimum
    g = ConstantThread(2, 0b0111)
    h = ConstantThread(1, 0b01)
    w = meet_with_constant(system, g, h)
    thread_validate(system, w)
    assert coordinate(system, w, 2) == 0b0011
    for e in system.algebra(2).elements():
        cand = ConstantThread(2, e)
        below_both = system.algebra(2).leq(e, 0b0111) and system.algebra(2).leq(
            e, coordinate(system, h, 2)
        )
        if below_both:
            assert system.algebra(2).leq(e, coordinate(system, w, 2))


def test_quotient_system_last_stage_empty_tail():
    system = doubling_chain()
    out = quotient_system(system, 2, Ultrafilter(system.algebra(2), 0))
    assert out.system is None


def test_quotient_system_doubling():
    system = doubling_chain()
    out = quotient_system(system, 1, Ultrafilter(system.algebra(1), 0))
    assert out.system.length == 1
    assert out.system.algebra(0).atom_count == 2  # the fiber over atom 0


def test_quotient_system_three_stages():
    b1, b2, b4, b8 = FiniteCBA(1), FiniteCBA(2), FiniteCBA(4), FiniteCBA(8)
    system = build_system(
        [b2, b4, b8],
        [
            hom_from_fiber_map(b2, b4, [0, 0, 1, 1]),
            hom_from_fiber_map(b4, b8, [0, 0, 1, 1, 2, 2, 3, 3]),
        ],
    )
    out = quotient_system(system, 0, Ultrafilter(b2, 0))
    assert out.system.length == 2
    assert out.system.algebra(0).atom_count == 2
    assert out.system.algebra(1).atom_count == 4
    assert out.system.hom(0, 1).regular


def test_quotient_thread_representative_constant():
    system = doubling_chain()
    base = system.algebra(1)
    tails = tuple(quotient_system(system, 1, Ultrafilter(base, a)) for a in range(base.atom_count))
    families = tuple(VectorThread((t.quotients[0].class_of(0b0101),)) for t in tails)
    g = quotient_thread_representative(tails, families)
    assert coordinate(system, g, 2) == 0b0101
    # representative of a constant quotient-thread is the constant of its representative
    t = ConstantThread(2, 0b0101)
    for n in range(3):
        assert coordinate(system, g, n) == coordinate(system, t, n)


def test_quotient_requires_eager():
    system = free_tower(3)
    with pytest.raises(NotEager):
        quotient_system(system, 0, Ultrafilter(FiniteCBA(1), 0))


def test_reindex_cofinal_invariance():
    b1, b2, b4, b8 = FiniteCBA(1), FiniteCBA(2), FiniteCBA(4), FiniteCBA(8)
    system = build_system(
        [b1, b2, b4, b8],
        [
            hom_from_fiber_map(b1, b2, [0, 0]),
            hom_from_fiber_map(b2, b4, [0, 0, 1, 1]),
            hom_from_fiber_map(b4, b8, [0, 0, 1, 1, 2, 2, 3, 3]),
        ],
    )
    for indices in (0, 3), (1, 2, 3):
        ledger = cofinal_reindex_audit(system, indices)
        # a case per atom: the last stage has more than EXHAUSTIVE_MAX_ATOMS atoms
        assert ledger.passed and ledger.claims["cofinal_reindex_agrees"].cases == 8
    sub = reindex_system(system, (0, 2, 3))
    assert sub.length == 3
    with pytest.raises(ValueError):
        reindex_system(system, (0, 1))  # not cofinal


def _two_stage_system():
    b1, b2 = FiniteCBA(1), FiniteCBA(2)
    return build_system([b1, b2], [hom_from_fiber_map(b1, b2, [0, 0])])


def test_reindex_rejects_an_empty_index_map():
    with pytest.raises(ValueError, match="at least one"):
        reindex_system(_two_stage_system(), ())


def test_reindex_rejects_a_negative_stage():
    with pytest.raises(ValueError, match="strictly increasing stages"):
        reindex_system(_two_stage_system(), (-1, 1))


def test_commutation_failure_detected():
    b2, b4 = FiniteCBA(2), FiniteCBA(4)
    step = hom_from_fiber_map(b2, b4, [0, 0, 1, 1])
    with pytest.raises(CommutationFailure):
        build_system([b2, b2], [step])  # declared stage shapes disagree


def test_rule_thread_rule_runs_once_per_stage():
    system = free_tower(12)
    calls = collections.Counter()

    def rule(n):
        calls[n] += 1
        return all_meet(generator(f"y{k}") for k in range(n))

    t = RuleThread(rule)
    thread_validate(system, t, depth=12)
    thread_validate(system, t, depth=12)
    assert coordinate(system, t, 5) == all_meet(generator(f"y{k}") for k in range(5))
    assert calls == {n: 1 for n in range(13)}


def test_thread_validate_takes_each_coordinate_once(monkeypatch):
    system = doubling_chain()
    asked = collections.Counter()
    real = iteration.coordinate

    def counted(system, thread, n):
        asked[n] += 1
        return real(system, thread, n)

    monkeypatch.setattr(iteration, "coordinate", counted)
    cert = thread_validate(system, ConstantThread(1, 0b01))
    assert cert.pairs_checked == 3
    assert asked == {0: 1, 1: 1, 2: 1}


def twelve_stage_chain():
    """Finite stages with 1, 1, 2, 2, ..., 6, 6 atoms and regular steps."""
    algebras = [FiniteCBA(1 + n // 2) for n in range(12)]
    steps = [
        hom_from_fiber_map(
            src, tgt, [min(t, src.atom_count - 1) for t in range(tgt.atom_count)]
        )
        for src, tgt in zip(algebras, algebras[1:])
    ]
    return algebras, steps


def test_commutation_audit_builds_no_hom_per_triple(monkeypatch):
    algebras, steps = twelve_stage_chain()
    made = []
    real = CompleteHom.__post_init__

    def counted(self):
        made.append((self.source.atom_count, self.target.atom_count))
        real(self)

    monkeypatch.setattr(CompleteHom, "__post_init__", counted)
    build_system(algebras, steps)
    # one hom per stage pair a <= b (the cached compositions), none per triple
    assert len(made) == 12 * 13 // 2


def _first_failing_triple(system, depth):
    for a in range(depth + 1):
        for b in range(a, depth + 1):
            for c in range(b, depth + 1):
                if system.hom(a, b).then(system.hom(b, c)) != system.hom(a, c):
                    return (a, b, c)
    return None


def test_commutation_audit_reports_the_first_failing_triple():
    algebras, steps = twelve_stage_chain()
    system = build_system(algebras, steps)
    good = system.hom(3, 8)
    bad = list(good.fiber)
    bad[-1] = 1 - bad[-1]  # a planted defect: one target atom moved
    system._hom_cache[(3, 8)] = hom_from_fiber_map(good.source, good.target, bad)
    assert _first_failing_triple(system, 11) == (2, 3, 8)
    with pytest.raises(CommutationFailure) as err:
        _audit_commutation(system, 11)
    assert err.value.stages == (2, 3, 8)

    tower = free_tower(5)
    tower._hom_cache[(1, 3)] = FreeInclusion(tower.algebra(1), tower.algebra(4))
    assert _first_failing_triple(tower, 5) == (0, 1, 3)
    with pytest.raises(CommutationFailure) as err:
        _audit_commutation(tower, 5)
    assert err.value.stages == (0, 1, 3)


def random_chain(rng, length, max_atoms=5):
    """A finite system of ``length`` stages, each step a random regular embedding."""
    algebras, steps = [FiniteCBA(rng.randint(1, 2))], []
    while len(algebras) < length:
        prev = algebras[-1]
        nxt = FiniteCBA(rng.randint(prev.atom_count, min(prev.atom_count + 2, max_atoms)))
        fiber = list(range(prev.atom_count)) + [
            rng.randrange(prev.atom_count) for _ in range(nxt.atom_count - prev.atom_count)
        ]
        rng.shuffle(fiber)
        steps.append(hom_from_fiber_map(prev, nxt, fiber))
        algebras.append(nxt)
    return build_system(algebras, steps)


def test_largest_constant_below_is_the_join_of_every_constant_below():
    # arbitrary coordinates, coherent or not: the bound is the join of the
    # stage-s seeds whose images stay below every coordinate from s to the end
    rng = random.Random(13)
    pairs = 0
    for _ in range(40):
        system = random_chain(rng, 4)
        coords = tuple(rng.randrange(system.algebra(n).one + 1) for n in system.stages())
        thread, depth = VectorThread(coords), system.length - 2
        for s in range(depth + 1):
            alg_s = system.algebra(s)
            below = alg_s.sup(
                x
                for x in alg_s.elements()
                if all(
                    system.algebra(b).leq(system.hom(s, b).apply(x), coords[b])
                    for b in range(s, system.length)
                )
            )
            assert largest_constant_below(system, thread, s, depth) == below
            pairs += 1
    assert pairs == 120
