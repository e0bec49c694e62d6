import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from forcebench.bvm import (
    Atomic,
    BName,
    BoundedExists,
    BoundedForall,
    Exists,
    NamePool,
    Not,
    Var,
    check_name,
    delta1_audit,
    empty_name,
    eval_at_atom,
    forcing_audit,
    free_variables,
    fullness_witness,
    generic_filter_name,
    hf_satisfies,
    lift_name,
    mix,
    name_from_pairs,
    quantifier_depth,
    random_name_pool,
    standard_formula_pool,
    standard_name_pool,
    truth_value,
)
import forcebench.bvm as bvm
from forcebench.errors import (
    EmptyPool,
    MixedAlgebras,
    NotAntichain,
    NotRegular,
    RankExceeded,
)
from forcebench.finite_cba import FiniteCBA, Ultrafilter, ultrafilters
from forcebench.hf import EMPTY, hf, hf_rank, hf_universe, von_neumann
from forcebench.morphisms import hom_from_fiber_map, identity_hom
from forcebench.report import INDETERMINATE

B1 = FiniteCBA(1)
B2 = FiniteCBA(2)


def dot_d():
    # the name {(empty-check, {atom0})} over B(2)
    return BName(B2, [(check_name(B2, EMPTY), 0b01)])


def test_name_construction_validation():
    with pytest.raises(ValueError):
        BName(B2, [(check_name(B2, EMPTY), 0)])
    with pytest.raises(MixedAlgebras):
        BName(B2, [(check_name(B1, EMPTY), 1)])
    with pytest.raises(ValueError):
        BName(B2, [(check_name(B2, EMPTY), 1), (check_name(B2, EMPTY), 2)])


def test_name_rank():
    c0 = check_name(B2, EMPTY)
    assert c0.rank == 0
    assert check_name(B2, hf(EMPTY)).rank == 1
    assert dot_d().rank == 1


def test_relation_form_names_collapse():
    c0 = check_name(B2, EMPTY)
    n = name_from_pairs(B2, [(c0, 0b01), (c0, 0b10)])
    assert n.label(c0) == 0b11


def test_reflexivity_of_equality():
    assert truth_value(Atomic("eq", check_name(B2, EMPTY), check_name(B2, EMPTY)), {}, B2) == B2.one


def test_check_names_absolute_for_membership():
    # rank <= 2 hereditarily finite sets, against the membership oracle
    universe = sorted(hf_universe(2), key=hf_rank)
    for a, b in itertools.product(universe, repeat=2):
        val = truth_value(Atomic("mem", check_name(B2, a), check_name(B2, b)), {}, B2)
        assert val == (B2.one if a in b else 0)
        val = truth_value(Atomic("eq", check_name(B2, a), check_name(B2, b)), {}, B2)
        assert val == (B2.one if a == b else 0)


def test_one_step_unfold():
    d = dot_d()
    assert truth_value(Atomic("mem", check_name(B2, EMPTY), d), {}, B2) == 0b01


def test_eval_check_name_is_identity():
    for x in hf_universe(2):
        for u in ultrafilters(B2):
            assert eval_at_atom(check_name(B2, x), u) == x


def test_eval_dot_d():
    d = dot_d()
    assert eval_at_atom(d, Ultrafilter(B2, 0)) == hf(EMPTY)
    assert eval_at_atom(d, Ultrafilter(B2, 1)) == EMPTY


def test_equality_laws_on_pool():
    pool = standard_name_pool(B2, max_rank=2)[:40]
    for n in pool:
        assert truth_value(Atomic("eq", n, n), {}, B2) == B2.one
    rng = random.Random(3)
    for _ in range(150):
        a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        ab = truth_value(Atomic("eq", a, b), {}, B2)
        ba = truth_value(Atomic("eq", b, a), {}, B2)
        assert ab == ba
        bc = truth_value(Atomic("eq", b, c), {}, B2)
        ac = truth_value(Atomic("eq", a, c), {}, B2)
        assert B2.leq(ab & bc, ac)


def test_truth_value_rank_bound():
    deep = check_name(B2, von_neumann(5))
    with pytest.raises(RankExceeded):
        truth_value(Atomic("eq", deep, deep), {}, B2, rank_bound=4)


def test_forcing_audit_b1_degenerates_to_classical_truth():
    pool = standard_name_pool(B1, max_rank=2)
    report = forcing_audit(B1, pool, standard_formula_pool())
    assert report.passed
    assert report.cases > 0


def test_forcing_audit_on_zero_cases_does_not_pass():
    report = forcing_audit(B2, standard_name_pool(B2, max_rank=1), ())
    assert report.cases == 0 and not report.divergences
    assert not report.passed


def test_forcing_audit_b2_rank2():
    pool = standard_name_pool(B2, max_rank=2)
    report = forcing_audit(B2, pool[:24], standard_formula_pool())
    assert report.passed, report.divergences[:3]


def test_forcing_audit_b4_random_pools():
    b4 = FiniteCBA(4)
    formulas = standard_formula_pool()
    for seed in range(20):
        rng = random.Random(seed)
        pool = random_name_pool(b4, 12, 3, rng)
        report = forcing_audit(b4, pool, formulas)
        assert report.passed, (seed, report.divergences[:2])


def test_forcing_audit_calls_truth_value_per_assignment_and_oracle_per_case(monkeypatch):
    # the per-layer trace counts these two module-level calls; an audit that
    # bypassed either would read as a layer that did no work
    calls = {"truth_value": 0, "hf_satisfies": 0}
    for name in calls:
        def counted(*args, _real=getattr(bvm, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(bvm, name, counted)
    pool = standard_name_pool(B2, max_rank=2)[:7]
    formulas = standard_formula_pool()
    report = forcing_audit(B2, pool, formulas)
    assignments = sum(len(pool) ** len(free_variables(phi)) for phi in formulas)
    assert report.passed
    assert calls["truth_value"] == assignments
    assert calls["hf_satisfies"] == report.cases == assignments * B2.atom_count


def test_name_pool_and_plain_pool_give_the_same_values():
    pool = random_name_pool(FiniteCBA(3), 9, 2, random.Random(5))
    names = NamePool(FiniteCBA(3), pool)
    assert sorted(names.names, key=BName.sort_key) == list(names.names)
    assert set(names.names) == set(pool)
    for phi in standard_formula_pool() + (Exists("x", Atomic("mem", Var("x"), Var("u"))),):
        fvs = sorted(free_variables(phi))
        for picks in itertools.product(pool[:4], repeat=len(fvs)):
            env = dict(zip(fvs, picks))
            assert truth_value(phi, env, None, names) == truth_value(phi, env, None, pool)


def test_name_pool_path_keeps_every_check():
    c0 = check_name(B2, EMPTY)
    pool = standard_name_pool(B2, max_rank=2)[:10]
    names = NamePool(B2, pool)
    u = Var("u")
    # a pool name over another algebra
    with pytest.raises(MixedAlgebras):
        NamePool(B2, pool + (check_name(B1, EMPTY),))
    with pytest.raises(MixedAlgebras):
        forcing_audit(B2, pool + (check_name(B1, EMPTY),), standard_formula_pool())
    with pytest.raises(RankExceeded):
        NamePool(B2, pool, rank_bound=1)
    # the pool checked against a tighter bound, or a different algebra
    with pytest.raises(RankExceeded):
        truth_value(Atomic("eq", u, u), {"u": c0}, B2, names, rank_bound=1)
    with pytest.raises(MixedAlgebras):
        truth_value(Atomic("eq", u, u), {"u": c0}, FiniteCBA(4), names)
    # a formula constant of rank above the bound
    deep = check_name(B2, von_neumann(5))
    with pytest.raises(RankExceeded):
        truth_value(Atomic("eq", deep, u), {"u": c0}, B2, names)
    # an environment name over another algebra
    with pytest.raises(MixedAlgebras):
        truth_value(Atomic("eq", u, c0), {"u": check_name(B1, EMPTY)}, B2, names)
    with pytest.raises(EmptyPool):
        fullness_witness(Atomic("eq", u, u), "u", {}, ())
    with pytest.raises(NotRegular):
        delta1_audit(hom_from_fiber_map(B2, B2, [0, 0]), pool, standard_formula_pool())


def test_mix_trivial_antichain():
    a = check_name(B2, hf(EMPTY))
    m = mix(B2, [B2.one], [a])
    assert truth_value(Atomic("eq", m, a), {}, B2) == B2.one


def test_mix_two_atoms():
    n0 = check_name(B2, EMPTY)
    n1 = check_name(B2, hf(EMPTY))
    m = mix(B2, [0b01, 0b10], [n0, n1])
    assert eval_at_atom(m, Ultrafilter(B2, 0)) == EMPTY
    assert eval_at_atom(m, Ultrafilter(B2, 1)) == hf(EMPTY)
    assert B2.leq(0b01, truth_value(Atomic("eq", m, n0), {}, B2))
    assert B2.leq(0b10, truth_value(Atomic("eq", m, n1), {}, B2))


def test_mix_empty_antichain_gives_empty_name():
    assert mix(B2, [], []) == empty_name(B2)


def test_mix_rejects_overlap():
    with pytest.raises(NotAntichain):
        mix(B2, [0b01, 0b11], [check_name(B2, EMPTY)] * 2)


def test_mix_defining_inequality_randomized():
    rng = random.Random(9)
    b4 = FiniteCBA(4)
    pool = random_name_pool(b4, 10, 2, rng)
    for _ in range(50):
        names = [rng.choice(pool), rng.choice(pool)]
        anti = [0b0011, 0b1100]
        m = mix(b4, anti, names)
        for a, n in zip(anti, names):
            assert b4.leq(a, truth_value(Atomic("eq", m, n), {}, b4))


def test_fullness_trivial():
    c0 = check_name(B2, EMPTY)
    phi = Atomic("eq", Var("x"), c0)
    w = fullness_witness(phi, "x", {}, (c0,))
    assert truth_value(Atomic("eq", w, c0), {}, B2) == B2.one


def test_fullness_membership_example():
    d = dot_d()
    c0 = check_name(B2, EMPTY)
    phi = Atomic("mem", Var("x"), d)
    w = fullness_witness(phi, "x", {}, (c0,))
    env = {"x": w}
    assert truth_value(phi, env, B2) == 0b01


def test_fullness_equals_existential_randomized():
    rng = random.Random(21)
    formulas = [
        Atomic("eq", Var("x"), Var("u")),
        Atomic("mem", Var("x"), Var("u")),
        Atomic("sub", Var("x"), Var("u")),
        Not(Atomic("mem", Var("u"), Var("x"))),
    ]
    pool_all = standard_name_pool(B2, max_rank=2)
    for _ in range(100):
        pool = tuple(rng.sample(pool_all, 6))
        u = rng.choice(pool_all)
        phi = rng.choice(formulas)
        w = fullness_witness(phi, "x", {"u": u}, pool)
        lhs = truth_value(Exists("x", phi), {"u": u}, B2, pool)
        rhs = truth_value(phi, {"x": w, "u": u}, B2, pool)
        assert lhs == rhs


def test_fullness_empty_pool():
    with pytest.raises(EmptyPool):
        fullness_witness(Atomic("eq", Var("x"), Var("x")), "x", {}, ())


def test_lift_identity_is_identity():
    h = identity_hom(B2)
    for n in standard_name_pool(B2, max_rank=2)[:20]:
        assert lift_name(h, n) == n


def test_lift_check_names():
    h = hom_from_fiber_map(B2, FiniteCBA(4), [0, 0, 1, 1])
    for x in hf_universe(2):
        assert lift_name(h, check_name(B2, x)) == check_name(h.target, x)


def test_lift_dot_d_example():
    h = hom_from_fiber_map(B2, FiniteCBA(4), [0, 0, 1, 1])
    lifted = lift_name(h, dot_d())
    val = truth_value(Atomic("mem", check_name(h.target, EMPTY), lifted), {}, h.target)
    assert val == 0b0011


def test_lift_along_nonregular_hom_drops_killed_labels():
    # the constant-fiber hom kills atom 1; entries labeled inside the kernel vanish
    h = hom_from_fiber_map(B2, B2, [0, 0])
    c0 = check_name(B2, EMPTY)
    n = BName(B2, [(c0, 0b10)])
    assert lift_name(h, n) == empty_name(B2)
    m = BName(B2, [(c0, 0b11)])
    assert lift_name(h, m) == BName(B2, [(c0, 0b11)])


def test_lift_commutes_with_eval():
    h = hom_from_fiber_map(B2, FiniteCBA(4), [0, 0, 1, 1])
    pool = standard_name_pool(B2, max_rank=2)[:30]
    for n in pool:
        for u in ultrafilters(h.target):
            source_u = Ultrafilter(B2, h.fiber[u.atom])
            assert eval_at_atom(lift_name(h, n), u) == eval_at_atom(n, source_u)


def test_delta1_audit_atomic_and_bounded():
    h = hom_from_fiber_map(B2, FiniteCBA(4), [0, 0, 1, 1])
    pool = standard_name_pool(B2, max_rank=2)[:12]
    d0 = (
        Atomic("eq", Var("u"), Var("v")),
        Atomic("mem", Var("u"), Var("v")),
        BoundedExists("z", Var("u"), Atomic("eq", Var("z"), Var("v"))),
        BoundedForall("z", Var("u"), Atomic("mem", Var("z"), Var("v"))),
    )
    d1 = (
        (Exists("x", Atomic("eq", Var("x"), Var("u"))),
         Not(Exists("x", Atomic("eq", Var("x"), Var("u"))))),
    )
    # the Sigma-1 flagged pair must itself be Sigma-1; build a genuine pair
    pos = Exists("x", Atomic("mem", Var("u"), Var("x")))
    neg_equiv = Not(pos)
    report = delta1_audit(h, pool, d0_formulas=d0, d1_pairs=((pos, neg_equiv),))
    assert report.passed, report.failures[:3]
    assert report.claims["bounded_formulas_commute"].cases > 0
    assert report.claims["sigma1_pairs_pin_values"].cases > 0


def test_delta1_identity_hom_trivial():
    h = identity_hom(B2)
    pool = standard_name_pool(B2, max_rank=1)
    report = delta1_audit(h, pool, d0_formulas=standard_formula_pool())
    commute = report.claims["bounded_formulas_commute"]
    assert commute.passed and commute.cases > 0
    assert report.verdict == INDETERMINATE  # no Sigma-1 pairs were given


def test_bounded_exists_unfolds_membership_example():
    # exists z in dot_d with z = empty-check has the same value as the membership
    d = dot_d()
    c0 = check_name(B2, EMPTY)
    h = hom_from_fiber_map(B2, FiniteCBA(4), [0, 0, 1, 1])
    phi = BoundedExists("z", d, Atomic("eq", Var("z"), c0))
    lhs = h.apply(truth_value(phi, {}, B2))
    phi_lift = BoundedExists(
        "z", lift_name(h, d), Atomic("eq", Var("z"), check_name(h.target, EMPTY))
    )
    assert lhs == truth_value(phi_lift, {}, h.target) == 0b0011


def test_generic_filter_name_evaluates_to_the_generic():
    g = generic_filter_name(B2)
    for u in ultrafilters(B2):
        val = eval_at_atom(g, u)
        assert val == frozenset(von_neumann(b) for b in B2.elements() if u.contains(b))


def test_formula_metadata():
    phi = BoundedExists("z", Var("u"), Atomic("eq", Var("z"), Var("v")))
    assert free_variables(phi) == frozenset({"u", "v"})
    assert quantifier_depth(phi) == 1
    assert quantifier_depth(Exists("x", phi)) == 2


def test_hf_oracle_basic():
    assert hf_satisfies(Atomic("mem", Var("a"), Var("b")), {"a": EMPTY, "b": hf(EMPTY)})
    assert not hf_satisfies(Atomic("mem", Var("a"), Var("b")), {"a": EMPTY, "b": EMPTY})


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_truth_values_match_oracle_property(data):
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=10_000)))
    algebra = FiniteCBA(data.draw(st.integers(min_value=1, max_value=3)))
    pool = random_name_pool(algebra, 8, 2, rng)
    phi = data.draw(st.sampled_from(standard_formula_pool()))
    names = {v: data.draw(st.sampled_from(pool)) for v in sorted(free_variables(phi))}
    value = truth_value(phi, names, algebra, pool)
    for atom in range(algebra.atom_count):
        hf_env = {v: eval_at_atom(n, Ultrafilter(algebra, atom)) for v, n in names.items()}
        hf_pool = tuple(eval_at_atom(n, Ultrafilter(algebra, atom)) for n in pool)
        assert hf_satisfies(phi, hf_env, hf_pool) == bool(value >> atom & 1)


def test_name_pool_collects_each_formula_constants_once(monkeypatch):
    real = bvm.formula_constants
    formulas = standard_formula_pool()
    walked = []

    def counted(phi):
        if any(phi is f for f in formulas):
            walked.append(phi)
        return real(phi)

    monkeypatch.setattr(bvm, "formula_constants", counted)
    report = forcing_audit(B2, standard_name_pool(B2, max_rank=2)[:7], formulas)
    assert report.passed
    assert len(walked) == len(formulas)
    assert all(any(w is f for w in walked) for f in formulas)


def test_name_pool_checks_cached_constants_on_every_call():
    names = NamePool(B2, standard_name_pool(B2, max_rank=2)[:10])
    u = Var("u")
    c0 = check_name(B2, EMPTY)
    deep = Atomic("eq", check_name(B2, von_neumann(5)), u)
    foreign = Atomic("eq", check_name(B1, EMPTY), u)
    for _ in range(2):
        with pytest.raises(RankExceeded):
            truth_value(deep, {"u": c0}, B2, names)
        with pytest.raises(MixedAlgebras):
            truth_value(foreign, {"u": c0}, B2, names)
    assert truth_value(deep, {"u": c0}, B2, names, rank_bound=6) == 0
