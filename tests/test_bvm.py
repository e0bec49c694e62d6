import gc
import inspect
import itertools
import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from forcebench.bvm import (
    And,
    Atomic,
    BName,
    BoundedExists,
    BoundedForall,
    Exists,
    NamePool,
    Not,
    Or,
    Var,
    check_name,
    delta1_audit,
    eval_at_atom,
    forcing_audit,
    free_variables,
    fullness_witness,
    hf_satisfies,
    lift_name,
    mix,
    name_from_pairs,
    quantifier_depth,
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
from forcebench.finite_cba import FiniteCBA, Ultrafilter, format_element, ultrafilters
from forcebench.hf import EMPTY
from forcebench.morphisms import hom_from_fiber_map, identity_hom
from forcebench.report import INDETERMINATE

from .oracles import (
    empty_name,
    generic_filter_name,
    hf,
    hf_rank,
    hf_universe,
    random_name_pool,
    reference_hf_satisfies,
    reference_truth_value,
    von_neumann,
)

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


def test_equal_names_are_one_object():
    c0, c1 = check_name(B2, EMPTY), check_name(B2, hf(EMPTY))
    assert BName(B2, [(c0, 1), (c1, 3)]) is BName(B2, [(c1, 3), (c0, 1)])
    assert check_name(B2, hf(EMPTY, hf(EMPTY))) is check_name(B2, hf(EMPTY, hf(EMPTY)))
    # over two equal algebras that are distinct objects
    assert FiniteCBA(2) is not FiniteCBA(2)
    assert check_name(FiniteCBA(2), hf(EMPTY)) is check_name(FiniteCBA(2), hf(EMPTY)) is c1
    assert BName(FiniteCBA(2), [(c0, 1)]) is BName(B2, [(c0, 1)]) is dot_d()
    assert name_from_pairs(B2, [(c0, 0b01), (c1, 0b10), (c0, 0b10)]) is BName(
        B2, [(c0, 0b11), (c1, 0b10)]
    )
    n = BName(B2, [(c0, 0b11), (c1, 0b01)])
    assert mix(B2, [0b01, 0b10], [n, n]) is n
    assert mix(B2, [0b01, 0b10], [dot_d(), c1]) is BName(B2, [(c0, 0b11)]) is c1
    assert lift_name(identity_hom(B2), n) is n
    b4 = FiniteCBA(4)
    h = hom_from_fiber_map(B2, b4, [0, 0, 1, 1])
    lifted = BName(b4, [(check_name(b4, EMPTY), 0b1111), (check_name(b4, hf(EMPTY)), 0b0011)])
    assert lift_name(h, n) is lift_name(h, n) is lifted


def test_every_check_runs_when_an_equal_name_is_interned():
    c0 = check_name(B2, EMPTY)
    assert BName(B2, [(c0, 0b01)]) is dot_d()
    with pytest.raises(TypeError):
        BName(B2, [(EMPTY, 0b01)])
    with pytest.raises(MixedAlgebras):
        BName(B2, [(check_name(B1, EMPTY), 0b01)])
    with pytest.raises(ValueError, match="nonzero"):
        BName(B2, [(c0, 0)])
    with pytest.raises(ValueError, match="outside"):
        BName(B2, [(c0, 0b101)])
    with pytest.raises(ValueError, match="partial function"):
        BName(B2, [(c0, 0b01), (c0, 0b01)])
    with pytest.raises(MixedAlgebras):
        mix(FiniteCBA(1), [1], [dot_d()])
    with pytest.raises(MixedAlgebras):
        lift_name(identity_hom(B1), dot_d())


def test_names_stay_immutable():
    n = dot_d()
    for attr, value in (("rank", 7), ("entries", frozenset()), ("algebra", B1), ("other", 0)):
        with pytest.raises(AttributeError):
            setattr(n, attr, value)
    assert n.rank == 1 and n.algebra == B2 and n.label(check_name(B2, EMPTY)) == 0b01
    assert dot_d() is n


_SCRATCH_ALGEBRAS = itertools.count(40)


def test_name_table_interns_one_name_per_key_across_threads():
    # an algebra size no other test uses, so every name is new to the table
    alg = FiniteCBA(next(_SCRATCH_ALGEBRAS))

    def build():
        out = [check_name(alg, EMPTY)]
        for k in range(1, 120):
            entries = [(out[k - 1], (k * 7919) % alg.one + 1)]
            if k > 2:
                entries.append((out[k // 3], k))
            out.append(BName(alg, entries))
        return out

    barrier = threading.Barrier(4)
    results = [None] * 4

    def worker(i):
        barrier.wait(timeout=30)
        results[i] = build()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(r is not None for r in results)
    for other in results[1:] + [build()]:
        assert all(a is b for a, b in zip(results[0], other))
    assert all(bvm._INTERNED[(alg, n.entries)] is n for n in results[0])


def test_a_trimmed_pool_releases_the_rest_of_the_name_table():
    algebra = FiniteCBA(16)
    before = {n for n in list(bvm._INTERNED.values()) if n.algebra == algebra}
    pool = standard_name_pool(algebra, 2)
    assert len(pool) == 1803
    pool = pool[:32]
    gc.collect()
    kept, stack = set(), list(pool)
    while stack:  # the trimmed pool and every name it reaches
        n = stack.pop()
        if n not in kept:
            kept.add(n)
            stack.extend(s for s, _ in n.entries)
    live = {n for n in list(bvm._INTERNED.values()) if n.algebra == algebra}
    assert live - before == kept - before and len(kept) < 100


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


def test_truth_value_refuses_a_deep_constant():
    deep = check_name(B2, von_neumann(5))
    with pytest.raises(RankExceeded):
        truth_value(Atomic("eq", deep, deep), {}, B2)


def test_one_bound_refuses_a_deeper_name_wherever_it_enters():
    c0, top = check_name(B2, EMPTY), check_name(B2, von_neumann(4))
    deep = check_name(B2, von_neumann(5))
    assert (top.rank, deep.rank) == (bvm.RANK_BOUND, bvm.RANK_BOUND + 1)
    pool = standard_name_pool(B2, max_rank=2)[:10]
    u = Var("u")
    refused = f"of rank 5 exceeds bound {bvm.RANK_BOUND}"
    for entry in (
        lambda: NamePool(B2, pool + (deep,)),
        lambda: truth_value(Atomic("eq", u, u), {"u": c0}, B2, pool + (deep,)),
        lambda: forcing_audit(B2, pool + (deep,), standard_formula_pool()),
    ):
        with pytest.raises(RankExceeded, match=f"^pool name {refused}$"):
            entry()
    for names in (pool, NamePool(B2, pool)):
        with pytest.raises(RankExceeded, match=f"^formula parameter {refused}$"):
            truth_value(Atomic("eq", u, u), {"u": deep}, B2, names)
        with pytest.raises(RankExceeded, match=f"^formula parameter {refused}$"):
            truth_value(Atomic("eq", deep, u), {"u": c0}, B2, names)
        # a name at the bound is admitted everywhere
        assert truth_value(Atomic("eq", top, u), {"u": top}, B2, names) == B2.one
    assert NamePool(B2, pool + (top,)).members == set(pool) | {top}


def test_no_entry_point_takes_a_bound_of_its_own():
    # the one bound is bvm.RANK_BOUND; no call can carry another
    params = {
        truth_value: ["phi", "env", "algebra", "pool"],
        NamePool: ["algebra", "names"],
        forcing_audit: ["algebra", "pool", "formulas"],
        fullness_witness: ["phi", "var", "env", "pool", "algebra"],
        delta1_audit: ["h", "pool", "d0_formulas", "d1_pairs"],
    }
    for fn, names in params.items():
        assert list(inspect.signature(fn).parameters) == names, fn


def test_standard_pool_size_counts_the_standard_pool():
    for atoms in range(1, 6):
        for max_rank in range(6):
            pool = standard_name_pool(FiniteCBA(atoms), max_rank)
            assert bvm.standard_pool_size(atoms, max_rank) == len(pool), (atoms, max_rank)
    # each layer from rank 4 on adds 3L + 6L^2 names over L labels
    assert bvm.standard_pool_size(1, 10**12) - bvm.standard_pool_size(1, 10**12 - 1) == 9


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


def test_forcing_audit_calls_truth_value_on_the_diagonal_and_oracle_per_distinct_values(
    monkeypatch,
):
    # the per-layer trace counts these two module-level calls; an audit that
    # bypassed either would read as a layer that did no work.  The grid
    # decides every assignment, and truth_value checks it on the diagonal
    calls = {"truth_value": 0, "hf_satisfies": 0}
    for name in calls:
        def counted(*args, _real=getattr(bvm, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(bvm, name, counted)
    pool = standard_name_pool(B2, max_rank=2)[:7]
    formulas = standard_formula_pool()
    bvm._ATOMIC_MEMO.clear()
    report = forcing_audit(B2, pool, formulas)
    assignments = sum(len(pool) ** len(free_variables(phi)) for phi in formulas)
    # cold, the audit memoizes each atomic relation once per ordered pair of
    # pool names, and nothing else: the pool is closed under subnames
    n = len(pool)
    assert len(bvm._ATOMIC_MEMO) == 3 * n * n
    assert set(bvm._ATOMIC_MEMO) == {
        (op, a, b) for op in ("eq", "mem", "sub") for a in pool for b in pool
    }
    # the oracle runs once per formula, atom and tuple of values at the atom
    distinct = [len({eval_at_atom(n, u) for n in pool}) for u in ultrafilters(B2)]
    oracle_calls = sum(d ** len(free_variables(phi)) for phi in formulas for d in distinct)
    assert report.passed
    assert report.cases == assignments * B2.atom_count
    assert calls["truth_value"] == n * len(formulas)
    assert calls["hf_satisfies"] == oracle_calls == 130


def _per_case_divergences(algebra, pool, formulas, truth, oracle):
    """The divergences of a forcing audit that asks ``oracle`` at every
    (assignment, atom), in the audit's order and wording."""
    names = NamePool(algebra, pool).names
    out = []
    for phi in formulas:
        fvs = sorted(free_variables(phi))
        for picks in itertools.product(names, repeat=len(fvs)):
            env = dict(zip(fvs, picks))
            value = truth(phi, env, algebra, names)
            for u in ultrafilters(algebra):
                hf_env = {v: eval_at_atom(n, u) for v, n in env.items()}
                answer = oracle(phi, hf_env, tuple(eval_at_atom(n, u) for n in names))
                forced = bool(value >> u.atom & 1)
                if answer != forced:
                    out.append(
                        f"atom {u.atom}: boolean route says {forced}, oracle says {answer} "
                        f"({phi!r} @ {[bvm.format_name(n) for n in picks]})"
                    )
    return out


# built per test, so that no module-level list keeps the names alive
_DIFFERENTIAL_POOLS = {
    "B2-standard": lambda: (B2, standard_name_pool(B2, max_rank=2)[:7]),
    "B3-random": lambda: (FiniteCBA(3), random_name_pool(FiniteCBA(3), 8, 2, random.Random(3))),
}
# the shipped formulas, and one whose oracle answer for the same value of u
# differs between atoms, since it reads the pool's values there
_DIFFERENTIAL_FORMULAS = standard_formula_pool() + (
    Exists("x", Atomic("mem", Var("u"), Var("x"))),
)


@pytest.mark.parametrize("pools", _DIFFERENTIAL_POOLS)
def test_forcing_audit_matches_a_per_case_loop_under_a_wrong_truth_value(monkeypatch, pools):
    algebra, pool = _DIFFERENTIAL_POOLS[pools]()
    names = NamePool(algebra, pool).names
    target = (names[1], names[3])

    def flip_atom_0(phi, env, *args, _real=bvm.truth_value):
        return _real(phi, env, *args) ^ (tuple(env.values()) == target)

    def flipped_grid(phi, pool, _real=bvm.truth_grid):
        # the audit's grid, wrong at the target assignment; the target is off
        # the diagonal, so truth_value there agrees with the grid
        picks = itertools.product(pool.names, repeat=len(phi.variables))
        return [value ^ (p == target) for p, value in zip(picks, _real(phi, pool))]

    monkeypatch.setattr(bvm, "truth_grid", flipped_grid)
    formulas = _DIFFERENTIAL_FORMULAS
    report = forcing_audit(algebra, pool, formulas)
    expected = _per_case_divergences(algebra, pool, formulas, flip_atom_0, reference_hf_satisfies)
    # one divergence per formula in u and v: the target assignment at atom 0
    assert len(expected) == sum(free_variables(phi) == {"u", "v"} for phi in formulas) == 10
    assert all(d.startswith("atom 0:") for d in expected)
    assert report.divergences == expected and not report.passed


@pytest.mark.parametrize("pools", _DIFFERENTIAL_POOLS)
def test_forcing_audit_reads_a_wrong_truth_value_on_the_diagonal(monkeypatch, pools):
    algebra, pool = _DIFFERENTIAL_POOLS[pools]()
    names = NamePool(algebra, pool).names
    target = names[2]

    def flip_atom_0(phi, env, *args, _real=bvm.truth_value):
        return _real(phi, env, *args) ^ (list(env.values()) == [target, target])

    monkeypatch.setattr(bvm, "truth_value", flip_atom_0)
    formulas = _DIFFERENTIAL_FORMULAS
    report = forcing_audit(algebra, pool, formulas)
    # the grid is right and the oracle agrees with it; truth_value, wrong at
    # (target, target), disagrees with the grid once per formula in u and v
    expected = []
    for phi in formulas:
        if phi.variables == ("u", "v"):
            right = truth_value(phi, {"u": target, "v": target}, algebra, pool)
            expected.append(
                f"truth_value says {format_element(algebra, right ^ 1)}, the grid "
                f"{format_element(algebra, right)} ({phi!r} @ {[bvm.format_name(target)] * 2})"
            )
    assert len(expected) == 10
    assert report.divergences == expected and not report.passed
    assert report.claims["truth_values_match_oracle"].witness == expected[0]


def _grid_formulas(algebra):
    """The shipped formulas, and one each that is unbounded, in one variable,
    closed, with a constant, and in three variables with u shadowed; then
    one per branch of the grid route, whose row is the last variable: an
    atom on the row's diagonal, a constant beside the row, binders over the
    row whose body does and does not read it, an unbounded ∃ whose body
    reads it, and a negated binder."""
    u, v, w, x, z = Var("u"), Var("v"), Var("w"), Var("x"), Var("z")
    c1 = check_name(algebra, frozenset({EMPTY}))
    return standard_formula_pool() + (
        Exists("x", Atomic("mem", u, x)),
        BoundedForall("z", u, Atomic("sub", Var("z"), u)),
        Exists("x", Not(Atomic("mem", x, x))),
        Atomic("mem", check_name(algebra, EMPTY), v),
        BoundedExists("u", u, And((Atomic("mem", u, w), Atomic("sub", v, w)))),
        Atomic("mem", v, v),
        Or((Atomic("sub", v, c1), Atomic("eq", u, c1))),
        BoundedExists("z", v, Atomic("mem", z, v)),
        BoundedForall("z", v, Or((Atomic("mem", u, z), Atomic("eq", z, c1)))),
        Exists("x", And((Atomic("mem", x, v), Not(Atomic("sub", x, u))))),
        Not(BoundedForall("z", u, Atomic("mem", z, v))),
    )


_GRID_POOLS = {
    "B1-standard": lambda: (B1, standard_name_pool(B1, max_rank=3)),
    "B2-standard": lambda: (B2, standard_name_pool(B2, max_rank=2)[:24]),
    "B4-standard": lambda: (FiniteCBA(4), standard_name_pool(FiniteCBA(4), max_rank=2)[:24]),
    "B3-random": lambda: (FiniteCBA(3), random_name_pool(FiniteCBA(3), 10, 2, random.Random(11))),
    # not closed under subnames: binders fix atom rows at names outside it
    "B2-no-empty": lambda: (B2, standard_name_pool(B2, max_rank=2)[1:24]),
    "B2-empty": lambda: (B2, ()),
}


@pytest.mark.parametrize("pools", _GRID_POOLS)
def test_truth_grid_equals_truth_value_at_every_assignment(pools):
    algebra, pool = _GRID_POOLS[pools]()
    names = NamePool(algebra, pool)
    arities = []
    for phi in _grid_formulas(algebra):
        fvs = sorted(free_variables(phi))
        assert list(phi.variables) == fvs
        grid = bvm.truth_grid(phi, names)
        picks = list(itertools.product(names.names, repeat=len(fvs)))
        assert len(grid) == len(picks) == len(pool) ** len(fvs)
        assert grid == [truth_value(phi, dict(zip(fvs, p)), algebra, names) for p in picks], phi
        arities.append(len(fvs))
    assert sorted(set(arities)) == [0, 1, 2, 3]


def test_the_grid_enters_the_atomic_kernels_per_row_not_per_assignment(monkeypatch):
    # warm, each kernel entry is a memo hit that the routes make themselves:
    # the grid enters once per (relation, side, fixed name) row of the pool
    # and per binder body at a distinct entry name, and truth_value once per
    # atomic occurrence on the diagonal.  A route that fell back to one
    # evaluation per assignment enters once per assignment and occurrence
    pool = standard_name_pool(B2, max_rank=2)[:24]
    forcing_audit(B2, pool, standard_formula_pool())
    calls = dict.fromkeys(("eq", "mem", "sub"), 0)
    for op in calls:
        def counted(n0, n1, _real=getattr(bvm, f"_tv_{op}"), _op=op):
            calls[_op] += 1
            return _real(n0, n1)

        monkeypatch.setattr(bvm, f"_tv_{op}", counted)
    assert forcing_audit(B2, pool, standard_formula_pool()).passed
    # n names holding e entries in all, over d distinct entry names, and q
    # the sum of squared entry counts.  Rows: u = v, u ∈ v, u ⊆ v and v ⊆ u
    # (n each), z = u at each u and distinct z (formula 7), w ⊆ z at each
    # entry w and distinct z (formula 10); the diagonal adds the rest
    n = len(pool)
    e = sum(len(x.entries) for x in pool)
    d = len({sub for x in pool for sub, _ in x.entries})
    q = sum(len(x.entries) ** 2 for x in pool)
    assert (n, e, d, q) == (24, 34, 4, 56)
    assert calls == {
        "eq": n * n + n * d + 3 * n + e,
        "mem": n * n + 2 * n + 2 * e,
        "sub": 2 * n * n + d * e + 3 * n + q,
    } == {"eq": 778, "mem": 692, "sub": 1416}


def test_truth_grid_shares_one_pool_across_threads():
    # two threads fill the atom rows of one pool at once, with the same
    # formula objects; each reads the reference evaluator's grids
    shared = NamePool(B2, standard_name_pool(B2, max_rank=2)[:12])
    formulas = _grid_formulas(B2)
    expected = [
        [
            reference_truth_value(phi, dict(zip(phi.variables, picks)), B2, shared.names)
            for picks in itertools.product(shared.names, repeat=len(phi.variables))
        ]
        for phi in formulas
    ]
    barrier = threading.Barrier(2)
    results = [None] * 2

    def worker(i):
        barrier.wait(timeout=30)
        results[i] = [bvm.truth_grid(phi, shared) for phi in formulas]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [expected, expected]


def test_forcing_audit_admits_each_formulas_constants():
    pool = standard_name_pool(B2, max_rank=2)[:10]
    u = Var("u")
    deep = check_name(B2, von_neumann(5))
    foreign = check_name(B1, EMPTY)
    refused = f"^formula parameter of rank 5 exceeds bound {bvm.RANK_BOUND}$"
    for phi in (Atomic("eq", deep, u), Atomic("mem", deep, deep)):
        with pytest.raises(RankExceeded, match=refused):
            forcing_audit(B2, pool, standard_formula_pool() + (phi,))
    for phi in (Atomic("eq", foreign, u), Not(Atomic("sub", foreign, foreign))):
        with pytest.raises(MixedAlgebras, match="^formula parameter over a different algebra$"):
            forcing_audit(B2, pool, standard_formula_pool() + (phi,))


@pytest.mark.parametrize("pools", _DIFFERENTIAL_POOLS)
def test_forcing_audit_matches_a_per_case_loop_under_a_wrong_oracle(monkeypatch, pools):
    algebra, pool = _DIFFERENTIAL_POOLS[pools]()
    names = NamePool(algebra, pool).names
    target = frozenset({EMPTY})

    def negating(oracle):
        return lambda phi, env, pool_values: oracle(phi, env, pool_values) ^ (
            target in env.values()
        )

    monkeypatch.setattr(bvm, "hf_satisfies", negating(bvm.hf_satisfies))
    formulas = _DIFFERENTIAL_FORMULAS
    report = forcing_audit(algebra, pool, formulas)
    expected = _per_case_divergences(
        algebra, pool, formulas, truth_value, negating(reference_hf_satisfies)
    )
    # a divergence at every case whose environment carries the target value:
    # of the n^k assignments at an atom, all but the (n - m)^k that avoid
    # the m names with that value there
    n = len(names)
    holding = [sum(eval_at_atom(x, u) == target for x in names) for u in ultrafilters(algebra)]
    carrying = sum(
        n ** len(free_variables(phi)) - (n - m) ** len(free_variables(phi))
        for phi in formulas
        for m in holding
    )
    assert 0 < carrying < report.cases
    assert len(expected) == carrying
    assert report.divergences == expected and not report.passed


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
        NamePool(B2, pool + (check_name(B2, von_neumann(5)),))
    # the pool checked against a different algebra
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


def _value_or_error(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as e:  # the outcome compared is the error itself
        return type(e), str(e)


def test_name_pool_admits_what_the_plain_pool_admits():
    # a NamePool admits an environment drawn from it by one set test; every
    # other input must meet the same checks, with the same error, as the
    # plain tuple pool that is validated on each call
    pool = standard_name_pool(B2, max_rank=2)[:10]
    names = NamePool(B2, pool)
    u, v = Var("u"), Var("v")
    twin = FiniteCBA(2)  # equal to B2, another object
    outside = name_from_pairs(B2, [(check_name(B2, von_neumann(3)), 0b01), (pool[2], 0b11)])
    on_twin = BName(twin, ((check_name(twin, von_neumann(3)), 0b10), (pool[1], 0b01)))
    deep = check_name(B2, von_neumann(5))
    assert outside not in names.members and on_twin not in names.members
    assert on_twin.algebra is twin and twin is not B2
    phis = (
        Atomic("mem", u, v),
        BoundedForall("z", u, Atomic("sub", Var("z"), v)),
        Exists("z", Atomic("mem", Var("z"), u)),
        Atomic("eq", pool[4], u),
        Atomic("sub", outside, u),
        Atomic("mem", u, deep),
        Atomic("eq", check_name(B1, EMPTY), u),
    )
    envs = (
        {"u": pool[3], "v": pool[7]},
        {"u": outside, "v": pool[5]},
        {"u": pool[6], "v": outside},
        {"u": on_twin, "v": pool[2]},
        {"u": pool[8], "v": on_twin},
        {"u": deep, "v": pool[1]},
        {"u": check_name(B1, EMPTY), "v": pool[1]},
        {"u": [pool[3]], "v": pool[1]},  # unhashable
        {"u": {pool[3]: 1}, "v": pool[1]},  # unhashable
        {"u": "c0", "v": pool[1]},  # hashable, but no name
    )
    for phi in phis:
        for env in envs:
            for algebra in (B2, twin, None):  # None: inferred, the pool's algebra first
                plain = _value_or_error(truth_value, phi, env, algebra, pool)
                pooled = _value_or_error(truth_value, phi, env, algebra, names)
                assert pooled == plain, (phi, env, algebra)
    # the cases above reach values and each kind of refusal
    outcomes = {
        _value_or_error(truth_value, phi, env, B2, names)
        for phi in phis for env in envs
    }
    kinds = {o[0] if isinstance(o, tuple) else int for o in outcomes}
    assert kinds == {int, MixedAlgebras, RankExceeded, AttributeError}


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


# -- the evaluators' contract -------------------------------------------------------


def test_unbound_variable_raises_only_when_reached():
    c0 = check_name(B2, EMPTY)
    x, z = Var("x"), Var("z")
    with pytest.raises(KeyError) as raised:
        truth_value(Atomic("eq", x, c0), {}, B2)
    assert raised.value.args == ("unbound variable 'x'",)
    with pytest.raises(KeyError, match="'x'"):
        hf_satisfies(Atomic("eq", x, Var("y")), {"y": EMPTY})
    # a binder over the empty name never reaches its body
    assert truth_value(BoundedExists("z", c0, Atomic("eq", x, z)), {}, B2) == 0
    assert hf_satisfies(BoundedExists("z", EMPTY, Atomic("eq", x, z)), {}) is False
    assert hf_satisfies(BoundedForall("z", Var("y"), Atomic("eq", x, z)), {"y": EMPTY}) is True
    # nor when the missing variable is the last, the grid's row slot
    u, v = Var("u"), Var("v")
    phi = And((Atomic("eq", u, u), BoundedExists("z", c0, Atomic("eq", v, z))))
    assert phi.variables[-1] == "v"
    assert truth_value(phi, {"u": c0}, B2) == 0


def test_non_formulas_and_non_terms_raise_type_errors():
    c0 = check_name(B2, EMPTY)
    u = Var("u")
    for bad in (42, u, c0, Not(42), And((Atomic("eq", u, u), "phi"))):
        with pytest.raises(TypeError, match="not a formula"):
            truth_value(bad, {"u": c0}, B2)
    for bad in (42, u, EMPTY, Not(42)):
        with pytest.raises(TypeError, match="not a formula"):
            hf_satisfies(bad, {"u": EMPTY})
    # a hereditarily-finite literal is no term of the boolean route
    for bad in (Atomic("eq", frozenset(), c0), Atomic("mem", u, frozenset())):
        with pytest.raises(TypeError, match="not a term"):
            truth_value(bad, {"u": c0}, B2)


def test_the_oracle_takes_literals_but_no_names():
    c0 = check_name(B2, EMPTY)
    one = hf(EMPTY)
    assert hf_satisfies(Atomic("mem", EMPTY, Var("b")), {"b": one}) is True
    assert hf_satisfies(Atomic("eq", frozenset(), frozenset()), {}) is True
    assert hf_satisfies(Atomic("sub", one, EMPTY), {}) is False
    assert hf_satisfies(BoundedExists("z", one, Atomic("eq", Var("z"), EMPTY)), {}) is True
    for closed_by_name in (Atomic("eq", c0, Var("a")), Not(Atomic("mem", Var("a"), c0))):
        with pytest.raises(TypeError, match="oracle formulas must be closed by the environment"):
            hf_satisfies(closed_by_name, {"a": EMPTY})


def test_evaluation_leaves_the_callers_env_unchanged():
    pool = standard_name_pool(B2, max_rank=2)[:6]
    u, z = Var("u"), Var("z")
    shadowing = (
        BoundedExists("z", u, Atomic("eq", z, u)),
        BoundedForall("z", u, Atomic("mem", z, Var("z"))),
        Exists("z", Atomic("mem", z, u)),
        Exists("u", BoundedExists("u", u, Atomic("sub", u, z))),
    )
    env = {"u": pool[4], "z": pool[5]}
    hf_pool = tuple(_eval_all(pool, 0))
    hf_env = {"u": hf_pool[4], "z": hf_pool[5]}
    for phi in shadowing:
        before, hf_before = dict(env), dict(hf_env)
        truth_value(phi, env, B2, pool)
        hf_satisfies(phi, hf_env, hf_pool)
        assert env == before and all(env[k] is before[k] for k in env)
        assert hf_env == hf_before
    # an evaluation that raises inside a binder leaves env as it was too
    broken = BoundedExists("z", u, Atomic("eq", z, Var("missing")))
    before = dict(env)
    with pytest.raises(KeyError):
        truth_value(broken, env, B2, pool)
    with pytest.raises(KeyError):
        hf_satisfies(broken, hf_env, hf_pool)
    assert env == before and hf_env == {"u": hf_pool[4], "z": hf_pool[5]}


def _eval_all(pool, atom):
    return [eval_at_atom(n, Ultrafilter(pool[0].algebra, atom)) for n in pool]


# -- differential check against the reference walks ----------------------------------

_VARS = ("u", "v", "z")


def _random_formula(rng, constants, depth):
    """A formula of depth at most ``depth`` over u, v, z and the constants;
    binders reuse the three variable names, so they shadow free variables
    and each other."""

    def term():
        if constants and rng.random() < 0.25:
            return rng.choice(constants)
        return Var(rng.choice(_VARS))

    kind = rng.choice(("atomic",) * 2 + ("not", "and", "or", "exists", "forall", "unbounded"))
    if depth == 0 or kind == "atomic":
        return Atomic(rng.choice(("eq", "mem", "sub")), term(), term())
    sub = lambda: _random_formula(rng, constants, depth - 1)  # noqa: E731
    if kind == "not":
        return Not(sub())
    if kind in ("and", "or"):
        parts = tuple(sub() for _ in range(rng.randint(0, 3)))
        return And(parts) if kind == "and" else Or(parts)
    var = rng.choice(_VARS)
    if kind == "unbounded":
        return Exists(var, sub())
    return (BoundedExists if kind == "exists" else BoundedForall)(var, term(), sub())


def _closed_at(phi, values):
    """phi with each name constant replaced by its value at an atom."""
    if isinstance(phi, Atomic):
        left, right = (values.get(t, t) if isinstance(t, BName) else t for t in (phi.left, phi.right))
        return Atomic(phi.op, left, right)
    if isinstance(phi, Not):
        return Not(_closed_at(phi.body, values))
    if isinstance(phi, (And, Or)):
        return type(phi)(tuple(_closed_at(p, values) for p in phi.parts))
    if isinstance(phi, Exists):
        return Exists(phi.var, _closed_at(phi.body, values))
    bound = values.get(phi.bound, phi.bound) if isinstance(phi.bound, BName) else phi.bound
    return type(phi)(phi.var, bound, _closed_at(phi.body, values))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (KeyError, TypeError) as e:
        return type(e)


@pytest.mark.parametrize("seed", range(6))
def test_compiled_routes_match_the_reference_walks(seed):
    rng = random.Random(seed)
    for trial in range(60):
        algebra = FiniteCBA(rng.randint(1, 3))
        pool = random_name_pool(algebra, rng.randint(1, 6), 2, rng)
        phi = _random_formula(rng, pool[:3], rng.randint(0, 3))
        # a free variable left out of env is reached only on some paths
        env = {v: rng.choice(pool) for v in _VARS if rng.random() < 0.9}
        witness = (seed, trial, phi, env)
        value = _outcome(truth_value, phi, env, algebra, pool)
        assert value == _outcome(reference_truth_value, phi, env, algebra, pool), witness
        for atom in range(algebra.atom_count):
            hf_pool = _eval_all(pool, atom)
            values = dict(zip(pool, hf_pool))
            hf_env = {v: values[n] for v, n in env.items()}
            closed = _closed_at(phi, values)
            oracle = _outcome(hf_satisfies, closed, hf_env, hf_pool)
            assert oracle == _outcome(reference_hf_satisfies, closed, hf_env, hf_pool), witness
            if isinstance(value, int):
                assert oracle == bool(value >> atom & 1), (*witness, atom)
            # with name constants left in, phi is refused by the oracle
            if phi.constants:
                assert _outcome(hf_satisfies, phi, hf_env, hf_pool) is TypeError, witness


@pytest.mark.parametrize("atoms", [1, 2, 4])
def test_compiled_connectives_and_binders_match_the_reference_walk(atoms):
    algebra = FiniteCBA(atoms)
    pool = standard_name_pool(algebra, max_rank=2)
    names = NamePool(algebra, pool)
    u, v, z = Var("u"), Var("v"), Var("z")
    # the empty meet and join need no environment
    for phi, value in ((And(()), algebra.one), (Or(()), 0)):
        assert truth_value(phi, {}, algebra, names) == value
        assert reference_truth_value(phi, {}, algebra, pool) == value
    # a binder over names labeled below one reads the labels' complements
    assert atoms == 1 or any(p != algebra.one for n in pool for _, p in n.entries)
    formulas = (
        Not(Not(Atomic("mem", u, v))),
        BoundedForall("z", u, Atomic("mem", z, v)),
        BoundedForall("z", u, Not(Atomic("sub", v, z))),
        And((Atomic("sub", u, v), Atomic("mem", v, u), Not(Atomic("eq", u, v)))),
        Or((Atomic("mem", u, v), Atomic("eq", u, v), Not(Atomic("sub", v, u)))),
    )
    for phi in formulas:
        for a, b in itertools.product(pool, repeat=2):
            env = {"u": a, "v": b}
            value = truth_value(phi, env, algebra, names)
            assert value == reference_truth_value(phi, env, algebra, pool), (phi, env)
