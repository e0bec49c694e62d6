import itertools
import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from forcebench import free_algebra
from forcebench.errors import ChainEscapeViolation, ChainNotDescending, KeyFieldOverflow
from forcebench.free_algebra import (
    FREE_ONE,
    FREE_ZERO,
    FreeAlgebra,
    GAnd,
    GConst,
    GNot,
    GOr,
    GVar,
    GeneratorChain,
    all_meet,
    chain_vanishing,
    format_free,
    free_normalize,
    free_project,
    generator,
    parse_free_expression,
    projection_cutoff,
)
from forcebench.morphisms import FreeInclusion

from .oracles import element_truth_table, expr_vars, reference_format, truth_table


GENS = ("x0", "x1", "x2", "y")


def exprs(depth=4):
    leaf = st.one_of(
        st.sampled_from([GVar(g) for g in GENS]),
        st.sampled_from([GConst(True), GConst(False)]),
    )
    return st.recursive(
        leaf,
        lambda sub: st.one_of(
            st.builds(GNot, sub),
            st.builds(GAnd, sub, sub),
            st.builds(GOr, sub, sub),
        ),
        max_leaves=depth * 4,
    )


def test_normalize_contradiction_and_tautology():
    x0 = GVar("x0")
    assert free_normalize(GAnd(x0, GNot(x0))) == FREE_ZERO
    assert free_normalize(GOr(x0, GNot(x0))) == FREE_ONE


def test_normalize_absorbs():
    e = parse_free_expression("(x0 ∨ x1) ∧ ¬x1")
    f = parse_free_expression("x0 ∧ ¬x1")
    lhs, rhs = free_normalize(e), free_normalize(f)
    assert lhs == rhs
    # truth-table oracle over {x0, x1}
    assert truth_table(e, ("x0", "x1")) == truth_table(f, ("x0", "x1"))


def test_normalize_idempotent_on_elements():
    e = free_normalize(parse_free_expression("x0 ∧ (x1 ∨ ¬x2)"))
    assert free_normalize(e) == e


@settings(max_examples=200)
@given(exprs())
def test_normalize_matches_truth_table(expr):
    e = free_normalize(expr)
    assert element_truth_table(e, GENS) == truth_table(expr, GENS)


@settings(max_examples=200)
@given(exprs(), exprs())
def test_leq_iff_meet_with_negation_vanishes(a, b):
    ea, eb = free_normalize(a), free_normalize(b)
    assert ea.leq(eb) == (ea & ~eb).is_zero
    ta, tb = truth_table(a, GENS), truth_table(b, GENS)
    assert ea.leq(eb) == all(not x or y for x, y in zip(ta, tb))


@settings(max_examples=150)
@given(exprs())
def test_support_is_essential(expr):
    e = free_normalize(expr)
    for g in e.support:
        # flipping an essential generator changes the function somewhere
        names = tuple(sorted(e.support))
        table = element_truth_table(e, names)
        idx = names.index(g)
        changed = False
        for row in range(len(table)):
            if table[row] != table[row ^ (1 << (len(names) - 1 - idx))]:
                changed = True
                break
        assert changed
    assert e.support <= expr_vars(expr)


def test_parse_ascii_and_unicode_agree():
    a = free_normalize(parse_free_expression("x0 & !(x1 | 0)"))
    b = free_normalize(parse_free_expression("x0 ∧ ¬(x1 ∨ 0)"))
    assert a == b


def test_format_roundtrip():
    for text in ("0", "1", "x0", "¬x0", "x0 ∧ x1", "x0 ∨ (x1 ∧ ¬x2)"):
        e = free_normalize(parse_free_expression(text))
        assert free_normalize(parse_free_expression(format_free(e))) == e


def test_project_examples():
    x0, y = generator("x0"), generator("y")
    assert free_project(x0 & y, {"y"}) == x0
    assert free_project(y, {"y"}) == FREE_ONE
    assert free_project(x0, {"y"}) == x0


@settings(max_examples=150)
@given(exprs(), st.sets(st.sampled_from(GENS)))
def test_project_is_least_independent_upper_bound(expr, gens):
    e = free_normalize(expr)
    p = free_project(e, gens)
    assert e.leq(p)
    assert p.support.isdisjoint(gens)
    assert free_project(p, gens) == p  # idempotent
    # least: oracle by scanning all functions over the remaining generators
    rest = tuple(g for g in GENS if g not in gens)
    if len(rest) <= 2:
        t_e = element_truth_table(e, GENS)
        best = None
        for bits in range(1 << (1 << len(rest))):
            tbl = [(bits >> k) & 1 for k in range(1 << len(rest))]
            # expand over all of GENS and compare against e
            ok = True
            for row in range(1 << len(GENS)):
                sub_row = 0
                for j, g in enumerate(rest):
                    gi = GENS.index(g)
                    bit = row >> (len(GENS) - 1 - gi) & 1
                    sub_row = (sub_row << 1) | bit
                if t_e[row] and not tbl[sub_row]:
                    ok = False
                    break
            if ok and (best is None or sum(tbl) < sum(best)):
                best = tbl
        t_p = element_truth_table(p, rest) if rest else ((not p.is_zero),)
        assert list(t_p) == [bool(v) for v in best]


@settings(max_examples=100)
@given(exprs(), exprs(), st.sets(st.sampled_from(GENS)))
def test_project_monotone(a, b, gens):
    ea, eb = free_normalize(a), free_normalize(b)
    if ea.leq(eb):
        assert free_project(ea, gens).leq(free_project(eb, gens))
    assert free_project(ea | eb, gens) == free_project(ea, gens) | free_project(eb, gens)


def cylinder_chain():
    return GeneratorChain(
        element_at=lambda n: all_meet(generator(f"x{k}") for k in range(n)),
        generator_at=lambda j: f"x{j}",
    )


def test_chain_vanishing_zero():
    v = chain_vanishing(FREE_ZERO, cylinder_chain())
    assert v.is_zero


def test_chain_vanishing_fails_at_expected_index():
    x0, x1 = generator("x0"), generator("x1")
    v = chain_vanishing(x0 & x1, cylinder_chain())
    assert v.kind == "fails_at" and v.index == 3
    v = chain_vanishing(x0, cylinder_chain())
    assert v.kind == "fails_at" and v.index == 2


def test_chain_vanishing_foreign_support_fails_immediately():
    v = chain_vanishing(generator("z5"), cylinder_chain())
    assert v.kind == "fails_at" and v.index == 1


def test_chain_not_descending_detected():
    chain = GeneratorChain(
        element_at=lambda n: generator(f"x{n-1}"),  # x0, x1, x2, ... not descending
        generator_at=lambda j: f"x{j}",
    )
    with pytest.raises(ChainNotDescending):
        chain_vanishing(generator("x0") & generator("x1"), chain)


def test_chain_escape_violation_detected():
    constant = GeneratorChain(
        element_at=lambda n: generator("x0"),
        generator_at=lambda j: f"x{j}",
    )
    with pytest.raises(ChainEscapeViolation):
        chain_vanishing(generator("x0"), constant)


def test_free_algebra_membership():
    alg = FreeAlgebra(frozenset({"x0", "x1"}))
    assert alg.contains(free_normalize(parse_free_expression("x0 ∧ x1")))
    assert not alg.contains(generator("y0"))
    with pytest.raises(ValueError):
        alg.var("y0")


# -- level-cutoff projection, cached keys, the unique table ------------------

MIXED = ("x0", "x2", "x10", "y0", "y1", "y12")


def random_expr(rng: random.Random, names, size: int):
    if size <= 1:
        return GVar(rng.choice(names)) if rng.random() < 0.9 else GConst(rng.random() < 0.5)
    op = rng.randrange(3)
    if op == 0:
        return GNot(random_expr(rng, names, size - 1))
    left = rng.randrange(1, size)
    return (GAnd if op == 1 else GOr)(
        random_expr(rng, names, left), random_expr(rng, names, size - left)
    )


def test_cutoff_projection_equals_set_quantification():
    target = FreeAlgebra(frozenset(MIXED))
    # fresh generators after the kept ones: the cutoff path
    suffix = [frozenset(MIXED[:k]) for k in range(len(MIXED))]
    # fresh generators interleaved with kept ones: the set path
    interleaved = [frozenset({"x0", "x10", "y1"}), frozenset({"x2", "y0"}), frozenset({"y12"})]
    for seed in range(60):
        e = free_normalize(random_expr(random.Random(seed), MIXED, 14))
        for kept, fast in [(k, True) for k in suffix] + [(k, False) for k in interleaved]:
            inc = FreeInclusion(FreeAlgebra(kept), target)
            assert (projection_cutoff(inc.source, inc.fresh) is not None) == fast
            assert inc.project(e) == free_project(e, inc.fresh)


def test_cutoff_projections_share_memo_entries_across_inclusions():
    # hom(a, b) and hom(a, c) of a tower quantify different fresh sets above
    # the same level, so the second projection is answered from the memo
    source = FreeAlgebra(frozenset({"x0", "x2", "x10", "y0"}))
    short = FreeInclusion(source, FreeAlgebra(source.generators | {"y1", "y12"}))
    long = FreeInclusion(source, FreeAlgebra(source.generators | {"y1", "y12", "y13"}))
    e = free_normalize(random_expr(random.Random(7), MIXED, 14))
    p = short.project(e)
    before = len(free_algebra._QUANT_MEMO)
    assert long.project(e) == p
    assert len(free_algebra._QUANT_MEMO) == before


def test_format_free_follows_the_documented_order():
    for seed in range(60):
        expr = random_expr(random.Random(seed), MIXED, 10)
        assert format_free(free_normalize(expr)) == reference_format(expr, MIXED)


_SCRATCH_RUNS = itertools.count()


def test_unique_table_interns_one_node_per_key_across_threads():
    # generator names no other test uses, so every node and name is new to
    # the tables; each thread registers names of its own between the shared
    # ones, so distinct names race for bits too
    run = next(_SCRATCH_RUNS)
    names = [f"race{run}_{k}" for k in range(24)]
    own = [[f"{'xy'[i % 2]}race{run}_t{i}_{k}" for k in range(24)] for i in range(4)]

    def build():
        gens = [generator(n) for n in names]
        out, acc = [], FREE_ZERO
        for i, g in enumerate(gens):
            acc = (acc & ~g) | (gens[(5 * i + 3) % len(gens)] & g)
            out.append(acc)
        return out

    barrier = threading.Barrier(4)
    results = [None] * 4

    def worker(i):
        barrier.wait(timeout=30)
        for mine, shared in zip(own[i], names):
            generator(mine), generator(shared)
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
        assert all(a._node is b._node for a, b in zip(results[0], other))
    registered = names + [n for mine in own for n in mine]
    bits = [free_algebra.generator_sort_key(n)[3] for n in registered]
    assert len(set(bits)) == len(registered)
    for name, bit in zip(registered, bits):
        assert generator(name)._node.mask == 1 << bit
        assert generator(name).support == {name}


def walked_support(e) -> frozenset:
    """The generators on the nodes of e's diagram, by walking it."""
    seen, out, stack = set(), set(), [e._node]
    while stack:
        node = stack.pop()
        if isinstance(node, free_algebra._Node) and node.uid not in seen:
            seen.add(node.uid)
            out.add(node.var)
            stack += [node.lo, node.hi]
    return frozenset(out)


def test_support_and_contains_match_a_walk_of_the_diagram():
    run = next(_SCRATCH_RUNS)
    names = [f"{p}mask{run}_{k}" for k in range(4) for p in "xy"]
    # cached before any other name of this test has a bit
    early = FreeAlgebra(frozenset(names[:3]))
    assert early.contains(generator(names[0]))
    assert not any(n in free_algebra._KEYS for n in names[3:])
    algebras = [early] + [
        FreeAlgebra(frozenset(names[k::j])) for j in (1, 2, 3) for k in range(j)
    ]
    for seed in range(80):
        e = free_normalize(random_expr(random.Random(seed), names, 12))
        ref = walked_support(e)
        assert e.support == ref
        for alg in algebras:
            assert alg.contains(e) == (ref <= alg.generators), (seed, alg)


def test_uid_overflow_raises_a_named_error(monkeypatch):
    run = next(_SCRATCH_RUNS)
    limit = 1 << free_algebra._UID_BITS
    monkeypatch.setattr(free_algebra, "_UIDS", itertools.count(limit - 1))
    assert generator(f"over{run}_0")._node.uid == limit - 1  # the last uid that fits
    with pytest.raises(KeyFieldOverflow, match="uid"):
        generator(f"over{run}_1")


def test_bit_overflow_raises_a_named_error(monkeypatch):
    run = next(_SCRATCH_RUNS)
    monkeypatch.setattr(free_algebra, "_BITS", itertools.count(1 << free_algebra._BIT_BITS))
    with pytest.raises(KeyFieldOverflow, match="bit"):
        generator(f"bitover{run}")
    assert f"bitover{run}" not in free_algebra._KEYS
