"""Cross-module structural invariants that do not belong to a single unit file."""
import itertools
import os
import random

from forcebench.finite_cba import FiniteCBA
from forcebench.free_algebra import FreeAlgebra
from forcebench.iteration import (
    ConstantThread,
    build_system,
    coordinate,
    thread_validate,
)
from forcebench.morphisms import FreeInclusion, hom_from_fiber_map
from forcebench.two_step import AtomwisePresentation, build_two_step, two_step_iso_audit
from forcebench.bvm import Atomic, Exists, Var, eval_at_atom, hf_satisfies, truth_value

from .oracles import random_name_pool, truth_table
from forcebench.free_algebra import parse_free_expression, format_free


def _posets_linear_extension(n):
    labels = [f"p{k}" for k in range(n)]
    idx_pairs = [(i, j) for i in range(n) for j in range(n) if i < j]
    for bits in range(1 << len(idx_pairs)):
        below = [1 << i for i in range(n)]
        for k, (i, j) in enumerate(idx_pairs):
            if bits >> k & 1:
                below[j] |= 1 << i
        for j in range(n):
            for i in range(n):
                if below[j] >> i & 1:
                    below[j] |= below[i]
        yield labels, below


def _dense_antichain_sweep(n, below):
    """Every dense set contains a maximal antichain; maximal antichains are
    predense.  Pure bitmask route, independent of the Poset class."""
    full = (1 << n) - 1
    maximal = []
    for a in range(1, full + 1):
        bits = [k for k in range(n) if a >> k & 1]
        if any(
            below[p] & below[q]
            for p, q in itertools.combinations(bits, 2)
        ):
            continue
        if all(any(below[p] & below[q] for q in bits) for p in range(n)):
            maximal.append(a)
    for d in range(1, full + 1):
        dense = all(d & below[p] for p in range(n))
        if dense:
            assert any(a & ~d == 0 for a in maximal), "dense set without maximal antichain"
    for a in maximal:
        # predense: the downward closure is dense
        down = 0
        for k in range(n):
            if a >> k & 1:
                down |= below[k]
        assert all(down & below[p] for p in range(n)), "maximal antichain not predense"


def test_dense_sets_contain_maximal_antichains():
    # exhaustive to 5 elements; 6-element posets sampled by seed (the full
    # 2^15 sweep runs with FORCEBENCH_FULL_SWEEP=1)
    for n in range(1, 6):
        for labels, below in _posets_linear_extension(n):
            _dense_antichain_sweep(n, below)
    rng = random.Random(6)
    idx_pairs = [(i, j) for i in range(6) for j in range(6) if i < j]
    if os.environ.get("FORCEBENCH_FULL_SWEEP"):
        picks = range(1 << 15)
    else:
        picks = [rng.getrandbits(15) for _ in range(2000)]
    for bits in picks:
        below = [1 << i for i in range(6)]
        for k, (i, j) in enumerate(idx_pairs):
            if bits >> k & 1:
                below[j] |= 1 << i
        for j in range(6):
            for i in range(6):
                if below[j] >> i & 1:
                    below[j] |= below[i]
        _dense_antichain_sweep(6, below)


def test_free_inclusion_matches_defining_infimum_spec_sampling():
    # all elements with support of size <= 3 over the 4 source generators
    # (plus one fresh), against the truth-table existential as the oracle
    source = tuple(f"g{k}" for k in range(4))
    fresh = ("h0",)
    inc = FreeInclusion(
        FreeAlgebra(frozenset(source)), FreeAlgebra(frozenset(source) | frozenset(fresh))
    )
    universe = source + fresh
    for subset in itertools.combinations(universe, 3):
        if not any(g in fresh for g in subset):
            continue
        names = tuple(sorted(subset))
        for bits in range(1 << (1 << 3)):
            expr_rows = [(bits >> r) & 1 for r in range(1 << 3)]
            # build the function as a disjunction of its true rows
            cubes = []
            for r, v in enumerate(expr_rows):
                if v:
                    lits = []
                    for i, g in enumerate(names):
                        lits.append(g if (r >> (2 - i)) & 1 else f"¬{g}")
                    cubes.append(" ∧ ".join(lits))
            text = " ∨ ".join(f"({c})" for c in cubes) if cubes else "0"
            c = parse_free_expression(text)
            from forcebench.free_algebra import free_normalize

            elem = free_normalize(c)
            projected = inc.project(elem)
            # oracle: existential quantification over the fresh generator by
            # truth table over the full universe
            tt = truth_table(parse_free_expression(format_free(elem)), universe)
            h_index = universe.index("h0")
            rows = 1 << len(universe)
            expect = []
            for r in range(rows):
                r0 = r & ~(1 << (len(universe) - 1 - h_index))
                r1 = r | (1 << (len(universe) - 1 - h_index))
                expect.append(tt[r0] or tt[r1])
            got = truth_table(parse_free_expression(format_free(projected)), universe)
            assert list(got) == expect


def test_limit_embedding_is_regular_with_projection_evaluation():
    b1, b2, b4 = FiniteCBA(1), FiniteCBA(2), FiniteCBA(4)
    system = build_system(
        [b1, b2, b4],
        [hom_from_fiber_map(b1, b2, [0, 0]), hom_from_fiber_map(b2, b4, [0, 0, 1, 1])],
    )
    alpha = 1
    seen = {}
    for b in system.algebra(alpha).elements():
        t = ConstantThread(alpha, b)
        thread_validate(system, t)
        coords = tuple(coordinate(system, t, n) for n in range(3))
        seen[b] = coords
        assert coords[alpha] == b  # the retraction onto stage alpha evaluates
    # injective and join-preserving into the limit ordering
    assert len(set(seen.values())) == len(seen)
    for b, c in itertools.product(system.algebra(alpha).elements(), repeat=2):
        join = tuple(x | y for x, y in zip(seen[b], seen[c]))
        assert join == seen[b | c]


def test_two_step_round_trip_on_presentations():
    rng = random.Random(23)
    for _ in range(30):
        base = FiniteCBA(rng.randint(1, 3))
        pres = AtomwisePresentation(
            base, tuple(FiniteCBA(rng.randint(1, 3)) for _ in range(base.atom_count))
        )
        two = build_two_step(pres)
        iso = two_step_iso_audit(two.embedding)
        assert iso.passed
        rebuilt = iso.two.presentation
        assert tuple(f.atom_count for f in rebuilt.fibers) == tuple(
            f.atom_count for f in pres.fibers
        )


def test_pool_relative_existential_agrees_with_oracle():
    rng = random.Random(31)
    algebra = FiniteCBA(2)
    pool = random_name_pool(algebra, 8, 2, rng)
    phi = Exists("x", Atomic("mem", Var("x"), Var("u")))
    for u in pool:
        value = truth_value(phi, {"u": u}, algebra, pool)
        for atom in range(algebra.atom_count):
            from forcebench.finite_cba import Ultrafilter

            ua = Ultrafilter(algebra, atom)
            env = {"u": eval_at_atom(u, ua)}
            hf_pool = tuple(eval_at_atom(n, ua) for n in pool)
            assert hf_satisfies(phi, env, hf_pool) == bool(value >> atom & 1)
