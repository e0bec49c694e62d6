"""Executable reconstructions of the limit counterexamples, depth-stamped.

The towers are free-algebra chains where stage n+1 adds one fresh generator;
freshness (both the generator and its complement project to 1) is exactly
what the counterexamples need from atomless quotients.  Conclusions that
live in a completion (a supremum that no thread reaches, an incompatibility
invisible to pointwise meets) are phrased as support-escape certificates.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

from .errors import InvariantViolation
from .free_algebra import (
    FREE_ONE,
    FreeAlgebra,
    FreeElement,
    GeneratorChain,
    all_meet,
    chain_vanishing,
    generator,
)
from .iteration import (
    ConstantThread,
    IterationSystem,
    RuleThread,
    build_lazy_system,
    coordinate,
    largest_constant_below,
    thread_validate,
)
from .morphisms import FreeInclusion
from .report import Ledger


def fresh_gen(n: int) -> str:
    return f"y{n}"


def base_gen(n: int) -> str:
    return f"x{n}"


@dataclass(frozen=True, eq=False)
class FreshTower:
    """Stages Free(X ∪ {y0..y_{n-1}}) with inclusion steps."""

    depth: int
    system: IterationSystem

    def stage_algebra(self, n: int) -> FreeAlgebra:
        return self.system.algebra(n)


def build_fresh_tower(depth: int) -> FreshTower:
    """The tower, materialized and audited to ``depth``.

    Freshness at every audited stage: the new generator and its complement
    both project to 1, the finite form of a forced-nontrivial quotient.
    """
    if depth < 2:
        raise ValueError("towers shallower than 2 certify nothing")
    base = frozenset(base_gen(k) for k in range(depth + 1))

    @functools.cache
    def algebra_rule(n: int) -> FreeAlgebra:
        return FreeAlgebra(base | frozenset(fresh_gen(k) for k in range(n)))

    @functools.cache
    def step_rule(n: int) -> FreeInclusion:
        return FreeInclusion(algebra_rule(n), algebra_rule(n + 1))

    system = build_lazy_system(algebra_rule, step_rule, depth)
    for n in range(depth):
        step = system.step_at(n)
        y = generator(fresh_gen(n))
        if step.project(y) != FREE_ONE:
            raise InvariantViolation(f"fresh generator {fresh_gen(n)} does not project to 1")
        if step.project(~y) != FREE_ONE:
            raise InvariantViolation(f"the complement of {fresh_gen(n)} does not project to 1")
    return FreshTower(depth, system)


def _prefix_meets(term: Callable[[int], FreeElement]) -> Callable[[int], FreeElement]:
    """n -> term(0) ∧ ... ∧ term(n-1), each prefix built once from the one before."""
    prefixes = {0: FREE_ONE}

    def at(n: int) -> FreeElement:
        k = n
        while k not in prefixes:
            k -= 1
        for j in range(k + 1, n + 1):
            prefixes.setdefault(j, prefixes[j - 1] & term(j - 1))
        return prefixes[n]

    return at


def _fresh_chain() -> GeneratorChain:
    """y0, y0∧y1, ...: the chain a constant thread under the diagonal must obey."""
    return GeneratorChain(
        element_at=lambda n: all_meet(generator(fresh_gen(k)) for k in range(n)),
        generator_at=fresh_gen,
    )


def sup_gap_audit(depth: int, tower: FreshTower | None = None) -> Ledger:
    """The direct limit's pointwise supremum outruns the true supremum.

    The family t_n (constant from stage n, seeded "the n-th fresh generator
    fails, all earlier ones hold") is pairwise incompatible, its pointwise
    supremum is 1 at every coordinate, yet the diagonal thread t (all fresh
    generators hold) is nonzero and incompatible with every t_n; the gap
    certificate shows no nonzero constant thread sits below t, so in any
    completion the supremum of the t_n stays below the complement of t.
    """
    if depth < 3:
        raise ValueError("the gap needs depth at least 3")
    tower = tower or build_fresh_tower(depth)
    system = tower.system
    report = Ledger()
    fresh_meet = _prefix_meets(lambda k: generator(fresh_gen(k)))

    def t_seed(n: int) -> FreeElement:
        # stage-n seed: fresh generator n-1 fails, all earlier ones hold
        return ~generator(fresh_gen(n - 1)) & fresh_meet(n - 1)

    family = {n: ConstantThread(n, t_seed(n)) for n in range(1, depth + 1)}
    for t in family.values():
        thread_validate(system, t, depth=depth)

    # paper-anchored base case: the first member projects to 1 at stage 0
    ok = coordinate(system, family[1], 0) == FREE_ONE
    report.record("first_member_projects_to_one", ok, "" if ok else "t_1(0) is not 1", depth=0)

    # each case is recorded on its own, so a failing claim keeps its first
    # failing case as the witness; a passing case gives no note
    for n in range(1, depth + 1):
        for m in range(1, n):
            meet = coordinate(system, family[n], n) & coordinate(system, family[m], n)
            witness = "" if meet.is_zero else f"t_{n} and t_{m} meet at coordinate {n}"
            report.record("pairwise_incompatible", not witness, witness, depth=depth)

    for n in range(0, depth):
        join = tower.stage_algebra(n).zero
        for m in range(1, n + 2):
            join = join | coordinate(system, family[m], n)
        witness = "" if join.is_one else f"pointwise join falls short at coordinate {n}"
        report.record("pointwise_sup_is_one", not witness, witness, depth=depth)

    diagonal = RuleThread(fresh_meet, description="all fresh generators hold")
    thread_validate(system, diagonal, depth=depth)
    for n in range(1, depth + 1):
        d_n = coordinate(system, diagonal, n)
        witness = ""
        if not (d_n & coordinate(system, family[n], n)).is_zero:
            witness = f"diagonal compatible with t_{n}"
        if d_n.is_zero:
            witness = f"diagonal vanished at coordinate {n}"
        report.record("diagonal_avoids_family", not witness, witness, depth=depth)

    # gap certificate: no nonzero constant below the diagonal
    chain = _fresh_chain()
    for s in range(0, depth + 1):
        seed = coordinate(system, diagonal, s)  # the largest conceivable seed
        witness = ""
        if chain_vanishing(seed, chain).kind == "lower_bound_zero" and not seed.is_zero:
            witness = f"stage-{s} seed slipped through the chain"
        if not largest_constant_below(system, diagonal, s, depth).is_zero:
            witness = f"nonzero constant of support {s} sits below the diagonal"
        report.record("no_constant_below_diagonal", not witness, witness, depth=depth)
    return report


def wedge_meet_audit(depth: int, tower: FreshTower | None = None) -> Ledger:
    """Two incompatible threads whose coordinatewise meets never vanish.

    With the descending base cylinders a_n and fresh generators d_n, the
    threads through d_n ∨ a_n and ¬d_n ∨ a_n meet in exactly a_n at every
    coordinate, yet any common lower bound is squeezed below every a_n at
    stage 0 and must be zero by support escape.
    """
    if depth < 3:
        raise ValueError("the wedge needs depth at least 3")
    tower = tower or build_fresh_tower(depth)
    system = tower.system
    report = Ledger()

    # a(n) = x0 ∧ ... ∧ x_{n-1}; f(n) and g(n) meet d_m ∨ a_m and ¬d_m ∨ a_m
    # over m = 1..n, with d_m the fresh generator y_{m-1}
    a = _prefix_meets(lambda k: generator(base_gen(k)))
    f_coord = _prefix_meets(lambda k: generator(fresh_gen(k)) | a(k + 1))
    g_coord = _prefix_meets(lambda k: ~generator(fresh_gen(k)) | a(k + 1))

    f = RuleThread(f_coord, description="fresh-or-cylinder")
    g = RuleThread(g_coord, description="cofresh-or-cylinder")
    thread_validate(system, f, depth=depth)
    thread_validate(system, g, depth=depth)

    for n in range(1, depth + 1):
        meet = f_coord(n) & g_coord(n)
        witness = ""
        if meet != a(n):
            witness = f"coordinate {n} meet is not the cylinder"
        if meet.is_zero:
            witness = f"coordinate {n} meet vanished"
        report.record("meets_are_nonzero_cylinders", not witness, witness, depth=depth)

    # the pointwise meet is not a thread: coherence already fails low
    ok = False
    witness = "pointwise meet stayed coherent"
    for n in range(0, depth):
        lhs = system.hom(n, n + 1).project(f_coord(n + 1) & g_coord(n + 1))
        if lhs != f_coord(n) & g_coord(n):
            ok = True
            witness = f"pointwise meet loses coherence at ({n},{n+1})"
            break
    report.record("pointwise_meet_not_a_thread", ok, witness, cases=n + 1, depth=depth)

    # any common lower bound is under every cylinder at stage 0
    for n in range(1, depth + 1):
        squeezed = system.hom(0, n).project(f_coord(n) & g_coord(n))
        witness = "" if squeezed == a(n) else f"projection of the meet at {n} is not the cylinder"
        report.record("lower_bounds_squeezed_under_cylinders", not witness, witness, depth=depth)

    chain = GeneratorChain(
        element_at=a,
        generator_at=base_gen,
    )
    sample = generator(base_gen(0))
    verdict = chain_vanishing(sample, chain)
    report.record(
        "sample_lower_bound_fails_escape",
        verdict.kind == "fails_at" and verdict.index == 2,
        f"x0 candidate fails at chain step {verdict.index}",
        depth=depth,
    )
    ok = chain_vanishing(tower.stage_algebra(0).zero, chain).is_zero
    report.record("zero_is_the_only_survivor", ok, "" if ok else "zero fails", depth=depth)
    return report
