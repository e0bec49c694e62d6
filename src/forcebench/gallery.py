"""Executable reconstructions of the limit counterexamples, depth-stamped.

The towers are free-algebra chains where stage n+1 adds one fresh generator;
freshness (both the generator and its complement project to 1) is exactly
what the counterexamples need from atomless quotients.  Conclusions that
live in a completion (a supremum that no thread reaches, an incompatibility
invisible to pointwise meets) are phrased as support-escape certificates.
"""
from __future__ import annotations

from dataclasses import dataclass, field

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
    thread_validate,
)
from .morphisms import FreeInclusion


def fresh_gen(n: int) -> str:
    return f"y{n}"


def base_gen(n: int) -> str:
    return f"x{n}"


@dataclass(frozen=True, eq=False)
class FreshTower:
    """Stages Free(X ∪ {y0..y_{n-1}}) with inclusion steps."""

    depth: int
    base_size: int
    system: IterationSystem

    def stage_algebra(self, n: int) -> FreeAlgebra:
        return self.system.algebra(n)


def build_fresh_tower(depth: int, base_size: int | None = None) -> FreshTower:
    """The tower, materialized and audited to ``depth``.

    Freshness at every audited stage: the new generator and its complement
    both project to 1, the finite form of a forced-nontrivial quotient.
    """
    if depth < 2:
        raise ValueError("towers shallower than 2 certify nothing")
    if base_size is None:
        base_size = depth + 1
    base = frozenset(base_gen(k) for k in range(base_size))

    def algebra_rule(n: int) -> FreeAlgebra:
        return FreeAlgebra(base | frozenset(fresh_gen(k) for k in range(n)))

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
    return FreshTower(depth, base_size, system)


@dataclass
class ClaimVerdict:
    passed: bool
    certified_depth: int
    witness: str = ""


@dataclass
class GalleryReport:
    depth: int
    claims: dict[str, ClaimVerdict] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.claims.values())

    def record(self, name: str, passed: bool, depth: int, witness: str = "") -> None:
        self.claims[name] = ClaimVerdict(passed, depth, witness)


def _fresh_chain() -> GeneratorChain:
    """y0, y0∧y1, ...: the chain a constant thread under the diagonal must obey."""
    return GeneratorChain(
        element_at=lambda n: all_meet(generator(fresh_gen(k)) for k in range(n)),
        generator_at=fresh_gen,
    )


def sup_gap_audit(depth: int, tower: FreshTower | None = None) -> GalleryReport:
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
    report = GalleryReport(depth)

    def t_seed(n: int) -> FreeElement:
        # stage-n seed: fresh generator n-1 fails, all earlier ones hold
        return ~generator(fresh_gen(n - 1)) & all_meet(
            generator(fresh_gen(k)) for k in range(n - 1)
        )

    family = {n: ConstantThread(n, t_seed(n)) for n in range(1, depth + 1)}
    for t in family.values():
        thread_validate(system, t, depth=depth)

    # paper-anchored base case: the first member projects to 1 at stage 0
    base_case = coordinate(system, family[1], 0) == FREE_ONE
    report.record("first_member_projects_to_one", base_case, 0)

    ok = True
    witness = ""
    for n in range(1, depth + 1):
        for m in range(1, n):
            c = max(n, m)
            meet = coordinate(system, family[n], c) & coordinate(system, family[m], c)
            if not meet.is_zero:
                ok = False
                witness = f"t_{n} and t_{m} meet at coordinate {c}"
    report.record("pairwise_incompatible", ok, depth, witness)

    ok = True
    witness = ""
    for n in range(0, depth):
        join = tower.stage_algebra(n).zero
        for m in range(1, n + 2):
            join = join | coordinate(system, family[m], n)
        if not join.is_one:
            ok = False
            witness = f"pointwise join falls short at coordinate {n}"
    report.record("pointwise_sup_is_one", ok, depth, witness)

    diagonal = RuleThread(
        lambda n: all_meet(generator(fresh_gen(k)) for k in range(n)),
        description="all fresh generators hold",
    )
    thread_validate(system, diagonal, depth=depth)
    ok = True
    witness = ""
    for n in range(1, depth + 1):
        meet = coordinate(system, diagonal, n) & coordinate(system, family[n], n)
        if not meet.is_zero:
            ok = False
            witness = f"diagonal compatible with t_{n}"
        if coordinate(system, diagonal, n).is_zero:
            ok = False
            witness = f"diagonal vanished at coordinate {n}"
    report.record("diagonal_avoids_family", ok, depth, witness)

    # gap certificate: no nonzero constant below the diagonal
    chain = _fresh_chain()
    ok = True
    witness = ""
    for s in range(0, depth + 1):
        seed = coordinate(system, diagonal, s)  # the largest conceivable seed
        verdict = chain_vanishing(seed, chain)
        if verdict.kind == "lower_bound_zero" and not seed.is_zero:
            ok = False
            witness = f"stage-{s} seed slipped through the chain"
        # the adjoint bound: everything forced below the diagonal's future
        bound = FREE_ONE
        for b in range(s, depth + 2):
            coord = coordinate(system, diagonal, b)
            bound = bound & ~system.hom(s, b).project(~coord)
        if not bound.is_zero:
            ok = False
            witness = f"nonzero constant of support {s} sits below the diagonal"
    report.record("no_constant_below_diagonal", ok, depth, witness)
    return report


def wedge_meet_audit(depth: int, tower: FreshTower | None = None) -> GalleryReport:
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
    report = GalleryReport(depth)

    def a(n: int) -> FreeElement:
        return all_meet(generator(base_gen(k)) for k in range(n))

    def f_coord(n: int) -> FreeElement:
        return all_meet(
            generator(fresh_gen(m - 1)) | a(m) for m in range(1, n + 1)
        )

    def g_coord(n: int) -> FreeElement:
        return all_meet(
            ~generator(fresh_gen(m - 1)) | a(m) for m in range(1, n + 1)
        )

    f = RuleThread(f_coord, description="fresh-or-cylinder")
    g = RuleThread(g_coord, description="cofresh-or-cylinder")
    thread_validate(system, f, depth=depth)
    thread_validate(system, g, depth=depth)

    ok = True
    witness = ""
    for n in range(1, depth + 1):
        meet = f_coord(n) & g_coord(n)
        if meet != a(n):
            ok = False
            witness = f"coordinate {n} meet is not the cylinder"
        if meet.is_zero:
            ok = False
            witness = f"coordinate {n} meet vanished"
    report.record("meets_are_nonzero_cylinders", ok, depth, witness)

    # the pointwise meet is not a thread: coherence already fails low
    ok = False
    witness = "pointwise meet stayed coherent"
    for n in range(0, depth):
        lhs = system.hom(n, n + 1).project(f_coord(n + 1) & g_coord(n + 1))
        if lhs != f_coord(n) & g_coord(n):
            ok = True
            witness = f"pointwise meet loses coherence at ({n},{n+1})"
            break
    report.record("pointwise_meet_not_a_thread", ok, depth, witness)

    # any common lower bound is under every cylinder at stage 0
    ok = True
    witness = ""
    for n in range(1, depth + 1):
        squeezed = system.hom(0, n).project(f_coord(n) & g_coord(n))
        if squeezed != a(n):
            ok = False
            witness = f"projection of the meet at {n} is not the cylinder"
    report.record("lower_bounds_squeezed_under_cylinders", ok, depth, witness)

    chain = GeneratorChain(
        element_at=a,
        generator_at=base_gen,
    )
    sample = generator(base_gen(0))
    verdict = chain_vanishing(sample, chain)
    report.record(
        "sample_lower_bound_fails_escape",
        verdict.kind == "fails_at" and verdict.index == 2,
        depth,
        f"x0 candidate fails at chain step {verdict.index}",
    )
    zero_verdict = chain_vanishing(tower.stage_algebra(0).zero, chain)
    report.record(
        "zero_is_the_only_survivor",
        zero_verdict.is_zero,
        depth,
    )
    return report
