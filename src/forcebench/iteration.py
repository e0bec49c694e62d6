"""Iteration systems, threads, limits, and their quotients.

Finite-length systems are eager (everything materialized); infinite systems
are lazy rules audited to a declared depth, and every certificate records the
depth it covers.  Steps are either fiber-map homomorphisms between finite
algebras or inclusions of free algebras; both expose apply/project/then.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .errors import (
    CoherenceFailure,
    CommutationFailure,
    NotAntichainAtStage,
    NotEager,
    NotRegular,
)
from .finite_cba import Ultrafilter
from .free_algebra import FreeAlgebra
from .morphisms import EXHAUSTIVE_MAX_ATOMS, FreeInclusion, identity_hom
from .poset import Poset, boolean_completion
from .report import Ledger
from .two_step import GenericQuotient, Triangle, canonical_representative, quotient_hom


def _identity_step(algebra):
    if isinstance(algebra, FreeAlgebra):
        return FreeInclusion(algebra, algebra)
    return identity_hom(algebra)


@dataclass(frozen=True, eq=False)
class IterationSystem:
    """A commuting family of regular one-step maps with cached compositions."""

    length: int | None  # None = omega (lazy rules)
    algebra_at: Callable[[int], object]
    step_at: Callable[[int], object]  # n -> map B_n -> B_{n+1}
    audited_depth: int = 0
    _hom_cache: dict = field(default_factory=dict, repr=False)

    @property
    def eager(self) -> bool:
        return self.length is not None

    def algebra(self, n: int):
        if self.length is not None and not 0 <= n < self.length:
            raise IndexError(f"stage {n} outside length {self.length}")
        return self.algebra_at(n)

    def hom(self, a: int, b: int):
        """The composed map i_{a b}."""
        if a > b:
            raise ValueError("homomorphisms go forward")
        key = (a, b)
        out = self._hom_cache.get(key)
        if out is None:
            if a == b:
                out = _identity_step(self.algebra(a))
            else:
                out = self.hom(a, b - 1).then(self.step_at(b - 1))
            self._hom_cache[key] = out
        return out

    def stages(self, depth: int | None = None) -> range:
        if self.length is not None:
            return range(self.length)
        if depth is None:
            raise ValueError("lazy systems need an explicit depth")
        return range(depth + 1)


def build_system(algebras: Iterable, steps: Iterable) -> IterationSystem:
    """Eager system; regularity of every step and commutation of every
    composable triple are audited at construction."""
    algebras = tuple(algebras)
    steps = tuple(steps)
    if len(steps) != len(algebras) - 1:
        raise ValueError("need exactly one step between consecutive stages")
    return _audited(len(algebras), algebras.__getitem__, steps.__getitem__, len(algebras) - 1)


def build_lazy_system(
    algebra_rule: Callable[[int], object],
    step_rule: Callable[[int], object],
    depth: int,
) -> IterationSystem:
    """Lazy system audited to ``depth``: step shapes, regularity, commutation."""
    return _audited(None, algebra_rule, step_rule, depth)


def _audited(length, algebra_at, step_at, depth: int) -> IterationSystem:
    """The system, once every step to ``depth`` has its declared stages and
    is regular, and every composable triple to ``depth`` commutes."""
    for n in range(depth):
        s = step_at(n)
        if s.source != algebra_at(n) or s.target != algebra_at(n + 1):
            raise CommutationFailure(n, n, n + 1)
        if not s.regular:
            raise NotRegular(f"step at stage {n} is not regular")
    system = IterationSystem(length, algebra_at, step_at, depth)
    _audit_commutation(system, depth)
    return system


def _audit_commutation(system: IterationSystem, depth: int) -> None:
    for a in range(depth + 1):
        for b in range(a, depth + 1):
            for c in range(b, depth + 1):
                if not system.hom(a, b).composes_to(system.hom(b, c), system.hom(a, c)):
                    raise CommutationFailure(a, b, c)


# -- threads ----------------------------------------------------------------------


@dataclass(frozen=True)
class VectorThread:
    coords: tuple


@dataclass(frozen=True, eq=False)
class RuleThread:
    """A lazy thread given by a coordinate rule; purity is the caller's
    contract, so ``coordinate`` runs the rule once per stage and keeps it."""

    rule: Callable[[int], object]
    description: str = ""
    constant_from: int | None = None
    _coords: dict = field(default_factory=dict, init=False, repr=False)


@dataclass(frozen=True)
class ConstantThread:
    stage: int
    seed: object


Thread = object


def coordinate(system: IterationSystem, thread: Thread, n: int):
    if isinstance(thread, VectorThread):
        return thread.coords[n]
    if isinstance(thread, RuleThread):
        try:
            return thread._coords[n]
        except KeyError:
            return thread._coords.setdefault(n, thread.rule(n))
    if isinstance(thread, ConstantThread):
        if n >= thread.stage:
            return system.hom(thread.stage, n).apply(thread.seed)
        return system.hom(n, thread.stage).project(thread.seed)
    raise TypeError(f"not a thread: {thread!r}")


@dataclass(frozen=True)
class ThreadCertificate:
    depth: int
    pairs_checked: int


def thread_validate(
    system: IterationSystem, thread: Thread, depth: int | None = None
) -> ThreadCertificate:
    """Coherence of every audited pair of coordinates, each computed once."""
    stages = list(system.stages(depth))
    coords = [coordinate(system, thread, n) for n in stages]
    checked = 0
    for (a, fa), (b, fb) in itertools.combinations(zip(stages, coords), 2):
        if system.hom(a, b).project(fb) != fa:
            raise CoherenceFailure(a, b)
        checked += 1
    return ThreadCertificate(stages[-1] if stages else 0, checked)


def _thread(system: IterationSystem, rule: Callable[[int], object], description: str) -> Thread:
    """The thread with coordinates ``rule(n)``: materialized on an eager
    system, computed on demand on a lazy one."""
    if system.eager:
        return VectorThread(tuple(rule(n) for n in system.stages()))
    return RuleThread(rule, description=description)


def pointwise_sup(system: IterationSystem, threads: list[Thread]) -> Thread:
    """Coordinatewise join; a thread because retractions preserve joins."""

    def rule(n: int):
        out = coordinate(system, threads[0], n)
        for t in threads[1:]:
            out = out | coordinate(system, t, n)
        return out

    return _thread(system, rule, "pointwise sup")


def meet_with_constant(
    system: IterationSystem, g: Thread, h: ConstantThread
) -> Thread:
    """The infimum of a thread and a constant thread: eventual pointwise meet."""
    stage = h.stage

    def rule(n: int):
        if n >= stage:
            return coordinate(system, g, n) & coordinate(system, h, n)
        return system.hom(n, stage).project(coordinate(system, g, stage) & h.seed)

    return _thread(system, rule, "meet with constant")


def largest_constant_below(system: IterationSystem, thread: Thread, s: int, depth: int):
    """The largest stage-``s`` seed whose constant thread stays below
    ``thread`` at every stage from ``s`` to ``depth + 1``: by the adjunction
    of each i_sb with its retraction, the meet over b of ¬π_sb(¬t_b)."""
    alg_s = system.algebra(s)
    bound = alg_s.one
    for b in range(s, depth + 2):
        blocked = system.hom(s, b).project(system.algebra(b).neg(coordinate(system, thread, b)))
        bound = bound & alg_s.neg(blocked)
    return bound


# -- the antichain pointwise-sup lemma ------------------------------------------------


def antichain_sup_audit(
    system: IterationSystem,
    threads: list[Thread],
    stage: int,
    depth: int,
    candidates: "list[Thread] | str" = "search",
) -> Ledger:
    """The pointwise sup of a stage-antichain family is the true sup.

    Every candidate below the pointwise sup but below none of the listed
    threads is refuted by the proof's refinement h(b) = g(b) ∧ i(f(stage)):
    h is a nonzero thread under both g and some listed f.  One claim, with a
    case per searched constant seed (search) or per supplied candidate.
    """
    projections = [coordinate(system, t, stage) for t in threads]
    for i, x in enumerate(projections):
        if not x:
            raise NotAntichainAtStage(stage, "zero projection")
        for y in projections[i + 1 :]:
            if x & y:
                raise NotAntichainAtStage(stage, "overlapping projections")

    report = Ledger()
    claim = "pointwise_sup_is_the_sup"
    report.record(claim, True, cases=0)
    sup = pointwise_sup(system, threads)
    stages = list(system.stages(depth))

    if candidates == "search":
        if not system.eager:
            raise NotEager("constant-candidate search needs an eager system")
        found: list[Thread] = []
        last = system.length - 1
        alg_last = system.algebra(last)
        sup_last = coordinate(system, sup, last)
        for s in stages:
            s_alg = system.algebra(s)
            for seed in s_alg.nonzero_elements():
                g = ConstantThread(s, seed)
                g_last = coordinate(system, g, last)
                if alg_last.leq(g_last, sup_last) and all(
                    not alg_last.leq(g_last, coordinate(system, t, last))
                    for t in threads
                ):
                    found.append(g)
                else:  # not a candidate: nothing to refute
                    report.record(claim, True)
        candidates = found

    for g in candidates:
        witness = _unrefuted(system, threads, projections, depth, stage, g)
        report.record(claim, not witness, witness)
    return report


def _unrefuted(system, threads, projections, depth, stage, g) -> str:
    """Why the refinement fails to refute candidate g; "" when it refutes it."""
    g_stage = coordinate(system, g, stage)
    chosen = next((t for t, proj in zip(threads, projections) if g_stage & proj), None)
    if chosen is None:
        return f"candidate meets no listed projection at stage {stage}"
    h = meet_with_constant(system, g, ConstantThread(stage, coordinate(system, chosen, stage)))
    try:
        thread_validate(system, h, depth)
    except CoherenceFailure as failure:
        return "refinement not coherent at ({},{})".format(*failure.stages)
    if not coordinate(system, h, stage):
        return "refinement vanished at its own stage"
    for n in system.stages(depth):
        alg_n = system.algebra(n)
        if not alg_n.leq(coordinate(system, h, n), coordinate(system, g, n)):
            return f"refinement escapes the candidate at {n}"
        if not alg_n.leq(coordinate(system, h, n), coordinate(system, chosen, n)):
            return f"refinement escapes the listed thread at {n}"
    return ""


# -- direct limit against its completion ------------------------------------------------


@dataclass
class CorrespondenceReport(Ledger):
    """The audit's claims; ``details`` counts elements (finite) or holds a
    verdict per thread (lazy)."""

    details: dict = field(default_factory=dict)


def _subset_joins(values: list[int]) -> list[int]:
    """``out[m]``, the join of ``values[x]`` over every x <= m: the zeta transform."""
    out = list(values)
    for i in range(len(out).bit_length() - 1):
        for m in range(len(out)):
            out[m] |= out[m & ~(1 << i)]
    return out


def direct_limit_correspondence_audit(
    system: IterationSystem,
    depth: int | None = None,
    threads: list[Thread] | None = None,
) -> CorrespondenceReport:
    """Finite length: the completion of the constant-thread poset matches the
    threads that are sups of the constants below them, through the two maps
    (join of a regular-open set of constants / constants below a thread).

    Lazy: for each supplied thread, the best constant below it at each stage
    is computed through the projections; either the joins reach the thread
    (membership evidence) or every stage yields zero (a gap certificate).
    Each thread is one case of one claim, which a thread the joins reach
    only partly fails.
    """
    if system.eager:
        report = CorrespondenceReport()
        alg = system.algebra(system.length - 1)
        # t{e} at bit e - 1, under inclusion: its down-set joins its submasks,
        # its up-set its supermasks (submasks of the complement, read backwards)
        singletons = [0] + [1 << k for k in range(alg.one)]
        downs, ups = _subset_joins(singletons), _subset_joins(singletons[::-1])[::-1]
        poset = Poset.from_masks([f"t{e}" for e in alg.nonzero_elements()], downs[1:], ups[1:])
        completion = boolean_completion(poset)
        ok = completion.algebra.atom_count == alg.atom_count
        witness = "" if ok else "completion has the wrong atom count"
        report.record("completion_atom_count", ok, witness)
        if not ok:
            return report
        for check, ok in completion.audit().items():
            report.record(f"completion_{check}", ok)
        # k(m) joins the constants with image in m (an image past the atoms
        # lies in no m), and m comes back as the join of the images below k(m)
        images = [0] + [completion.embedding[a] for a in poset.elements]
        exact = [0] * len(images)
        for e, image in enumerate(images):
            if image < len(exact):
                exact[image] |= e
        back = _subset_joins(images)
        for m, k in enumerate(_subset_joins(exact)):
            ok = back[k] == m
            report.record("round_trip", ok, "" if ok else f"moved {m} to {back[k]}")
        report.details["elements"] = len(poset.elements)
        return report

    if depth is None or threads is None:
        raise ValueError("lazy audits need a depth and explicit threads")
    report = CorrespondenceReport()
    report.record("threads_reached_or_gapped", True, cases=0)
    details = []
    for i, t in enumerate(threads):
        # constraints reach one coordinate past the last seed stage, so the
        # boundary seed is not vacuously unconstrained
        best = [largest_constant_below(system, t, s, depth) for s in range(depth + 1)]
        verdict, witness = "gap", ""
        if any(best):
            # join the constants and compare coordinatewise
            verdict = "members-evidence"
            for n in range(depth + 1):
                join = system.algebra(n).zero
                for s, b in enumerate(best):
                    if b:
                        join = join | coordinate(system, ConstantThread(s, b), n)
                if join != coordinate(system, t, n):
                    verdict = "partial"
                    witness = (
                        f"thread {i}: the constants below it join short of it at "
                        f"stage {n} (depth {depth})"
                    )
                    break
        details.append({"verdict": verdict, "depth": depth})
        report.record("threads_reached_or_gapped", verdict != "partial", witness)
    report.details["threads"] = details
    return report


# -- revised countable support ------------------------------------------------------------


@dataclass(frozen=True)
class CofinalityOracle:
    """Three-valued rule: does the element force the length to have countable
    cofinality, refute it, or leave it open."""

    fn: Callable[[int, object], str] = field(compare=False)

    def __call__(self, stage: int, element) -> str:
        out = self.fn(stage, element)
        if out not in ("forces", "refutes", "unknown"):
            raise ValueError(f"oracle returned {out!r}")
        return out


def omega_length_oracle() -> CofinalityOracle:
    """The built-in oracle for length omega: cf(omega) = omega always."""
    return CofinalityOracle(lambda stage, elem: "forces" if elem else "refutes")


@dataclass(frozen=True)
class RcsVerdict:
    member: bool | None  # None = indeterminate
    reason: str
    stage: int | None = None
    depth: int | None = None


def rcs_membership(
    system: IterationSystem,
    thread: Thread,
    oracle: CofinalityOracle,
    depth: int | None = None,
) -> RcsVerdict:
    """Membership in the revised-countable-support limit.

    Constants are members outright, and so is a coherent vector, being of
    finite length; an incoherent vector is no thread, so no member.
    Otherwise some audited coordinate must force countable cofinality of the
    length.  Unknown oracle answers are surfaced, never treated as
    membership.
    """
    if isinstance(thread, ConstantThread):
        return RcsVerdict(True, "constant thread", stage=thread.stage)
    if isinstance(thread, VectorThread):
        try:
            thread_validate(system, thread, depth)
        except CoherenceFailure as failure:
            a, b = failure.stages
            return RcsVerdict(False, f"not a thread: not coherent at ({a},{b})", stage=b)
        return RcsVerdict(True, "finite-length threads are eventually constant")
    if isinstance(thread, RuleThread) and thread.constant_from is not None:
        stages = list(system.stages(depth))
        for b in stages:
            if b >= thread.constant_from:
                expected = system.hom(thread.constant_from, b).apply(
                    coordinate(system, thread, thread.constant_from)
                )
                if coordinate(system, thread, b) != expected:
                    return RcsVerdict(
                        None, f"declared constancy fails at stage {b}", stage=b
                    )
        return RcsVerdict(True, "eventually constant (declared, audited)", depth=stages[-1])
    stages = list(system.stages(depth))
    saw_unknown = False
    for a in stages:
        answer = oracle(a, coordinate(system, thread, a))
        if answer == "forces":
            return RcsVerdict(True, "a coordinate forces countable cofinality", stage=a)
        if answer == "unknown":
            saw_unknown = True
    if saw_unknown:
        return RcsVerdict(None, "oracle undecided on every audited coordinate", depth=stages[-1])
    return RcsVerdict(False, "no coordinate forces countable cofinality", depth=stages[-1])


# -- quotients of iteration systems ----------------------------------------------------------


@dataclass
class QuotientSystemResult:
    parent: IterationSystem
    stage: int
    atom: int
    system: IterationSystem | None  # None when the tail is empty
    quotients: tuple[GenericQuotient, ...]  # per tail stage, parent classes


def quotient_system(
    system: IterationSystem, gamma: int, u: Ultrafilter
) -> QuotientSystemResult:
    """The tail system over the quotient algebras at a principal generic."""
    if not system.eager:
        raise NotEager("quotients need materialized algebras")
    if u.algebra != system.algebra(gamma):
        raise ValueError("ultrafilter must live on the quotient stage")
    tail = range(gamma + 1, system.length)
    quotients = tuple(GenericQuotient(system.hom(gamma, a), u.atom) for a in tail)
    if not tail:
        return QuotientSystemResult(system, gamma, u.atom, None, ())
    algebras = [q.algebra for q in quotients]
    steps = []
    for k, a in enumerate(list(tail)[:-1]):
        tri = Triangle(system.hom(gamma, a), system.hom(gamma, a + 1), system.hom(a, a + 1))
        qh = quotient_hom(tri, u)
        if not qh.passed:
            raise NotRegular(f"quotient step at {a} failed its audit: {qh.failures}")
        steps.append(qh.hom)
    return QuotientSystemResult(
        system, gamma, u.atom, build_system(algebras, steps), quotients
    )


def quotient_thread_representative(
    tails: tuple[QuotientSystemResult, ...], families: tuple[Thread, ...]
) -> VectorThread:
    """The unique parent thread with the given per-atom quotient classes.

    ``tails[a]`` is ``quotient_system`` at atom a of one stage gamma, one per
    atom, and ``families[a]`` a thread of that atom's tail; stagewise the
    canonical-representative join glues them, and coherence of the result is
    certified.
    """
    system, gamma = tails[0].parent, tails[0].stage
    atoms = range(system.algebra(gamma).atom_count)
    if [(t.parent, t.stage, t.atom) for t in tails] != [(system, gamma, a) for a in atoms]:
        raise ValueError("one quotient tail per atom of the quotient stage, in atom order")
    if len(families) != len(tails):
        raise ValueError("one quotient thread per atom of the quotient stage")
    if tails[0].system is None:
        raise ValueError("empty tail has no representatives")
    coords = [None] * system.length  # up to gamma, filled from above
    for b in range(gamma + 1, system.length):
        k = b - gamma - 1
        family = tuple(
            t.quotients[k].representative(coordinate(t.system, f, k))
            for t, f in zip(tails, families)
        )
        coords[b] = canonical_representative(
            system.hom(gamma, b), tuple(1 << a for a in atoms), family
        )
    for b in range(gamma, -1, -1):
        coords[b] = system.hom(b, gamma + 1).project(coords[gamma + 1])
    thread = VectorThread(tuple(coords))
    thread_validate(system, thread)
    return thread


# -- cofinal re-indexing -------------------------------------------------------------------


def reindex_system(system: IterationSystem, indices: tuple[int, ...]) -> IterationSystem:
    """The subsystem along a strictly increasing cofinal index map."""
    if not system.eager:
        raise NotEager("re-indexing is for eager systems")
    if not indices or indices[0] < 0 or list(indices) != sorted(set(indices)):
        raise ValueError("indices must be strictly increasing stages, at least one")
    if indices[-1] != system.length - 1:
        raise ValueError("a cofinal map must reach the last stage")
    algebras = [system.algebra(i) for i in indices]
    steps = [system.hom(indices[k], indices[k + 1]) for k in range(len(indices) - 1)]
    return IterationSystem(
        len(indices), lambda n: algebras[n], lambda n: steps[n], len(indices) - 1
    )


def cofinal_reindex_audit(system: IterationSystem, indices: tuple[int, ...]) -> Ledger:
    """Thread spaces and limit verdicts agree across a cofinal re-indexing:
    both are determined by the last algebra, and constants map to constants.
    One claim, ``cofinal_reindex_agrees``, with a case per element of the last
    algebra (per atom above EXHAUSTIVE_MAX_ATOMS atoms); a failure names the
    index map and the element."""
    sub = reindex_system(system, indices)
    last = system.length - 1
    alg = system.algebra(last)
    oracle = omega_length_oracle()
    ledger = Ledger()
    for e in alg.elements() if alg.atom_count <= EXHAUSTIVE_MAX_ATOMS else alg.atoms():
        full = VectorThread(
            tuple(coordinate(system, ConstantThread(last, e), n) for n in system.stages())
        )
        restricted = VectorThread(tuple(full.coords[i] for i in indices))
        constant = VectorThread(
            tuple(coordinate(sub, ConstantThread(sub.length - 1, e), n) for n in sub.stages())
        )
        try:
            thread_validate(system, full)
            thread_validate(sub, restricted)
            why = ""
        except CoherenceFailure as failure:
            why = "not coherent at ({},{})".format(*failure.stages)
        if not why and restricted != constant:
            why = f"restricted to {restricted.coords}, re-indexed to {constant.coords}"
        if not why and (
            rcs_membership(system, full, oracle).member
            != rcs_membership(sub, restricted, oracle).member
        ):
            why = "the limit verdicts differ"
        ledger.record(
            "cofinal_reindex_agrees", not why, why and f"index map {indices}, element {e}: {why}"
        )
    return ledger
