"""Independent brute-force oracles and input builders used by the test suite.

These deliberately avoid the implementation's data paths: subset-relation
computations run on raw down-sets, free-algebra checks run on truth
tables, and formulas are evaluated by walking their trees, so the
canonical-form engine and the compiled formula routes are cross-checked
rather than trusted.  The hereditarily finite universe, seeded name pools
and the statements that only have content on raw tables or hand-built
families (a table map that need not be a hom, a family of sum elements)
live here too: no workspace kind carries their inputs.
"""
from __future__ import annotations

import functools
import itertools
import json
import random
import re
from dataclasses import dataclass, field
from typing import Mapping

from forcebench.bvm import (
    And,
    Atomic,
    BName,
    BoundedExists,
    BoundedForall,
    Exists,
    Not,
    Or,
    Var,
    _tv_eq,
    _tv_mem,
    _tv_sub,
    check_name,
)
from forcebench.errors import ArityMismatch
from forcebench.finite_cba import FiniteCBA, format_element
from forcebench.free_algebra import (
    FreeElement,
    FreeExpr,
    GAnd,
    GConst,
    GNot,
    GOr,
    GVar,
    parse_free_expression,
    format_free,
)
from forcebench.hf import EMPTY, HF
from forcebench.morphisms import CompleteHom
from forcebench.poset import Poset
from forcebench.two_step import TwoStepAlgebra


def reference_closure(elements, pairs) -> tuple[list[int], list[int]]:
    """The down- and up-set masks of the reflexive-transitive closure of
    ``pairs`` over ``elements``, by Warshall's algorithm on the down-sets; the
    up-sets read the closed down-sets bit by bit."""
    index = {p: k for k, p in enumerate(elements)}
    downs = [1 << k for k in range(len(elements))]
    for p, q in pairs:
        downs[index[q]] |= 1 << index[p]
    for k in range(len(downs)):
        for i, d in enumerate(downs):
            if d >> k & 1:
                downs[i] = d | downs[k]
    ups = [sum(1 << j for j, d in enumerate(downs) if d >> k & 1) for k in range(len(downs))]
    return downs, ups


def reference_round_trips(alg: FiniteCBA, completion) -> list[int]:
    """The eager correspondence audit's round trip, one (element, constant)
    pair at a time: for each element m of the completion, k(m) joins the
    constants t{e} whose image lies in m, and m comes back as the join of
    the images of the constants below k(m)."""
    images = [(e, completion.embedding[f"t{e}"]) for e in alg.nonzero_elements()]
    backs = []
    for m in completion.algebra.elements():
        k_m = alg.sup(e for e, i in images if i & ~m == 0)
        backs.append(completion.algebra.sup(i for e, i in images if e & ~k_m == 0))
    return backs


@dataclass(frozen=True)
class SeparativeQuotient:
    quotient: Poset
    projection: dict[str, str] = field(hash=False)


def separative_quotient(poset: Poset) -> SeparativeQuotient:
    """The separative quotient and its projection: a class per compatibility
    mask, and p <=* q when the down-set of p is compatible with q throughout;
    the pair constructor checks that the classes are partially ordered."""
    classes: dict[int, list[str]] = {}
    for p, compat in zip(poset.elements, poset.compat):
        classes.setdefault(compat, []).append(p)
    names = {p: "|".join(sorted(cls)) for cls in classes.values() for p in cls}
    rep = {names[cls[0]]: poset.index[cls[0]] for cls in classes.values()}
    labels = tuple(sorted(rep))
    below = [(a, poset.downs[rep[a]]) for a in labels]
    rel = frozenset((a, b) for b in labels for a, d in below if d & ~poset.compat[rep[b]] == 0)
    return SeparativeQuotient(Poset(labels, rel), names)


def star_leq(poset: Poset, a: frozenset[str], b: frozenset[str]) -> bool:
    """A <=* B: the meet of the down-closures is dense in the down-closure of A."""
    down_a = poset.down(a)
    down_ab = down_a & poset.down(b)
    return all(
        any(poset.leq(s, r) for s in down_ab)
        for r in down_a
    )


def star_equiv_classes_of_singletons(poset: Poset) -> dict[str, frozenset[str]]:
    """Equivalence classes of principal subsets under <=* both ways, computed
    over the full powerset relation (the slow route)."""
    classes: dict[str, frozenset[str]] = {}
    for p in poset.elements:
        cls = frozenset(
            q
            for q in poset.elements
            if star_leq(poset, frozenset({p}), frozenset({q}))
            and star_leq(poset, frozenset({q}), frozenset({p}))
        )
        classes[p] = cls
    return classes


def evaluate(e: FreeExpr, env: dict[str, bool]) -> bool:
    if isinstance(e, GVar):
        return env[e.name]
    if isinstance(e, GConst):
        return e.value
    if isinstance(e, GNot):
        return not evaluate(e.body, env)
    if isinstance(e, GAnd):
        return evaluate(e.left, env) and evaluate(e.right, env)
    if isinstance(e, GOr):
        return evaluate(e.left, env) or evaluate(e.right, env)
    raise TypeError(e)


def truth_table(expr: FreeExpr, names: tuple[str, ...]) -> tuple[bool, ...]:
    """Evaluate an expression on every assignment over ``names`` (sorted order)."""
    rows = []
    for bits in itertools.product([False, True], repeat=len(names)):
        rows.append(evaluate(expr, dict(zip(names, bits))))
    return tuple(rows)


def documented_order(name: str) -> tuple[str, int]:
    """The documented generator order: alphabetic prefix, then the numeric
    suffix as a number (no suffix first)."""
    m = re.match(r"^(.*?)(\d*)$", name)
    return (m.group(1), int(m.group(2)) if m.group(2) else -1)


def reference_format(expr: FreeExpr, names: tuple[str, ...]) -> str:
    """``format_free`` recomputed from the function alone: a reduced ordered
    diagram branches on the first generator, in the documented order, that
    the current cofactor depends on, so its true paths are determined by
    the function and the order."""
    order = sorted(names, key=documented_order)

    def rows(fixed: dict[str, bool]):
        free = [g for g in order if g not in fixed]
        for bits in itertools.product([False, True], repeat=len(free)):
            yield {**fixed, **dict(zip(free, bits))}

    def depends(fixed: dict[str, bool], g: str) -> bool:
        return any(
            evaluate(expr, {**env, g: False}) != evaluate(expr, {**env, g: True})
            for env in rows({**fixed, g: False})
        )

    cubes: list[list[str]] = []

    def walk(fixed: dict[str, bool], path: list[str]) -> None:
        g = next((g for g in order if g not in fixed and depends(fixed, g)), None)
        if g is None:
            if evaluate(expr, next(rows(fixed))):
                cubes.append(path)
            return
        walk({**fixed, g: False}, path + ["¬" + g])
        walk({**fixed, g: True}, path + [g])

    walk({}, [])
    if not cubes:
        return "0"
    if cubes == [[]]:
        return "1"
    parts = sorted(" ∧ ".join(cube) for cube in cubes)
    if len(parts) == 1:
        return parts[0]
    return " ∨ ".join(f"({p})" if " ∧ " in p else p for p in parts)


def element_truth_table(e: FreeElement, names: tuple[str, ...]) -> tuple[bool, ...]:
    """Truth table of a canonical element, via its printed normal form."""
    return truth_table(parse_free_expression(format_free(e)), names)


def expr_vars(expr: FreeExpr) -> frozenset[str]:
    if isinstance(expr, GVar):
        return frozenset({expr.name})
    if isinstance(expr, GConst):
        return frozenset()
    if isinstance(expr, GNot):
        return expr_vars(expr.body)
    if isinstance(expr, (GAnd, GOr)):
        return expr_vars(expr.left) | expr_vars(expr.right)
    raise TypeError(expr)


def packed_row(values, at) -> int:
    """``values[at(d)]`` for every element d, one byte per d (byte d): the
    packed row a ``ByteRows`` is expected to hold, built byte by byte."""
    return int.from_bytes(bytes(values[at(d)] for d in range(len(values))), "little")


# -- per-pair reference scans of three retraction laws -------------------------------
#
# Each returns what its law in ``morphisms`` must return: (holds, first
# witness, cases).  The first two take a hom whose audit enumerates both
# sides; they evaluate apply and project once per element into plain lists
# and then walk every pair from the law's statement, so an index outside a
# list raises here as it does in the audit's own scan.  The third walks the
# (b, probe) pairs of an audit's shared case lists, enumerated or sampled.


def _at(h, **elements) -> str:
    return " ".join(
        f"{name}={format_element(h.source if name == 'b' else h.target, x)}"
        for name, x in elements.items()
    )


def reference_filters_to_filters(h) -> tuple[bool, str, int]:
    """Each c > 0: every cover c | a of c projects above pi(c), then, for each
    b of B in order, b' = b | pi(c) equals pi(c | i(b'))."""
    B, C = h.source, h.target
    ibs = [h.apply(b) for b in B.elements()]
    pcs = [h.project(c) for c in C.elements()]
    cases, witness = 0, None
    for c in C.nonzero_elements():
        covers = [c | a for a in C.atoms() if not c & a]
        cases += len(covers) + B.one + 1
        if witness is not None:
            continue
        pc = pcs[c]
        if any(pcs[d] & pc != pc for d in covers):
            witness = _at(h, c=c)
            continue
        for b in B.elements():
            b |= pc
            if pcs[c | ibs[b]] != b:
                witness = _at(h, b=b, c=c)
                break
    return witness is None, witness or "", cases


def reference_meet_translation_join_form(h) -> tuple[bool, str, int]:
    """Each c, then each b: pi(c) ∧ b is the join of the pi(e) <= b over every
    e <= c."""
    B, C = h.source, h.target
    pcs = [h.project(c) for c in C.elements()]
    cases = (C.one + 1) * (B.one + 1)
    for c in C.elements():
        below = [pcs[e] for e in C.elements() if not e & ~c]
        for b in B.elements():
            join = 0
            for p in below:
                if not p & ~b:
                    join |= p
            if join != pcs[c] & b:
                return False, _at(h, b=b, c=c), cases
    return True, "", cases


def reference_embedding_from_retraction(k) -> tuple[bool, str, int]:
    """Each b in order: i(b) is the join of the probes e with pi(e) <= b,
    gathered one (b, probe) pair at a time."""
    probes = list(zip(k.probes, k.pprobes))
    for b, ib in zip(k.bs, k.ibs):
        glued = 0
        for e, pe in probes:
            if pe & ~b == 0:
                glued |= e
        if glued != ib:
            return False, k.at(b=b), len(k.bs)
    return True, "", len(k.bs)


# -- reference interpreters for formulas -------------------------------------------
#
# The tree-walking evaluators that ``bvm`` replaced with compiled routes,
# kept as they were: the boolean value of a formula and the
# hereditarily-finite oracle, each resolving variables through a dict that
# binders mutate and restore.


def _resolve(term, env: Mapping[str, BName]) -> BName:
    if isinstance(term, Var):
        try:
            return env[term.name]
        except KeyError:
            raise KeyError(f"unbound variable {term.name!r}") from None
    if isinstance(term, BName):
        return term
    raise TypeError(f"not a term: {term!r}")


_MISSING = object()


def _truth(phi, env, alg: FiniteCBA, pool) -> int:
    # env is mutated around quantifier scopes and restored; callers hand in a
    # private dict
    if isinstance(phi, Atomic):
        a, b = _resolve(phi.left, env), _resolve(phi.right, env)
        if phi.op == "eq":
            return _tv_eq(a, b)
        if phi.op == "mem":
            return _tv_mem(a, b)
        return _tv_sub(a, b)
    if isinstance(phi, Not):
        return alg.neg(_truth(phi.body, env, alg, pool))
    if isinstance(phi, And):
        return alg.inf(_truth(p, env, alg, pool) for p in phi.parts)
    if isinstance(phi, Or):
        return alg.sup(_truth(p, env, alg, pool) for p in phi.parts)
    if isinstance(phi, (BoundedExists, BoundedForall, Exists)):
        var = phi.var
        saved = env.get(var, _MISSING)
        try:
            if isinstance(phi, BoundedExists):
                bound = _resolve(phi.bound, env)
                total = 0
                for sub, p in bound.entries:
                    env[var] = sub
                    total |= p & _truth(phi.body, env, alg, pool)
                return total
            if isinstance(phi, BoundedForall):
                bound = _resolve(phi.bound, env)
                total = alg.one
                for sub, p in bound.entries:
                    env[var] = sub
                    total &= alg.neg(p) | _truth(phi.body, env, alg, pool)
                return total
            total = 0
            for cand in pool:
                env[var] = cand
                total |= _truth(phi.body, env, alg, pool)
            return total
        finally:
            if saved is _MISSING:
                env.pop(var, None)
            else:
                env[var] = saved
    raise TypeError(f"not a formula: {phi!r}")


def _resolve_hf(term, env):
    if isinstance(term, Var):
        return env[term.name]
    if isinstance(term, BName):
        raise TypeError("oracle formulas must be closed by the environment")
    return term


def _hf_sat(phi, env, pool_values) -> bool:
    if isinstance(phi, Atomic):
        a, b = _resolve_hf(phi.left, env), _resolve_hf(phi.right, env)
        if phi.op == "eq":
            return a == b
        if phi.op == "mem":
            return a in b
        return a <= b
    if isinstance(phi, Not):
        return not _hf_sat(phi.body, env, pool_values)
    if isinstance(phi, And):
        return all(_hf_sat(p, env, pool_values) for p in phi.parts)
    if isinstance(phi, Or):
        return any(_hf_sat(p, env, pool_values) for p in phi.parts)
    if isinstance(phi, (BoundedExists, BoundedForall, Exists)):
        var = phi.var
        saved = env.get(var, _MISSING)
        try:
            if isinstance(phi, Exists):
                values = pool_values
            else:
                values = _resolve_hf(phi.bound, env)
            if isinstance(phi, BoundedForall):
                for m in values:
                    env[var] = m
                    if not _hf_sat(phi.body, env, pool_values):
                        return False
                return True
            for m in values:
                env[var] = m
                if _hf_sat(phi.body, env, pool_values):
                    return True
            return False
        finally:
            if saved is _MISSING:
                env.pop(var, None)
            else:
                env[var] = saved
    raise TypeError(f"not a formula: {phi!r}")


def reference_truth_value(phi, env, algebra, pool=()):
    """The boolean value of phi under env, by the reference walk."""
    return _truth(phi, dict(env), algebra, tuple(pool))


def reference_hf_satisfies(phi, env, pool_values=()):
    """Classical satisfaction of phi under env, by the reference walk."""
    return _hf_sat(phi, dict(env), tuple(pool_values))


# -- hereditarily finite sets and test-side names ------------------------------------


def hf(*members: HF) -> HF:
    return frozenset(members)


def hf_rank(x: HF) -> int:
    return 0 if not x else 1 + max(hf_rank(m) for m in x)


def format_hf(x: HF) -> str:
    return "{" + ",".join(sorted(format_hf(m) for m in x)) + "}"


@functools.lru_cache(maxsize=None)
def von_neumann(k: int) -> HF:
    """The k-th von Neumann natural: {0, 1, ..., k-1}."""
    return frozenset(von_neumann(j) for j in range(k))


@functools.lru_cache(maxsize=None)
def hf_universe(rank: int) -> frozenset[HF]:
    """Every set of rank <= rank; tetrational growth, keep rank <= 3."""
    if rank == 0:
        return frozenset({EMPTY})
    below = hf_universe(rank - 1)
    out = set()
    members = sorted(below, key=format_hf)
    for bits in range(1 << len(members)):
        out.add(frozenset(m for k, m in enumerate(members) if bits >> k & 1))
    return frozenset(out)


def empty_name(algebra: FiniteCBA) -> BName:
    return BName(algebra, ())


def generic_filter_name(algebra: FiniteCBA) -> BName:
    """The canonical name for the generic filter: {(b-check, b) : b nonzero}.

    Elements are encoded as von Neumann naturals so the evaluation at an atom
    is literally the set of (encoded) elements the generic contains.  Rank
    grows with the algebra; meant for tiny algebras.
    """
    return BName(
        algebra,
        tuple((check_name(algebra, von_neumann(b)), b) for b in algebra.nonzero_elements()),
    )


def random_name_pool(
    algebra: FiniteCBA,
    count: int,
    max_rank: int,
    rng: random.Random,
) -> tuple[BName, ...]:
    """Seeded pool; returns fewer than ``count`` names if the space runs out."""
    pool: list[BName] = [check_name(algebra, EMPTY)]
    attempts = 0
    while len(pool) < count and attempts < 200 * count:
        attempts += 1
        k = rng.randint(0, min(2, len(pool)))
        doms = rng.sample(pool, k)
        entries = []
        for d in doms:
            label = rng.randint(1, algebra.one)
            entries.append((d, label))
        try:
            cand = BName(algebra, entries)
        except ValueError:
            continue
        if cand.rank <= max_rank and cand not in pool:
            pool.append(cand)
    return tuple(pool)


# -- statements checked on raw tables and hand-built families ------------------------


def dense_image_by_scan(completion) -> bool:
    """Every nonzero element of the completion bounds a nonzero image, each
    of its 2^k elements visited."""
    nonzero = set(completion.embedding.values()) - {0}
    return all(
        any(e & ~c == 0 for e in nonzero) for c in completion.algebra.nonzero_elements()
    )


def is_separative(poset: Poset) -> bool:
    """Whenever p is not below q, some r <= p has no lower bound in common with q."""
    def incompatible(r, q):
        return not any(poset.leq(s, r) and poset.leq(s, q) for s in poset.elements)

    for p, q in itertools.product(poset.elements, repeat=2):
        if not poset.leq(p, q):
            if not any(poset.leq(r, p) and incompatible(r, q) for r in poset.elements):
                return False
    return True


def antichain_correspondence_holds(
    two: TwoStepAlgebra, elements: tuple[int, ...]
) -> bool:
    """The family is pairwise disjoint with join 1 in the sum exactly when
    its selected values are so at every base atom (a value may be zero at
    some atoms; that is how sum antichains look fiberwise)."""
    idx = range(len(elements))
    sum_side = (
        all(elements[i] & elements[j] == 0 for i in idx for j in idx if i < j)
        and two.algebra.sup(elements) == two.algebra.one
    )
    fiber_side = True
    for a, f in enumerate(two.presentation.fibers):
        vals = [two.family_of(e)[a] for e in elements]
        if any(vals[i] & vals[j] for i in idx for j in idx if i < j):
            fiber_side = False
            break
        if f.sup(vals) != f.one:
            fiber_side = False
            break
    return sum_side == fiber_side


@dataclass(frozen=True)
class ElementMap:
    """An arbitrary table map between small algebras (not assumed a hom)."""

    source: FiniteCBA
    target: FiniteCBA
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.table) != self.source.one + 1:
            raise ArityMismatch("table must cover every source element")

    def apply(self, b: int) -> int:
        return self.table[b]


@dataclass
class GenericPreimageReport:
    join_complete: bool
    all_preimages_generic: bool
    violating_join: tuple[int, ...] | None = None
    violating_ultrafilter: int | None = None

    @property
    def equivalence_holds(self) -> bool:
        return self.join_complete == self.all_preimages_generic


def generic_preimage_equivalence(m: ElementMap | CompleteHom) -> GenericPreimageReport:
    """Join-completeness against genericity of ultrafilter preimages.

    When a join failure exists the violating ultrafilter is constructed from
    the difference element, never searched: it contains i(sup A) but no i(a).
    """
    B, C = m.source, m.target
    subsets = list(itertools.chain.from_iterable(
        itertools.combinations(range(B.one + 1), r) for r in range(0, min(B.one + 1, 4) + 1)
    ))
    failure = None
    for A in subsets:
        if m.apply(B.sup(A)) != C.sup(m.apply(a) for a in A):
            failure = A
            break
    join_complete = failure is None

    def preimage_generic(atom: int) -> bool:
        # finite ultrafilters are exactly the principal filters at atoms
        pulled = {b for b in B.elements() if m.apply(b) >> atom & 1}
        return any(
            pulled == {b for b in B.elements() if b >> k & 1}
            for k in range(B.atom_count)
        )

    all_generic = all(preimage_generic(t) for t in range(C.atom_count))
    report = GenericPreimageReport(join_complete, all_generic)
    if failure is not None:
        A = failure
        # a hom can only overshoot, a raw table may also undershoot; either
        # way an atom of the symmetric difference carries a violating filter
        d = m.apply(B.sup(A)) ^ C.sup(m.apply(a) for a in A)
        report.violating_join = tuple(A)
        report.violating_ultrafilter = d.bit_length() - 1
    return report


def parse_machine_report(text: str) -> dict:
    """Round-trip check hook: the machine format parses as its own schema."""
    data = json.loads(text)
    for key in ("schema_version", "command", "seed", "depth", "results", "summary"):
        if key not in data:
            raise ValueError(f"missing report key {key!r}")
    return data
