"""Boolean-valued names over finite algebras.

A name is a finite labeled forest: a partial function from lower-rank names
to nonzero algebra elements.  Truth values of formulas are computed by the
mutual recursion on the atomic relations; evaluation at an atom (the finite
stand-in for a generic ultrafilter) lands in the hereditarily finite sets,
and the audits compare the two routes case by case.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import EmptyPool, MixedAlgebras, NotAntichain, RankExceeded
from .finite_cba import FiniteCBA, Ultrafilter, format_element
from .hf import HF, EMPTY
from .morphisms import CompleteHom

DEFAULT_RANK_BOUND = 4


class BName:
    """A rank-bounded name; immutable, hashable, structurally compared."""

    __slots__ = ("algebra", "entries", "rank", "_hash", "_key")

    def __init__(self, algebra: FiniteCBA, entries: Iterable[tuple["BName", int]]):
        items = []
        for sub, label in entries:
            if not isinstance(sub, BName):
                raise TypeError("entries must pair names with elements")
            if sub.algebra != algebra:
                raise MixedAlgebras("entry name lives over a different algebra")
            if label == 0:
                raise ValueError("entry labels must be nonzero")
            if not algebra.contains(label):
                raise ValueError("entry label outside the algebra")
            items.append((sub, label))
        if len({s for s, _ in items}) != len(items):
            raise ValueError("entries must form a partial function on names")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "entries", frozenset(items))
        object.__setattr__(self, "rank", 1 + max((s.rank for s, _ in items), default=-1))
        object.__setattr__(self, "_key", None)
        object.__setattr__(self, "_hash", hash((algebra, self.entries)))

    def __setattr__(self, *a):  # immutability
        raise AttributeError("BName is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BName)
            and self._hash == other._hash
            and self.algebra == other.algebra
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"BName({format_name(self)})"

    @property
    def domain(self) -> frozenset["BName"]:
        return frozenset(s for s, _ in self.entries)

    def label(self, sub: "BName") -> int:
        for s, p in self.entries:
            if s == sub:
                return p
        return 0

    def sort_key(self):
        key = object.__getattribute__(self, "_key")
        if key is None:
            key = (
                self.rank,
                len(self.entries),
                tuple(sorted((s.sort_key(), p) for s, p in self.entries)),
            )
            object.__setattr__(self, "_key", key)
        return key


def format_name(n: BName) -> str:
    parts = sorted(
        f"({format_name(s)},{format_element(n.algebra, p)})" for s, p in n.entries
    )
    return "{" + ",".join(parts) + "}"


def empty_name(algebra: FiniteCBA) -> BName:
    return BName(algebra, ())


def check_name(algebra: FiniteCBA, x: HF) -> BName:
    """The check-name of a hereditarily finite set: every label is 1."""
    return BName(algebra, tuple((check_name(algebra, m), algebra.one) for m in x))


def name_from_pairs(algebra: FiniteCBA, pairs: Iterable[tuple[BName, int]]) -> BName:
    """Relation-form input: duplicate keys are collapsed by joining labels."""
    acc: dict[BName, int] = {}
    for sub, label in pairs:
        acc[sub] = acc.get(sub, 0) | label
    return BName(algebra, tuple((s, p) for s, p in acc.items() if p))


def generic_filter_name(algebra: FiniteCBA) -> BName:
    """The canonical name for the generic filter: {(b-check, b) : b nonzero}.

    Elements are encoded as von Neumann naturals so the evaluation at an atom
    is literally the set of (encoded) elements the generic contains.  Rank
    grows with the algebra; meant for tiny algebras.
    """
    from .hf import von_neumann

    return BName(
        algebra,
        tuple(
            (check_name(algebra, von_neumann(b)), b)
            for b in algebra.nonzero_elements()
        ),
    )


# -- formulas -------------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    name: str


Term = "Var | BName"


@dataclass(frozen=True)
class Atomic:
    op: str  # "eq" | "mem" | "sub"
    left: object
    right: object

    def __post_init__(self):
        if self.op not in ("eq", "mem", "sub"):
            raise ValueError(f"unknown atomic relation {self.op!r}")


@dataclass(frozen=True)
class Not:
    body: object


@dataclass(frozen=True)
class And:
    parts: tuple


@dataclass(frozen=True)
class Or:
    parts: tuple


@dataclass(frozen=True)
class BoundedExists:
    var: str
    bound: object
    body: object


@dataclass(frozen=True)
class BoundedForall:
    var: str
    bound: object
    body: object


@dataclass(frozen=True)
class Exists:
    """Unbounded existential; interpreted pool-relatively (flagged Sigma-1)."""

    var: str
    body: object


Formula = object


def free_variables(phi: Formula) -> frozenset[str]:
    if isinstance(phi, Atomic):
        out = set()
        for t in (phi.left, phi.right):
            if isinstance(t, Var):
                out.add(t.name)
        return frozenset(out)
    if isinstance(phi, Not):
        return free_variables(phi.body)
    if isinstance(phi, (And, Or)):
        return frozenset().union(*(free_variables(p) for p in phi.parts)) if phi.parts else frozenset()
    if isinstance(phi, (BoundedExists, BoundedForall)):
        inner = free_variables(phi.body) - {phi.var}
        if isinstance(phi.bound, Var):
            inner |= {phi.bound.name}
        return inner
    if isinstance(phi, Exists):
        return free_variables(phi.body) - {phi.var}
    raise TypeError(f"not a formula: {phi!r}")


def formula_constants(phi: Formula) -> frozenset[BName]:
    if isinstance(phi, Atomic):
        return frozenset(t for t in (phi.left, phi.right) if isinstance(t, BName))
    if isinstance(phi, Not):
        return formula_constants(phi.body)
    if isinstance(phi, (And, Or)):
        out: frozenset[BName] = frozenset()
        for p in phi.parts:
            out |= formula_constants(p)
        return out
    if isinstance(phi, (BoundedExists, BoundedForall)):
        bound = frozenset({phi.bound}) if isinstance(phi.bound, BName) else frozenset()
        return bound | formula_constants(phi.body)
    if isinstance(phi, Exists):
        return formula_constants(phi.body)
    raise TypeError(f"not a formula: {phi!r}")


def quantifier_depth(phi: Formula) -> int:
    if isinstance(phi, Atomic):
        return 0
    if isinstance(phi, Not):
        return quantifier_depth(phi.body)
    if isinstance(phi, (And, Or)):
        return max((quantifier_depth(p) for p in phi.parts), default=0)
    if isinstance(phi, (BoundedExists, BoundedForall, Exists)):
        return 1 + quantifier_depth(phi.body)
    raise TypeError(f"not a formula: {phi!r}")


# -- truth values ----------------------------------------------------------------

_ATOMIC_MEMO: dict[tuple, int] = {}


def _tv_mem(n0: BName, n1: BName) -> int:
    key = ("mem", n0, n1)
    out = _ATOMIC_MEMO.get(key)
    if out is None:
        alg = n0.algebra
        out = alg.sup(p & _tv_eq(sub, n0) for sub, p in n1.entries)
        _ATOMIC_MEMO[key] = out
    return out


def _tv_sub(n0: BName, n1: BName) -> int:
    key = ("sub", n0, n1)
    out = _ATOMIC_MEMO.get(key)
    if out is None:
        alg = n0.algebra
        out = alg.inf(alg.neg(p) | _tv_mem(sub, n1) for sub, p in n0.entries)
        _ATOMIC_MEMO[key] = out
    return out


def _tv_eq(n0: BName, n1: BName) -> int:
    key = ("eq", n0, n1)
    out = _ATOMIC_MEMO.get(key)
    if out is None:
        out = _tv_sub(n0, n1) & _tv_sub(n1, n0)
        _ATOMIC_MEMO[key] = out
    return out


def _resolve(term, env: Mapping[str, BName]) -> BName:
    if isinstance(term, Var):
        try:
            return env[term.name]
        except KeyError:
            raise KeyError(f"unbound variable {term.name!r}") from None
    if isinstance(term, BName):
        return term
    raise TypeError(f"not a term: {term!r}")


def truth_value(
    phi: Formula,
    env: Mapping[str, BName],
    algebra: FiniteCBA | None = None,
    pool: tuple[BName, ...] = (),
    rank_bound: int = DEFAULT_RANK_BOUND,
) -> int:
    """The boolean value of phi under env; unbounded ∃ joins over ``pool``."""
    constants = formula_constants(phi)
    parameters = list(env.values()) + list(pool) + list(constants)
    algebras = {n.algebra for n in parameters}
    if algebra is not None:
        algebras.add(algebra)
    if len(algebras) > 1:
        raise MixedAlgebras("formula parameters span different algebras")
    if not algebras:
        raise MixedAlgebras("cannot infer the algebra: no parameters given")
    alg = algebras.pop()
    for n in parameters:
        if n.rank > rank_bound:
            raise RankExceeded(f"name rank {n.rank} exceeds bound {rank_bound}")
    return _truth(phi, dict(env), alg, pool)


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


# -- evaluation and the oracle ---------------------------------------------------

_EVAL_MEMO: dict[tuple[BName, int], HF] = {}


def eval_at_atom(n: BName, u: Ultrafilter) -> HF:
    """The value of the name at the principal generic over the given atom."""
    if u.algebra != n.algebra:
        raise MixedAlgebras("ultrafilter over a different algebra")
    return _eval(n, u.atom)


def _eval(n: BName, atom: int) -> HF:
    key = (n, atom)
    out = _EVAL_MEMO.get(key)
    if out is None:
        out = frozenset(_eval(sub, atom) for sub, p in n.entries if p >> atom & 1)
        _EVAL_MEMO[key] = out
    return out


def hf_satisfies(
    phi: Formula, env: Mapping[str, HF], pool_values: tuple[HF, ...] = ()
) -> bool:
    """Classical satisfaction over hereditarily finite sets: the audit oracle."""
    return _hf_sat(phi, dict(env), pool_values)


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


@dataclass
class ForcingAuditReport:
    cases: int = 0
    divergences: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.divergences


def forcing_audit(
    algebra: FiniteCBA,
    pool: tuple[BName, ...],
    formulas: tuple[Formula, ...],
    rank_bound: int = DEFAULT_RANK_BOUND,
) -> ForcingAuditReport:
    """Truth values against the oracle, at every atom and assignment.

    The boolean value lands in the principal ultrafilter at an atom exactly
    when the evaluated sets classically satisfy the formula there.  Any
    divergence is a hard failure.
    """
    report = ForcingAuditReport()
    for n in pool:
        if n.algebra != algebra:
            raise MixedAlgebras("pool name over a different algebra")
        if n.rank > rank_bound:
            raise RankExceeded(f"pool name of rank {n.rank} exceeds bound {rank_bound}")
    pool_sorted = tuple(sorted(pool, key=BName.sort_key))
    hf_pool_at = [
        tuple(_eval(n, atom) for n in pool_sorted)
        for atom in range(algebra.atom_count)
    ]
    for phi in formulas:
        fvs = tuple(sorted(free_variables(phi)))
        assignments = _assignments(fvs, pool_sorted)
        for env in assignments:
            value = truth_value(phi, env, algebra, pool_sorted, rank_bound)
            for atom in range(algebra.atom_count):
                report.cases += 1
                hf_env = {v: _eval(n, atom) for v, n in env.items()}
                oracle = hf_satisfies(phi, hf_env, hf_pool_at[atom])
                forced = bool(value >> atom & 1)
                if oracle != forced:
                    report.divergences.append(
                        f"atom {atom}: boolean route says {forced}, oracle says {oracle} "
                        f"({phi!r} @ {[format_name(n) for n in env.values()]})"
                    )
    return report


def _assignments(fvs: tuple[str, ...], pool: tuple[BName, ...]):
    if not fvs:
        return [dict()]
    out = [dict()]
    for v in fvs:
        out = [dict(env, **{v: n}) for env in out for n in pool]
    return out


# -- mixing, fullness, lifting -----------------------------------------------------


def mix(
    algebra: FiniteCBA,
    antichain: Iterable[int],
    names: Iterable[BName],
) -> BName:
    """Glue names along an antichain: below each a the result equals its name."""
    antichain = list(antichain)
    names = list(names)
    if len(antichain) != len(names):
        raise ValueError("antichain and name lists must have equal length")
    if not algebra.is_antichain(antichain):
        raise NotAntichain("mixing requires pairwise-disjoint nonzero elements")
    acc: dict[BName, int] = {}
    for a, n in zip(antichain, names):
        if n.algebra != algebra:
            raise MixedAlgebras("mixed name over a different algebra")
        for sub, p in n.entries:
            acc[sub] = acc.get(sub, 0) | (a & p)
    return BName(algebra, tuple((s, p) for s, p in acc.items() if p))


def fullness_witness(
    phi: Formula,
    var: str,
    env: Mapping[str, BName],
    pool: tuple[BName, ...],
    algebra: FiniteCBA | None = None,
    rank_bound: int = DEFAULT_RANK_BOUND,
) -> BName:
    """A single name realizing the pool-relative existential boolean value.

    Per atom the best pool candidate is selected and the choices are glued by
    mixing over the atom antichain, which is exactly why the two values agree.
    """
    pool = tuple(sorted(pool, key=BName.sort_key))
    if not pool:
        raise EmptyPool("fullness needs a nonempty pool")
    alg = algebra or pool[0].algebra
    chosen: list[BName] = []
    atoms: list[int] = []
    for atom in range(alg.atom_count):
        pick = pool[0]
        for cand in pool:
            env2 = dict(env)
            env2[var] = cand
            if truth_value(phi, env2, alg, pool, rank_bound) >> atom & 1:
                pick = cand
                break
        chosen.append(pick)
        atoms.append(1 << atom)
    return mix(alg, atoms, chosen)


_LIFT_MEMO: dict[tuple[CompleteHom, BName], BName] = {}


def lift_name(h: CompleteHom, n: BName) -> BName:
    """Relabel a name along a homomorphism: the induced map of name forests."""
    if n.algebra != h.source:
        raise MixedAlgebras("name is not over the source algebra")
    key = (h, n)
    out = _LIFT_MEMO.get(key)
    if out is None:
        acc: dict[BName, int] = {}
        for sub, p in n.entries:
            lifted = lift_name(h, sub)
            q = h.apply(p)
            if q:
                acc[lifted] = acc.get(lifted, 0) | q
        out = BName(h.target, tuple(acc.items()))
        _LIFT_MEMO[key] = out
    return out


@dataclass
class Delta1AuditReport:
    d0_cases: int = 0
    d1_cases: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def delta1_audit(
    h: CompleteHom,
    pool: tuple[BName, ...],
    d0_formulas: tuple[Formula, ...] = (),
    d1_pairs: tuple[tuple[Formula, Formula], ...] = (),
    rank_bound: int = DEFAULT_RANK_BOUND,
) -> Delta1AuditReport:
    """Elementarity of the lifted name map.

    Bounded formulas commute exactly with the embedding; flagged Sigma-1
    pairs (a formula and a Sigma-1 form of its negation) satisfy both
    inequalities, which pins the value exactly.  Unbounded quantifiers are
    pool-relative on the source and lifted-pool-relative on the target.
    """
    from .morphisms import require_regular

    require_regular(h)
    report = Delta1AuditReport()
    pool = tuple(sorted(pool, key=BName.sort_key))
    lifted_pool = tuple(lift_name(h, n) for n in pool)
    for phi in d0_formulas:
        fvs = tuple(sorted(free_variables(phi)))
        for env in _assignments(fvs, pool):
            report.d0_cases += 1
            lhs = h.apply(truth_value(phi, env, h.source, pool, rank_bound))
            env_lift = {v: lift_name(h, n) for v, n in env.items()}
            rhs = truth_value(phi, env_lift, h.target, lifted_pool, rank_bound)
            if lhs != rhs:
                report.failures.append(
                    f"bounded formula value moved: {format_element(h.target, lhs)} vs "
                    f"{format_element(h.target, rhs)}"
                )
    for pos, neg in d1_pairs:
        fvs = tuple(sorted(free_variables(pos) | free_variables(neg)))
        for env in _assignments(fvs, pool):
            report.d1_cases += 1
            vp = truth_value(pos, env, h.source, pool, rank_bound)
            vn = truth_value(neg, env, h.source, pool, rank_bound)
            if vn != h.source.neg(vp):
                report.failures.append("pair is not complementary on the source")
                continue
            env_lift = {v: lift_name(h, n) for v, n in env.items()}
            wp = truth_value(pos, env_lift, h.target, lifted_pool, rank_bound)
            wn = truth_value(neg, env_lift, h.target, lifted_pool, rank_bound)
            if not h.target.leq(h.apply(vp), wp) or not h.target.leq(h.apply(vn), wn):
                report.failures.append("a Sigma-1 inequality failed")
                continue
            if wn != h.target.neg(wp):
                report.failures.append("pair is not complementary on the target")
                continue
            if h.apply(vp) != wp:
                report.failures.append("inequalities did not pin the value")
    return report


# -- shipped pools -----------------------------------------------------------------


def _standard_labels(algebra: FiniteCBA) -> tuple[int, ...]:
    labels = sorted(set(algebra.atoms()) | {algebra.one})
    return tuple(labels)


def standard_name_pool(
    algebra: FiniteCBA, max_rank: int = 3, entries_cap: int = 2
) -> tuple[BName, ...]:
    """The deterministic shipped pool: layered partial functions over a small
    frontier of lower-rank names, capped at ``entries_cap`` entries each."""
    import itertools as it

    labels = _standard_labels(algebra)
    c0 = check_name(algebra, EMPTY)
    seen: set[BName] = {c0}
    frontier = [c0]
    for layer_rank in range(1, max_rank + 1):
        new: list[BName] = []
        for k in range(1, entries_cap + 1):
            for doms in it.combinations(frontier, k):
                for labs in it.product(labels, repeat=k):
                    cand = BName(algebra, tuple(zip(doms, labs)))
                    if cand not in seen:
                        seen.add(cand)
                        new.append(cand)
        # next frontier: the empty name plus the three canonically-first
        # names of the layer just built, so each layer climbs one rank
        top = sorted((n for n in new if n.rank == layer_rank), key=BName.sort_key)
        frontier = [c0] + top[:3]
    return tuple(sorted(seen, key=BName.sort_key))


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


def standard_formula_pool() -> tuple[Formula, ...]:
    """Shipped atomic and bounded-quantifier formulas over variables u, v."""
    u, v = Var("u"), Var("v")
    z = Var("z")
    return (
        Atomic("eq", u, v),
        Atomic("mem", u, v),
        Atomic("sub", u, v),
        Not(Atomic("eq", u, v)),
        And((Atomic("sub", u, v), Atomic("sub", v, u))),
        Or((Atomic("mem", u, v), Atomic("eq", u, v))),
        BoundedExists("z", v, Atomic("eq", z, u)),
        BoundedForall("z", u, Atomic("mem", z, v)),
        BoundedExists("z", u, Not(Atomic("mem", z, v))),
        BoundedForall("z", v, BoundedExists("w", u, Atomic("sub", Var("w"), z))),
    )
