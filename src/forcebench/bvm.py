"""Boolean-valued names over finite algebras.

A name is a finite labeled forest: a partial function from lower-rank names
to nonzero algebra elements.  Truth values of formulas are computed by the
mutual recursion on the atomic relations; evaluation at an atom (the finite
stand-in for a generic ultrafilter) lands in the hereditarily finite sets,
and the audits compare the two routes case by case.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import EmptyPool, MixedAlgebras, NotAntichain, RankExceeded
from .finite_cba import FiniteCBA, Ultrafilter, format_element
from .hf import HF, EMPTY
from .morphisms import CompleteHom
from .report import Ledger

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


def _parts(phi: Formula) -> tuple[tuple, str | None, tuple]:
    """(terms, bound variable or None, subformulas) of one formula node; the
    terms are read outside the binder."""
    if isinstance(phi, Atomic):
        return (phi.left, phi.right), None, ()
    if isinstance(phi, Not):
        return (), None, (phi.body,)
    if isinstance(phi, (And, Or)):
        return (), None, phi.parts
    if isinstance(phi, (BoundedExists, BoundedForall)):
        return (phi.bound,), phi.var, (phi.body,)
    if isinstance(phi, Exists):
        return (), phi.var, (phi.body,)
    raise TypeError(f"not a formula: {phi!r}")


def free_variables(phi: Formula) -> frozenset[str]:
    terms, var, subs = _parts(phi)
    inner = frozenset().union(*(free_variables(p) for p in subs)) - {var}
    return inner | {t.name for t in terms if isinstance(t, Var)}


def formula_constants(phi: Formula) -> frozenset[BName]:
    terms, _, subs = _parts(phi)
    out = frozenset(t for t in terms if isinstance(t, BName))
    for p in subs:
        out |= formula_constants(p)
    return out


def quantifier_depth(phi: Formula) -> int:
    _, var, subs = _parts(phi)
    return (var is not None) + max((quantifier_depth(p) for p in subs), default=0)


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


class NamePool:
    """A name pool validated once: one algebra, every rank within a bound.

    ``names`` are in ``BName.sort_key`` order; unbounded quantifiers range
    over them.  Handed to ``truth_value`` in place of a plain tuple, it spares
    each call the pass over the whole pool: only the environment and the
    formula's constants are checked then, and the constants are collected
    once per formula.
    """

    __slots__ = ("algebra", "names", "max_rank", "_constants")

    def __init__(
        self,
        algebra: FiniteCBA,
        names: Iterable[BName],
        rank_bound: int = DEFAULT_RANK_BOUND,
    ):
        names = tuple(names)
        _admit(names, algebra, rank_bound, "pool name")
        self.algebra = algebra
        self.names = tuple(sorted(names, key=BName.sort_key))
        self.max_rank = max((n.rank for n in names), default=-1)
        # id(phi) -> (phi, its constants); holding phi keeps its id unique
        self._constants: dict[int, tuple[Formula, tuple[BName, ...]]] = {}

    def constants(self, phi: Formula) -> tuple[BName, ...]:
        """``formula_constants(phi)``, walked once per formula."""
        hit = self._constants.get(id(phi))
        if hit is None:
            hit = self._constants.setdefault(id(phi), (phi, tuple(formula_constants(phi))))
        return hit[1]


def _admit(names: tuple[BName, ...], algebra: FiniteCBA, rank_bound: int, what: str) -> None:
    for n in names:
        if n.algebra is not algebra and n.algebra != algebra:
            raise MixedAlgebras(f"{what} over a different algebra")
    for n in names:
        if n.rank > rank_bound:
            raise RankExceeded(f"{what} of rank {n.rank} exceeds bound {rank_bound}")


def truth_value(
    phi: Formula,
    env: Mapping[str, BName],
    algebra: FiniteCBA | None = None,
    pool: NamePool | tuple[BName, ...] = (),
    rank_bound: int = DEFAULT_RANK_BOUND,
) -> int:
    """The boolean value of phi under env; unbounded ∃ joins over ``pool``.

    A plain tuple pool is validated on every call; build a ``NamePool`` once
    to evaluate many formulas or assignments over the same pool.
    """
    if not isinstance(pool, NamePool):
        params = (*env.values(), *formula_constants(phi))
        if algebra is None:
            algebra = next((n.algebra for n in (*params, *pool)), None)
            if algebra is None:
                raise MixedAlgebras("cannot infer the algebra: no parameters given")
        pool = NamePool(algebra, pool, rank_bound)
    else:
        params = (*env.values(), *pool.constants(phi))
        if algebra not in (None, pool.algebra):
            raise MixedAlgebras("pool over a different algebra")
        if pool.max_rank > rank_bound:
            raise RankExceeded(f"pool name of rank {pool.max_rank} exceeds bound {rank_bound}")
    _admit(params, pool.algebra, rank_bound, "formula parameter")
    return _truth(phi, dict(env), pool.algebra, pool.names)


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
class ForcingAuditReport(Ledger):
    """The claim ``truth_values_match_oracle``, witnessed by the first divergence."""

    divergences: list[str] = field(default_factory=list)

    @property
    def cases(self) -> int:
        return self.claims["truth_values_match_oracle"].cases


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
    cases = 0
    pool = NamePool(algebra, pool, rank_bound)
    atoms = range(algebra.atom_count)
    # the oracle environment of a case reads its values by pool position
    hf_pool_at = [tuple(_eval(n, atom) for n in pool.names) for atom in atoms]
    for phi in formulas:
        fvs = tuple(sorted(free_variables(phi)))
        for picks in itertools.product(range(len(pool.names)), repeat=len(fvs)):
            env = {v: pool.names[i] for v, i in zip(fvs, picks)}
            value = truth_value(phi, env, algebra, pool, rank_bound)
            cases += len(atoms)
            for atom in atoms:
                hf_pool = hf_pool_at[atom]
                hf_env = {v: hf_pool[i] for v, i in zip(fvs, picks)}
                oracle = hf_satisfies(phi, hf_env, hf_pool)
                forced = bool(value >> atom & 1)
                if oracle != forced:
                    report.divergences.append(
                        f"atom {atom}: boolean route says {forced}, oracle says {oracle} "
                        f"({phi!r} @ {[format_name(n) for n in env.values()]})"
                    )
    first = report.divergences[0] if report.divergences else ""
    report.record("truth_values_match_oracle", not report.divergences, first, cases)
    return report


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
    if not pool:
        raise EmptyPool("fullness needs a nonempty pool")
    alg = algebra if algebra is not None else pool[0].algebra
    pool = NamePool(alg, pool, rank_bound)
    chosen: list[BName] = []
    atoms: list[int] = []
    for atom in range(alg.atom_count):
        pick = pool.names[0]
        for cand in pool.names:
            env2 = dict(env)
            env2[var] = cand
            if truth_value(phi, env2, alg, pool, rank_bound) >> atom & 1:
                pick = cand
                break
        chosen.append(pick)
        atoms.append(1 << atom)
    return mix(alg, atoms, chosen)


def lift_name(h: CompleteHom, n: BName) -> BName:
    """Relabel a name along a homomorphism: the induced map of name forests.

    A subname shared within the forest is lifted once; nothing is kept
    after the call returns.
    """
    if n.algebra != h.source:
        raise MixedAlgebras("name is not over the source algebra")
    done: dict[BName, BName] = {}

    def lift(m: BName) -> BName:
        out = done.get(m)
        if out is None:
            acc: dict[BName, int] = {}
            for sub, p in m.entries:
                lifted = lift(sub)
                q = h.apply(p)
                if q:
                    acc[lifted] = acc.get(lifted, 0) | q
            out = done[m] = BName(h.target, tuple(acc.items()))
        return out

    return lift(n)


def delta1_audit(
    h: CompleteHom,
    pool: tuple[BName, ...],
    d0_formulas: tuple[Formula, ...] = (),
    d1_pairs: tuple[tuple[Formula, Formula], ...] = (),
    rank_bound: int = DEFAULT_RANK_BOUND,
) -> Ledger:
    """Elementarity of the lifted name map.

    Bounded formulas commute exactly with the embedding; flagged Sigma-1
    pairs (a formula and a Sigma-1 form of its negation) satisfy both
    inequalities, which pins the value exactly.  Unbounded quantifiers are
    pool-relative on the source and lifted-pool-relative on the target.
    One claim each, with one case per assignment.
    """
    from .morphisms import require_regular

    require_regular(h)
    report = Ledger()
    report.record("bounded_formulas_commute", True, cases=0)
    report.record("sigma1_pairs_pin_values", True, cases=0)
    source = NamePool(h.source, pool, rank_bound)
    lifts = {n: lift_name(h, n) for n in source.names}
    target = NamePool(h.target, lifts.values(), rank_bound)
    for phi in d0_formulas:
        fvs = tuple(sorted(free_variables(phi)))
        for picks in itertools.product(source.names, repeat=len(fvs)):
            env = dict(zip(fvs, picks))
            lhs = h.apply(truth_value(phi, env, h.source, source, rank_bound))
            env_lift = {v: lifts[n] for v, n in env.items()}
            rhs = truth_value(phi, env_lift, h.target, target, rank_bound)
            witness = "" if lhs == rhs else (
                f"bounded formula value moved: {format_element(h.target, lhs)} vs "
                f"{format_element(h.target, rhs)}"
            )
            report.record("bounded_formulas_commute", not witness, witness)
    for pos, neg in d1_pairs:
        fvs = tuple(sorted(free_variables(pos) | free_variables(neg)))
        for picks in itertools.product(source.names, repeat=len(fvs)):
            env = dict(zip(fvs, picks))
            vp = truth_value(pos, env, h.source, source, rank_bound)
            vn = truth_value(neg, env, h.source, source, rank_bound)
            witness = ""
            if vn != h.source.neg(vp):
                witness = "pair is not complementary on the source"
            else:
                env_lift = {v: lifts[n] for v, n in env.items()}
                wp = truth_value(pos, env_lift, h.target, target, rank_bound)
                wn = truth_value(neg, env_lift, h.target, target, rank_bound)
                if not h.target.leq(h.apply(vp), wp) or not h.target.leq(h.apply(vn), wn):
                    witness = "a Sigma-1 inequality failed"
                elif wn != h.target.neg(wp):
                    witness = "pair is not complementary on the target"
                elif h.apply(vp) != wp:
                    witness = "inequalities did not pin the value"
            report.record("sigma1_pairs_pin_values", not witness, witness)
    return report


# -- shipped pools -----------------------------------------------------------------


def _standard_labels(algebra: FiniteCBA) -> tuple[int, ...]:
    labels = sorted(set(algebra.atoms()) | {algebra.one})
    return tuple(labels)


def standard_name_pool(algebra: FiniteCBA, max_rank: int = 3) -> tuple[BName, ...]:
    """The deterministic shipped pool: layered partial functions over a small
    frontier of lower-rank names, with at most two entries each."""
    labels = _standard_labels(algebra)
    c0 = check_name(algebra, EMPTY)
    seen: set[BName] = {c0}
    frontier = [c0]
    for layer_rank in range(1, max_rank + 1):
        new: list[BName] = []
        for k in (1, 2):
            for doms in itertools.combinations(frontier, k):
                for labs in itertools.product(labels, repeat=k):
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
