"""Boolean-valued names over finite algebras.

A name is a finite labeled forest: a partial function from lower-rank names
to nonzero algebra elements.  Truth values of formulas are computed by the
mutual recursion on the atomic relations; evaluation at an atom (the finite
stand-in for a generic ultrafilter) lands in the hereditarily finite sets,
and the audits compare the two routes case by case.
"""
from __future__ import annotations

import itertools
import operator
import threading
import weakref
from dataclasses import dataclass, field, fields
from functools import cache, cached_property
from typing import Iterable, Mapping

from .errors import EmptyPool, MixedAlgebras, NotAntichain, RankExceeded
from .finite_cba import FiniteCBA, Ultrafilter, format_element
from .hf import HF, EMPTY
from .morphisms import CompleteHom, require_regular
from .report import Ledger

RANK_BOUND = 4  # the largest rank of any name truth_value reads


# (algebra, entries) -> the one live name; a miss is built under the lock
_INTERNED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_INTERN_LOCK = threading.Lock()


class BName:
    """A rank-bounded name; immutable and interned, so equal names are one
    object and compare (and hash) by identity."""

    __slots__ = ("algebra", "entries", "rank", "_key", "__weakref__")

    def __new__(cls, algebra: FiniteCBA, entries: Iterable[tuple["BName", int]]):
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
        key = (algebra, frozenset(items))
        with _INTERN_LOCK:
            self = _INTERNED.get(key)
            if self is None:
                self = _INTERNED[key] = object.__new__(cls)
                object.__setattr__(self, "algebra", algebra)
                object.__setattr__(self, "entries", key[1])
                object.__setattr__(self, "rank", 1 + max((s.rank for s, _ in items), default=-1))
                object.__setattr__(self, "_key", None)
        return self

    def __setattr__(self, *a):  # immutability
        raise AttributeError("BName is immutable")

    def __repr__(self) -> str:
        return f"BName({format_name(self)})"

    def label(self, sub: "BName") -> int:
        for s, p in self.entries:
            if s is sub:
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


def check_name(algebra: FiniteCBA, x: HF) -> BName:
    """The check-name of a hereditarily finite set: every label is 1."""
    return BName(algebra, tuple((check_name(algebra, m), algebra.one) for m in x))


def name_from_pairs(algebra: FiniteCBA, pairs: Iterable[tuple[BName, int]]) -> BName:
    """Relation-form input: duplicate keys are collapsed by joining labels."""
    acc: dict[BName, int] = {}
    for sub, label in pairs:
        acc[sub] = acc.get(sub, 0) | label
    return BName(algebra, tuple((s, p) for s, p in acc.items() if p))


# -- formulas -------------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    name: str


class Formula:
    """A formula node; it collects its constants and compiles its routes
    (see "compiled routes" below) once, on first use, and keeps them."""

    @cached_property
    def constants(self) -> tuple[BName, ...]:
        return tuple(formula_constants(self))

    @cached_property
    def variables(self) -> tuple[str, ...]:
        """The free variables, sorted: slots ``0..k-1`` of a route's ``bound``."""
        return tuple(sorted(free_variables(self)))

    @cached_property
    def boolean_route(self):
        return _boolean(self, {v: i for i, v in enumerate(self.variables)}, len(self.variables))

    @cached_property
    def grid_route(self):  # the row is the last free variable's slot
        k = len(self.variables)
        return _boolean(self, {v: i for i, v in enumerate(self.variables)}, k, k - 1)

    @cached_property
    def oracle_route(self):
        return _oracle(self, {v: i for i, v in enumerate(self.variables)}, len(self.variables))


@dataclass(frozen=True)
class Atomic(Formula):
    op: str  # "eq" | "mem" | "sub"
    left: object
    right: object

    def __post_init__(self):
        if self.op not in ("eq", "mem", "sub"):
            raise ValueError(f"unknown atomic relation {self.op!r}")


@dataclass(frozen=True)
class Not(Formula):
    body: object


@dataclass(frozen=True)
class And(Formula):
    parts: tuple


@dataclass(frozen=True)
class Or(Formula):
    parts: tuple


@dataclass(frozen=True)
class BoundedExists(Formula):
    var: str
    bound: object
    body: object


@dataclass(frozen=True)
class BoundedForall(Formula):
    var: str
    bound: object
    body: object


@dataclass(frozen=True)
class Exists(Formula):
    """Unbounded existential; interpreted pool-relatively (flagged Sigma-1)."""

    var: str
    body: object


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


class NamePool:
    """A name pool validated once: one algebra, every rank within ``RANK_BOUND``.

    ``names`` are in ``BName.sort_key`` order; unbounded quantifiers range
    over them.  Handed to ``truth_value`` in place of a plain tuple, it
    spares each call the pass over the whole pool: only the environment's
    values and the formula's constants (``Formula.constants``) are checked.
    ``rows`` keeps, per (kernel, row on the left, fixed name), an atom's
    values over ``names`` for ``truth_grid``, for as long as the pool lives.
    """

    __slots__ = ("algebra", "names", "one", "rows")

    def __init__(self, algebra: FiniteCBA, names: Iterable[BName]):
        names = tuple(names)
        _admit(names, algebra, "pool name")
        self.algebra = algebra
        self.names = tuple(sorted(names, key=BName.sort_key))
        self.one = algebra.one
        self.rows: dict[tuple, list[int]] = {}


def _admit(names: tuple[BName, ...], algebra: FiniteCBA, what: str) -> None:
    for n in names:
        if n.algebra is not algebra and n.algebra != algebra:
            raise MixedAlgebras(f"{what} over a different algebra")
    for n in names:
        if n.rank > RANK_BOUND:  # named by the largest rank
            rank = max(m.rank for m in names)
            raise RankExceeded(f"{what} of rank {rank} exceeds bound {RANK_BOUND}")


def truth_value(
    phi: Formula,
    env: Mapping[str, BName],
    algebra: FiniteCBA | None = None,
    pool: NamePool | tuple[BName, ...] = (),
) -> int:
    """The boolean value of phi under env; unbounded ∃ joins over ``pool``.

    Every name read must be over the algebra and of rank at most
    ``RANK_BOUND``: the pool's names, the environment's values and the
    formula's constants.  A plain tuple pool is validated on every call;
    build a ``NamePool`` once to evaluate many assignments over one pool.
    The route is ``truth_grid``'s evaluator, compiled with no row slot.
    """
    if not isinstance(phi, Formula):
        raise TypeError(f"not a formula: {phi!r}")
    values, constants = env.values(), phi.constants
    if not isinstance(pool, NamePool):
        if algebra is None:
            algebra = next((n.algebra for n in (*pool, *values, *constants)), None)
            if algebra is None:
                raise MixedAlgebras("cannot infer the algebra: no parameters given")
        pool = NamePool(algebra, pool)
    elif algebra not in (pool.algebra, None):
        raise MixedAlgebras("pool over a different algebra")
    _admit((*values, *constants), pool.algebra, "formula parameter")
    try:
        return phi.boolean_route(_slots(phi, env), pool)
    except KeyError as e:  # the slot of a variable env lacks
        raise KeyError(f"unbound variable {phi.variables[e.args[0]]!r}") from None


def _slots(phi: Formula, env: Mapping) -> dict[int, object]:
    """env by slot; a route raises KeyError(slot) on reading a missing one."""
    return {i: env[v] for i, v in enumerate(phi.variables) if v in env}


# -- compiled routes ---------------------------------------------------------------
#
# Each formula compiles to ``oracle_route`` and two boolean routes, nested
# closures ``run(bound, ctx)``; ctx is the NamePool or the tuple of pool
# values.  ``bound`` holds the k free variables (``Formula.variables``) in
# slots ``0..k-1``; a binder at ``depth`` writes slot ``depth``, from k on.
# ``scope`` maps each variable to its slot there.  ``truth_grid`` hands in a
# padded list, ``truth_value`` and ``hf_satisfies`` a dict (``_slots``).  The
# routes read nothing else and share only this lookup, since the forcing
# audit compares them.  A bad term or subformula fails compilation.
#
# ``_boolean`` is the one boolean evaluator, compiled along a ``row`` slot it
# never reads: none for ``boolean_route``, the last free variable's for
# ``grid_route``.  A value that varies along the row is a list over
# ``pool.names``, any other one int, hoisted out of the row.  Values are
# bitmasks under the pool's ``one``: complement is ``one ^ x``, a meet starts
# from ``one`` and a join from 0.  Atoms go through the memo kernels
# ``_tv_eq``/``_tv_mem``/``_tv_sub``, an atom's row with one side fixed once
# per pool (``NamePool.rows``); a binder over the row variable evaluates its
# body once per distinct entry name.


def _relation(rel, left, right, scope: dict[str, int], literal):
    """``run(bound, ctx)``: rel of two terms; ``literal`` reads a non-variable."""
    get_left, get_right = _term(left, scope, literal), _term(right, scope, literal)
    return lambda bound, ctx: rel(get_left(bound), get_right(bound))


def _term(term, scope: dict[str, int], literal):
    return operator.itemgetter(scope[term.name]) if isinstance(term, Var) else literal(term)


def _name_term(term):
    if not isinstance(term, BName):
        raise TypeError(f"not a term: {term!r}")
    return lambda bound: term


def _lift(op, a, b):
    """op on two values, each one int or a row of them."""
    if isinstance(a, int) and isinstance(b, int):
        return op(a, b)
    return list(map(op, *(itertools.repeat(x) if isinstance(x, int) else x for x in (a, b))))


def _boolean(phi, scope: dict[str, int], depth: int, row: int | None = None):
    """phi's boolean value, by int operations under ``pool.one``."""
    if isinstance(phi, Atomic):
        rel = {"eq": _tv_eq, "mem": _tv_mem, "sub": _tv_sub}[phi.op]
        left, right = (isinstance(t, Var) and scope[t.name] == row for t in (phi.left, phi.right))
        if not (left or right):
            return _relation(rel, phi.left, phi.right, scope, _name_term)
        if left and right:
            return lambda bound, pool: [rel(x, x) for x in pool.names]
        fixed = _term(phi.right if left else phi.left, scope, _name_term)

        def atom_row(bound, pool):
            key = (rel, left, name := fixed(bound))
            out = pool.rows.get(key)
            if out is None:  # a racing thread computes an equal row
                out = [rel(x, name) if left else rel(name, x) for x in pool.names]
                out = pool.rows.setdefault(key, out)
            return out

        return atom_row
    if isinstance(phi, Not):
        body = _boolean(phi.body, scope, depth, row)
        return lambda bound, pool: _lift(operator.xor, pool.one, body(bound, pool))
    if isinstance(phi, (And, Or)):
        op = operator.and_ if isinstance(phi, And) else operator.or_
        parts = tuple(_boolean(p, scope, depth, row) for p in phi.parts)

        def connective(bound, pool):
            total = pool.one if op is operator.and_ else 0
            for p in parts:
                total = _lift(op, total, p(bound, pool))
            return total

        return connective
    if not isinstance(phi, (BoundedExists, BoundedForall, Exists)):
        raise TypeError(f"not a formula: {phi!r}")
    body = _boolean(phi.body, {**scope, phi.var: depth}, depth + 1, row)
    forall = isinstance(phi, BoundedForall)
    outer, inner = (operator.and_, operator.or_) if forall else (operator.or_, operator.and_)
    of = None if isinstance(phi, Exists) else _term(phi.bound, scope, _name_term)

    def quantify(bound, pool):  # ~p needs no mask, as a ∀ total starts at pool.one
        total = pool.one if forall else 0
        # an unbounded ∃ is as over a name holding every pool name at 1
        entries = zip(pool.names, itertools.repeat(pool.one)) if of is None else of(bound).entries
        for sub, p in entries:
            bound[depth] = sub
            total = _lift(outer, total, _lift(inner, ~p if forall else p, body(bound, pool)))
        return total

    def per_column(bound, pool):
        values, out = {}, []
        for i, x in enumerate(pool.names):
            total = pool.one if forall else 0
            for sub, p in x.entries:
                b = values.get(sub)
                if b is None:
                    bound[depth] = sub
                    b = values[sub] = body(bound, pool)
                b = b[i] if isinstance(b, list) else b
                total = total & (~p | b) if forall else total | p & b
            out.append(total)
        return out

    over_row = of is not None and isinstance(phi.bound, Var) and scope[phi.bound.name] == row
    return per_column if over_row else quantify


def truth_grid(phi: Formula, pool: NamePool) -> list[int]:
    """phi's boolean value at each assignment of pool names to its variables,
    in ``itertools.product`` order; it admits nothing, unlike truth_value.
    ``grid_route`` runs once per tuple of all but the last, along the last."""
    k, n, pad = len(phi.variables), len(pool.names), [None] * (1 + quantifier_depth(phi))
    if not k:
        return [phi.boolean_route(pad, pool)]
    grid = itertools.product(pool.names, repeat=k - 1)
    rows = (phi.grid_route([*picks, *pad], pool) for picks in grid)
    return list(itertools.chain.from_iterable(r if isinstance(r, list) else [r] * n for r in rows))


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
    if not isinstance(phi, Formula):
        raise TypeError(f"not a formula: {phi!r}")
    try:
        return phi.oracle_route(_slots(phi, env), pool_values)
    except KeyError as e:  # the slot of a variable env lacks
        raise KeyError(phi.variables[e.args[0]]) from None


def _hf_literal(term):
    if isinstance(term, BName):
        raise TypeError("oracle formulas must be closed by the environment")
    return lambda bound: term


def _oracle(phi, scope: dict[str, int], depth: int):
    """Whether phi holds classically."""
    if isinstance(phi, Atomic):
        rel = {"eq": operator.eq, "mem": lambda a, b: a in b, "sub": operator.le}[phi.op]
        return _relation(rel, phi.left, phi.right, scope, _hf_literal)
    if isinstance(phi, Not):
        body = _oracle(phi.body, scope, depth)
        return lambda bound, pool: not body(bound, pool)
    if isinstance(phi, (And, Or)):
        parts = tuple(_oracle(p, scope, depth) for p in phi.parts)
        test = all if isinstance(phi, And) else any
        return lambda bound, pool: test(p(bound, pool) for p in parts)
    if not isinstance(phi, (BoundedExists, BoundedForall, Exists)):
        raise TypeError(f"not a formula: {phi!r}")
    forall = isinstance(phi, BoundedForall)
    body = _oracle(phi.body, {**scope, phi.var: depth}, depth + 1)
    of = None if isinstance(phi, Exists) else _term(phi.bound, scope, _hf_literal)

    def quantify(bound, pool):
        # ∃ is True at the first member that satisfies the body, ∀ False at
        # the first that fails it
        for m in pool if of is None else of(bound):
            bound[depth] = m
            if (not body(bound, pool)) is forall:
                return not forall
        return forall

    return quantify


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
) -> ForcingAuditReport:
    """Truth values against the oracle, at every atom and assignment.

    The boolean value lands in the principal ultrafilter at an atom exactly
    when the evaluated sets classically satisfy the formula there.  Any
    divergence is a hard failure.

    Per formula, ``truth_grid`` gives every assignment's value at once.  The
    oracle, a pure function of the formula and the values at the atom, runs
    once per atom and distinct tuple of free-variable values there; its
    answers make each assignment's expected atom mask, compared with the
    grid in one ``==``.  ``truth_value`` runs on the diagonal (every free
    variable set to one pool name) and must agree with the grid.
    """
    report = ForcingAuditReport()
    cases = 0
    pool = NamePool(algebra, pool)
    names, atoms = pool.names, range(algebra.atom_count)
    hf_pool_at = [tuple(_eval(n, atom) for n in names) for atom in atoms]
    # a name's class is its value at every atom, all the oracle reads of it
    classes: dict[tuple[HF, ...], int] = {}
    class_of = [classes.setdefault(tuple(_eval(n, a) for a in atoms), len(classes)) for n in names]
    joint = list(classes)  # joint[c][atom]: the value of class c at the atom
    for phi in formulas:
        _admit(phi.constants, algebra, "formula parameter")
        fvs, k = phi.variables, len(phi.variables)
        cases += len(atoms) * len(names) ** k
        values = truth_grid(phi, pool)
        # the oracle's answer per (atom, values), and the atoms where it holds
        # per tuple of classes, numbered in the order the grid meets them
        answers: dict[tuple, bool] = {}
        expected: dict[tuple[int, ...], int] = {}
        for key in itertools.product(range(len(joint)), repeat=k):
            expected[key] = 0
            for atom in atoms:
                at = tuple(joint[c][atom] for c in key)
                if (atom, at) not in answers:
                    answers[atom, at] = hf_satisfies(phi, dict(zip(fvs, at)), hf_pool_at[atom])
                expected[key] |= answers[atom, at] << atom
        masks = list(map(expected.__getitem__, itertools.product(class_of, repeat=k)))
        if values != masks:
            grid = itertools.product(names, repeat=k)
            for picks, value, mask in zip(grid, values, masks):
                for atom in atoms:
                    forced, oracle = bool(value >> atom & 1), bool(mask >> atom & 1)
                    if oracle != forced:
                        report.divergences.append(
                            f"atom {atom}: boolean route says {forced}, oracle says {oracle} "
                            f"({phi!r} @ {[format_name(n) for n in picks]})"
                        )
        step = sum(len(names) ** j for j in range(k)) or 1  # (i, .., i) is at i * step
        for name, grid_value in zip(names, values[::step]):
            value = truth_value(phi, dict.fromkeys(fvs, name), algebra, pool)
            if value != grid_value:
                report.divergences.append(
                    f"truth_value says {format_element(algebra, value)}, the grid "
                    f"{format_element(algebra, grid_value)} ({phi!r} @ {[format_name(name)] * k})"
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
) -> BName:
    """A single name realizing the pool-relative existential boolean value.

    Per atom the best pool candidate is selected and the choices are glued by
    mixing over the atom antichain, which is exactly why the two values agree.
    """
    if not pool:
        raise EmptyPool("fullness needs a nonempty pool")
    alg = algebra if algebra is not None else pool[0].algebra
    pool = NamePool(alg, pool)

    @cache
    def value(cand: BName) -> int:  # asked at most once per candidate
        env2 = dict(env)
        env2[var] = cand
        return truth_value(phi, env2, alg, pool)

    chosen: list[BName] = []
    atoms: list[int] = []
    for atom in range(alg.atom_count):
        pick = pool.names[0]
        for cand in pool.names:
            if value(cand) >> atom & 1:
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


def _lift_constants(h: CompleteHom, phi):
    """phi with every constant c replaced by ``lift_name(h, c)``."""
    if isinstance(phi, BName):
        return lift_name(h, phi)
    if isinstance(phi, tuple):
        return tuple(_lift_constants(h, x) for x in phi)
    if isinstance(phi, Formula) and phi.constants:  # else phi keeps its compiled routes
        return type(phi)(*(_lift_constants(h, getattr(phi, f.name)) for f in fields(phi)))
    return phi


def delta1_audit(
    h: CompleteHom,
    pool: tuple[BName, ...],
    d0_formulas: tuple[Formula, ...] = (),
) -> Ledger:
    """Elementarity of the lifted name map: i(‖φ(τ, c)‖) = ‖φ(iτ, ic)‖,
    each formula constant c lifted as the pool is.

    Unbounded quantifiers are pool-relative on the source and
    lifted-pool-relative on the target.  A pool-relative ∃ is a finite join
    over the pool and a regular embedding preserves finite joins, so every
    formula, Σ1 included, commutes exactly; a Σ1 formula is passed as any
    other.  One claim, ``bounded_formulas_commute``, with one case per
    assignment of source pool names, decided per formula by comparing the
    two ``truth_grid``s in one ``==``; the first moved value is the witness.
    """
    require_regular(h)
    report = Ledger()
    report.record("bounded_formulas_commute", True, cases=0)
    source = NamePool(h.source, pool)
    lifts = [lift_name(h, n) for n in source.names]
    target = NamePool(h.target, lifts)
    index = {n: i for i, n in enumerate(target.names)}
    order = [index[n] for n in lifts]  # lifting may reorder the sorted pool
    for phi in d0_formulas:
        k = len(phi.variables)
        if not len(source.names) ** k:  # no assignment, so nothing to admit
            continue
        _admit(phi.constants, h.source, "formula parameter")
        moved = list(map(h.apply, truth_grid(phi, source)))
        at = [0]  # each source assignment's place in the target grid
        for _ in range(k):
            at = [a * len(target.names) + o for a in at for o in order]
        lifted = list(map(truth_grid(_lift_constants(h, phi), target).__getitem__, at))
        witness = ""
        if moved != lifted:
            lhs, rhs = next((a, b) for a, b in zip(moved, lifted) if a != b)
            witness = (
                f"bounded formula value moved: {format_element(h.target, lhs)} vs "
                f"{format_element(h.target, rhs)}"
            )
        report.record("bounded_formulas_commute", not witness, witness, len(at))
    return report


# -- shipped pools -----------------------------------------------------------------


def standard_name_pool(algebra: FiniteCBA, max_rank: int = 3) -> tuple[BName, ...]:
    """The deterministic shipped pool: layered partial functions over a small
    frontier of lower-rank names, with at most two entries each."""
    labels = tuple(sorted((set(algebra.atoms()) | {algebra.one}) - {0}))  # 1 is 0 on 0 atoms
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


def standard_pool_size(atom_count: int, max_rank: int = 3) -> int:
    """``len(standard_name_pool(algebra, max_rank))`` for an algebra with
    this many atoms, counted without building a name."""
    labels = atom_count + (atom_count > 1)  # the atoms, and 1 when it is no atom
    total, new = (1 + labels, labels) if max_rank else (1, 0)
    for rank in range(2, max_rank + 1):
        m = min(3, new)
        new = m * labels + (m + m * (m - 1) // 2) * labels * labels
        total += new
        if m == 3:  # so is every later layer's, which adds as many names
            return total + (max_rank - rank) * new
    return total


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
