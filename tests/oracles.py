"""Independent brute-force oracles used by the test suite.

These deliberately avoid the implementation's data paths: subset-relation
computations run on raw down-sets, free-algebra checks run on truth
tables, and formulas are evaluated by walking their trees, so the
canonical-form engine and the compiled formula routes are cross-checked
rather than trusted.
"""
from __future__ import annotations

import itertools
import re
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
)
from forcebench.finite_cba import FiniteCBA
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
from forcebench.poset import Poset


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
