"""Independent brute-force oracles used by the test suite.

These deliberately avoid the implementation's data paths: subset-relation
computations run on raw down-sets, and free-algebra checks run on truth
tables, so the canonical-form engine is cross-checked rather than trusted.
"""
from __future__ import annotations

import itertools
import re

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
