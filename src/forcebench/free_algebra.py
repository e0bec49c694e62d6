"""Free boolean algebras on named generators with decidable operations.

Elements are reduced ordered decision diagrams keyed by a global total order
on generator names, so semantic equality is node identity and every element
carries exactly its essential support.  This is the carrier for the atomless
towers of the counterexample gallery: conjunction chains over fresh
generators stay linear-sized here.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import ChainEscapeViolation, ChainNotDescending

# -- interned decision nodes -------------------------------------------------


class _Node:
    __slots__ = ("var", "lo", "hi")

    def __init__(self, var: str, lo, hi):
        self.var = var
        self.lo = lo
        self.hi = hi


class _Leaf:
    __slots__ = ("value",)

    def __init__(self, value: bool):
        self.value = value


_FALSE = _Leaf(False)
_TRUE = _Leaf(True)

_UNIQUE: dict[tuple[str, int, int], _Node] = {}
_APPLY_MEMO: dict[tuple, object] = {}
_QUANT_MEMO: dict[tuple, object] = {}
_SUPPORT_MEMO: dict[int, frozenset[str]] = {}

_NAME_RE = re.compile(r"^(.*?)(\d*)$")


def generator_sort_key(name: str) -> tuple[str, int]:
    """Global order: alphabetic prefix, then numeric suffix as a number."""
    m = _NAME_RE.match(name)
    prefix, digits = m.group(1), m.group(2)
    return (prefix, int(digits) if digits else -1)


def _make(var: str, lo, hi):
    if lo is hi:
        return lo
    key = (var, id(lo), id(hi))
    node = _UNIQUE.get(key)
    if node is None:
        node = _Node(var, lo, hi)
        _UNIQUE[key] = node
    return node


def _top_var(a, b) -> str:
    if isinstance(a, _Leaf):
        return b.var
    if isinstance(b, _Leaf):
        return a.var
    ka, kb = generator_sort_key(a.var), generator_sort_key(b.var)
    return a.var if ka <= kb else b.var


def _cofactors(node, var: str):
    if isinstance(node, _Leaf) or node.var != var:
        return node, node
    return node.lo, node.hi


def _and(a, b):
    if a is _FALSE or b is _FALSE:
        return _FALSE
    if a is _TRUE:
        return b
    if b is _TRUE:
        return a
    if a is b:
        return a
    key = ("and", id(a), id(b)) if id(a) <= id(b) else ("and", id(b), id(a))
    out = _APPLY_MEMO.get(key)
    if out is None:
        v = _top_var(a, b)
        a0, a1 = _cofactors(a, v)
        b0, b1 = _cofactors(b, v)
        out = _make(v, _and(a0, b0), _and(a1, b1))
        _APPLY_MEMO[key] = out
    return out


def _or(a, b):
    if a is _TRUE or b is _TRUE:
        return _TRUE
    if a is _FALSE:
        return b
    if b is _FALSE:
        return a
    if a is b:
        return a
    key = ("or", id(a), id(b)) if id(a) <= id(b) else ("or", id(b), id(a))
    out = _APPLY_MEMO.get(key)
    if out is None:
        v = _top_var(a, b)
        a0, a1 = _cofactors(a, v)
        b0, b1 = _cofactors(b, v)
        out = _make(v, _or(a0, b0), _or(a1, b1))
        _APPLY_MEMO[key] = out
    return out


def _not(a):
    if a is _TRUE:
        return _FALSE
    if a is _FALSE:
        return _TRUE
    key = ("not", id(a))
    out = _APPLY_MEMO.get(key)
    if out is None:
        out = _make(a.var, _not(a.lo), _not(a.hi))
        _APPLY_MEMO[key] = out
    return out


def _exists(node, gens: frozenset[str]):
    if isinstance(node, _Leaf):
        return node
    key = (id(node), gens)
    out = _QUANT_MEMO.get(key)
    if out is None:
        lo, hi = _exists(node.lo, gens), _exists(node.hi, gens)
        out = _or(lo, hi) if node.var in gens else _make(node.var, lo, hi)
        _QUANT_MEMO[key] = out
    return out


def _support(node) -> frozenset[str]:
    if isinstance(node, _Leaf):
        return frozenset()
    out = _SUPPORT_MEMO.get(id(node))
    if out is None:
        out = frozenset({node.var}) | _support(node.lo) | _support(node.hi)
        _SUPPORT_MEMO[id(node)] = out
    return out


# -- public element type -----------------------------------------------------


class FreeElement:
    """A canonical-form element of the free boolean algebra; equality is O(1)."""

    __slots__ = ("_node",)

    def __init__(self, node):
        self._node = node

    def __eq__(self, other) -> bool:
        return isinstance(other, FreeElement) and self._node is other._node

    def __hash__(self) -> int:
        return hash(id(self._node))

    def __and__(self, other: "FreeElement") -> "FreeElement":
        return FreeElement(_and(self._node, other._node))

    def __or__(self, other: "FreeElement") -> "FreeElement":
        return FreeElement(_or(self._node, other._node))

    def __invert__(self) -> "FreeElement":
        return FreeElement(_not(self._node))

    def __bool__(self) -> bool:
        """Nonzero, as for the bitmask elements of finite algebras."""
        return self._node is not _FALSE

    def __repr__(self) -> str:
        return f"FreeElement({format_free(self)})"

    @property
    def is_zero(self) -> bool:
        return self._node is _FALSE

    @property
    def is_one(self) -> bool:
        return self._node is _TRUE

    def leq(self, other: "FreeElement") -> bool:
        return _and(self._node, _not(other._node)) is _FALSE

    @property
    def support(self) -> frozenset[str]:
        return _support(self._node)


FREE_ZERO = FreeElement(_FALSE)
FREE_ONE = FreeElement(_TRUE)


def generator(name: str) -> FreeElement:
    return FreeElement(_make(name, _FALSE, _TRUE))


def all_meet(parts: Iterable[FreeElement]) -> FreeElement:
    out = FREE_ONE
    for p in parts:
        out = out & p
    return out


def all_join(parts: Iterable[FreeElement]) -> FreeElement:
    out = FREE_ZERO
    for p in parts:
        out = out | p
    return out


def free_project(e: FreeElement, gens: Iterable[str]) -> FreeElement:
    """Least element independent of ``gens`` above e: existential projection.

    This is the retraction of the free-algebra inclusion that adds ``gens``.
    """
    return FreeElement(_exists(e._node, frozenset(gens)))


@dataclass(frozen=True)
class FreeAlgebra:
    """The free boolean algebra on a fixed finite generator set."""

    generators: frozenset[str]

    @property
    def zero(self) -> FreeElement:
        return FREE_ZERO

    @property
    def one(self) -> FreeElement:
        return FREE_ONE

    def var(self, name: str) -> FreeElement:
        if name not in self.generators:
            raise ValueError(f"{name!r} is not a generator here")
        return generator(name)

    def contains(self, e: FreeElement) -> bool:
        return e.support <= self.generators

    def leq(self, a: FreeElement, b: FreeElement) -> bool:
        return a.leq(b)

    def neg(self, a: FreeElement) -> FreeElement:
        return ~a


# -- expression syntax ---------------------------------------------------------


@dataclass(frozen=True)
class GVar:
    name: str


@dataclass(frozen=True)
class GConst:
    value: bool


@dataclass(frozen=True)
class GNot:
    body: "FreeExpr"


@dataclass(frozen=True)
class GAnd:
    left: "FreeExpr"
    right: "FreeExpr"


@dataclass(frozen=True)
class GOr:
    left: "FreeExpr"
    right: "FreeExpr"


FreeExpr = GVar | GConst | GNot | GAnd | GOr


def free_normalize(expr: "FreeExpr | FreeElement") -> FreeElement:
    """Canonical form of an expression; idempotent (canonical input is returned as is)."""
    if isinstance(expr, FreeElement):
        return expr
    if isinstance(expr, GVar):
        return generator(expr.name)
    if isinstance(expr, GConst):
        return FREE_ONE if expr.value else FREE_ZERO
    if isinstance(expr, GNot):
        return ~free_normalize(expr.body)
    if isinstance(expr, GAnd):
        return free_normalize(expr.left) & free_normalize(expr.right)
    if isinstance(expr, GOr):
        return free_normalize(expr.left) | free_normalize(expr.right)
    raise TypeError(f"not a free-algebra expression: {expr!r}")


_TOKEN_RE = re.compile(r"\s*(?:(\()|(\))|(∧|&)|(∨|\|)|(¬|!)|(0|1)|([A-Za-z_][A-Za-z_0-9]*))")


def parse_free_expression(text: str) -> FreeExpr:
    """Parse ``x0 ∧ ¬(y1 ∨ 0)``; ASCII forms & | ! are accepted."""
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            if text[pos:].strip():
                raise ValueError(f"bad token at position {pos}: {text[pos:]!r}")
            break
        tokens.append(m.group(m.lastindex))
        pos = m.end()

    def parse_or(i: int) -> tuple[FreeExpr, int]:
        left, i = parse_and(i)
        while i < len(tokens) and tokens[i] in ("∨", "|"):
            right, i = parse_and(i + 1)
            left = GOr(left, right)
        return left, i

    def parse_and(i: int) -> tuple[FreeExpr, int]:
        left, i = parse_atom(i)
        while i < len(tokens) and tokens[i] in ("∧", "&"):
            right, i = parse_atom(i + 1)
            left = GAnd(left, right)
        return left, i

    def parse_atom(i: int) -> tuple[FreeExpr, int]:
        if i >= len(tokens):
            raise ValueError("unexpected end of expression")
        t = tokens[i]
        if t in ("¬", "!"):
            body, i = parse_atom(i + 1)
            return GNot(body), i
        if t == "(":
            body, i = parse_or(i + 1)
            if i >= len(tokens) or tokens[i] != ")":
                raise ValueError("missing closing parenthesis")
            return body, i + 1
        if t in ("0", "1"):
            return GConst(t == "1"), i + 1
        if t == ")":
            raise ValueError("unexpected ')'")
        return GVar(t), i + 1

    expr, i = parse_or(0)
    if i != len(tokens):
        raise ValueError(f"trailing tokens: {tokens[i:]}")
    return expr


def format_free(e: FreeElement) -> str:
    """Canonical printing: sorted disjunction of the diagram's true paths."""
    if e.is_zero:
        return "0"
    if e.is_one:
        return "1"
    cubes: list[list[str]] = []

    def walk(node, path: list[str]) -> None:
        if node is _TRUE:
            cubes.append(list(path))
            return
        if node is _FALSE:
            return
        path.append("¬" + node.var)
        walk(node.lo, path)
        path.pop()
        path.append(node.var)
        walk(node.hi, path)
        path.pop()

    walk(e._node, [])
    parts = [" ∧ ".join(cube) if cube else "1" for cube in cubes]
    parts.sort()
    if len(parts) == 1:
        return parts[0]
    return " ∨ ".join(f"({p})" if " ∧ " in p else p for p in parts)


# -- descending chains with declared support escape ----------------------------


@dataclass(frozen=True)
class GeneratorChain:
    """A descending chain a_1 >= a_2 >= ... whose step-n element is supported
    by the first n chain generators and genuinely constrains the n-th.

    ``element_at(n)`` is a_n for n >= 1; ``generator_at(j)`` names the chain
    generator with index j >= 0.  The cylinder chains of the gallery
    (x0, x0∧x1, ...) and fresh-generator chains (y0, y0∧y1, ...) fit.
    """

    element_at: Callable[[int], FreeElement]
    generator_at: Callable[[int], str]

    def chain_index(self, name: str, limit: int) -> int | None:
        for j in range(limit):
            if self.generator_at(j) == name:
                return j
        return None


@dataclass(frozen=True)
class ChainVerdict:
    kind: str  # "lower_bound_zero" | "fails_at"
    index: int | None
    checked_depth: int

    @property
    def is_zero(self) -> bool:
        return self.kind == "lower_bound_zero"


def chain_vanishing(h: FreeElement, chain: GeneratorChain) -> ChainVerdict:
    """Decide whether h can sit below the whole chain.

    Either h = 0 (the only possible lower bound: the chain's constraints
    outrun any finite support) or the first failing comparison is reported.
    A nonzero h below every checked element would contradict the declared
    support-escape property, which is then reported as a violation rather
    than silently accepted.
    """
    limit = len(h.support) + 32
    indices = [chain.chain_index(g, limit) for g in h.support]
    k = max((j for j in indices if j is not None), default=-1)
    depth = k + 2

    prev: FreeElement | None = None
    for n in range(1, depth + 1):
        a_n = chain.element_at(n)
        expected = frozenset(chain.generator_at(j) for j in range(n))
        if not a_n.support <= expected or chain.generator_at(n - 1) not in a_n.support:
            raise ChainEscapeViolation(n)
        if prev is not None and not a_n.leq(prev):
            raise ChainNotDescending(n - 1)
        if not h.leq(a_n):
            return ChainVerdict("fails_at", n, depth)
        prev = a_n

    if h.is_zero:
        return ChainVerdict("lower_bound_zero", None, depth)
    # A nonzero h independent of the step-(k+2) generator that survives to
    # a_{k+2} sits below the universal projection of a_{k+2}, which any chain
    # honoring the declared property makes 0 — so the declaration was false.
    raise ChainEscapeViolation(depth)
