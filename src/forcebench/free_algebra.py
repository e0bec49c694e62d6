"""Free boolean algebras on named generators with decidable operations.

Elements are reduced ordered decision diagrams keyed by a global total order
on generator names, so semantic equality is node identity and every element
carries exactly its essential support.  This is the carrier for the atomless
towers of the counterexample gallery: conjunction chains over fresh
generators stay linear-sized here.
"""
from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

from .errors import ChainEscapeViolation, ChainNotDescending, KeyFieldOverflow

# -- interned decision nodes -------------------------------------------------

# Memo keys pack fixed-width fields into one int, so packing is injective; a
# node uid (_UID_BITS) or generator bit index (_BIT_BITS) outgrowing its field
# raises KeyFieldOverflow.  _UNIQUE: bit|lo uid|hi uid.  _APPLY_MEMO: smaller
# uid|other uid|op (and 0, or 1; not 2, one uid).  Cutoff projections: bit|uid.
_UID_BITS = 29
_BIT_BITS = 24
_HI_SHIFT = _UID_BITS + 2
_UIDS = itertools.count(2)  # the leaves are uids 0 and 1
_BITS = itertools.count()


class _Node:
    __slots__ = ("var", "key", "lo", "hi", "uid", "mask")

    def __init__(self, key: tuple, lo, hi):
        self.var, self.key = key[2], key  # generator_sort_key(var): the level
        self.lo, self.hi = lo, hi
        self.uid = next(_UIDS)
        if self.uid >> _UID_BITS:
            raise KeyFieldOverflow(f"node uid {self.uid} outgrew {_UID_BITS} bits")
        self.mask = 1 << key[3] | lo.mask | hi.mask  # bits of the support


class _Leaf:
    __slots__ = ("uid", "mask")

    def __init__(self, uid: int):
        self.uid, self.mask = uid, 0


_FALSE = _Leaf(0)
_TRUE = _Leaf(1)

# Every table is filled with setdefault or with a value that any racing
# writer computes identically, so concurrent audits intern one node per key;
# each name's bit is drawn from one counter, so no two names share a bit.
_UNIQUE: dict[int, _Node] = {}
_APPLY_MEMO: dict[int, object] = {}
_QUANT_MEMO: dict[int | tuple, object] = {}
_KEYS: dict[str, tuple[str, int, str, int]] = {}
_NAMES: dict[int, str] = {}  # generator bit index -> name

_NAME_RE = re.compile(r"^(.*?)(\d*)$")


def generator_sort_key(name: str) -> tuple[str, int, str, int]:
    """Global order: alphabetic prefix, then numeric suffix as a number, then
    the name itself (so x1 and x01 stay apart), then the name's bit index,
    which no comparison reaches.  Computed once per name: one key object."""
    key = _KEYS.get(name)
    if key is None:
        bit = next(_BITS)  # a racing writer that loses the setdefault wastes its bit
        if bit >> _BIT_BITS:
            raise KeyFieldOverflow(f"generator bit {bit} outgrew {_BIT_BITS} bits")
        _NAMES[bit] = name
        prefix, digits = _NAME_RE.match(name).groups()
        key = _KEYS.setdefault(name, (prefix, int(digits) if digits else -1, name, bit))
    return key


def _make(key: tuple, lo, hi):
    if lo is hi:
        return lo
    ukey = (key[3] << _UID_BITS | lo.uid) << _UID_BITS | hi.uid
    return _UNIQUE.get(ukey) or _UNIQUE.setdefault(ukey, _Node(key, lo, hi))


def _branch(a: _Node, b: _Node):
    """The node to branch on (the one whose generator comes first) and the
    cofactors of a and b by its generator."""
    ka, kb = a.key, b.key
    if ka is kb:
        return a, a.lo, a.hi, b.lo, b.hi
    if ka < kb:
        return a, a.lo, a.hi, b, b
    return b, a, a, b.lo, b.hi


def _and(a, b):
    if a is _FALSE or b is _FALSE:
        return _FALSE
    if a is _TRUE:
        return b
    if b is _TRUE:
        return a
    if a is b:
        return a
    ua, ub = a.uid, b.uid
    key = ua << _HI_SHIFT | ub << 2 if ua < ub else ub << _HI_SHIFT | ua << 2
    out = _APPLY_MEMO.get(key)
    if out is None:
        top, a0, a1, b0, b1 = _branch(a, b)
        out = _make(top.key, _and(a0, b0), _and(a1, b1))
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
    ua, ub = a.uid, b.uid
    key = (ua << _HI_SHIFT | ub << 2 if ua < ub else ub << _HI_SHIFT | ua << 2) | 1
    out = _APPLY_MEMO.get(key)
    if out is None:
        top, a0, a1, b0, b1 = _branch(a, b)
        out = _make(top.key, _or(a0, b0), _or(a1, b1))
        _APPLY_MEMO[key] = out
    return out


def _not(a):
    if a is _TRUE:
        return _FALSE
    if a is _FALSE:
        return _TRUE
    key = a.uid << 2 | 2
    out = _APPLY_MEMO.get(key)
    if out is None:
        out = _make(a.key, _not(a.lo), _not(a.hi))
        _APPLY_MEMO[key] = out
    return out


def _exists(node, gens: frozenset[str]):
    if isinstance(node, _Leaf):
        return node
    key = (node.uid, gens)
    out = _QUANT_MEMO.get(key)
    if out is None:
        lo, hi = _exists(node.lo, gens), _exists(node.hi, gens)
        out = _or(lo, hi) if node.var in gens else _make(node.key, lo, hi)
        _QUANT_MEMO[key] = out
    return out


def _exists_from(node, cutoff: tuple):
    """Existential projection of every generator whose key is >= cutoff.

    Those generators sit below the cutoff level, so the projection keeps the
    nodes above it and turns every node at or below it into 1: a reduced
    diagram that is not a leaf is satisfiable.
    """
    if isinstance(node, _Leaf):
        return node
    if node.key >= cutoff:
        return _TRUE
    key = cutoff[3] << _UID_BITS | node.uid
    out = _QUANT_MEMO.get(key)
    if out is None:
        lo, hi = _exists_from(node.lo, cutoff), _exists_from(node.hi, cutoff)
        out = _make(node.key, lo, hi)
        _QUANT_MEMO[key] = out
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
        return self._node.uid

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
        mask = self._node.mask
        return frozenset(_NAMES[i] for i in range(mask.bit_length()) if mask >> i & 1)


FREE_ZERO = FreeElement(_FALSE)
FREE_ONE = FreeElement(_TRUE)


def generator(name: str) -> FreeElement:
    return FreeElement(_make(generator_sort_key(name), _FALSE, _TRUE))


def all_meet(parts: Iterable[FreeElement]) -> FreeElement:
    out = FREE_ONE
    for p in parts:
        out = out & p
    return out


def free_project(
    e: FreeElement, gens: Iterable[str], cutoff: tuple | None = None
) -> FreeElement:
    """Least element independent of ``gens`` above e: existential projection.

    This is the retraction of the free-algebra inclusion that adds ``gens``.
    ``cutoff`` (from ``projection_cutoff``) says that e's generators in
    ``gens`` are exactly those whose key is >= it; the projection is then a
    level cutoff, memoized on the level rather than on the set.
    """
    if cutoff is not None:
        return FreeElement(_exists_from(e._node, cutoff))
    gens = frozenset(gens)
    return FreeElement(_exists(e._node, gens)) if gens else e


def projection_cutoff(kept: "FreeAlgebra", gens: Iterable[str]) -> tuple | None:
    """The level at which projecting ``gens`` out of an element over the
    generators of ``kept`` and ``gens`` is a cutoff: the first key of gens,
    when every generator of gens sorts after every kept one; None otherwise."""
    first = min(map(generator_sort_key, gens), default=None)
    if first is None or (kept.last_key is not None and kept.last_key >= first):
        return None
    return first


@dataclass(frozen=True)
class FreeAlgebra:
    """The free boolean algebra on a fixed finite generator set."""

    generators: frozenset[str]

    @cached_property
    def last_key(self) -> tuple | None:
        """The sort key of the last generator, None when there are none."""
        return max(map(generator_sort_key, self.generators), default=None)

    @cached_property
    def _foreign(self) -> int:
        """Every generator bit but this algebra's, later ones included."""
        return ~sum(1 << generator_sort_key(g)[3] for g in self.generators)

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
        return not e._node.mask & self._foreign

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
