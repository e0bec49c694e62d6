"""Free boolean algebras on named generators with decidable operations.

Elements are reduced ordered decision diagrams keyed by a global total order
on generator names.  Each element is its interned root node, so semantic
equality is identity and every element carries exactly its essential
support.  This is the carrier for the atomless towers of the counterexample
gallery: conjunction chains over fresh generators stay linear-sized here.
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
# uid|other uid|op (and 0, or 1; not 2, one uid).  _QUANT_MEMO: the node's
# kept support mask|uid (the mask is unbounded, so it takes the high end).
_UID_BITS = 29
_BIT_BITS = 24
_HI_SHIFT = _UID_BITS + 2
_UIDS = itertools.count(2)  # the leaves are uids 0 and 1
_BITS = itertools.count()


class FreeElement:
    """A canonical-form element of the free boolean algebra: an interned
    decision node or one of the two leaves, so equality is identity."""

    __slots__ = ()

    def __and__(self, other: "FreeElement") -> "FreeElement":
        return _apply(self, other, 0)

    def __or__(self, other: "FreeElement") -> "FreeElement":
        return _apply(self, other, 1)

    def __invert__(self) -> "FreeElement":
        return _not(self)

    def __bool__(self) -> bool:
        """Nonzero, as for the bitmask elements of finite algebras."""
        return self is not _FALSE

    def __repr__(self) -> str:
        return f"FreeElement({format_free(self)})"

    @property
    def is_zero(self) -> bool:
        return self is _FALSE

    @property
    def is_one(self) -> bool:
        return self is _TRUE

    def leq(self, other: "FreeElement") -> bool:
        return _apply(self, _not(other), 0) is _FALSE

    @property
    def support(self) -> frozenset[str]:
        mask = self.mask
        return frozenset(_NAMES[i] for i in range(mask.bit_length()) if mask >> i & 1)


class _Node(FreeElement):
    __slots__ = ("var", "key", "lo", "hi", "uid", "mask")

    def __init__(self, key: tuple, lo, hi):
        self.var, self.key = key[2], key  # generator_sort_key(var): the level
        self.lo, self.hi = lo, hi
        self.uid = next(_UIDS)
        if self.uid >> _UID_BITS:
            raise KeyFieldOverflow(f"node uid {self.uid} outgrew {_UID_BITS} bits")
        self.mask = 1 << key[3] | lo.mask | hi.mask  # bits of the support


class _Leaf(FreeElement):
    __slots__ = ("uid", "mask")

    def __init__(self, uid: int):
        self.uid, self.mask = uid, 0


_FALSE = FREE_ZERO = _Leaf(0)
_TRUE = FREE_ONE = _Leaf(1)

# Every table is filled with setdefault or with a value that any racing
# writer computes identically, so concurrent audits intern one node per key;
# each name's bit is drawn from one counter, so no two names share a bit.
_UNIQUE: dict[int, _Node] = {}
_APPLY_MEMO: dict[int, object] = {}
_QUANT_MEMO: dict[int, object] = {}
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
    node = _UNIQUE.get(ukey)  # not `or`: a node's truth is a Python call
    if node is None:
        node = _UNIQUE.setdefault(ukey, _Node(key, lo, hi))
    return node


def _branch(a: _Node, b: _Node):
    """The node to branch on (the one whose generator comes first) and the
    cofactors of a and b by its generator."""
    ka, kb = a.key, b.key
    if ka is kb:
        return a, a.lo, a.hi, b.lo, b.hi
    if ka < kb:
        return a, a.lo, a.hi, b, b
    return b, a, a, b.lo, b.hi


def _apply(a, b, op: int):
    """a ∧ b for op 0, a ∨ b for op 1: the leaf whose uid is op absorbs and
    the other leaf is the unit."""
    ua, ub = a.uid, b.uid
    if ua == op or ub == op:
        return a if ua == op else b
    if ua < 2 or a is b:
        return b
    if ub < 2:
        return a
    key = (ua << _HI_SHIFT | ub << 2 if ua < ub else ub << _HI_SHIFT | ua << 2) | op
    out = _APPLY_MEMO.get(key)
    if out is None:
        top, a0, a1, b0, b1 = _branch(a, b)
        out = _make(top.key, _apply(a0, b0, op), _apply(a1, b1, op))
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


def _exists_outside(node, kept: int, gone: int):
    """Existential projection of every generator whose bit is not in ``kept``;
    ``gone`` is ``~kept``, passed down so that no node recomputes it.

    The result depends only on the node and on which generators of its
    support are kept, so that sub-mask and the uid make the memo key.
    """
    mask = node.mask
    if not mask & gone:
        return node  # a leaf, or nothing to project
    mine = mask & kept
    if not mine:
        return _TRUE  # a reduced diagram that is not a leaf is satisfiable
    key = mine << _UID_BITS | node.uid
    out = _QUANT_MEMO.get(key)
    if out is None:
        lo, hi = _exists_outside(node.lo, kept, gone), _exists_outside(node.hi, kept, gone)
        out = _make(node.key, lo, hi) if mine >> node.key[3] & 1 else _apply(lo, hi, 1)
        _QUANT_MEMO[key] = out
    return out


def generator(name: str) -> FreeElement:
    return _make(generator_sort_key(name), _FALSE, _TRUE)


def all_meet(parts: Iterable[FreeElement]) -> FreeElement:
    out = FREE_ONE
    for p in parts:
        out = out & p
    return out


def free_project(e: FreeElement, onto: "FreeAlgebra") -> FreeElement:
    """The least element of ``onto`` above e: existential projection of every
    generator outside ``onto``, the retraction of the inclusion of ``onto``."""
    return _exists_outside(e, onto.mask, onto._foreign)


@dataclass(frozen=True)
class FreeAlgebra:
    """The free boolean algebra on a fixed finite generator set."""

    generators: frozenset[str]

    @cached_property
    def mask(self) -> int:
        """The bits of this algebra's generators."""
        return sum(1 << generator_sort_key(g)[3] for g in self.generators)

    @cached_property
    def _foreign(self) -> int:
        """Every generator bit but this algebra's, later ones included."""
        return ~self.mask

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
        return not e.mask & self._foreign

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

    walk(e, [])
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


@dataclass(frozen=True)
class ChainVerdict:
    kind: str  # "lower_bound_zero" | "fails_at"
    index: int | None

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
    # k: the deepest of the first len(support) + 32 chain generators in h's
    # support, each name at its first index; a name never interned is in none
    rest, k = h.mask, -1
    for j in range(rest.bit_count() + 32):
        if not rest:
            break
        key = _KEYS.get(chain.generator_at(j))
        if key is not None and rest >> key[3] & 1:
            rest &= ~(1 << key[3])
            k = j
    depth = k + 2

    prev: FreeElement | None = None
    prefix = 0  # the bits of the first n chain generators
    for n in range(1, depth + 1):
        a_n = chain.element_at(n)
        newest = 1 << generator_sort_key(chain.generator_at(n - 1))[3]
        prefix |= newest
        mask = a_n.mask
        if mask & ~prefix or not mask & newest:
            raise ChainEscapeViolation(n)
        if prev is not None and not a_n.leq(prev):
            raise ChainNotDescending(n - 1)
        if not h.leq(a_n):
            return ChainVerdict("fails_at", n)
        prev = a_n

    if h.is_zero:
        return ChainVerdict("lower_bound_zero", None)
    # A nonzero h independent of the step-(k+2) generator that survives to
    # a_{k+2} sits below the universal projection of a_{k+2}, which any chain
    # honoring the declared property makes 0 — so the declaration was false.
    raise ChainEscapeViolation(depth)
