"""Complete homomorphisms between finite algebras and their retractions.

A homomorphism is carried by a fiber map on atoms of the target: the
embedding is preimage, the retraction is direct image, and every law of the
retraction calculus reduces to an exact image/preimage identity.
"""
from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .errors import ArityMismatch, NotRegular, ZeroRestriction
from .finite_cba import (
    FiniteCBA,
    Restriction,
    atom_map,
    byte_rows,
    format_element,
)
from .free_algebra import FreeAlgebra, FreeElement, free_project
from .report import Ledger


@dataclass(frozen=True)
class CompleteHom:
    """i: source -> target carried by fiber: atoms(target) -> atoms(source)."""

    source: FiniteCBA
    target: FiniteCBA
    fiber: tuple[int, ...]
    _atom_image: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _apply: Callable[[int], int] = field(init=False, repr=False, compare=False)
    _project: Callable[[int], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.fiber) != self.target.atom_count:
            raise ArityMismatch(
                f"fiber map has {len(self.fiber)} entries for {self.target.atom_count} target atoms"
            )
        for s in self.fiber:
            if not 0 <= s < self.source.atom_count:
                raise ArityMismatch(f"fiber value {s} is not a source atom")
        table = [0] * self.source.atom_count
        for t, s in enumerate(self.fiber):
            table[s] |= 1 << t
        object.__setattr__(self, "_atom_image", tuple(table))
        object.__setattr__(self, "_apply", atom_map(table))
        object.__setattr__(self, "_project", atom_map([1 << s for s in self.fiber]))

    @property
    def regular(self) -> bool:
        """Injective (the fiber map is surjective)."""
        return all(m != 0 for m in self._atom_image)

    def apply(self, b: int) -> int:
        """i(b): preimage of b under the fiber map."""
        return self._apply(b)

    def project(self, c: int) -> int:
        """pi(c): direct image of c under the fiber map."""
        return self._project(c)

    def then(self, other: "CompleteHom") -> "CompleteHom":
        """Composite source -> other.target (self first, then other)."""
        if other.source != self.target:
            raise ArityMismatch("composition shape mismatch")
        return CompleteHom(
            self.source, other.target, tuple(self.fiber[s] for s in other.fiber)
        )

    def composes_to(self, other: "CompleteHom", composite) -> bool:
        """``self.then(other) == composite``, comparing composed fibers
        instead of building the composite's atom tables."""
        if other.source != self.target:
            raise ArityMismatch("composition shape mismatch")
        return (
            isinstance(composite, CompleteHom)
            and composite.source == self.source
            and composite.target == other.target
            and composite.fiber == tuple(self.fiber[s] for s in other.fiber)
        )


def identity_hom(algebra: FiniteCBA) -> CompleteHom:
    return CompleteHom(algebra, algebra, tuple(range(algebra.atom_count)))


def hom_from_fiber_map(
    source: FiniteCBA, target: FiniteCBA, fiber: Iterable[int]
) -> CompleteHom:
    return CompleteHom(source, target, tuple(fiber))


def require_regular(h: CompleteHom) -> None:
    if not h.regular:
        raise NotRegular("operation requires a regular embedding")


def ker_coker(h: CompleteHom) -> tuple[int, int]:
    """ker = join of everything the embedding kills; coker its complement.

    Restricting to the cokernel always yields a regular embedding.
    """
    rng = h.project(h.target.one)
    return h.source.neg(rng), rng


def restrict_to_coker(h: CompleteHom) -> tuple["CompleteHom", Restriction]:
    _, coker = ker_coker(h)
    view = Restriction(h.source, coker)
    fiber = tuple(view.sub_of_atom[s] for s in h.fiber)
    return CompleteHom(view.algebra, h.target, fiber), view


@dataclass(frozen=True)
class RestrictedEmbedding:
    """i_c: B|pi(c) -> C|c, b -> i(b) ∧ c, with both reindexing views."""

    base: CompleteHom
    element: int
    source_view: Restriction
    target_view: Restriction
    hom: CompleteHom


def restrict(h: CompleteHom, c: int) -> RestrictedEmbedding:
    require_regular(h)
    if c == 0:
        raise ZeroRestriction("cannot restrict below 0")
    source_view = Restriction(h.source, h.project(c))
    target_view = Restriction(h.target, c)
    fiber = tuple(source_view.sub_of_atom[h.fiber[t]] for t in target_view.atom_of_sub)
    hom = CompleteHom(source_view.algebra, target_view.algebra, fiber)
    return RestrictedEmbedding(h, c, source_view, target_view, hom)


def stone_dual_quotient(h: CompleteHom) -> tuple[int, ...]:
    """Partition of target ultrafilters by the dual map; one class per source atom."""
    require_regular(h)
    return tuple(h._atom_image[s] for s in range(h.source.atom_count))


# -- free-algebra inclusions ---------------------------------------------------


@dataclass(frozen=True)
class FreeInclusion:
    """Inclusion of free algebras on G into G'; retraction is projection over G'-G.

    ``project`` is ``free_project`` onto the source: one existential
    projection, memoized on each node's kept support, whichever generators
    are fresh.
    """

    source: FreeAlgebra
    target: FreeAlgebra

    def __post_init__(self) -> None:
        if not self.source.generators <= self.target.generators:
            raise ArityMismatch("source generators must be contained in target generators")

    @property
    def regular(self) -> bool:
        return True

    def apply(self, e: FreeElement) -> FreeElement:
        if not self.source.contains(e):
            raise ArityMismatch("element outside the source algebra")
        return e

    def project(self, e: FreeElement) -> FreeElement:
        if not self.target.contains(e):
            raise ArityMismatch("element outside the target algebra")
        return free_project(e, self.source)

    def then(self, other: "FreeInclusion") -> "FreeInclusion":
        if other.source != self.target:
            raise ArityMismatch("composition shape mismatch")
        return FreeInclusion(self.source, other.target)

    def composes_to(self, other: "FreeInclusion", composite) -> bool:
        """``self.then(other) == composite``, without building the composite."""
        if other.source != self.target:
            raise ArityMismatch("composition shape mismatch")
        return (
            isinstance(composite, FreeInclusion)
            and composite.source == self.source
            and composite.target == other.target
        )


# -- the retraction-law audit ---------------------------------------------------

# Every element and pair is a case when asked for and both algebras have at
# most this many atoms (pairs of target elements: 4^n); seeded samples above.
EXHAUSTIVE_MAX_ATOMS = 6
# the cli asks for enumeration up to this many source atoms
EXHAUSTIVE_SOURCE_ATOMS = 4


class _Cases:
    """The case lists of one audit, built once and shared by every law.

    Exhaustive: every element of B and C, every pair, and every e below and
    cover above each target element.  Sampled: seeded elements, pairs with
    the first 16 of them, and the atoms where a law ranges over generators.
    Lists of target elements come with their projections (cs/pcs, ...);
    ``below`` and ``above`` map an element to projections below and above it.
    When both sides are enumerated, ``rows`` packs the projections for the
    pair laws (``finite_cba.ByteRows``; None when some value is not a byte).
    """

    def __init__(self, h: CompleteHom, exhaustive: bool, rng, samples: int) -> None:
        B, C = h.source, h.target
        key = (B.atom_count, C.atom_count, exhaustive, samples)
        drawn = _random_0_draws(*key) if rng is None else _draw(rng, *key)
        cs, bs, self.source_sets, self.target_sets = drawn
        self.h = h
        if cs is None:  # both sides enumerated
            bs, cs = list(B.elements()), list(C.elements())
            ibs, pcs = [h.apply(b) for b in bs], [h.project(c) for c in cs]
            subs = [[0]]  # c -> every e <= c
            for c in cs[1:]:
                low = c & -c
                subs.append(subs[c ^ low] + [e | low for e in subs[c ^ low]])
            below = [{pcs[e] for e in sub} for sub in subs]
            # monotonicity on covers c < c | a is monotonicity on all c <= d
            atoms = C.atoms()
            above = [[pcs[c | a] for a in atoms if not c & a] for c in cs]
            self.apply, self.project = ibs.__getitem__, pcs.__getitem__
            self.ds, self.pds, self.b_partners = cs, pcs, bs
            self.probes, self.pprobes = cs, pcs
            self.rows = byte_rows(pcs)
        else:
            self.apply, self.project = h.apply, h.project
            ibs, pcs = list(map(h.apply, bs)), list(map(h.project, cs))
            self.ds, self.pds, self.b_partners = cs[:16], pcs[:16], bs[:16]
            self.probes = C.atoms()
            self.pprobes = list(map(h.project, self.probes))
            atoms = list(zip(self.probes, self.pprobes))
            below = {c: [p for a, p in atoms if a & c] for c in self.ds}
            above = {a: [h.project(a | d) for d in self.ds] for a in self.probes}
            self.rows = None
        self.bs, self.ibs, self.cs, self.pcs = bs, ibs, cs, pcs
        self.below, self.above = below, above  # keyed by ds and probes

    def at(self, **elements: int | None) -> str:
        """``b={..} c={..}`` (b in B, c and d in C); "" when all are None."""
        return " ".join(
            f"{name}={format_element(self.h.source if name == 'b' else self.h.target, x)}"
            for name, x in elements.items()
            if x is not None
        )


def _draw(
    r: random.Random, source_atoms: int, target_atoms: int, exhaustive: bool, samples: int
):
    """The seeded draws of one audit, in the order it takes them from r:
    ``samples`` target then source elements unless both sides are
    enumerated (None, None), then the source and target families."""
    B, C = FiniteCBA(source_atoms), FiniteCBA(target_atoms)
    cs = bs = None
    if not (exhaustive and max(source_atoms, target_atoms) <= EXHAUSTIVE_MAX_ATOMS):
        cs = tuple(r.getrandbits(target_atoms) for _ in range(samples))
        bs = tuple(r.getrandbits(source_atoms) for _ in range(samples))
    if exhaustive and source_atoms <= 3:
        source_sets = _predense_families(source_atoms)
    else:
        source_sets = []
        for _ in range(min(samples, 50)):
            xs = {r.getrandbits(source_atoms) for _ in range(3)} | {B.one}
            source_sets.append(tuple(sorted(xs - {0})))
    target_sets = [(C.one,)]
    for _ in range(min(samples, 50)):
        xs = {r.getrandbits(target_atoms) for _ in range(4)}
        xs.add(C.neg(C.sup(xs)))  # force the join up to 1
        target_sets.append(tuple(sorted(xs - {0})))
    return cs, bs, tuple(source_sets), tuple(target_sets)


@functools.lru_cache(maxsize=256)
def _random_0_draws(source_atoms: int, target_atoms: int, exhaustive: bool, samples: int):
    """``_draw`` from a fresh ``Random(0)``, as every rng-less audit of one
    shape draws: computed once per shape."""
    return _draw(random.Random(0), source_atoms, target_atoms, exhaustive, samples)


@functools.cache
def _predense_families(atoms: int) -> tuple[tuple[int, ...], ...]:
    """Every predense family of nonzero elements: 2^(2^n - 1) sets to scan."""
    B = FiniteCBA(atoms)
    nonzero = range(1, B.one + 1)
    return tuple(
        D for n in nonzero for D in itertools.combinations(nonzero, n) if B.is_predense(D)
    )


# Each law maps the shared case lists to (holds, witness, cases in its
# source); a failing law stops at its first witness.  The packed rows only
# decide a pass: when they do not, the scan finds the first witness.


def _retract_section(k: _Cases):
    """pi(i(b)) = b."""
    bad = next((b for b, ib in zip(k.bs, k.ibs) if k.project(ib) != b), None)
    return bad is None, k.at(b=bad), len(k.bs)


def _expand_dominates(k: _Cases):
    """c <= i(pi(c))."""
    bad = next((c for c, pc in zip(k.cs, k.pcs) if c & ~k.apply(pc)), None)
    return bad is None, k.at(c=bad), len(k.cs)


def _positive_to_positive(k: _Cases):
    """c > 0 implies pi(c) > 0."""
    bad = next((c for c, pc in zip(k.cs, k.pcs) if c and not pc), None)
    return bad is None, k.at(c=bad), len(k.cs)


def _meet_translation(k: _Cases):
    """pi(c ∧ i(b)) = pi(c) ∧ b."""
    project, cs, pcs = k.project, k.cs, k.pcs
    cases = len(k.bs) * len(cs)
    walked = set()
    for b, ib in zip(k.bs, k.ibs):
        if b in walked:
            continue  # a b drawn again asks for the identical row
        walked.add(b)
        if k.rows is not None and k.rows.translates_meet(ib, b):
            continue
        if list(map(project, [c & ib for c in cs])) != [p & b for p in pcs]:
            c = next(c for c, p in zip(cs, pcs) if project(c & ib) != p & b)
            return False, k.at(b=b, c=c), cases
    return True, "", cases


def _meet_translation_join_form(k: _Cases):
    """pi(c) ∧ b is the join of the pi(e) <= b over the e <= c (over the
    atoms of c when sampled: O(atoms) per pair)."""
    for c, pc in zip(k.ds, k.pds):
        below = k.below[c]
        for b in k.b_partners:
            join = 0
            for p in below:
                if p & ~b == 0:
                    join |= p
            if join != pc & b:
                return False, k.at(b=b, c=c), len(k.ds) * len(k.b_partners)
    return True, "", len(k.ds) * len(k.b_partners)


def _join_preserving(k: _Cases):
    """pi(c ∨ d) = pi(c) ∨ pi(d)."""
    project, ds, pds = k.project, k.ds, k.pds
    cases = len(k.cs) * len(ds)
    if k.rows is not None and k.rows.preserves_joins():
        return True, "", cases
    for c, pc in zip(k.cs, k.pcs):
        for d, pd in zip(ds, pds):
            if project(c | d) != pc | pd:
                return False, k.at(c=c, d=d), cases
    return True, "", cases


def _sub_meet_inequality(k: _Cases):
    """pi(c ∧ d) <= pi(c) ∧ pi(d)."""
    project, ds, pds = k.project, k.ds, k.pds
    cases = len(k.cs) * len(ds)
    if k.rows is not None and k.rows.sub_meets():
        return True, "", cases
    for c, pc in zip(k.cs, k.pcs):
        for d, pd in zip(ds, pds):
            if project(c & d) & ~(pc & pd):
                return False, k.at(c=c, d=d), cases
    return True, "", cases


def _super_complement_inequality(k: _Cases):
    """-pi(c) <= pi(-c)."""
    B, C = k.h.source, k.h.target
    cs = zip(k.cs, k.pcs)
    bad = next((c for c, pc in cs if B.neg(pc) & ~k.project(C.neg(c))), None)
    return bad is None, k.at(c=bad), len(k.cs)


def _join_preserving_empty(k: _Cases):
    """pi(0) = 0."""
    ok = k.project(0) == 0
    return ok, "" if ok else k.at(c=0), 1


def _embedding_from_retraction(k: _Cases):
    """i(b) is the join of the elements (atoms suffice) projecting inside b."""
    probes = list(zip(k.probes, k.pprobes))
    for b, ib in zip(k.bs, k.ibs):
        glued = 0
        for e, pe in probes:
            if pe & ~b == 0:
                glued |= e
        if glued != ib:
            return False, k.at(b=b), len(k.bs)
    return True, "", len(k.bs)


def _meet_counterexample(k: _Cases):
    """Meet preservation fails exactly off the image; the witness is built."""
    h, C = k.h, k.h.target
    t0 = next(
        (t for t in range(C.atom_count) if h._atom_image[h.fiber[t]].bit_count() >= 2),
        None,
    )
    if t0 is None:
        return True, "surjective embedding: no meet counterexample exists", 1
    c = 1 << t0
    d = h.apply(h.project(c)) & C.neg(c)
    ok = d != 0 and h.project(d & c) == 0 and h.project(d) & h.project(c) != 0
    return ok, k.at(c=c, d=d), 1


def _predense_forward(k: _Cases):
    """i maps predense families to predense families."""
    C, B = k.h.target, k.h.source
    bad = next((D for D in k.source_sets if C.sup(map(k.apply, D)) != C.one), None)
    witness = "" if bad is None else f"D={{{','.join(format_element(B, x) for x in bad)}}}"
    return bad is None, witness, len(k.source_sets)


def _predense_backward(k: _Cases):
    """pi maps predense families to predense families."""
    B = k.h.source
    bad = next((E for E in k.target_sets if B.sup(map(k.project, E)) != B.one), None)
    return bad is None, "" if bad is None else f"|E|={len(bad)}", len(k.target_sets)


def _generic_preimage(k: _Cases):
    """The preimage of the generic at target atom t is the generic at fiber[t]:
    t lies in i(b) exactly when fiber[t] lies in b."""
    h = k.h
    pulled = [0] * h.source.atom_count  # target atoms over each source atom
    for t, s in enumerate(h.fiber):
        pulled[s] |= 1 << t
    for b, ib in zip(k.bs, k.ibs):
        expected = 0
        for s, mask in enumerate(pulled):
            if b >> s & 1:
                expected |= mask
        if ib != expected:
            t = ((ib ^ expected) & -(ib ^ expected)).bit_length() - 1
            return False, f"target atom {t}", len(k.bs) * h.target.atom_count
    return True, "", len(k.bs) * h.target.atom_count


def _stone_open_image(k: _Cases):
    """The dual map sends the basic open of c onto the basic open of pi(c):
    the atoms fiber[t] over the atoms t of c, gathered from the fiber map
    itself, are the atoms of pi(c)."""
    fiber, one = k.h.fiber, k.h.source.one

    def image(c: int) -> int:
        out = 0
        for t, s in enumerate(fiber):
            if c >> t & 1:
                out |= 1 << s
        return out

    bad = next(
        (c for c, pc in zip(k.probes, k.pprobes) if image(c) != pc & one), None
    )
    return bad is None, k.at(c=bad), len(k.probes)


def _filters_to_filters(k: _Cases):
    """pi maps the filter above c onto the filter above pi(c): each d >= c
    (each cover, when exhaustive) projects above pi(c), and each b >= pi(c)
    is pi(c ∨ i(b))."""
    probes = [(c, pc) for c, pc in zip(k.probes, k.pprobes) if c]
    cases = sum(len(k.above[c]) + len(k.b_partners) for c, _ in probes)
    for c, pc in probes:
        if any(p & pc != pc for p in k.above[c]):
            return False, k.at(c=c), cases
        for b in k.b_partners:
            b |= pc
            if k.project(c | k.apply(b)) != b:
                return False, k.at(b=b, c=c), cases
    return True, "", cases


def _generics_to_generics(k: _Cases):
    """pi sends each target atom to the source atom under it."""
    fiber = k.h.fiber
    bad = next((t for t, s in enumerate(fiber) if k.project(1 << t) != 1 << s), None)
    return bad is None, "" if bad is None else f"atom {bad}", len(fiber)


RETRACTION_LAWS = (
    ("retract_section", _retract_section),
    ("expand_dominates", _expand_dominates),
    ("positive_to_positive", _positive_to_positive),
    ("meet_translation", _meet_translation),
    ("meet_translation_join_form", _meet_translation_join_form),
    ("join_preserving", _join_preserving),
    ("sub_meet_inequality", _sub_meet_inequality),
    ("super_complement_inequality", _super_complement_inequality),
    ("join_preserving_empty", _join_preserving_empty),
    ("embedding_from_retraction", _embedding_from_retraction),
    ("meet_counterexample", _meet_counterexample),
    ("predense_forward", _predense_forward),
    ("predense_backward", _predense_backward),
    ("generic_preimage", _generic_preimage),
    ("stone_open_image", _stone_open_image),
    ("filters_to_filters", _filters_to_filters),
    ("generics_to_generics", _generics_to_generics),
)


def _check(ledger: Ledger, laws, k: _Cases, prefix: str = "") -> None:
    for name, law in laws:
        ok, witness, cases = law(k)
        ledger.record(prefix + name, ok, witness, cases)


def retraction_laws_audit(
    h: CompleteHom,
    exhaustive: bool = True,
    rng: random.Random | None = None,
    samples: int = 200,
) -> Ledger:
    """Audit the full retraction calculus on h, one claim per law of
    ``RETRACTION_LAWS``: every case up to ``EXHAUSTIVE_MAX_ATOMS`` atoms when
    ``exhaustive``, else ``samples`` seeded elements.

    Non-regular h: the generic-preimage law runs on h itself; every law runs
    on the restriction of h to its cokernel, under a ``coker.`` prefix.
    """
    ledger = Ledger()
    if h.regular:
        _check(ledger, RETRACTION_LAWS, _Cases(h, exhaustive, rng, samples))
        return ledger
    core, _ = restrict_to_coker(h)
    generic = (("generic_preimage", _generic_preimage),)
    _check(ledger, generic, _Cases(h, exhaustive, rng, samples))
    _check(ledger, RETRACTION_LAWS, _Cases(core, exhaustive, rng, samples), "coker.")
    return ledger


# -- raw element maps: the join-completeness / genericity equivalence -----------


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


def generic_preimage_equivalence(m: "ElementMap | CompleteHom") -> GenericPreimageReport:
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
