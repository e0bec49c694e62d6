"""The workspace document: declarations plus audit requests, as JSON text,
and ``AUDITS``, the table of what each audit request targets and runs.

Version 1 schema (see workspaces/schema.md in the repository):

    {"version": 1,
     "objects": [
        {"kind": "algebra", "name": "B", "atoms": 2},
        {"kind": "poset", "name": "P", "elements": [...], "order": [[a, b], ...]},
        {"kind": "hom", "name": "i", "source": "B", "target": "C", "fiber": [...]},
        {"kind": "free", "name": "F", "generators": [...]},
        {"kind": "name", "name": "d", "algebra": "B", "entries": [[SUB, "{0}"], ...]},
        {"kind": "presentation", "name": "pr", "base": "B", "fibers": ["C0", ...]},
        {"kind": "system", "name": "sys", "algebras": [...], "steps": [...]},
        {"kind": "trace", "name": "M", "algebra": "B", "carrier": ["{0}", ...], ...}],
     "audits": [{"audit": "retraction-laws", "target": "i"}, ...]}

Name entries: SUB is {"check": nested-list}, {"ref": "earlier-name"}, or an
inline {"entries": [...]}.  Duplicate subnames are joined (relation-form
input is accepted and collapsed).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

from .bvm import (
    BName, check_name, forcing_audit, name_from_pairs, standard_formula_pool, standard_name_pool,
    standard_pool_size,
)
from .errors import (
    CoherenceFailure, ForcebenchError, UnresolvedReference, ValidationError, WorkspaceSyntaxError,
)
from .finite_cba import FiniteCBA, Ultrafilter, parse_element
from .free_algebra import FreeAlgebra
from .gallery import build_fresh_tower, sup_gap_audit, wedge_meet_audit
from .hf import parse_hf
from .iteration import (
    ConstantThread, IterationSystem, VectorThread, antichain_sup_audit, build_system,
    cofinal_reindex_audit, coordinate, direct_limit_correspondence_audit, omega_length_oracle,
    quotient_system, quotient_thread_representative, rcs_membership, thread_validate,
)
from .morphisms import EXHAUSTIVE_MAX_ATOMS, CompleteHom, enumerable, retraction_laws_audit
from .poset import Poset, boolean_completion
from .report import Ledger
from .semigen import (
    ModelTrace, OrdinalName, disjointify_sg_audit, restriction_audit, semigeneric_sup_audit,
)
from .two_step import AtomwisePresentation, two_step_iso_audit

WORKSPACE_VERSION = 1


@dataclass
class WorkspaceDoc:
    version: int
    objects: dict[str, object] = field(default_factory=dict)
    kinds: dict[str, str] = field(default_factory=dict)
    order: list[str] = field(default_factory=list)
    audits: list[dict] = field(default_factory=list)

    def resolve(self, name: str, kind: str | None = None):
        if name not in self.objects:
            raise UnresolvedReference(name)
        if kind is not None and self.kinds[name] != kind:
            raise ValidationError(name, f"expected {_a(kind)}, found {_a(self.kinds[name])}")
        return self.objects[name]

    def of_kind(self, kind: str) -> list[tuple[str, object]]:
        return [(n, self.objects[n]) for n in self.order if self.kinds[n] == kind]


def parse_workspace(text: str) -> WorkspaceDoc:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise WorkspaceSyntaxError(e.msg, e.lineno, e.colno) from None
    if not isinstance(data, dict):
        raise WorkspaceSyntaxError("workspace must be a JSON object", 1, 1)
    version = data.get("version")
    if version != WORKSPACE_VERSION:
        raise ValidationError("workspace", f"unsupported version {version!r}")
    doc = WorkspaceDoc(version)
    for decl in _list(data, "objects", [], "workspace"):
        _declare(doc, decl)
    for audit in _list(data, "audits", [], "workspace"):
        if not isinstance(audit, dict) or "audit" not in audit:
            raise ValidationError("audits", "each entry needs an 'audit' key")
        spec = AUDITS.get(audit["audit"]) if isinstance(audit["audit"], str) else None
        if spec is None:
            raise ValidationError("audits", f"unknown audit {audit['audit']!r}")
        target = audit.get("target")
        if target is None and spec.kind is not None:
            raise ValidationError("audits", f"{audit['audit']} needs a target {spec.kind}")
        if target is not None and not isinstance(target, str):
            raise ValidationError("audits", f"target {target!r} is not a string")
        if target is not None:
            doc.resolve(target, spec.kind)
        # a request's value for any audit's option is checked, read or not
        for key in (k for other in AUDITS.values() for k in other.options):
            if not _is_natural(audit.get(key, 0)):
                raise ValidationError("audits", f"{key} must be a nonnegative integer")
        doc.audits.append(dict(audit))
    return doc


def _declare(doc: WorkspaceDoc, decl) -> None:
    if not isinstance(decl, dict) or "kind" not in decl or "name" not in decl:
        raise ValidationError("objects", "each declaration needs 'kind' and 'name'")
    kind, name = decl["kind"], decl["name"]
    if not isinstance(name, str):
        raise ValidationError("objects", f"name {name!r} is not a string")
    if name in doc.objects:
        raise ValidationError(name, "declared twice")
    builder = _BUILDERS.get(kind) if isinstance(kind, str) else None
    if builder is None:
        raise ValidationError(name, f"unknown kind {kind!r}")
    try:
        obj = builder(doc, decl)
    except KeyError as e:
        raise ValidationError(name, f"missing field {e.args[0]!r}") from None
    except (UnresolvedReference, ValidationError):
        raise
    except (ForcebenchError, ValueError, TypeError) as e:
        raise ValidationError(name, str(e)) from None
    doc.objects[name] = obj
    doc.kinds[name] = kind
    doc.order.append(name)


def _a(kind: str) -> str:
    return ("an " if kind[0] in "aeiou" else "a ") + kind


def _is_natural(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


_NATURALS = (_is_natural, "items must be nonnegative integers")


def _natural(decl, key: str, default=None) -> int:
    value = decl[key] if default is None else decl.get(key, default)
    if not _is_natural(value):
        raise ValidationError(decl["name"], f"{key} must be a nonnegative integer")
    return value


def _is_pair(value) -> bool:
    return isinstance(value, list) and len(value) == 2


def _list(decl, key: str, default=None, owner: str | None = None, item=None) -> list:
    """``decl[key]``, or ``default`` when absent, which must be a JSON list
    and, given ``item = (test, shape)``, have items that pass ``test``; a
    failure names ``owner`` (the declaration by default) and the field."""
    value = decl[key] if default is None else decl.get(key, default)
    if not isinstance(value, list):
        raise ValidationError(owner or decl["name"], f"{key} must be a list, not {value!r}")
    if item is not None and not all(map(item[0], value)):
        raise ValidationError(owner or decl["name"], f"{key} {item[1]}")
    return value


def _ref(doc: WorkspaceDoc, decl, key: str, kind: str):
    if not isinstance(decl[key], str):
        raise ValidationError(decl["name"], f"{key} must name a declared {kind}, not {decl[key]!r}")
    return doc.resolve(decl[key], kind)


def _build_algebra(doc: WorkspaceDoc, decl) -> FiniteCBA:
    return FiniteCBA(_natural(decl, "atoms"))


def _build_poset(doc: WorkspaceDoc, decl) -> Poset:
    elements = [str(e) for e in _list(decl, "elements")]
    pairs = _list(decl, "order", [], item=(_is_pair, "entries must be [below, above] pairs"))
    return Poset.from_pairs(elements, [(str(a), str(b)) for a, b in pairs])


def _build_hom(doc: WorkspaceDoc, decl) -> CompleteHom:
    source = _ref(doc, decl, "source", "algebra")
    target = _ref(doc, decl, "target", "algebra")
    return CompleteHom(source, target, tuple(_list(decl, "fiber", item=_NATURALS)))


def _build_free(doc: WorkspaceDoc, decl) -> FreeAlgebra:
    return FreeAlgebra(frozenset(str(g) for g in _list(decl, "generators")))


def _build_name(doc: WorkspaceDoc, decl) -> BName:
    algebra = _ref(doc, decl, "algebra", "algebra")
    shape = (_is_pair, "must hold [SUB, element] pairs")

    def sub_name(spec) -> BName:
        if isinstance(spec, dict) and "check" in spec:
            return check_name(algebra, parse_hf(spec["check"]))
        if isinstance(spec, dict) and "ref" in spec:
            return doc.resolve(spec["ref"], "name")
        if isinstance(spec, dict) and "entries" in spec:
            return build(_list(spec, "entries", owner=decl["name"], item=shape))
        raise ValidationError(decl["name"], f"bad subname {spec!r}")

    def build(entries) -> BName:
        pairs = [(sub_name(sub), parse_element(algebra, label)) for sub, label in entries]
        return name_from_pairs(algebra, pairs)

    return build(_list(decl, "entries", [], item=shape))


def _build_presentation(doc: WorkspaceDoc, decl) -> AtomwisePresentation:
    base = _ref(doc, decl, "base", "algebra")
    fibers = tuple(doc.resolve(f, "algebra") for f in _list(decl, "fibers"))
    return AtomwisePresentation(base, fibers)


def _build_system(doc: WorkspaceDoc, decl) -> IterationSystem:
    algebras = [doc.resolve(a, "algebra") for a in _list(decl, "algebras")]
    steps = [doc.resolve(s, "hom") for s in _list(decl, "steps")]
    return build_system(algebras, steps)


def _build_trace(doc: WorkspaceDoc, decl) -> ModelTrace:
    algebra = _ref(doc, decl, "algebra", "algebra")

    def elems(seq):
        return tuple(parse_element(algebra, x) for x in seq)

    delta = _list(decl, "delta", [0], item=_NATURALS)
    lists = (lambda x: isinstance(x, list), "items must be lists of elements")
    dicts = (lambda x: isinstance(x, dict), "items must be {antichain, labels} objects")
    names = [
        OrdinalName(
            algebra, elems(_list(n, "antichain", owner=decl["name"])),
            tuple(_list(n, "labels", owner=decl["name"], item=_NATURALS)),
        )
        for n in _list(decl, "ordinal_names", [], item=dicts)
    ]
    return ModelTrace(
        algebra,
        frozenset(elems(_list(decl, "carrier", []))),
        designated_predense=tuple(map(elems, _list(decl, "predense", [], item=lists))),
        designated_antichains=tuple(map(elems, _list(decl, "antichains", [], item=lists))),
        kappa=_natural(decl, "kappa", 1),
        delta=frozenset(delta),
        ordinal_names=tuple(names),
    )


_BUILDERS = {
    "algebra": _build_algebra,
    "poset": _build_poset,
    "hom": _build_hom,
    "free": _build_free,
    "name": _build_name,
    "presentation": _build_presentation,
    "system": _build_system,
    "trace": _build_trace,
}


# the most names a bvm-audit builds before pool_cap trims them (about 5 s)
POOL_BUDGET = 50_000
# the most target atoms a twostep-iso presents (about 3 s; each doubling costs ~12x)
ISO_BUDGET = 512
# the most last-stage atoms an iterate audits (about 0.5 s; 13 take about 1.5 s)
ITERATE_BUDGET = 12
# the most poset elements a complete audits (0.8-1.1 s; the cost grows with their square)
COMPLETE_BUDGET = 6_000


@dataclass(frozen=True)
class AuditSpec:
    """An audit: the kind of its ``target`` (None: it takes none), its
    natural-number options, ``run(target, request, rng, depth)`` yielding
    ``(name, target, ledger, details)`` per result, and ``size(target,
    request)`` in ``unit``, checked against ``budget`` before it runs."""

    kind: str | None
    run: Callable
    options: tuple[str, ...] = ()
    size: Callable | None = None
    unit: str = ""
    budget: int = 0


def _complete(poset, request, rng, depth):
    completion = boolean_completion(poset)
    ledger = Ledger()
    for check, ok in completion.audit().items():
        ledger.record(check, ok, cases=len(poset.elements))
    yield request["audit"], request["target"], ledger, {"atoms": completion.algebra.atom_count}


def _retraction_laws(hom, request, rng, depth):
    exhaustive = enumerable(hom)
    ledger = retraction_laws_audit(hom, exhaustive=exhaustive, rng=rng)
    details = {"laws": len(ledger.claims), "exhaustive": exhaustive}
    yield request["audit"], request["target"], ledger, details


def _bvm(algebra, request, rng, depth):
    pool = standard_name_pool(algebra, request.get("max_rank", 2))[: request.get("pool_cap", 32)]
    ledger = forcing_audit(algebra, pool, standard_formula_pool())
    yield request["audit"], request["target"], ledger, {"cases": ledger.cases, "pool": len(pool)}


def _twostep_iso(hom, request, rng, depth):
    ledger = two_step_iso_audit(hom, rng)
    yield request["audit"], request["target"], ledger, {"sum_atoms": ledger.two.algebra.atom_count}


def _iterate(system, request, rng, depth):
    ledger = direct_limit_correspondence_audit(system)
    oracle = omega_length_oracle()
    last = system.length - 1
    alg = system.algebra(last)
    for e in alg.nonzero_elements():
        t = ConstantThread(last, e)
        try:
            thread_validate(system, t)
        except CoherenceFailure as err:
            ok, why = False, "not coherent at ({},{})".format(*err.stages)
        else:
            v = rcs_membership(system, t, oracle)
            ok, why = v.member is True, v.reason
        ledger.record("constants_in_rcs", ok, "" if ok else f"constant {e}: {why}")
    atoms = [ConstantThread(last, x) for x in alg.atoms()]
    if atoms:
        ledger.absorb(antichain_sup_audit(system, atoms, last, last, candidates="search"))
    probe = alg.elements() if alg.atom_count <= EXHAUSTIVE_MAX_ATOMS else alg.atoms()
    constants = [
        tuple(coordinate(system, ConstantThread(last, e), n) for n in system.stages())
        for e in probe
    ]
    for gamma in range(last):  # a one-stage system has no tail to quotient
        ledger.absorb(_quotient_tails(system, gamma, constants))
    for k in system.stages():
        ledger.absorb(cofinal_reindex_audit(system, tuple(sorted({k, last}))))
    details = {"length": system.length, "elements": alg.one}
    yield request["audit"], request["target"], ledger, details


def _quotient_tails(system, gamma, constants) -> Ledger:
    """Two claims at stage gamma: the tail's quotient at each atom is an
    iteration system (a case per atom), and each given constant thread is
    glued back from its per-atom quotient classes (a case per thread)."""
    ledger = Ledger()
    base = system.algebra(gamma)
    tails = []
    for a in range(base.atom_count):
        try:
            tails.append(quotient_system(system, gamma, Ultrafilter(base, a)))
        except ForcebenchError as e:
            ledger.record("quotient_tail_is_a_system", False, f"stage {gamma}, atom {a}: {e}")
            return ledger
        ledger.record("quotient_tail_is_a_system", True)
    for parent in constants if tails else ():  # no atom, nothing to glue
        tail = parent[gamma + 1 :]
        families = tuple(
            VectorThread(tuple(q.class_of(c) for q, c in zip(t.quotients, tail))) for t in tails
        )
        try:
            glued = quotient_thread_representative(tuple(tails), families).coords
            why = "" if glued == parent else f"glued {glued}, not {parent}"
        except ForcebenchError as e:
            why = str(e)
        witness = why and f"stage {gamma}, constant {parent[-1]}: {why}"
        ledger.record("quotient_classes_glue", not why, witness)
    return ledger


def _sg(trace, request, rng, depth):
    dis = disjointify_sg_audit(trace)
    sup = semigeneric_sup_audit(trace)
    ledger = Ledger()
    for part in [dis, sup] + [restriction_audit(trace, b) for b in sorted(trace.carrier) if b]:
        ledger.absorb(part)
    ledger.record("restriction_law", True, cases=0)  # shown even with nothing to restrict
    details = {"closure_ok": dis.closure_ok, "names_audited": sup.names_audited}
    yield request["audit"], request["target"], ledger, details


def _gallery(_, request, rng, depth):
    d = max(request.get("depth", depth), 3)
    tower = build_fresh_tower(d)
    for fn, label in ((sup_gap_audit, "gallery.sup-gap"), (wedge_meet_audit, "gallery.wedge-meet")):
        ledger = fn(d, tower)
        details = {"claims": {k: v.passed for k, v in ledger.claims.items()}}
        yield label, f"fresh-tower depth {d}", ledger, details


# in the order verify-all runs the defaults of a document with no audit list
AUDITS = {
    "complete": AuditSpec("poset", _complete, (), lambda p, r: len(p.elements),
                          "poset elements", COMPLETE_BUDGET),
    "retraction-laws": AuditSpec("hom", _retraction_laws),
    "bvm-audit": AuditSpec(
        "algebra", _bvm, ("max_rank", "pool_cap"),
        lambda a, r: standard_pool_size(a.atom_count, r.get("max_rank", 2)),
        "names in the standard pool", POOL_BUDGET,
    ),
    "twostep-iso": AuditSpec(
        "hom", _twostep_iso, (), lambda h, r: h.target.atom_count, "target atoms", ISO_BUDGET
    ),
    "iterate": AuditSpec("system", _iterate, (), lambda s, r: s.algebra(s.length - 1).atom_count,
                         "last-stage atoms", ITERATE_BUDGET),
    "sg-audit": AuditSpec("trace", _sg),
    "gallery": AuditSpec(None, _gallery, ("depth",)),
}
