"""The workspace document: declarations plus audit requests, as JSON text.

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

from .bvm import BName, check_name, name_from_pairs
from .errors import (
    ForcebenchError,
    UnresolvedReference,
    ValidationError,
    WorkspaceSyntaxError,
)
from .finite_cba import FiniteCBA, parse_element
from .free_algebra import FreeAlgebra
from .hf import parse_hf
from .iteration import IterationSystem, build_system
from .morphisms import CompleteHom
from .poset import Poset
from .semigen import ModelTrace, OrdinalName
from .two_step import AtomwisePresentation

WORKSPACE_VERSION = 1

AUDIT_KINDS = (
    "complete",
    "retraction-laws",
    "bvm-audit",
    "twostep-iso",
    "iterate",
    "sg-audit",
    "gallery",
)


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
            raise ValidationError(name, f"expected a {kind}, found a {self.kinds[name]}")
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
    for decl in data.get("objects", []):
        _declare(doc, decl)
    for audit in data.get("audits", []):
        if not isinstance(audit, dict) or "audit" not in audit:
            raise ValidationError("audits", "each entry needs an 'audit' key")
        if audit["audit"] not in AUDIT_KINDS:
            raise ValidationError("audits", f"unknown audit {audit['audit']!r}")
        target = audit.get("target")
        if target is not None and not isinstance(target, str):
            raise ValidationError("audits", f"target {target!r} is not a string")
        if target is not None and target not in doc.objects:
            raise UnresolvedReference(target)
        for key in ("max_rank", "pool_cap", "depth"):
            value = audit.get(key, 0)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
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


def _build_algebra(doc: WorkspaceDoc, decl) -> FiniteCBA:
    atoms = decl["atoms"]
    if not isinstance(atoms, int) or isinstance(atoms, bool) or atoms < 0:
        raise ValidationError(decl["name"], "atoms must be a nonnegative integer")
    return FiniteCBA(atoms)


def _build_poset(doc: WorkspaceDoc, decl) -> Poset:
    elements = [str(e) for e in decl["elements"]]
    pairs = [(str(a), str(b)) for a, b in decl.get("order", [])]
    return Poset.from_pairs(elements, pairs)


def _build_hom(doc: WorkspaceDoc, decl) -> CompleteHom:
    source = doc.resolve(decl["source"], "algebra")
    target = doc.resolve(decl["target"], "algebra")
    return CompleteHom(source, target, tuple(decl["fiber"]))


def _build_free(doc: WorkspaceDoc, decl) -> FreeAlgebra:
    return FreeAlgebra(frozenset(str(g) for g in decl["generators"]))


def _build_name(doc: WorkspaceDoc, decl) -> BName:
    algebra = doc.resolve(decl["algebra"], "algebra")

    def sub_name(spec) -> BName:
        if isinstance(spec, dict) and "check" in spec:
            return check_name(algebra, parse_hf(spec["check"]))
        if isinstance(spec, dict) and "ref" in spec:
            return doc.resolve(spec["ref"], "name")
        if isinstance(spec, dict) and "entries" in spec:
            return build(spec["entries"])
        raise ValidationError(decl["name"], f"bad subname {spec!r}")

    def build(entries) -> BName:
        pairs = []
        for sub, label in entries:
            pairs.append((sub_name(sub), parse_element(algebra, label)))
        return name_from_pairs(algebra, pairs)

    return build(decl.get("entries", []))


def _build_presentation(doc: WorkspaceDoc, decl) -> AtomwisePresentation:
    base = doc.resolve(decl["base"], "algebra")
    fibers = tuple(doc.resolve(f, "algebra") for f in decl["fibers"])
    return AtomwisePresentation(base, fibers)


def _build_system(doc: WorkspaceDoc, decl) -> IterationSystem:
    algebras = [doc.resolve(a, "algebra") for a in decl["algebras"]]
    steps = [doc.resolve(s, "hom") for s in decl["steps"]]
    return build_system(algebras, steps)


def _build_trace(doc: WorkspaceDoc, decl) -> ModelTrace:
    algebra = doc.resolve(decl["algebra"], "algebra")

    def elems(seq):
        return tuple(parse_element(algebra, x) for x in seq)

    names = []
    for n in decl.get("ordinal_names", []):
        names.append(
            OrdinalName(algebra, elems(n["antichain"]), tuple(n["labels"]))
        )
    return ModelTrace(
        algebra,
        frozenset(elems(decl.get("carrier", []))),
        designated_predense=tuple(elems(d) for d in decl.get("predense", [])),
        designated_antichains=tuple(elems(a) for a in decl.get("antichains", [])),
        kappa=decl.get("kappa", 1),
        delta=frozenset(decl.get("delta", [0])),
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
