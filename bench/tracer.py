"""Per-layer tracing, installed from outside the program.

A layer is one forcebench module.  The tracer replaces a function with a
timing wrapper on every binding it has: the home module, every module that
imported it by name, and the class for methods and properties.  A missed
binding would make a layer look free, so ``hot_misses`` reports every
function a sweep must exercise that recorded no call.

Two kinds of record are kept, both in memory until the run ends:

- aggregates for every wrapped function: calls, inclusive time (outermost
  activation only, so recursion is not counted twice) and self time
  (inclusive time minus the time of wrapped callees);
- spans for the coarse audit entry points only: name, start, end and the
  id of the enclosing span.  Kernel functions see millions of calls, so
  they get aggregates and no spans.
"""
from __future__ import annotations

import importlib
import itertools
import sys
import time

# metric key -> (module, attribute path) of each function it covers
KERNELS = {
    "finite_cba.one": [("finite_cba", "FiniteCBA.one")],
    "finite_cba.restriction": [
        ("finite_cba", "Restriction.__post_init__"),
        ("finite_cba", "Restriction.to_sub"),
        ("finite_cba", "Restriction.from_sub"),
    ],
    "finite_cba.lattice": [
        ("finite_cba", "FiniteCBA.sup"),
        ("finite_cba", "FiniteCBA.inf"),
        ("finite_cba", "FiniteCBA.neg"),
    ],
    "morphisms.apply": [("morphisms", "CompleteHom.apply")],
    "morphisms.hom_new": [("morphisms", "CompleteHom.__post_init__")],
    "two_step.class_of": [("two_step", "GenericQuotient.class_of")],
    "two_step.family": [
        ("two_step", "TwoStepAlgebra.element_from_family"),
        ("two_step", "TwoStepAlgebra.family_of"),
    ],
    "bvm.truth_value": [("bvm", "truth_value")],
    "bvm.hf_satisfies": [("bvm", "hf_satisfies")],
    "free_algebra.and": [("free_algebra", "FreeElement.__and__")],
    "free_algebra.or": [("free_algebra", "FreeElement.__or__")],
    "free_algebra.not": [("free_algebra", "FreeElement.__invert__")],
    "free_algebra.generator": [("free_algebra", "generator")],
    "free_algebra.all_meet": [("free_algebra", "all_meet")],
    "free_algebra.leq": [("free_algebra", "FreeElement.leq")],
    "free_algebra.project": [("free_algebra", "free_project")],
    "iteration.coordinate": [("iteration", "coordinate")],
    "iteration.hom": [("iteration", "IterationSystem.hom")],
}

# audit entry points: aggregates and a span per call
ENTRY_POINTS = {
    "morphisms.retraction_laws_audit": [("morphisms", "retraction_laws_audit")],
    "two_step.two_step_iso_audit": [("two_step", "two_step_iso_audit")],
    "two_step.build_two_step": [("two_step", "build_two_step")],
    "two_step.quotient_hom": [("two_step", "quotient_hom")],
    "poset.boolean_completion": [("poset", "boolean_completion")],
    "poset.completion_audit": [("poset", "Completion.audit")],
    "semigen.audits": [
        ("semigen", "disjointify_sg_audit"),
        ("semigen", "restriction_audit"),
        ("semigen", "semigeneric_sup_audit"),
    ],
    "bvm.forcing_audit": [("bvm", "forcing_audit")],
    "bvm.standard_name_pool": [("bvm", "standard_name_pool")],
    "free_algebra.chain_vanishing": [("free_algebra", "chain_vanishing")],
    "iteration.thread_validate": [("iteration", "thread_validate")],
    "iteration.build_lazy_system": [("iteration", "build_lazy_system")],
    "gallery.build_fresh_tower": [("gallery", "build_fresh_tower")],
    "gallery.sup_gap_audit": [("gallery", "sup_gap_audit")],
    "gallery.wedge_meet_audit": [("gallery", "wedge_meet_audit")],
    "workspace.parse_workspace": [("workspace", "parse_workspace")],
    "cli.execute": [("cli", "execute")],
    "report.emit_report": [("report", "emit_report")],
}

# CompleteHom.project is split by the path it takes: bit loop up to 16
# target atoms, byte table above
PROJECT_WIDE_ATOMS = 16

# module tables whose size is read after the run
MEMO_TABLES = {
    "bvm.atomic_memo": ("bvm", "_ATOMIC_MEMO"),
    "bvm.eval_memo": ("bvm", "_EVAL_MEMO"),
    "free_algebra.unique": ("free_algebra", "_UNIQUE"),
    "free_algebra.apply_memo": ("free_algebra", "_APPLY_MEMO"),
    "free_algebra.quant_memo": ("free_algebra", "_QUANT_MEMO"),
}

# per sweep: the keys whose layer should move that sweep's wall time; each
# must record calls there
HOT = {
    "finite-narrow": (
        "finite_cba.one",
        "finite_cba.restriction",
        "morphisms.apply",
        "morphisms.project_narrow",
        "morphisms.hom_new",
        "morphisms.retraction_laws_audit",
        "two_step.two_step_iso_audit",
        "two_step.class_of",
        "two_step.family",
        "two_step.build_two_step",
        "two_step.quotient_hom",
        "poset.boolean_completion",
        "poset.completion_audit",
        "semigen.audits",
    ),
    "finite-wide": (
        "finite_cba.restriction",
        "morphisms.apply",
        "morphisms.project_wide",
        "morphisms.retraction_laws_audit",
        "workspace.parse_workspace",
        "cli.execute",
        "report.emit_report",
    ),
    "forcing-oracle": (
        "finite_cba.lattice",
        "bvm.truth_value",
        "bvm.forcing_audit",
        "bvm.standard_name_pool",
        "bvm.hf_satisfies",
    ),
    "fresh-tower": (
        "free_algebra.and",
        "free_algebra.or",
        "free_algebra.not",
        "free_algebra.generator",
        "free_algebra.all_meet",
        "free_algebra.leq",
        "free_algebra.project",
        "free_algebra.chain_vanishing",
        "iteration.coordinate",
        "iteration.hom",
        "iteration.thread_validate",
        "iteration.build_lazy_system",
        "gallery.build_fresh_tower",
        "gallery.sup_gap_audit",
        "gallery.wedge_meet_audit",
    ),
}

class Tracer:
    def __init__(self) -> None:
        # key -> [calls, total_s, self_s, active activations]
        self.stats: dict[str, list] = {}
        self.spans: list[tuple[int, str, int | None, float, float]] = []
        self._stack: list[list[float]] = []  # per active call: [callee time]
        self._span_stack: list[int] = []
        self._span_ids = itertools.count()
        self._clock = time.perf_counter

    def wrap(self, key: str, fn, span: bool = False):
        stats = self.stats.setdefault(key, [0, 0.0, 0.0, 0])
        stack, clock = self._stack, self._clock
        spans, span_stack, span_ids = self.spans, self._span_stack, self._span_ids

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            stats[3] += 1
            if span:
                span_id = next(span_ids)
                parent = span_stack[-1] if span_stack else None
                span_stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                if span:
                    span_stack.pop()
                    spans.append((span_id, key, parent, start, end))
                stack.pop()
                stats[3] -= 1
                stats[0] += 1
                stats[2] += elapsed - frame[0]
                if not stats[3]:
                    stats[1] += elapsed
                if stack:
                    stack[-1][0] += elapsed

        return traced

    def install(self) -> None:
        """Wrap every listed function on every binding it has."""
        for table, span in ((KERNELS, False), (ENTRY_POINTS, True)):
            for key, targets in table.items():
                for module, path in targets:
                    _rebind(module, path, lambda fn, k=key, s=span: self.wrap(k, fn, s))

        def split(fn):
            by_path = (
                self.wrap("morphisms.project_narrow", fn),
                self.wrap("morphisms.project_wide", fn),
            )

            def project(hom, c):
                return by_path[hom.target.atom_count > PROJECT_WIDE_ATOMS](hom, c)

            return project

        _rebind("morphisms", "CompleteHom.project", split)

    def hot_misses(self, sweep: str) -> list[str]:
        return [key for key in HOT[sweep] if not self.stats[key][0]]


def _module(name: str):
    return importlib.import_module(f"forcebench.{name}")


def _rebind(module: str, path: str, make_wrapper) -> None:
    """Replace the function at ``module.path`` on every binding it has."""
    owner = _module(module)
    *classes, attr = path.split(".")
    for cls_name in classes:
        owner = getattr(owner, cls_name)
    if classes:
        raw = owner.__dict__[attr]
        if isinstance(raw, property):
            setattr(owner, attr, property(make_wrapper(raw.fget)))
        else:
            setattr(owner, attr, make_wrapper(raw))
        return
    original = getattr(owner, attr)
    wrapper = make_wrapper(original)
    for name, mod in list(sys.modules.items()):
        if name == "forcebench" or name.startswith("forcebench."):
            for binding, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, binding, wrapper)


def layer_value(name: str, stats: dict, memo_start: dict, memo_end: dict):
    """A per-layer metric from a traced run's aggregates and memo sizes.

    ``KEY.calls``, ``KEY.total_s`` and ``KEY.self_s`` read the aggregates,
    ``KEY.entries`` the size of a memo table at the end of the run.
    ``free_algebra.quant_memo.new_per_project`` is the growth of the
    existential-projection memo per ``free_project`` call: 1 or more means
    no projection was ever answered from the memo.
    """
    if name == "free_algebra.quant_memo.new_per_project":
        projects = stats.get("free_algebra.project", (0,))[0]
        growth = memo_end["free_algebra.quant_memo"] - memo_start["free_algebra.quant_memo"]
        return growth / projects if projects else 0.0
    key, _, kind = name.rpartition(".")
    if kind == "entries":
        return memo_end[key]
    return stats.get(key, (0, 0.0, 0.0))[("calls", "total_s", "self_s").index(kind)]


def memo_sizes() -> dict[str, int]:
    return {key: len(getattr(_module(m), attr)) for key, (m, attr) in MEMO_TABLES.items()}
