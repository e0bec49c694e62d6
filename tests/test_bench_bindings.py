"""Every name the traced benchmark rebinds still exists in the form it expects.

``bench/tracer.py`` wraps functions by ``(module, attribute path)``; a class
attribute must sit in the class ``__dict__`` as a function or a property.
The tracer and workload sources are executed into fresh namespaces, so
nothing under ``bench/`` is imported as a package or written to.
"""
import importlib
import json
import pathlib
import random
import sys
import types

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def _bench_namespace(file: str):
    path = BENCH / file
    namespace = {"__name__": f"bench_{path.stem}"}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    return namespace


def _tracer_namespace():
    return _bench_namespace("tracer.py")


def _tracer_targets():
    namespace = _tracer_namespace()
    targets = [
        target
        for table in (namespace["KERNELS"], namespace["ENTRY_POINTS"])
        for group in table.values()
        for target in group
    ]
    # rebound by hand to split narrow and wide projections
    return targets + [("morphisms", "CompleteHom.project")]


TARGETS = _tracer_targets()


@pytest.mark.parametrize("module, path", TARGETS, ids=[f"{m}:{p}" for m, p in TARGETS])
def test_tracer_binding_resolves(module, path):
    owner = importlib.import_module(f"forcebench.{module}")
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    if classes:
        assert isinstance(owner.__dict__.get(attr), (types.FunctionType, property)), path
    else:
        assert isinstance(getattr(owner, attr, None), types.FunctionType), path


def test_tracer_memo_tables_are_registered_tables():
    # the tracer reads each MEMO_TABLES entry with len() only after a traced
    # run; a renamed table would show up there as a crash
    from forcebench import tables

    registered = set(tables.COMPUTED + tables.INTERNING)
    for key, (module, attribute) in _tracer_namespace()["MEMO_TABLES"].items():
        owner = importlib.import_module(f"forcebench.{module}")
        assert hasattr(owner, attribute), key
        assert (module, attribute) in registered, key


def test_tower_projections_go_through_the_traced_binding(monkeypatch):
    # the tracer times tower projections as free_algebra.project by
    # rebinding morphisms.free_project; a step that bypassed that name would
    # leave the fresh-tower hot layer empty
    from forcebench import gallery, morphisms

    project, free_project = morphisms.FreeInclusion.project, morphisms.free_project
    projected, traced = [], []

    def counted_project(self, e):
        projected.append(e)
        return project(self, e)

    def counted_free_project(e, *args):
        traced.append(e)
        return free_project(e, *args)

    monkeypatch.setattr(morphisms.FreeInclusion, "project", counted_project)
    monkeypatch.setattr(morphisms, "free_project", counted_free_project)
    gallery.build_fresh_tower(4)
    assert len(projected) >= 2 * 4
    assert traced == projected


def _count_hot_calls(monkeypatch, sweep):
    """Wrap every function of the sweep's hot keys on every binding it has,
    as the tracer does; returns attribute path -> calls.  The split
    ``CompleteHom.project`` keys are left to ``_traced_project``."""
    namespace = _tracer_namespace()
    tables = {**namespace["KERNELS"], **namespace["ENTRY_POINTS"]}
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "forcebench"]
    calls = {}
    for key in namespace["HOT"][sweep]:
        for module, path in tables.get(key, ()):
            owner = importlib.import_module(f"forcebench.{module}")
            *classes, attr = path.split(".")
            for name in classes:
                owner = getattr(owner, name)
            real = owner.__dict__[attr] if classes else getattr(owner, attr)
            calls[path] = 0

            def counted(*args, _real=getattr(real, "fget", real), _path=path, **kwargs):
                calls[_path] += 1
                return _real(*args, **kwargs)

            if classes:
                wrapped = property(counted) if isinstance(real, property) else counted
                monkeypatch.setattr(owner, attr, wrapped)
            for mod in () if classes else modules:
                for binding, value in list(vars(mod).items()):
                    if value is real:
                        monkeypatch.setattr(mod, binding, counted)
    return calls


def test_every_forcing_oracle_hot_target_records_calls(monkeypatch):
    # a traced forcing-oracle run fails on any hot key whose functions saw
    # no call; a compiled route that inlined the lattice operations or
    # bypassed truth_value/hf_satisfies would do that
    from forcebench import bvm
    from forcebench.finite_cba import FiniteCBA

    calls = _count_hot_calls(monkeypatch, "forcing-oracle")
    # the cold memo tables of a fresh benchmark worker
    monkeypatch.setattr(bvm, "_ATOMIC_MEMO", {})
    monkeypatch.setattr(bvm, "_EVAL_MEMO", {})
    b2 = FiniteCBA(2)
    pool = bvm.standard_name_pool(b2, max_rank=2)[:7]
    assert bvm.forcing_audit(b2, pool, bvm.standard_formula_pool()).passed
    assert {"FiniteCBA.sup", "FiniteCBA.inf", "FiniteCBA.neg", "truth_value"} <= set(calls)
    assert all(calls.values()), calls


def test_every_fresh_tower_hot_target_records_calls(monkeypatch):
    # a traced fresh-tower run fails the same way; a diagram node class that
    # overrode the element operations, or a kernel that called the node
    # functions around them, would do that.  Every hot target is called
    # whether the decision-diagram memo tables are warm or cold.
    from forcebench import gallery

    calls = _count_hot_calls(monkeypatch, "fresh-tower")
    tower = gallery.build_fresh_tower(4)
    assert gallery.sup_gap_audit(4, tower).passed
    assert gallery.wedge_meet_audit(4, tower).passed
    assert {"FreeElement.__and__", "FreeElement.leq", "free_project", "generator"} <= set(calls)
    assert all(calls.values()), calls


def _traced_project(monkeypatch):
    """The tracer's own class-level rebinding of ``CompleteHom.project``,
    split into narrow and wide keys, undone after the test; returns the
    tracer, whose stats count the calls."""
    from forcebench.morphisms import CompleteHom

    namespace, original = _tracer_namespace(), CompleteHom.__dict__["project"]
    monkeypatch.setattr(CompleteHom, "project", original)
    # install() with no other table rebinds CompleteHom.project alone
    monkeypatch.setitem(namespace, "KERNELS", {})
    monkeypatch.setitem(namespace, "ENTRY_POINTS", {})
    tracer = namespace["Tracer"]()
    tracer.install()
    assert CompleteHom.__dict__["project"] is not original  # the split wrapper
    return tracer


def test_traced_project_keeps_the_packed_route_for_plain_homs_only(monkeypatch):
    # the sampled laws read pi from its byte tables only when pi is
    # CompleteHom's own; under the tracer's rebinding that still holds, so a
    # traced run takes the route an untraced one takes, and an override of
    # project is still audited call by call
    import random

    from forcebench.finite_cba import FiniteCBA
    from forcebench.morphisms import CompleteHom, _Cases, _join_preserving

    tracer = _traced_project(monkeypatch)

    class CallByCall(CompleteHom):
        def project(self, c):
            return super().project(c)

    fiber = tuple(x % 3 for x in range(40))
    wide = tracer.stats["morphisms.project_wide"]
    for cls, packs in ((CompleteHom, True), (CallByCall, False)):
        k = _Cases(cls(FiniteCBA(3), FiniteCBA(40), fiber), False, random.Random(1), 200)
        assert k.packs() == packs
        before = wide[0]
        assert _join_preserving(k)[0]
        assert (wide[0] == before) == packs  # the scan asks pi once per pair


def test_finite_wide_project_key_records_calls(monkeypatch):
    # a traced finite-wide run fails on a hot key that recorded no call; the
    # packed route must leave morphisms.project_wide some calls to record
    import random

    from forcebench.finite_cba import FiniteCBA
    from forcebench.morphisms import CompleteHom, retraction_laws_audit

    tracer = _traced_project(monkeypatch)
    assert "morphisms.project_wide" in _tracer_namespace()["HOT"]["finite-wide"]
    for t in (17, 40, 64):
        h = CompleteHom(FiniteCBA(8), FiniteCBA(t), tuple(x % 8 for x in range(t)))
        assert retraction_laws_audit(h, exhaustive=False, rng=random.Random(t)).passed
    assert tracer.stats["morphisms.project_wide"][0] > 0
    assert tracer.stats["morphisms.project_narrow"][0] == 0


def _thin_finite_sweep(sweep: str):
    """One input of each kind the sweep's ``bench/workloads.py`` run takes,
    run by that run with its pinned counts set to the slice's; the gate."""
    workloads = _bench_namespace("workloads.py")
    gate = workloads["Gate"]()
    if sweep == "finite-wide":  # one 17-atom hom through cli.execute and emit_report
        fiber = workloads["random_surjection"](random.Random(17), 2, 17)
        objects = [{"kind": "algebra", "name": f"A{n}", "atoms": n} for n in (2, 17)]
        objects.append({"kind": "hom", "name": "h", "source": "A2", "target": "A17",
                        "fiber": list(fiber)})
        audits = [{"audit": a, "target": "h"} for a in ("retraction-laws", "twostep-iso")]
        doc = json.dumps({"version": 1, "objects": objects, "audits": audits})
        workloads["_verify_all"](doc, 0, "workspace", len(audits), gate)
        return gate
    for pinned in ("LAW_EMBEDDINGS", "ISO_EMBEDDINGS", "TRIANGLES", "SEPARATIVE_POSETS", "TRACES"):
        workloads[f"NARROW_{pinned}"] = 1
    inputs = workloads["narrow_inputs"](0, BENCH.parent)  # one triangle, one trace
    inputs["laws"] = [(2, 4, (0, 1, 1, 0))]
    inputs["iso"] = [(3, 6, (0, 1, 2, 2, 1, 0))]
    inputs["posets"] = [[*workloads["separative_posets"](4)][-1]]
    workloads["run_narrow"](inputs, gate)
    return gate


@pytest.mark.parametrize("sweep", ["finite-narrow", "finite-wide"])
def test_every_finite_hot_target_records_calls(monkeypatch, sweep):
    # a traced finite run fails on any hot key whose functions saw no call;
    # a refactor that dropped the last caller of a hot key on the sweep's
    # path (say, quotient_hom no longer asking class_of) fails here first
    from forcebench import tables

    namespace = _tracer_namespace()
    hot, targets = namespace["HOT"][sweep], {**namespace["KERNELS"], **namespace["ENTRY_POINTS"]}
    tracer = _traced_project(monkeypatch)
    calls = _count_hot_calls(monkeypatch, sweep)
    tables.clear()  # the cold memo tables of a fresh benchmark worker
    gate = _thin_finite_sweep(sweep)
    assert gate.failures == [] and gate.attempted
    project = f"morphisms.project_{sweep.removeprefix('finite-')}"  # split by _traced_project
    assert project in hot and tracer.stats[project][0]
    # as the tracer's hot_misses: a key records calls when any of its functions does
    missed = [k for k in hot if k != project and not any(calls[p] for _, p in targets[k])]
    assert missed == []
