"""Every name the traced benchmark rebinds still exists in the form it expects.

``bench/tracer.py`` wraps functions by ``(module, attribute path)``; a class
attribute must sit in the class ``__dict__`` as a function or a property.
The tracer source is executed into a fresh namespace, so nothing under
``bench/`` is imported as a package or written to.
"""
import importlib
import pathlib
import types

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_targets():
    namespace = {"__name__": "bench_tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
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
