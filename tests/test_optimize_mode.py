"""The library's invariant checks are raises, so they hold under ``python -O``.

Each planted-violation case breaks one guaranteed identity and expects the
check that guards it to raise; the subprocess test runs these cases and the
two-step, gallery, bvm, semigenericity, workspace, free-algebra and
iteration suites with assert statements stripped (see conftest.py), and the
AST test keeps assert statements and ``__debug__`` out of the library.
"""
import ast
import pathlib

import pytest

from forcebench.errors import InvariantViolation
from forcebench.finite_cba import FiniteCBA, Ultrafilter
from forcebench.free_algebra import FREE_ONE, FREE_ZERO, generator
from forcebench.gallery import build_fresh_tower
from forcebench.morphisms import CompleteHom, FreeInclusion, hom_from_fiber_map
from forcebench.semigen import disjointify
from forcebench.two_step import (
    AtomwisePresentation,
    GenericQuotient,
    TwoStepAlgebra,
    build_two_step,
    canonical_representative,
    quotient_algebra,
)

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_suites_pass_under_python_O(python_O_output):
    # started from conftest.py when collection ends, so it runs beside the suite
    returncode, stdout, stderr = python_O_output
    assert returncode == 0, stdout[-2000:] + stderr[-2000:]
    assert " passed" in stdout and "skipped" not in stdout


def test_src_has_no_assert_and_no___debug__():
    # both vanish under python -O: an invariant check there must raise
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert) or isinstance(node, ast.Name) and node.id == "__debug__"
        ]
        assert not found, f"{path.relative_to(ROOT)}: lines {found}"


def _presentation():
    return AtomwisePresentation(FiniteCBA(2), (FiniteCBA(1), FiniteCBA(2)))


def test_build_two_step_raises_on_irregular_sum(monkeypatch):
    monkeypatch.setattr(CompleteHom, "regular", property(lambda self: False))
    with pytest.raises(InvariantViolation, match="regular"):
        build_two_step(_presentation())


@pytest.mark.parametrize("method", ["tv_equals_one", "tv_equals_zero", "support"])
def test_build_two_step_raises_on_broken_identity(monkeypatch, method):
    monkeypatch.setattr(TwoStepAlgebra, method, lambda self, element: 0)
    with pytest.raises(InvariantViolation):
        build_two_step(_presentation())


@pytest.mark.parametrize("target", [4, 10])  # exhaustive pool, sampled subsets
def test_sup_commutation_raises_on_broken_class_map(monkeypatch, target):
    monkeypatch.setattr(
        GenericQuotient, "class_of", lambda self, c: self.view.to_sub(c) ^ 1
    )
    h = hom_from_fiber_map(FiniteCBA(2), FiniteCBA(target), [t % 2 for t in range(target)])
    with pytest.raises(InvariantViolation, match="join"):
        quotient_algebra(h, Ultrafilter(h.source, 0))


@pytest.mark.parametrize(
    "apply, message",
    [
        (lambda self, b: self.target.one if b else 0, "misses its class"),
        (lambda self, b: 0, "perturbed element"),
    ],
)
def test_canonical_representative_raises_on_broken_embedding(
    monkeypatch, apply, message
):
    h = hom_from_fiber_map(FiniteCBA(2), FiniteCBA(4), [0, 0, 1, 1])
    monkeypatch.setattr(CompleteHom, "apply", apply)
    with pytest.raises(InvariantViolation, match=message):
        canonical_representative(h, (0b01, 0b10), (0b0001, 0b0100))


@pytest.mark.parametrize(
    "project, message",
    [
        (lambda self, e: FREE_ZERO, "fresh generator"),
        # generators still project to 1, their complements no longer do
        (lambda self, e: FREE_ONE if e == generator(*e.support) else FREE_ZERO, "complement"),
    ],
)
def test_build_fresh_tower_raises_on_stale_generator(monkeypatch, project, message):
    monkeypatch.setattr(FreeInclusion, "project", project)
    with pytest.raises(InvariantViolation, match=message):
        build_fresh_tower(2)


def test_disjointify_raises_when_result_is_not_maximal(monkeypatch):
    monkeypatch.setattr(FiniteCBA, "is_maximal_antichain", lambda self, xs: False)
    with pytest.raises(InvariantViolation, match="maximal antichain"):
        disjointify(FiniteCBA(2), (0b01, 0b11))
