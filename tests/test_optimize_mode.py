"""The library's invariant checks are raises, so they hold under ``python -O``.

``-O`` strips assert statements and sets ``__debug__`` to False; besides
those, code sees it only through ``sys.flags`` (docstrings last until
``-OO``).  The AST tests keep all three out of the library, so the library
runs alike with and without ``-O``, and each planted-violation case breaks
one guaranteed identity and expects the check that guards it to raise.
The other AST tests confine ``Random(...)`` to the case source and the
run, keep every module-level table named in ``tables.py``, and keep code
that only tests reach out of ``src/``.
"""
import ast
import collections
import pathlib

import pytest

from forcebench import tables
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

from .test_bench_bindings import TARGETS as TRACER_TARGETS

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_src_has_no_assert_and_no___debug__():
    # what python -O changes that code can see: an invariant check must raise
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        sys_names = {
            alias.asname or alias.name
            for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names if alias.name == "sys"
        }
        found = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
            or isinstance(node, ast.Name) and node.id == "__debug__"
            or isinstance(node, ast.Attribute) and node.attr == "flags"
            and getattr(node.value, "id", None) in sys_names
            or isinstance(node, ast.ImportFrom) and node.module == "sys"
            and any(alias.name == "flags" for alias in node.names)
        ]
        assert not found, f"{path.relative_to(ROOT)}: lines {found}"


class _RandomSites(ast.NodeVisitor):
    """The functions (or "<module>") that construct a ``Random``."""

    def __init__(self):
        self.scope, self.found = ["<module>"], set()

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        if getattr(node.func, "attr", getattr(node.func, "id", None)) == "Random":
            self.found.add(self.scope[-1])
        self.generic_visit(node)


def test_random_is_constructed_only_by_the_case_source_and_the_run():
    # every sampled audit draws through report.draws: from the run's rng,
    # made in cli.execute, or else from a fresh Random(seed) made there
    sites = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        visitor = _RandomSites()
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        sites |= {(path.name, scope) for scope in visitor.found}
    assert sites == {("report.py", "_fresh_draws"), ("cli.py", "execute")}


def _is_table(value) -> bool:
    """An empty dict display or a ``WeakValueDictionary()`` call."""
    if isinstance(value, ast.Dict):
        return not value.keys
    func = getattr(value, "func", None)
    return getattr(func, "attr", getattr(func, "id", None)) == "WeakValueDictionary"


def _is_memo(decorator) -> bool:
    """``functools.cache`` or ``lru_cache``, bare or called, by either spelling."""
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(target, "attr", getattr(target, "id", None)) in {"cache", "lru_cache"}


def test_every_module_level_table_is_registered():
    # a new memo or intern table must be named in tables.py, as computed or
    # as interning, so that tables.clear() and tables.entries() reach it
    found = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value and _is_table(node.value):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found |= {(path.stem, t.id) for t in targets}
            elif isinstance(node, ast.FunctionDef) and any(map(_is_memo, node.decorator_list)):
                found.add((path.stem, node.name))
    assert found == set(tables.COMPUTED) | set(tables.INTERNING)
    assert not set(tables.COMPUTED) & set(tables.INTERNING)


def _definitions(tree):
    """(qualified name, node) of every module-level function or class and of
    every method of a public class, dunder methods aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__"):
                    yield f"{node.name}.{sub.name}", sub


def _names(tree) -> collections.Counter:
    """How often each name or attribute occurs in ``tree``."""
    return collections.Counter(
        getattr(node, "id", None) or getattr(node, "attr", None) for node in ast.walk(tree)
    )


def test_src_holds_no_code_only_tests_reach():
    # each definition is exported from the package (by name, or with its
    # whole module), referenced by name elsewhere in src/, or bound by the
    # benchmark's tracer; what only tests reach belongs under tests/
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in (ROOT / "src").rglob("*.py")
    }
    exported = {
        alias.name
        for node in trees["__init__"].body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    traced = {path.split(".")[-1] for _, path in TRACER_TARGETS}
    everywhere = sum(map(_names, trees.values()), collections.Counter())
    unreached = [
        f"{module}.{qualified}"
        for module, tree in trees.items() if module not in exported
        for qualified, node in _definitions(tree)
        if node.name not in exported | traced and everywhere[node.name] == _names(node)[node.name]
    ]
    assert not unreached, unreached


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
    # the uniqueness checks run at every target width
    homs = [
        hom_from_fiber_map(FiniteCBA(2), FiniteCBA(n), [2 * t // n for t in range(n)])
        for n in (4, 10)
    ]
    monkeypatch.setattr(CompleteHom, "apply", apply)
    for h in homs:
        half = h.target.atom_count // 2
        with pytest.raises(InvariantViolation, match=message):
            canonical_representative(h, (0b01, 0b10), (1, 1 << half))


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
