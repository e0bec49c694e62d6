"""The table registry: computed tables clear in one call, interning tables
are only counted, and clearing is safe while audits run."""
import functools
import gc
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

from forcebench import bvm, tables
from forcebench.finite_cba import FiniteCBA
from forcebench.free_algebra import generator
from forcebench.gallery import build_fresh_tower, sup_gap_audit
from forcebench.morphisms import hom_from_fiber_map, retraction_laws_audit
from forcebench.two_step import two_step_iso_audit


def _live(refs) -> set[int]:
    """The positions of the referenced names that are still the interned ones."""
    return {
        k
        for k, ref in enumerate(refs)
        if (n := ref()) is not None and bvm._INTERNED.get((n.algebra, n.entries)) is n
    }


def test_clear_releases_the_names_an_audit_kept():
    algebra = FiniteCBA(3)
    # names are interned, so another module may keep some of these alive:
    # those still live with every computed table empty are not the memos'
    tables.clear()
    refs = [weakref.ref(n) for n in bvm.standard_name_pool(algebra, 2)[:32]]
    tables.clear()
    gc.collect()
    kept_elsewhere = _live(refs)
    assert len(kept_elsewhere) < 32
    pool = bvm.standard_name_pool(algebra, 2)
    assert len(pool) == 113
    assert bvm.forcing_audit(algebra, pool[:32], bvm.standard_formula_pool()).passed
    refs = [weakref.ref(n) for n in pool[:32]]
    del pool
    gc.collect()
    assert _live(refs) == set(range(32))  # the truth-value and evaluation memos hold them
    tables.clear()
    gc.collect()
    assert _live(refs) == kept_elsewhere


def test_clear_never_empties_an_interning_table():
    x = generator("x0") & generator("x1")
    pool = bvm.standard_name_pool(FiniteCBA(2), 1)
    interning = {f"{m}.{a}" for m, a in tables.INTERNING}
    before = {k: n for k, n in tables.entries().items() if k in interning}
    assert before["free_algebra._UNIQUE"] and before["bvm._INTERNED"] >= len(pool)
    tables.clear()
    after = tables.entries()
    assert set(after) == {f"{m}.{a}" for m, a in tables.COMPUTED + tables.INTERNING}
    assert {k: after[k] for k in interning} == before
    assert all(after[f"{m}.{a}"] == 0 for m, a in tables.COMPUTED)
    assert generator("x0") & generator("x1") is x


def test_clearing_while_audits_run_changes_no_ledger():
    algebra = FiniteCBA(2)
    pool = bvm.standard_name_pool(algebra, 2)[:12]
    formulas = bvm.standard_formula_pool()
    x = generator("x0") & generator("x1")

    def forcing():
        return bvm.forcing_audit(algebra, pool, formulas)

    def sup_gap():
        return sup_gap_audit(8, build_fresh_tower(8))

    # the enumerated audits fill the shared views and sums, and their tables
    narrow = [
        hom_from_fiber_map(FiniteCBA(s), FiniteCBA(t), [a % s for a in range(t)])
        for s, t in ((2, 5), (3, 6))
    ]
    enumerated = [functools.partial(two_step_iso_audit, h) for h in narrow] + [
        functools.partial(retraction_laws_audit, h, exhaustive=True) for h in narrow
    ]

    jobs = [forcing, sup_gap, *enumerated] * 3
    expected = [job() for job in jobs]
    assert all(ledger.passed for ledger in expected)
    done, clears = threading.Event(), []

    def clear_until_done():
        while not done.is_set():
            views = tables.entries()["two_step._narrow_view"]  # what this clear empties
            tables.clear()
            clears.append((tables.entries()["bvm._ATOMIC_MEMO"], views))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        # a clear meets a memo entry only when a forcing job writes between the
        # clear and the count, which some rounds never see: rounds repeat, each
        # one checked, until a clear has met both a filled memo and a view
        for _ in range(20):
            done.clear()
            with ThreadPoolExecutor(max_workers=len(jobs) + 1) as workers:
                clearer = workers.submit(clear_until_done)
                try:
                    runs = [workers.submit(job) for job in jobs]
                    results = [run.result(timeout=120) for run in runs]
                finally:
                    done.set()
                clearer.result(timeout=120)
            assert results == expected
            if any(memo for memo, _ in clears) and any(views for _, views in clears):
                break
    finally:
        sys.setswitchinterval(interval)
    assert any(memo for memo, _ in clears), "no clear met a filled truth-value memo"
    assert any(views for _, views in clears), "no clear emptied a shared view"
    assert generator("x0") & generator("x1") is x
