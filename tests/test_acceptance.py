"""Acceptance gate: one test per criterion, exact (no numeric tolerance).

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Stated runtime ceilings are asserted where the criterion fixes
one; everything mathematical is exact equality.
"""
import itertools
import random
import time

from forcebench.bvm import (
    Atomic,
    forcing_audit,
    standard_formula_pool,
    standard_name_pool,
)
from forcebench.cli import execute
from forcebench.finite_cba import FiniteCBA, Ultrafilter
from forcebench.gallery import build_fresh_tower, sup_gap_audit, wedge_meet_audit
from forcebench.morphisms import CompleteHom, retraction_laws_audit
from forcebench.poset import Poset, boolean_completion
from forcebench.report import emit_report
from forcebench.semigen import (
    ModelTrace,
    disjointify,
    disjointify_sg_audit,
    restriction_audit,
    semigeneric_sup_audit,
)
from forcebench.two_step import (
    AtomwisePresentation,
    Triangle,
    build_two_step,
    quotient_hom,
    three_step_assoc_audit,
    two_step_iso_audit,
)
from forcebench.workspace import parse_workspace

from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def _verdict(n, name, ok, info, started):
    elapsed = time.perf_counter() - started
    print(f"\nACCEPTANCE {n} {name}: {'PASS' if ok else 'FAIL'} ({info}, {elapsed:.1f}s)")
    assert ok, f"criterion {n} failed: {info}"
    return elapsed


def _all_regular_embeddings(max_source, max_target):
    for t in range(1, max_target + 1):
        target = FiniteCBA(t)
        for s in range(1, min(max_source, t) + 1):
            source = FiniteCBA(s)
            for fiber in itertools.product(range(s), repeat=t):
                if len(set(fiber)) == s:
                    yield CompleteHom(source, target, fiber)


def _random_regular(rng, max_source, max_target):
    s = rng.randint(1, max_source)
    t = rng.randint(s, max_target)
    fiber = list(range(s)) + [rng.randrange(s) for _ in range(t - s)]
    rng.shuffle(fiber)
    return CompleteHom(FiniteCBA(s), FiniteCBA(t), tuple(fiber))


def test_criterion_1_retraction_law_suite():
    started = time.perf_counter()
    count = 0
    for h in _all_regular_embeddings(3, 6):
        report = retraction_laws_audit(h, exhaustive=True)
        assert report.passed, (h.fiber, report.failures)
        count += 1
    rng = random.Random(20_240_501)
    for _ in range(500):
        h = _random_regular(rng, 8, 64)
        report = retraction_laws_audit(h, exhaustive=False, rng=rng, samples=40)
        assert report.passed, (h.source.atom_count, h.target.atom_count, report.failures)
    elapsed = _verdict(
        1,
        "retraction-law suite",
        True,
        f"{count} enumerated + 500 random embeddings, all laws",
        started,
    )
    assert elapsed < 10.0, f"criterion 1 runtime {elapsed:.1f}s exceeds 10s"


def test_criterion_2_forcing_audit_against_hf_oracle():
    started = time.perf_counter()
    algebra = FiniteCBA(2)
    pool = standard_name_pool(algebra, max_rank=3)
    assert max(n.rank for n in pool) == 3
    # the shipped formula pool opens with the three atomic relations; every
    # rank <= 3 pool name meets every shipped formula at every atom
    assert {f.op for f in standard_formula_pool()[:3] if isinstance(f, Atomic)} == {
        "eq",
        "mem",
        "sub",
    }
    r = forcing_audit(algebra, pool, standard_formula_pool())
    cases = r.cases
    ok = r.passed and cases >= 2000
    elapsed = _verdict(
        2,
        "forcing audit vs hereditarily-finite oracle",
        ok,
        f"{cases} (atom, formula) cases, {len(r.divergences)} divergences",
        started,
    )
    assert elapsed < 30.0, f"criterion 2 runtime {elapsed:.1f}s exceeds 30s"


def test_criterion_3_two_step_isomorphism():
    started = time.perf_counter()
    count = 0
    for h in _all_regular_embeddings(6, 6):
        iso = two_step_iso_audit(h)
        assert iso.passed, (h.fiber, iso.failures)
        count += 1
    rng = random.Random(77)
    for _ in range(200):
        h = _random_regular(rng, 6, 6)
        iso = two_step_iso_audit(h, rng)
        assert iso.passed, iso.failures
    elapsed = _verdict(
        3,
        "two-step isomorphism theorem",
        True,
        f"{count} enumerated + 200 random embeddings",
        started,
    )
    assert elapsed < 10.0, f"criterion 3 runtime {elapsed:.1f}s exceeds 10s"


def _partitions_into_blocks(n, k):
    """Restricted growth strings of length n with exactly k blocks:
    canonical representatives of set partitions up to relabeling."""

    def rec(prefix, used):
        pos = len(prefix)
        if pos == n:
            if used == k:
                yield tuple(prefix)
            return
        rem = n - pos - 1
        if used + rem >= k:
            for b in range(used):
                prefix.append(b)
                yield from rec(prefix, used)
                prefix.pop()
        if used < k and used + 1 + rem >= k:
            prefix.append(used)
            yield from rec(prefix, used + 1)
            prefix.pop()

    yield from rec([], 0)


def test_criterion_4_quotient_coherence():
    started = time.perf_counter()
    triangles = 0
    rng = random.Random(99)
    for c1 in range(1, 9):
        C1 = FiniteCBA(c1)
        for c0 in range(1, c1 + 1):
            C0 = FiniteCBA(c0)
            j_fibers = list(_partitions_into_blocks(c1, c0))
            for b in range(1, min(2, c0) + 1):
                B = FiniteCBA(b)
                i0_fibers = list(_partitions_into_blocks(c0, b))
                for jf in j_fibers:
                    for i0f in i0_fibers:
                        triangles += 1
                        i1f = tuple(i0f[a] for a in jf)
                        for u in range(b):
                            m0 = 0
                            for a, src in enumerate(i0f):
                                if src == u:
                                    m0 |= 1 << a
                            m1 = 0
                            for t, mid in enumerate(i1f):
                                if mid == u:
                                    m1 |= 1 << t
                            # well-defined: fibers over u stay over u
                            hit = 0
                            ok = True
                            for t in range(c1):
                                if m1 >> t & 1:
                                    if not m0 >> jf[t] & 1:
                                        ok = False
                                    hit |= 1 << jf[t]
                            assert ok, "quotient map not well defined"
                            # regular: every class below u is reached
                            assert hit == m0, "quotient map not regular"
                            # retraction law on atoms (joins generate) and a
                            # sample of full elements
                            proj = [1 << jf[t] for t in range(c1)]
                            for t in range(c1):
                                lhs = proj[t] if m1 >> t & 1 else 0
                                assert lhs == proj[t] & m0, "retraction law failed on an atom"
                            for _ in range(4):
                                c = rng.getrandbits(c1)
                                lhs = 0
                                rhs = 0
                                for t in range(c1):
                                    if c >> t & 1:
                                        if m1 >> t & 1:
                                            lhs |= proj[t]
                                        rhs |= proj[t]
                                assert lhs == rhs & m0, "retraction law failed"
    # cross-check a seeded sample through the full quotient-hom audit
    sampled = 0
    rng2 = random.Random(5)
    while sampled < 40:
        b = rng2.randint(1, 2)
        c0 = rng2.randint(b, 6)
        c1 = rng2.randint(c0, 8)
        i0 = _random_surjection(rng2, b, c0)
        j = _random_surjection(rng2, c0, c1)
        tri = Triangle(i0, i0.then(j), j)
        for u in range(b):
            q = quotient_hom(tri, Ultrafilter(tri.i0.source, u))
            assert q.passed, q.failures
        sampled += 1

    tower_report = three_step_assoc_audit(
        FiniteCBA(2),
        AtomwisePresentation(FiniteCBA(2), (FiniteCBA(2), FiniteCBA(2))),
        tuple(FiniteCBA(2) for _ in range(4)),
    )
    assert (
        tower_report.passed
        and tower_report.claims["quotient_twice_is_quotient_once"].cases == 4
    )
    towers = 0
    rng3 = random.Random(13)
    while towers < 100:
        base = FiniteCBA(rng3.randint(1, 2))
        mid = AtomwisePresentation(
            base, tuple(FiniteCBA(rng3.randint(1, 3)) for _ in range(base.atom_count))
        )
        two1 = build_two_step(mid)
        top = tuple(
            FiniteCBA(rng3.randint(1, 2)) for _ in range(two1.algebra.atom_count)
        )
        if two1.algebra.atom_count + sum(f.atom_count for f in top) > 16:
            continue
        r = three_step_assoc_audit(base, mid, top)
        assert r.passed, r.failures
        towers += 1
    _verdict(
        4,
        "quotient coherence",
        True,
        f"{triangles} triangle classes, 40 deep-audited, {towers + 1} towers",
        started,
    )


def _random_surjection(rng, s, t):
    fiber = list(range(s)) + [rng.randrange(s) for _ in range(t - s)]
    rng.shuffle(fiber)
    return CompleteHom(FiniteCBA(s), FiniteCBA(t), tuple(fiber))


def _random_trace(algebra, rng):
    carrier = set(x for x in algebra.elements() if rng.random() < 0.5)
    carrier.add(algebra.one)
    antichains = []
    for _ in range(rng.randint(1, 3)):
        remaining = algebra.one
        chain = []
        while remaining:
            bits = [k for k in range(algebra.atom_count) if remaining >> k & 1]
            part = 0
            for k in rng.sample(bits, rng.randint(1, len(bits))):
                part |= 1 << k
            chain.append(part)
            remaining &= ~part
        antichains.append(tuple(sorted(chain)))
    predense = []
    for a in antichains:
        extras = tuple(x for x in algebra.nonzero_elements() if rng.random() < 0.08)
        predense.append(tuple(sorted(set(a) | set(extras))))
        # closure for the disjointification equivalence: inputs and terms
        carrier.update(predense[-1])
        carrier.update(disjointify(algebra, predense[-1]))
    kappa = algebra.atom_count + 2
    delta = frozenset(range(rng.randint(1, kappa - 1)))
    return ModelTrace(
        algebra,
        frozenset(carrier),
        designated_predense=tuple(predense),
        designated_antichains=tuple(antichains),
        kappa=kappa,
        delta=delta,
    )


def test_criterion_5_semigenericity_calculus():
    started = time.perf_counter()
    rng = random.Random(2024)
    sup_exhaustive_total = 0
    for k in range(200):
        algebra = FiniteCBA(rng.randint(2, 6))
        trace = _random_trace(algebra, rng)
        dis = disjointify_sg_audit(trace)
        assert dis.closure_ok and dis.equal, (k, dis.gaps)
        b = rng.choice(sorted(trace.carrier - {0}))
        rr = restriction_audit(trace, b)
        assert rr.equal and rr.upward_ok, (k, b)
        sup = semigeneric_sup_audit(trace)
        assert sup.equal and sup.sg_is_semigeneric, k
        sup_exhaustive_total += 2 ** algebra.atom_count
    elapsed = _verdict(
        5,
        "semigenericity calculus",
        True,
        f"200 traces, {sup_exhaustive_total} conditions scanned for the sup law",
        started,
    )
    assert elapsed < 10.0, f"criterion 5 runtime {elapsed:.1f}s exceeds 10s"


def test_criterion_6_gallery_depth_16():
    started = time.perf_counter()
    tower = build_fresh_tower(16)
    gap = sup_gap_audit(16, tower)
    wedge = wedge_meet_audit(16, tower)
    ok = gap.passed and wedge.passed
    ok = ok and gap.claims["no_constant_below_diagonal"].passed
    ok = ok and wedge.claims["sample_lower_bound_fails_escape"].passed
    ok = ok and wedge.claims["zero_is_the_only_survivor"].passed
    elapsed = _verdict(
        6,
        "gallery at depth 16",
        ok,
        f"{len(gap.claims) + len(wedge.claims)} claims certified",
        started,
    )
    assert elapsed < 5.0, f"criterion 6 runtime {elapsed:.1f}s exceeds 5s"


def _posets_up_to_iso(n):
    """Every poset on n elements, each isomorphism class at least once: orders
    embedded in the identity linear extension (relation only low -> high)."""
    labels = [f"p{k}" for k in range(n)]
    idx_pairs = [(i, j) for i in range(n) for j in range(n) if i < j]
    for bits in range(1 << len(idx_pairs)):
        below = [1 << i for i in range(n)]  # strict down-sets as bitmasks
        for k, (i, j) in enumerate(idx_pairs):
            if bits >> k & 1:
                below[j] |= 1 << i
        # transitive closure (indices only grow, one upward pass suffices)
        for j in range(n):
            for i in range(n):
                if below[j] >> i & 1:
                    below[j] |= below[i]
        yield labels, below


def _is_separative_matrix(n, below):
    """below[p] = bitmask of the down-set of p (including p)."""
    incompat = [0] * n
    for q in range(n):
        for r in range(n):
            if below[r] & below[q] == 0:
                incompat[q] |= 1 << r
    for p in range(n):
        for q in range(n):
            if below[q] >> p & 1:
                continue  # p <= q needs no witness
            if below[p] & incompat[q] == 0:
                return False
    return True


def test_criterion_7_completions():
    started = time.perf_counter()
    tree = Poset.from_pairs(["r", "l0", "l1"], [("l0", "r"), ("l1", "r")])
    completion = boolean_completion(tree)
    assert completion.algebra.atom_count == 2
    assert all(completion.audit().values())

    audited = 0
    for n in range(1, 7):
        for labels, below in _posets_up_to_iso(n):
            if not _is_separative_matrix(n, below):
                continue
            rel = frozenset(
                (labels[i], labels[j])
                for j in range(n)
                for i in range(n)
                if (below[j] >> i & 1) or i == j
            )
            poset = Poset(tuple(labels), rel)
            c = boolean_completion(poset)
            checks = c.audit()
            assert all(checks.values()), (n, bin(sum(below)), checks)
            audited += 1
    _verdict(
        7,
        "boolean completions",
        True,
        f"tree completion has 2 atoms; {audited} separative posets audited",
        started,
    )


def test_criterion_8_deterministic_reports():
    started = time.perf_counter()
    doc = parse_workspace((REPO / "workspaces" / "demo.json").read_text())
    first = emit_report(execute(doc, "verify-all", seed=42, depth=6), "machine-json")
    second = emit_report(execute(doc, "verify-all", seed=42, depth=6), "machine-json")
    ok = first == second and '"FAIL":0' in first
    _verdict(
        8,
        "byte-identical machine reports",
        ok,
        f"{len(first)} bytes each",
        started,
    )
