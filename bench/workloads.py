"""The four audit sweeps, their seeded raw inputs and gate, and the two
workloads that pair them.

Each sweep has two halves.  ``inputs(seed, root)`` builds the raw inputs in
plain Python (fiber tuples, relation pairs, trace bitmasks, workspace JSON
text) without calling forcebench, so the time it takes belongs to set-up.
``run(inputs, gate)`` then calls forcebench only through its public
functions and hands every verdict and every pinned count to the gate.

The sweeps are chosen so that each optimisation queued in ROADMAP.md does
most of its work in one of them and none in another:

- finite-narrow: tiny bitmask algebras (at most 6 atoms), where per-call
  overhead of ``CompleteHom.apply/project``, ``Restriction``, the two-step
  family maps and ``FiniteCBA.one`` dominates; no free-algebra or bvm work.
- finite-wide: the same morphism layer on 17-64 atom targets (byte-table
  ``project``, sampled audit branches), reached through the workspace
  parser, ``cli.execute`` and ``emit_report``.
- forcing-oracle: ``forcing_audit`` on the 2-atom algebra, i.e.
  ``truth_value``, its memo tables and the hereditarily-finite oracle.
- fresh-tower: decision-diagram apply/exists and iteration-system
  coordinates at depths 16, 32, 40 in one process, so later depths reuse
  (and grow) the memo tables of earlier ones.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import random
from pathlib import Path

# Pinned case counts.  A run that checks a different number of cases fails
# the gate, so enumerating less or sampling instead can never read as faster.
NARROW_LAW_EMBEDDINGS = 852  # regular, source <= 3 atoms, target <= 6 atoms
NARROW_ISO_EMBEDDINGS = 5316  # regular, source <= 6 atoms, target <= 6 atoms
NARROW_TRIANGLES = 200
NARROW_SEPARATIVE_POSETS = 450  # enumerated orders on <= 6 elements
NARROW_TRACES = 200
WIDE_EMBEDDINGS = 40
WIDE_RESULTS = 2 * WIDE_EMBEDDINGS  # one retraction-laws + one twostep-iso each
DEMO_RESULTS = 9  # demo.json: 8 audit requests, the gallery one yields 2 results
ORACLE_POOL = 130
ORACLE_FORMULAS = 10
ORACLE_CASES = 338_000
TOWER_DEPTHS = (16, 32, 40)
# every gallery claim certifies the tower depth, except the base case
GALLERY_CLAIM_DEPTH = {"first_member_projects_to_one": 0}
GALLERY_CLAIMS = {
    "sup_gap": (
        "first_member_projects_to_one",
        "pairwise_incompatible",
        "pointwise_sup_is_one",
        "diagonal_avoids_family",
        "no_constant_below_diagonal",
    ),
    "wedge_meet": (
        "meets_are_nonzero_cylinders",
        "pointwise_meet_not_a_thread",
        "lower_bounds_squeezed_under_cylinders",
        "sample_lower_bound_fails_escape",
        "zero_is_the_only_survivor",
    ),
}


class Gate:
    """Counts audit items and records every one that is not as pinned."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.digest = ""  # sha256 of a deterministic report, compared across runs

    def verdict(self, ok: bool, *what) -> None:
        """One audit item; ``what`` names it and is formatted only on failure."""
        self.attempted += 1
        if not ok:
            self.failures.append(" ".join(map(str, what)) + ": verdict is not PASS")

    def count(self, what: str, got, pinned) -> None:
        self.attempted += 1
        if got != pinned:
            self.failures.append(f"{what}: got {got}, pinned {pinned}")


# -- raw input generators (plain Python, no forcebench) ---------------------------


def regular_fibers(max_source: int, max_target: int):
    """Every surjective fiber map onto at most ``max_source`` source atoms."""
    for t in range(1, max_target + 1):
        for s in range(1, min(max_source, t) + 1):
            for fiber in itertools.product(range(s), repeat=t):
                if len(set(fiber)) == s:
                    yield s, t, fiber


def random_surjection(rng: random.Random, s: int, t: int) -> tuple[int, ...]:
    fiber = list(range(s)) + [rng.randrange(s) for _ in range(t - s)]
    rng.shuffle(fiber)
    return tuple(fiber)


def separative_posets(max_size: int):
    """(labels, order pairs) of every order on at most ``max_size`` elements
    that embeds in the identity linear extension and is separative."""
    for n in range(1, max_size + 1):
        labels = tuple(f"p{k}" for k in range(n))
        idx_pairs = [(i, j) for j in range(n) for i in range(j)]
        for bits in range(1 << len(idx_pairs)):
            below = [1 << i for i in range(n)]  # down-set of each element
            for k, (i, j) in enumerate(idx_pairs):
                if bits >> k & 1:
                    below[j] |= 1 << i
            for j in range(n):  # indices only grow: one pass closes it
                for i in range(n):
                    if below[j] >> i & 1:
                        below[j] |= below[i]
            if _separative(n, below):
                pairs = frozenset(
                    (labels[i], labels[j])
                    for j in range(n)
                    for i in range(n)
                    if below[j] >> i & 1
                )
                yield labels, pairs


def _separative(n: int, below: list[int]) -> bool:
    incompat = [0] * n
    for q in range(n):
        for r in range(n):
            if below[r] & below[q] == 0:
                incompat[q] |= 1 << r
    for p in range(n):
        for q in range(n):
            if not below[q] >> p & 1 and below[p] & incompat[q] == 0:
                return False
    return True


def _disjointify(ordered: tuple[int, ...]) -> tuple[int, ...]:
    out, seen = [], 0
    for b in ordered:
        if b & ~seen:
            out.append(b & ~seen)
        seen |= b
    return tuple(out)


def random_trace(rng: random.Random) -> dict:
    """Raw model trace on 2-6 atoms whose carrier is closed under the
    disjointification of its predense designations."""
    atoms = rng.randint(2, 6)
    one = (1 << atoms) - 1
    carrier = {x for x in range(one + 1) if rng.random() < 0.5}
    carrier.add(one)
    antichains = []
    for _ in range(rng.randint(1, 3)):
        remaining, chain = one, []
        while remaining:
            bits = [k for k in range(atoms) if remaining >> k & 1]
            part = 0
            for k in rng.sample(bits, rng.randint(1, len(bits))):
                part |= 1 << k
            chain.append(part)
            remaining &= ~part
        antichains.append(tuple(sorted(chain)))
    predense = []
    for a in antichains:
        extras = tuple(x for x in range(1, one + 1) if rng.random() < 0.08)
        predense.append(tuple(sorted(set(a) | set(extras))))
        carrier.update(predense[-1])
        carrier.update(_disjointify(predense[-1]))
    kappa = atoms + 2
    return {
        "atoms": atoms,
        "carrier": frozenset(carrier),
        "predense": tuple(predense),
        "antichains": tuple(antichains),
        "kappa": kappa,
        "delta": frozenset(range(rng.randint(1, kappa - 1))),
        "probe": rng.choice(sorted(carrier - {0})),
    }


def narrow_inputs(seed: int, root: Path) -> dict:
    rng = random.Random(seed)
    triangles = []
    for _ in range(NARROW_TRIANGLES):
        b = rng.randint(1, 2)
        c0 = rng.randint(b, 6)
        c1 = rng.randint(c0, 8)
        triangles.append(
            (b, c0, c1, random_surjection(rng, b, c0), random_surjection(rng, c0, c1))
        )
    return {
        "laws": list(regular_fibers(3, 6)),
        "iso": list(regular_fibers(6, 6)),
        "triangles": triangles,
        "posets": list(separative_posets(6)),
        "traces": [random_trace(rng) for _ in range(NARROW_TRACES)],
    }


def wide_inputs(seed: int, root: Path) -> dict:
    """A workspace of 40 regular embeddings, 2-8 source and 17-64 target
    atoms.  The multisets of source and target sizes are fixed, so every
    seed asks for the same amount of work; the seed pairs them up and
    draws the fibers."""
    rng = random.Random(seed)
    sources = [2 + k % 7 for k in range(WIDE_EMBEDDINGS)]
    targets = [17 + (47 * k) // (WIDE_EMBEDDINGS - 1) for k in range(WIDE_EMBEDDINGS)]
    rng.shuffle(sources)
    rng.shuffle(targets)
    sizes = sorted(set(sources) | set(targets))
    objects = [{"kind": "algebra", "name": f"A{n}", "atoms": n} for n in sizes]
    audits = []
    for k, (s, t) in enumerate(zip(sources, targets)):
        name = f"h{k:02d}"
        objects.append(
            {
                "kind": "hom",
                "name": name,
                "source": f"A{s}",
                "target": f"A{t}",
                "fiber": list(random_surjection(rng, s, t)),
            }
        )
        audits.append({"audit": "retraction-laws", "target": name})
        audits.append({"audit": "twostep-iso", "target": name})
    doc = {"version": 1, "objects": objects, "audits": audits}
    return {
        "seed": seed,
        "workspace": json.dumps(doc, sort_keys=True),
        "demo": (root / "workspaces" / "demo.json").read_text(encoding="utf-8"),
    }


def no_inputs(seed: int, root: Path) -> dict:
    return {}


# -- the audit sweeps ---------------------------------------------------------------


def run_narrow(inputs: dict, gate: Gate) -> None:
    from forcebench.finite_cba import FiniteCBA, Ultrafilter
    from forcebench.morphisms import CompleteHom, retraction_laws_audit
    from forcebench.poset import Poset, boolean_completion
    from forcebench.semigen import (
        ModelTrace,
        disjointify_sg_audit,
        restriction_audit,
        semigeneric_sup_audit,
    )
    from forcebench.two_step import Triangle, quotient_hom, two_step_iso_audit

    for s, t, fiber in inputs["laws"]:
        h = CompleteHom(FiniteCBA(s), FiniteCBA(t), fiber)
        gate.verdict(retraction_laws_audit(h, exhaustive=True).passed, "retraction-laws", fiber)
    gate.count("retraction-laws embeddings", len(inputs["laws"]), NARROW_LAW_EMBEDDINGS)

    for s, t, fiber in inputs["iso"]:
        h = CompleteHom(FiniteCBA(s), FiniteCBA(t), fiber)
        gate.verdict(two_step_iso_audit(h).passed, "twostep-iso", fiber)
    gate.count("twostep-iso embeddings", len(inputs["iso"]), NARROW_ISO_EMBEDDINGS)

    for b, c0, c1, i0_fiber, j_fiber in inputs["triangles"]:
        B = FiniteCBA(b)
        i0 = CompleteHom(B, FiniteCBA(c0), i0_fiber)
        j = CompleteHom(FiniteCBA(c0), FiniteCBA(c1), j_fiber)
        tri = Triangle(i0, i0.then(j), j)
        for u in range(b):
            q = quotient_hom(tri, Ultrafilter(B, u))
            gate.verdict(q.passed, "quotient-hom", i0_fiber, j_fiber, "at", u)
    gate.count("triangles", len(inputs["triangles"]), NARROW_TRIANGLES)

    for labels, pairs in inputs["posets"]:
        checks = boolean_completion(Poset(labels, pairs)).audit()
        gate.verdict(all(checks.values()), "completion", pairs)
    gate.count("separative posets", len(inputs["posets"]), NARROW_SEPARATIVE_POSETS)

    for k, raw in enumerate(inputs["traces"]):
        trace = ModelTrace(
            FiniteCBA(raw["atoms"]),
            raw["carrier"],
            designated_predense=raw["predense"],
            designated_antichains=raw["antichains"],
            kappa=raw["kappa"],
            delta=raw["delta"],
        )
        dis = disjointify_sg_audit(trace)
        gate.verdict(dis.closure_ok and dis.equal, "trace", k, "disjointify")
        rr = restriction_audit(trace, raw["probe"])
        gate.verdict(rr.equal and rr.upward_ok, "trace", k, "restriction")
        sup = semigeneric_sup_audit(trace)
        gate.verdict(sup.equal and sup.sg_is_semigeneric, "trace", k, "semigeneric sup")
    gate.count("traces", len(inputs["traces"]), NARROW_TRACES)


def _verify_all(doc_text: str, seed: int, label: str, results: int, gate: Gate) -> str:
    from forcebench.cli import execute
    from forcebench.report import PASS, emit_report
    from forcebench.workspace import parse_workspace

    report = execute(parse_workspace(doc_text), "verify-all", seed)
    first = emit_report(report, "machine-json")
    second = emit_report(report, "machine-json")
    human = emit_report(report, "human")
    for r in report.results:
        gate.verdict(r.verdict == PASS, label, r.name, f"[{r.target}]")
    gate.count(f"{label} results", len(report.results), results)
    gate.count(f"{label} human report lines", len(human.splitlines()), results + 2)
    gate.verdict(first == second, label, "machine report is byte-identical twice")
    return first


def run_wide(inputs: dict, gate: Gate) -> None:
    seed = inputs["seed"]
    wide = _verify_all(inputs["workspace"], seed, "workspace", WIDE_RESULTS, gate)
    demo = _verify_all(inputs["demo"], seed, "demo", DEMO_RESULTS, gate)
    gate.digest = hashlib.sha256((wide + demo).encode()).hexdigest()


def run_oracle(inputs: dict, gate: Gate) -> None:
    from forcebench.bvm import forcing_audit, standard_formula_pool, standard_name_pool
    from forcebench.finite_cba import FiniteCBA

    algebra = FiniteCBA(2)
    pool = standard_name_pool(algebra, max_rank=3)
    formulas = standard_formula_pool()
    report = forcing_audit(algebra, pool, formulas)
    gate.count("name pool", len(pool), ORACLE_POOL)
    gate.count("formula pool", len(formulas), ORACLE_FORMULAS)
    gate.count("forcing cases", report.cases, ORACLE_CASES)
    gate.count("forcing divergences", len(report.divergences), 0)
    gate.verdict(report.passed, "forcing audit")


def run_tower(inputs: dict, gate: Gate) -> None:
    from forcebench.gallery import build_fresh_tower, sup_gap_audit, wedge_meet_audit

    for d in TOWER_DEPTHS:
        tower = build_fresh_tower(d)
        for label, audit in (("sup_gap", sup_gap_audit), ("wedge_meet", wedge_meet_audit)):
            report = audit(d, tower)
            gate.count(f"{label} depth {d} claims", tuple(report.claims), GALLERY_CLAIMS[label])
            for name, claim in report.claims.items():
                gate.verdict(claim.passed, label, "depth", d, name)
                gate.count(
                    f"{label} depth {d} {name} certified depth",
                    claim.certified_depth,
                    GALLERY_CLAIM_DEPTH.get(name, d),
                )


SWEEPS = {
    "finite-narrow": (narrow_inputs, run_narrow),
    "finite-wide": (wide_inputs, run_wide),
    "forcing-oracle": (no_inputs, run_oracle),
    "fresh-tower": (no_inputs, run_tower),
}

# The benchmark's workloads: two sweeps each, run one after another in fresh
# interpreters.  The finite pair holds all bitmask-kernel, workspace, cli and
# report work; the symbolic pair all bvm, free-algebra, iteration and gallery
# work.  Every workload costs the same number of fixed-length runs, so two
# workloads let each run measure about a minute of audits where four would
# allow half a minute.  On a shared 2-core machine (Python 3.11) whose speed
# drifts by about 20 % within minutes, ten 30-second runs of each sweep alone
# spread by 19-29 % in raw seconds (quartile distance over median), and ten
# 55-second runs of each pair by 19-22 %; hence the times are reported
# scaled to a reference speed (bench/reference.py).
GROUPS = {
    "finite": ("finite-narrow", "finite-wide"),
    "symbolic": ("forcing-oracle", "fresh-tower"),
}
