"""Audit evidence, the seeded case source, audit reports and their formats.

Every audit returns a ``Ledger``: one ``Claim`` per law, in the order the
laws were first recorded.  The machine format is a stable, versioned JSON
schema; identical inputs give byte-identical output (timings live in the
human format only, so reports can be diffed and replayed).
"""
from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass, field

MACHINE_SCHEMA_VERSION = 1

PASS = "PASS"
FAIL = "FAIL"
INDETERMINATE = "INDETERMINATE"


@dataclass
class Claim:
    """The evidence for one law: its verdict, how many cases it was checked
    on, the first failing witness (or a note when it holds) and, for
    depth-bounded claims, the depth it certifies."""

    passed: bool = True
    cases: int = 0
    witness: str = ""
    certified_depth: int | None = None


@dataclass
class Ledger:
    """Ordered claims of one audit; it ``passed`` only when its verdict is PASS."""

    claims: dict[str, Claim] = field(default_factory=dict, kw_only=True)

    def record(
        self, name: str, ok: bool, witness: str = "", cases: int = 1, depth: int | None = None
    ) -> None:
        """Add ``cases`` checked cases to the claim ``name``.

        The claim keeps the witness of its first failure; while it holds, the
        first witness given stands as a note.
        """
        claim = self.claims.get(name)
        if claim is None:
            claim = self.claims[name] = Claim(witness=witness)
        claim.cases += cases
        if depth is not None:
            claim.certified_depth = depth
        if not ok and claim.passed:
            claim.passed = False
            claim.witness = witness

    def absorb(self, other: Ledger) -> None:
        """Fold in the claims of ``other`` as if each had been recorded here."""
        for name, c in other.claims.items():
            self.record(name, c.passed, c.witness, c.cases, c.certified_depth)

    @property
    def passed(self) -> bool:
        return self.verdict == PASS

    @property
    def failures(self) -> list[str]:
        return [f"{name}: {c.witness}" for name, c in self.claims.items() if not c.passed]

    @property
    def verdict(self) -> str:
        if not all(c.passed for c in self.claims.values()):
            return FAIL
        if any(c.cases == 0 for c in self.claims.values()):
            return INDETERMINATE
        return PASS


def draws(draw, rng: random.Random | None, seed: int, *shape):
    """The sampled cases of one audit: ``draw(rng, *shape)``, or without a
    run's rng the cases a fresh ``Random(seed)`` draws, computed once per
    (draw, seed, shape).  Every draw returns immutable tuples."""
    return _fresh_draws(draw, seed, *shape) if rng is None else draw(rng, *shape)


@functools.lru_cache(maxsize=512)  # thread-safe; each value is immutable
def _fresh_draws(draw, seed: int, *shape):
    return draw(random.Random(seed), *shape)


def bits(r: random.Random, count: int, *widths: int) -> tuple[tuple[int, ...], ...]:
    """A draw: ``count`` seeded elements of the algebra on each of ``widths``
    atoms, width by width."""
    return tuple(tuple(r.getrandbits(w) for _ in range(count)) for w in widths)


def claim_passed(name: str) -> property:
    """A ledger flag: whether the claim ``name`` holds, whatever its case count."""
    return property(lambda self: self.claims[name].passed)


@dataclass
class AuditResult:
    name: str
    target: str
    verdict: str
    witnesses: tuple[str, ...] = ()
    certified_depth: int | None = None
    details: dict = field(default_factory=dict)
    elapsed_ms: float = 0.0

    def as_json(self) -> dict:
        return {
            "name": self.name,
            "target": self.target,
            "verdict": self.verdict,
            "witnesses": list(self.witnesses),
            "certified_depth": self.certified_depth,
            "details": self.details,
        }


@dataclass
class AuditReport:
    command: str
    seed: int
    depth: int
    results: list[AuditResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.verdict == PASS for r in self.results)

    @property
    def counts(self) -> dict[str, int]:
        out = {PASS: 0, FAIL: 0, INDETERMINATE: 0}
        for r in self.results:
            out[r.verdict] = out.get(r.verdict, 0) + 1
        return out


def emit_report(report: AuditReport, fmt: str) -> str:
    if fmt == "machine-json" or fmt == "json":
        payload = {
            "schema_version": MACHINE_SCHEMA_VERSION,
            "command": report.command,
            "seed": report.seed,
            "depth": report.depth,
            "results": [r.as_json() for r in report.results],
            "summary": report.counts,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    if fmt != "human":
        raise ValueError(f"unknown format {fmt!r}")
    lines = [
        f"forcebench {report.command} seed={report.seed} depth={report.depth}"
    ]
    for r in report.results:
        lines.append(
            f"{r.verdict:13s} {r.name} [{r.target}]"
            + (f" depth={r.certified_depth}" if r.certified_depth is not None else "")
            + f" ({r.elapsed_ms:.1f} ms)"
        )
        for w in r.witnesses:
            lines.append(f"              witness: {w}")
    c = report.counts
    lines.append(
        f"summary: {c[PASS]} pass, {c[FAIL]} fail, {c[INDETERMINATE]} indeterminate"
    )
    return "\n".join(lines) + "\n"
