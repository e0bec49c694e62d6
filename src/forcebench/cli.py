"""Command-line entry point: run audits from a workspace document.

Commands: complete, retraction-laws, bvm-audit, twostep-iso, iterate,
sg-audit, gallery, verify-all.  A command runs its audit over the matching
requests in the document's audit list, falling back to every applicable
declared object when none are listed; verify-all runs the whole audit list
(or every default audit when the list is empty).  An error inside one audit
is that result's FAIL.  Exit status: 0 all pass, 1 any FAIL or
INDETERMINATE, 2 usage or parse error.
"""
from __future__ import annotations

import argparse
import random
import sys
import time

from .bvm import forcing_audit, standard_formula_pool, standard_name_pool, standard_pool_size
from .errors import ForcebenchError, UnknownCommand
from .gallery import build_fresh_tower, sup_gap_audit, wedge_meet_audit
from .iteration import (
    ConstantThread,
    direct_limit_correspondence_audit,
    omega_length_oracle,
    rcs_membership,
    thread_validate,
)
from .morphisms import (
    EXHAUSTIVE_MAX_ATOMS,
    EXHAUSTIVE_SOURCE_ATOMS,
    retraction_laws_audit,
)
from .poset import boolean_completion
from .report import AuditReport, AuditResult, Ledger, emit_report
from .semigen import disjointify_sg_audit, restriction_audit, semigeneric_sup_audit
from .two_step import two_step_iso_audit
from .workspace import AUDIT_KINDS, WorkspaceDoc, parse_workspace

COMMANDS = AUDIT_KINDS + ("verify-all",)

# the most names a bvm-audit builds for its standard pool before pool_cap
# trims it; a larger pool is not built, and the audit checks no case
POOL_BUDGET = 50_000

_DEFAULT_TARGET_KIND = {
    "complete": "poset",
    "retraction-laws": "hom",
    "bvm-audit": "algebra",
    "twostep-iso": "hom",
    "iterate": "system",
    "sg-audit": "trace",
}


def execute(
    doc: WorkspaceDoc, command: str, seed: int = 0, depth: int = 8
) -> AuditReport:
    """Run the command's audits.  An error raised inside one audit is that
    result's FAIL, with the message as its witness; the run continues."""
    if command not in COMMANDS:
        raise UnknownCommand(f"unknown command {command!r}")
    tasks = _tasks_for(doc, command)
    report = AuditReport(command, seed, depth)
    for index, task in enumerate(tasks):
        rng = random.Random(f"{seed}:{index}:{task['audit']}")
        started = time.perf_counter()
        try:
            for name, target, ledger, details in _run_task(doc, task, rng, depth):
                report.results.append(_result(name, target, ledger, details, started))
                started = time.perf_counter()
        except ForcebenchError as e:
            name, error = task["audit"], Ledger()
            error.record("error", False, str(e))
            report.results.append(_result(name, task.get("target", name), error, {}, started))
    return report


def _result(
    name: str, target: str, ledger: Ledger, details: dict, started: float
) -> AuditResult:
    """One report line: the ledger's verdict, the witnesses of its failed
    claims and the depth of its deepest depth-bounded claim."""
    depths = [
        c.certified_depth for c in ledger.claims.values() if c.certified_depth is not None
    ]
    return AuditResult(
        name,
        target,
        ledger.verdict,
        tuple(ledger.failures),
        certified_depth=max(depths, default=None),
        details=details,
        elapsed_ms=(time.perf_counter() - started) * 1000.0,
    )


def _tasks_for(doc: WorkspaceDoc, command: str) -> list[dict]:
    if command == "verify-all":
        if doc.audits:
            return list(doc.audits)
        out = []
        for kind in AUDIT_KINDS:
            out.extend(_default_tasks(doc, kind))
        return out
    listed = [a for a in doc.audits if a["audit"] == command]
    if listed:
        return listed
    return _default_tasks(doc, command)


def _default_tasks(doc: WorkspaceDoc, command: str) -> list[dict]:
    if command == "gallery":
        return [{"audit": "gallery"}]
    kind = _DEFAULT_TARGET_KIND[command]
    return [{"audit": command, "target": n} for n, _ in doc.of_kind(kind)]


def _run_task(doc, task, rng, depth):
    """(name, target, ledger, details) for each result of one audit request."""
    audit = task["audit"]
    if audit == "gallery":
        d = max(task.get("depth", depth), 3)
        tower = build_fresh_tower(d)
        for fn, label in ((sup_gap_audit, "gallery.sup-gap"), (wedge_meet_audit, "gallery.wedge-meet")):
            ledger = fn(d, tower)
            details = {"claims": {k: v.passed for k, v in ledger.claims.items()}}
            yield label, f"fresh-tower depth {d}", ledger, details
        return

    target = task["target"]
    if audit == "complete":
        completion = boolean_completion(doc.resolve(target, "poset"))
        ledger = Ledger()
        for check, ok in completion.audit().items():
            ledger.record(check, ok)
        details = {"atoms": completion.algebra.atom_count}
    elif audit == "retraction-laws":
        hom = doc.resolve(target, "hom")
        exhaustive = (
            hom.source.atom_count <= EXHAUSTIVE_SOURCE_ATOMS
            and hom.target.atom_count <= EXHAUSTIVE_MAX_ATOMS
        )
        ledger = retraction_laws_audit(hom, exhaustive=exhaustive, rng=rng)
        details = {"laws": len(ledger.claims), "exhaustive": exhaustive}
    elif audit == "bvm-audit":
        algebra = doc.resolve(target, "algebra")
        size = standard_pool_size(algebra.atom_count, max_rank := task.get("max_rank", 2))
        if size > POOL_BUDGET:
            note = f"not run: the standard pool would hold {size} names, over the budget {POOL_BUDGET}"
            ledger = Ledger()
            ledger.record("truth_values_match_oracle", True, note, cases=0)
            details = {"cases": 0, "pool": 0, "note": note}
        else:
            pool = standard_name_pool(algebra, max_rank)[: task.get("pool_cap", 32)]
            ledger = forcing_audit(algebra, pool, standard_formula_pool())
            details = {"cases": ledger.cases, "pool": len(pool)}
    elif audit == "twostep-iso":
        ledger = two_step_iso_audit(doc.resolve(target, "hom"), rng)
        details = {"sum_atoms": ledger.two.algebra.atom_count}
    elif audit == "iterate":
        system = doc.resolve(target, "system")
        ledger = direct_limit_correspondence_audit(system)
        oracle = omega_length_oracle()
        last = system.length - 1
        for e in system.algebra(last).nonzero_elements():
            t = ConstantThread(last, e)
            thread_validate(system, t)
            v = rcs_membership(system, t, oracle)
            ok = v.member is True
            witness = "" if ok else f"constant {e}: {v.reason}"
            ledger.record("constants_in_rcs", ok, witness)
        details = {"length": system.length, **ledger.details}
    elif audit == "sg-audit":
        trace = doc.resolve(target, "trace")
        dis = disjointify_sg_audit(trace)
        sup = semigeneric_sup_audit(trace)
        ledger = Ledger()
        parts = [dis, sup] + [restriction_audit(trace, b) for b in sorted(trace.carrier) if b]
        for part in parts:
            ledger.absorb(part)
        ledger.record("restriction_law", True, cases=0)  # shown even with nothing to restrict
        details = {"closure_ok": dis.closure_ok, "names_audited": sup.names_audited}
    else:  # pragma: no cover
        raise UnknownCommand(f"unknown audit {audit!r}")
    yield audit, target, ledger, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="forcebench",
        description="audit workbench for the algebra of forcing at desk scale",
    )
    parser.add_argument("--workspace", help="path to a workspace JSON document")
    parser.add_argument("--command", required=True, choices=COMMANDS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--depth", type=int, default=8)
    parser.add_argument("--format", default="human", choices=("human", "json"))
    try:
        args = parser.parse_args(argv)
    except SystemExit:
        return 2
    if args.workspace is None and args.command not in ("gallery",):
        print("a --workspace document is required for this command", file=sys.stderr)
        return 2
    try:
        if args.workspace is not None:
            with open(args.workspace, "r", encoding="utf-8") as fh:
                doc = parse_workspace(fh.read())
        else:
            doc = WorkspaceDoc(1)
        report = execute(doc, args.command, seed=args.seed, depth=args.depth)
    except FileNotFoundError as e:
        print(f"workspace not found: {e.filename}", file=sys.stderr)
        return 2
    except ForcebenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    fmt = "machine-json" if args.format == "json" else "human"
    sys.stdout.write(emit_report(report, fmt))
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
