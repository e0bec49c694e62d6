"""Command-line entry point: run audits from a workspace document.

Commands: each audit of ``workspace.AUDITS``, and verify-all.  A command
runs its audit over the matching requests in the document's audit list, or
else over every declared object of its target kind; verify-all runs the
whole list (or every audit's defaults when it is empty).  An error inside
one audit is that result's FAIL.  Exit status: 0 all pass, 1 any FAIL or
INDETERMINATE, 2 usage or parse error.
"""
from __future__ import annotations

import argparse
import random
import sys
import time

from .errors import ForcebenchError, UnknownCommand
from .report import AuditReport, AuditResult, Ledger, emit_report
from .workspace import AUDITS, WorkspaceDoc, parse_workspace

COMMANDS = (*AUDITS, "verify-all")


def execute(doc: WorkspaceDoc, command: str, seed: int = 0, depth: int = 8) -> AuditReport:
    """Run the command's audits.  An error raised inside one audit is that
    result's FAIL, with the message as its witness; the run continues."""
    if command not in COMMANDS:
        raise UnknownCommand(f"unknown command {command!r}")
    report = AuditReport(command, seed, depth)
    for index, task in enumerate(_tasks_for(doc, command)):
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


def _result(name: str, target: str, ledger: Ledger, details: dict, started: float) -> AuditResult:
    """One report line: the ledger's verdict, the witnesses of its failed
    claims and the depth of its deepest depth-bounded claim."""
    depths = [c.certified_depth for c in ledger.claims.values() if c.certified_depth is not None]
    return AuditResult(
        name, target, ledger.verdict, tuple(ledger.failures),
        certified_depth=max(depths, default=None), details=details,
        elapsed_ms=(time.perf_counter() - started) * 1000.0,
    )


def _tasks_for(doc: WorkspaceDoc, command: str) -> list[dict]:
    """The command's requests in the audit list, or else its audits' defaults."""
    if command == "verify-all":
        listed, audits = list(doc.audits), AUDITS
    else:
        listed, audits = [a for a in doc.audits if a["audit"] == command], (command,)
    return listed or [task for audit in audits for task in _default_tasks(doc, audit)]


def _default_tasks(doc: WorkspaceDoc, audit: str) -> list[dict]:
    """One request per declared object of the audit's target kind."""
    kind = AUDITS[audit].kind
    if kind is None:
        return [{"audit": audit}]
    return [{"audit": audit, "target": n} for n, _ in doc.of_kind(kind)]


def _run_task(doc, task, rng, depth):
    """(name, target, ledger, details) for each result of one audit request;
    a request over its audit's budget checks no case."""
    spec = AUDITS[task["audit"]]
    target = doc.resolve(task["target"], spec.kind) if spec.kind else None
    size = spec.size(target, task) if spec.size else 0
    if size > spec.budget:
        note = f"not run: {size} {spec.unit}, over the budget {spec.budget}"
        ledger = Ledger()
        ledger.record(task["audit"], True, note, cases=0)
        yield task["audit"], task["target"], ledger, {"cases": 0, "note": note}
    else:
        yield from spec.run(target, task, rng, depth)


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
    spec = AUDITS.get(args.command)  # None for verify-all
    if args.workspace is None and (spec is None or spec.kind is not None):
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
    sys.stdout.write(emit_report(report, args.format))
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
