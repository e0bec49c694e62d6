import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from forcebench import bvm, cli, iteration, workspace
from forcebench.cli import execute, main
from forcebench.finite_cba import FiniteCBA
from forcebench.hf import EMPTY
from forcebench.poset import Poset
from forcebench.errors import (
    UnknownCommand,
    UnresolvedReference,
    ValidationError,
    WorkspaceSyntaxError,
)
from forcebench.report import (
    FAIL,
    INDETERMINATE,
    PASS,
    AuditReport,
    AuditResult,
    Claim,
    emit_report,
)
from forcebench.semigen import (
    DisjointifyReport,
    disjointify_sg_audit,
    restriction_audit,
    semigeneric_sup_audit,
)
from forcebench.workspace import parse_workspace

from .oracles import parse_machine_report

REPO = Path(__file__).resolve().parents[1]
DEMO = REPO / "workspaces" / "demo.json"
GALLERY = REPO / "workspaces" / "gallery.json"


def minimal_doc(extra_objects="", audits="[]"):
    return (
        '{"version": 1, "objects": ['
        '{"kind": "algebra", "name": "B", "atoms": 2}'
        + extra_objects
        + '], "audits": '
        + audits
        + "}"
    )


def test_parse_minimal():
    doc = parse_workspace(minimal_doc())
    assert doc.kinds["B"] == "algebra"
    assert len(doc.order) == 1


def test_parse_syntax_error_carries_location():
    with pytest.raises(WorkspaceSyntaxError) as err:
        parse_workspace('{"version": 1,\n  "objects": [}')
    assert err.value.line == 2


def test_parse_unresolved_reference():
    bad = minimal_doc(
        ', {"kind": "hom", "name": "i", "source": "B", "target": "missing", "fiber": [0]}'
    )
    with pytest.raises(UnresolvedReference):
        parse_workspace(bad)


def test_parse_wrong_arity_fiber():
    bad = minimal_doc(
        ', {"kind": "algebra", "name": "C", "atoms": 4}'
        ', {"kind": "hom", "name": "i", "source": "B", "target": "C", "fiber": [0, 0, 1]}'
    )
    with pytest.raises(ValidationError):
        parse_workspace(bad)


def test_parse_duplicate_name_rejected():
    bad = minimal_doc(', {"kind": "algebra", "name": "B", "atoms": 3}')
    with pytest.raises(ValidationError):
        parse_workspace(bad)


def test_relation_form_name_collapses():
    doc = parse_workspace(
        minimal_doc(
            ', {"kind": "name", "name": "n", "algebra": "B", '
            '"entries": [[{"check": []}, "{0}"], [{"check": []}, "{1}"]]}'
        )
    )
    name = doc.resolve("n", "name")
    (entry,) = name.entries
    assert entry[1] == 0b11


def test_workspace_names_are_the_interned_names():
    doc = parse_workspace(
        minimal_doc(
            ', {"kind": "name", "name": "a", "algebra": "B", "entries": [[{"check": []}, "{0}"]]}'
            ', {"kind": "name", "name": "r", "algebra": "B", "entries": [[{"ref": "a"}, "{0,1}"]]}'
            ', {"kind": "name", "name": "i", "algebra": "B", '
            '"entries": [[{"entries": [[{"check": []}, "{0}"], [{"check": []}, "{0}"]]}, "{0,1}"]]}'
        )
    )
    a, r, i = (doc.resolve(n, "name") for n in "ari")
    assert r is i
    b2 = FiniteCBA(2)  # not the workspace's algebra object, but equal to it
    assert b2 is not doc.resolve("B", "algebra")
    assert a is bvm.BName(b2, [(bvm.check_name(b2, EMPTY), 0b01)])
    assert r is bvm.BName(b2, [(a, 0b11)])


def test_shipped_gallery_workspace_parses_to_tower_request():
    doc = parse_workspace(GALLERY.read_text())
    assert doc.audits == [{"audit": "gallery", "depth": 16}]


def test_execute_unknown_command():
    doc = parse_workspace(minimal_doc())
    with pytest.raises(UnknownCommand):
        execute(doc, "frobnicate")


def test_execute_single_command_fallback_targets():
    doc = parse_workspace(minimal_doc())
    report = execute(doc, "bvm-audit", seed=1)
    assert len(report.results) == 1
    assert report.results[0].target == "B"


def test_demo_verify_all_passes():
    doc = parse_workspace(DEMO.read_text())
    report = execute(doc, "verify-all", seed=3, depth=6)
    assert report.passed
    assert len(report.results) == len(doc.audits) + 1  # gallery yields two results


def test_determinism_byte_identical_reports():
    doc = parse_workspace(DEMO.read_text())
    a = emit_report(execute(doc, "verify-all", seed=11, depth=6), "machine-json")
    b = emit_report(execute(doc, "verify-all", seed=11, depth=6), "machine-json")
    assert a == b


def test_machine_report_round_trips():
    doc = parse_workspace(minimal_doc())
    text = emit_report(execute(doc, "bvm-audit", seed=0), "machine-json")
    data = parse_machine_report(text)
    assert data["schema_version"] == 1
    assert emit_report(execute(doc, "bvm-audit", seed=0), "machine-json") == text


def test_empty_report_header_only():
    text = emit_report(AuditReport("verify-all", 0, 8), "human")
    lines = text.strip().splitlines()
    assert lines[0].startswith("forcebench verify-all")
    assert lines[-1].startswith("summary: 0 pass")


def test_failed_audit_prints_witness():
    report = AuditReport("retraction-laws", 0, 8)
    report.results.append(
        AuditResult("retraction-laws", "i", FAIL, ("meet_translation: b={0} c={0,2}",))
    )
    text = emit_report(report, "human")
    assert "witness: meet_translation" in text
    assert not report.passed


def test_cli_exit_codes(tmp_path):
    ok = main(["--workspace", str(DEMO), "--command", "complete", "--format", "json"])
    assert ok == 0
    missing = main(["--workspace", str(tmp_path / "nope.json"), "--command", "complete"])
    assert missing == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--workspace", str(bad), "--command", "complete"]) == 2
    assert main(["--command", "frobnicate"]) == 2  # argparse rejects the choice
    assert main(["--command", "retraction-laws"]) == 2  # needs a workspace


def test_cli_gallery_without_workspace(capsys):
    code = main(["--command", "gallery", "--depth", "4", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0
    data = json.loads(captured.out)
    assert data["summary"]["PASS"] == 2


def test_failing_workspace_gives_exit_1(tmp_path):
    # a trace whose designated antichain misses the carrier: sup audit still
    # holds, but make a hom audit fail by... homs cannot fail; use a poset
    # completion with an impossible check instead: all audits are sound, so
    # exercise exit 1 through a synthetic failing report
    report = AuditReport("complete", 0, 8)
    report.results.append(AuditResult("complete", "p", FAIL))
    assert not report.passed


def test_audit_error_is_that_results_fail(tmp_path, capsys):
    # squash kills an atom, so it is not a regular embedding: the retraction
    # laws audit its cokernel restriction, the two-step audit refuses it
    ws = tmp_path / "squash.json"
    ws.write_text(
        minimal_doc(
            ', {"kind": "hom", "name": "squash", "source": "B", "target": "B", "fiber": [0, 0]}',
            audits='[{"audit": "retraction-laws", "target": "squash"},'
            ' {"audit": "twostep-iso", "target": "squash"}]',
        )
    )
    code = main(["--workspace", str(ws), "--command", "verify-all", "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 1
    laws, iso = data["results"]
    assert (laws["name"], laws["verdict"]) == ("retraction-laws", "PASS")
    assert (iso["name"], iso["target"], iso["verdict"]) == ("twostep-iso", "squash", "FAIL")
    assert iso["witnesses"] == ["error: operation requires a regular embedding"]
    assert data["summary"] == {"PASS": 1, "FAIL": 1, "INDETERMINATE": 0}


def test_zero_case_audit_is_indeterminate():
    doc = parse_workspace(
        minimal_doc(audits='[{"audit": "bvm-audit", "target": "B", "pool_cap": 0}]')
    )
    report = execute(doc, "verify-all")
    (result,) = report.results
    assert result.verdict == INDETERMINATE and result.details["cases"] == 0
    assert not report.passed


def test_complete_on_an_empty_poset_is_indeterminate(tmp_path, capsys):
    ws = tmp_path / "empty.json"
    ws.write_text(minimal_doc(
        ', {"kind": "poset", "name": "P", "elements": []}',
        audits='[{"audit": "complete", "target": "P"}]',
    ))
    code = main(["--workspace", str(ws), "--command", "verify-all", "--format", "json"])
    (result,) = json.loads(capsys.readouterr().out)["results"]
    assert (code, result["verdict"], result["details"]) == (1, INDETERMINATE, {"atoms": 0})


def test_zero_atom_bvm_audit_is_indeterminate_and_the_run_goes_on(tmp_path):
    # on 0 atoms 1 is 0, which labels no entry: the pool is the empty check name
    ws = tmp_path / "zero.json"
    ws.write_text(json.dumps({
        "version": 1,
        "objects": [{"kind": "algebra", "name": "Z", "atoms": 0},
                    {"kind": "algebra", "name": "B", "atoms": 1}],
        "audits": [{"audit": "bvm-audit", "target": "Z"}, {"audit": "bvm-audit", "target": "B"}],
    }))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-m", "forcebench", "--workspace", str(ws), "--command", "verify-all",
         "--format", "json"],
        capture_output=True, text=True, cwd=str(REPO), env=env,
    )
    assert out.returncode == 1, out.stderr
    assert "Traceback" not in out.stderr
    zero, one = json.loads(out.stdout)["results"]
    assert (zero["target"], zero["verdict"]) == ("Z", INDETERMINATE)
    assert zero["details"] == {"cases": 0, "pool": 1}
    assert (one["target"], one["verdict"]) == ("B", PASS)


def test_machine_report_identical_across_hash_seeds():
    outputs = set()
    for hash_seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
        )
        out = subprocess.run(
            [sys.executable, "-m", "forcebench", "--workspace", "workspaces/demo.json",
             "--command", "verify-all", "--format", "json"],
            capture_output=True,
            text=True,
            cwd=str(REPO),
            env=env,
        )
        assert out.returncode == 0, out.stderr
        outputs.add(out.stdout)
    assert len(outputs) == 1


def test_subprocess_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "forcebench", "--workspace", str(GALLERY),
         "--command", "gallery", "--depth", "6", "--format", "json"],
        capture_output=True,
        text=True,
        cwd=str(REPO),
    )
    assert out.returncode == 0, out.stderr
    data = json.loads(out.stdout)
    assert data["command"] == "gallery"


def _sg_doc(carrier):
    trace = (
        ', {"kind": "trace", "name": "M", "algebra": "B", "carrier": ' + json.dumps(carrier)
        + ', "predense": [["{0}", "{1}"]], "antichains": [["{0}", "{1}"]],'
        ' "kappa": 3, "delta": [0]}'
    )
    return parse_workspace(minimal_doc(trace, audits='[{"audit": "sg-audit", "target": "M"}]'))


@pytest.mark.parametrize(
    "carrier, claim, note",
    [
        (["{0}", "{1}", "{0,1}"], "disjointification_degree", ""),
        (
            ["{0,1}"],
            "disjointification_lower_bound",
            "predense set 0 leaves the carrier; disjointification of set 0 leaves the carrier",
        ),
    ],
)
def test_sg_audit_names_the_claim_its_carrier_allows(carrier, claim, note):
    # a carrier missing the disjointification terms only bounds sg from below
    doc = _sg_doc(carrier)
    [(_, _, ledger, details)] = cli._run_task(doc, doc.audits[0], None, 8)
    assert details["closure_ok"] is (claim == "disjointification_degree")
    assert list(ledger.claims)[0] == claim
    assert ledger.claims[claim].passed and ledger.claims[claim].witness == note
    assert execute(doc, "sg-audit").results[0].verdict == PASS


@pytest.mark.parametrize("closed", [True, False])
def test_failing_sg_bound_reports_its_claim(monkeypatch, closed):
    failing = DisjointifyReport(gaps=[] if closed else ["gap"])
    claim = "disjointification_degree" if closed else "disjointification_lower_bound"
    failing.record(claim, False, "; ".join(failing.gaps))
    monkeypatch.setattr(workspace, "disjointify_sg_audit", lambda trace: failing)
    (result,) = execute(_sg_doc(["{0}", "{1}", "{0,1}"]), "sg-audit").results
    expected = "disjointification_degree: " if closed else "disjointification_lower_bound: gap"
    assert result.verdict == FAIL and result.witnesses == (expected,)


def test_vacuous_sg_audit_is_indeterminate(tmp_path, capsys):
    # a predense set but no antichain and no ordinal name: no name is audited
    trace = (
        ', {"kind": "trace", "name": "M", "algebra": "B", "carrier": ["{0}", "{1}", "{0,1}"],'
        ' "predense": [["{0}", "{1}"]]}'
    )
    ws = tmp_path / "vacuous.json"
    ws.write_text(minimal_doc(trace, audits='[{"audit": "sg-audit", "target": "M"}]'))
    code = main(["--workspace", str(ws), "--command", "sg-audit", "--format", "json"])
    (result,) = json.loads(capsys.readouterr().out)["results"]
    assert code == 1
    assert result["verdict"] == INDETERMINATE and result["details"]["names_audited"] == 0


def _sg_run(tmp_path, capsys, carrier, predense):
    trace = (
        ', {"kind": "trace", "name": "M", "algebra": "B", "carrier": ' + json.dumps(carrier)
        + ', "predense": ' + json.dumps(predense) + ', "antichains": [["{0}", "{1}"]],'
        ' "kappa": 3, "delta": [0]}'
    )
    ws = tmp_path / "sg.json"
    ws.write_text(minimal_doc(trace, audits='[{"audit": "sg-audit", "target": "M"}]'))
    code = main(["--workspace", str(ws), "--command", "sg-audit", "--format", "json"])
    (result,) = json.loads(capsys.readouterr().out)["results"]
    doc = parse_workspace(ws.read_text())
    [(_, _, ledger, _)] = cli._run_task(doc, doc.audits[0], None, 8)
    return code, result["verdict"], ledger


@pytest.mark.parametrize(
    "carrier, predense, claim",
    [
        (["{0}", "{1}", "{0,1}"], [], "disjointification_degree"),
        (["{0}", "{1}", "{0,1}"], [["{0}", "{1}"], ["{0,1}"]], "disjointification_degree"),
        (["{0,1}"], [["{0}", "{1}"], ["{0,1}"]], "disjointification_lower_bound"),
    ],
)
def test_disjointification_counts_one_case_per_predense_set(
    tmp_path, capsys, carrier, predense, claim
):
    # no predense set: nothing was disjointified, so the claim holds over nothing
    code, verdict, ledger = _sg_run(tmp_path, capsys, carrier, predense)
    assert ledger.claims[claim].passed and ledger.claims[claim].cases == len(predense)
    assert (code, verdict) == ((0, PASS) if predense else (1, INDETERMINATE))


def test_sg_audit_on_a_carrier_of_zeros_restricts_nothing(tmp_path, capsys):
    code, verdict, ledger = _sg_run(tmp_path, capsys, ["{}"], [["{0}", "{1}"]])
    assert ledger.claims["restriction_law"].cases == 0
    assert (code, verdict) == (1, INDETERMINATE)


@pytest.mark.parametrize("option", ["pool_cap", "max_rank", "depth"])
@pytest.mark.parametrize("value", [-1, "x", 2.5, True])
def test_numeric_audit_options_are_validated(option, value):
    audit = {"audit": "gallery" if option == "depth" else "bvm-audit", option: value}
    if option != "depth":
        audit["target"] = "B"
    with pytest.raises(ValidationError, match=option):
        parse_workspace(minimal_doc(audits=json.dumps([audit])))


def test_bad_pool_cap_exits_2(tmp_path):
    ws = tmp_path / "cap.json"
    ws.write_text(minimal_doc(audits='[{"audit": "bvm-audit", "target": "B", "pool_cap": -1}]'))
    assert main(["--workspace", str(ws), "--command", "bvm-audit"]) == 2


def _bvm_doc():
    return parse_workspace(
        minimal_doc(audits='[{"audit": "bvm-audit", "target": "B", "pool_cap": 6}]')
    )


def _library_forcing_audit(doc):
    pool = bvm.standard_name_pool(doc.resolve("B", "algebra"), max_rank=2)[:6]
    return bvm.forcing_audit(doc.resolve("B", "algebra"), pool, bvm.standard_formula_pool())


def test_cli_yields_the_forcing_audits_claims():
    doc = _bvm_doc()
    [(_, _, ledger, details)] = cli._run_task(doc, doc.audits[0], None, 8)
    library = _library_forcing_audit(doc)
    assert ledger.claims == library.claims
    assert details == {"cases": library.cases, "pool": 6} and library.cases > 0


def test_cli_reports_a_planted_divergence(monkeypatch):
    calls = []
    honest = bvm.hf_satisfies

    def flip_third(phi, env, pool):
        calls.append(phi)
        return honest(phi, env, pool) ^ (len(calls) == 3)

    monkeypatch.setattr(bvm, "hf_satisfies", flip_third)
    (result,) = execute(_bvm_doc(), "bvm-audit").results
    calls.clear()
    library = _library_forcing_audit(_bvm_doc())
    # the oracle runs once per distinct tuple of values, so every case that
    # carries the flipped tuple diverges: at atom 0, u one of the 3 pool
    # names whose value there is {} and v one of the 2 whose value is {{}}
    assert len(library.divergences) == 6
    divergence = library.divergences[0]
    assert divergence.startswith("atom 0:")
    assert result.verdict == FAIL
    assert result.witnesses == (f"truth_values_match_oracle: {divergence}",)


@pytest.mark.parametrize("carrier", [["{0}", "{1}", "{0,1}"], ["{0,1}"]])
def test_cli_yields_the_semigenericity_audits_claims(carrier):
    doc = _sg_doc(carrier)
    trace = doc.resolve("M", "trace")
    [(_, _, ledger, _)] = cli._run_task(doc, doc.audits[0], None, 8)
    parts = [disjointify_sg_audit(trace), semigeneric_sup_audit(trace)]
    parts += [restriction_audit(trace, b) for b in sorted(trace.carrier) if b]
    expected = {}
    for part in parts:
        for name, claim in part.claims.items():
            if name in expected:
                expected[name] = Claim(
                    expected[name].passed and claim.passed,
                    expected[name].cases + claim.cases,
                    expected[name].witness,
                )
            else:
                expected[name] = Claim(claim.passed, claim.cases, claim.witness)
    assert ledger.claims == expected


_TRACE = '{"kind": "trace", "name": "M", "algebra": "B", "carrier": [3]}'
_LABEL = '{"kind": "name", "name": "d", "algebra": "B", "entries": [[{"check": []}, ["{0}"]]]}'


def _trace_with(field):
    return '{"kind": "trace", "name": "M", "algebra": "B", "carrier": ["{0}"], ' + field + "}"


@pytest.mark.parametrize(
    "objects, audits, message",
    [
        ('{"kind": "algebra", "name": "C"}', "[]", "C: missing field 'atoms'"),
        (_TRACE, "[]", "M: element must be a string"),
        (_LABEL, "[]", "d: element must be a string"),
        ('{"kind": "algebra", "name": ["C"], "atoms": 1}', "[]", "objects: name ['C']"),
        ("", '[{"audit": "complete", "target": ["B"]}]', "audits: target ['B']"),
        ('{"kind": "algebra", "name": "C", "atoms": true}', "[]", "C: atoms must be"),
        (
            '{"kind": "poset", "name": "P", "elements": ["a"], "order": [["a", "a", "a"]]}',
            "[]",
            "P: order entries must be [below, above] pairs",
        ),
        (
            '{"kind": "hom", "name": "h", "source": ["B"], "target": "B", "fiber": [0, 1]}',
            "[]",
            "h: source must name a declared algebra, not ['B']",
        ),
        (
            '{"kind": "trace", "name": "M", "algebra": "B", "carrier": [], "kappa": "x"}',
            "[]",
            "M: kappa must be a nonnegative integer",
        ),
        ('{"kind": "poset", "name": "P", "elements": 5}', "[]", "P: elements must be a list"),
        (
            '{"kind": "trace", "name": "M", "algebra": "B", "carrier": [], "delta": "ab"}',
            "[]",
            "M: delta must be a list",
        ),
        (
            '{"kind": "trace", "name": "M", "algebra": "B", "carrier": [], "delta": ["a"]}',
            "[]",
            "M: delta items must be nonnegative integers",
        ),
        (
            '{"kind": "algebra", "name": "C", "atoms": 3}, '
            '{"kind": "hom", "name": "h", "source": "B", "target": "C", "fiber": [true, false, 1]}',
            "[]",
            "h: fiber items must be nonnegative integers",
        ),
        (
            '{"kind": "hom", "name": "h", "source": "B", "target": "B", "fiber": [0.0, 0]}',
            "[]",
            "h: fiber items must be nonnegative integers",
        ),
        ("", '[{"audit": "bvm-audit"}]', "audits: bvm-audit needs a target algebra"),
        ("", '[{"audit": "complete", "target": "B"}]', "B: expected a poset, found an algebra"),
    ],
    ids=[
        "missing-field", "trace-element", "name-label", "object-name", "audit-target",
        "bool-atoms", "poset-order-triple", "hom-source-list", "trace-kappa-string",
        "poset-elements-int", "trace-delta-string", "trace-delta-item", "hom-fiber-bool",
        "hom-fiber-float", "audit-without-target",
        "audit-target-of-the-wrong-kind",
    ],
)
def test_malformed_workspace_is_a_parse_error(tmp_path, objects, audits, message):
    _assert_parse_error(
        tmp_path, minimal_doc(", " + objects if objects else "", audits=audits), message
    )


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"version": 1, "objects": 5}', "workspace: objects must be a list"),
        ('{"version": 1, "audits": 7}', "workspace: audits must be a list"),
    ],
    ids=["objects-int", "audits-int"],
)
def test_top_level_fields_that_are_not_lists_are_parse_errors(tmp_path, text, message):
    _assert_parse_error(tmp_path, text, message)


@pytest.mark.parametrize(
    "objects, message",
    [
        (_trace_with('"ordinal_names": [5]'), "M: ordinal_names items must be"),
        (_trace_with('"predense": [5]'), "M: predense items must be lists"),
        (_trace_with('"antichains": ["{0}"]'), "M: antichains items must be lists"),
        ('{"kind": "name", "name": "d", "algebra": "B", "entries": [5]}', "d: entries must hold"),
        (
            _trace_with('"ordinal_names": [{"antichain": "{0,1}", "labels": [0]}]'),
            "M: antichain must be a list, not '{0,1}'",
        ),
        (
            _trace_with('"ordinal_names": [{"antichain": ["{0}", "{1}"], "labels": ["a"]}]'),
            "M: labels items must be nonnegative integers",
        ),
        (
            _trace_with('"ordinal_names": [{"antichain": ["{0}", "{1}"], "labels": 0}]'),
            "M: labels must be a list, not 0",
        ),
    ],
    ids=[
        "ordinal-names", "predense", "antichains", "name-entries",
        "ordinal-name-antichain-string", "ordinal-name-label-string", "ordinal-name-labels-int",
    ],
)
def test_list_items_of_the_wrong_shape_name_their_field(objects, message):
    with pytest.raises(ValidationError) as raised:
        parse_workspace(minimal_doc(", " + objects))
    assert str(raised.value).startswith(message)


def _assert_parse_error(tmp_path, text, message):
    ws = tmp_path / "bad.json"
    ws.write_text(text)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-m", "forcebench", "--workspace", str(ws), "--command", "verify-all"],
        capture_output=True, text=True, cwd=str(REPO), env=env,
    )
    assert out.returncode == 2, out.stderr
    assert "Traceback" not in out.stderr
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0], lines


def test_bvm_audit_over_the_pool_budget_checks_no_case(tmp_path, capsys):
    # the standard pool over a million atoms would hold about 6e12 names;
    # it is counted, not built
    ws = tmp_path / "huge.json"
    ws.write_text('{"version": 1, "objects": [{"kind": "algebra", "name": "C", "atoms": 1000000}]}')
    assert main(["--workspace", str(ws), "--command", "bvm-audit", "--format", "json"]) == 1
    (result,) = json.loads(capsys.readouterr().out)["results"]
    assert result["verdict"] == INDETERMINATE and result["witnesses"] == []
    assert result["details"]["cases"] == 0
    assert f"over the budget {workspace.POOL_BUDGET}" in result["details"]["note"]
    assert bvm.standard_pool_size(1_000_000, 2) > workspace.POOL_BUDGET
    assert bvm.standard_pool_size(64, 2) <= workspace.POOL_BUDGET


def test_twostep_iso_over_the_atom_budget_checks_no_case(tmp_path, capsys):
    # 8 -> 4,096 atoms: the presentation would take minutes; the atoms are
    # counted, not presented
    fiber = json.dumps([t % 8 for t in range(4096)])
    ws = tmp_path / "wide.json"
    ws.write_text(
        '{"version": 1, "objects": [{"kind": "algebra", "name": "B", "atoms": 8},'
        ' {"kind": "algebra", "name": "C", "atoms": 4096},'
        ' {"kind": "hom", "name": "i", "source": "B", "target": "C", "fiber": ' + fiber + "}]}"
    )
    started = time.perf_counter()
    assert main(["--workspace", str(ws), "--command", "twostep-iso", "--format", "json"]) == 1
    assert time.perf_counter() - started < 10
    (result,) = json.loads(capsys.readouterr().out)["results"]
    assert result["verdict"] == INDETERMINATE and result["witnesses"] == []
    assert result["details"] == {
        "cases": 0,
        "note": f"not run: 4096 target atoms, over the budget {workspace.ISO_BUDGET}",
    }
    assert workspace.ISO_BUDGET < 4096


# -- iterate: the iteration-system laws as claims ------------------------------------

# the claims iterate recorded before the iteration laws, one case each
_COMPLETION = dict.fromkeys((
    "completion_atom_count", "completion_order_preserving",
    "completion_incompatibility_preserving", "completion_dense_image",
    "completion_image_in_b_plus",
), 1)


def _system_doc(atoms, fibers):
    """A system over algebras of the given atom counts, step k with fiber ``fibers[k]``."""
    objects = [{"kind": "algebra", "name": f"A{k}", "atoms": n} for k, n in enumerate(atoms)]
    objects += [
        {"kind": "hom", "name": f"s{k}", "source": f"A{k}", "target": f"A{k + 1}", "fiber": f}
        for k, f in enumerate(fibers)
    ]
    objects.append({
        "kind": "system", "name": "sys", "algebras": [o["name"] for o in objects[: len(atoms)]],
        "steps": [f"s{k}" for k in range(len(fibers))],
    })
    return parse_workspace(json.dumps({"version": 1, "objects": objects, "audits": []}))


def _iterate_cases(doc, target):
    """The iterate ledger's claims in order, each with its case count."""
    [(_, _, ledger, _)] = cli._run_task(doc, {"audit": "iterate", "target": target}, None, 8)
    assert ledger.verdict == PASS, ledger.failures
    return [(name, claim.cases) for name, claim in ledger.claims.items()]


@pytest.mark.parametrize(
    "doc, target, laws",
    [
        # demo chain, 1 -> 2 -> 4 atoms: 19 searched seeds, a tail at each of
        # 3 (stage, atom) pairs, 16 constants glued at each of 2 stages, and
        # 16 elements under each of the index maps (0, 2), (1, 2) and (2,)
        (lambda: parse_workspace(DEMO.read_text()), "chain", (19, 3, 32, 48)),
        (lambda: _system_doc([1, 4], [[0, 0, 0, 0]]), "sys", (16, 1, 16, 32)),
    ],
    ids=["demo-chain", "1-to-4-atoms"],
)
def test_iterate_records_the_iteration_laws(doc, target, laws):
    names = (
        "pointwise_sup_is_the_sup", "quotient_tail_is_a_system", "quotient_classes_glue",
        "cofinal_reindex_agrees",
    )
    expected = {**_COMPLETION, "round_trip": 16, "constants_in_rcs": 15, **dict(zip(names, laws))}
    assert _iterate_cases(doc(), target) == list(expected.items())


def test_iterate_over_the_atom_budget_checks_no_case():
    # 1 -> 13 atoms: the audit of the 8,191 constant threads takes about 8 s;
    # the last stage's atoms are counted, not completed
    doc = _system_doc([1, 13], [[0] * 13])
    started = time.perf_counter()
    (result,) = execute(doc, "iterate").results
    assert time.perf_counter() - started < 5
    note = f"not run: 13 last-stage atoms, over the budget {workspace.ITERATE_BUDGET}"
    assert result.as_json() == {
        "name": "iterate", "target": "sys", "verdict": INDETERMINATE, "witnesses": [],
        "certified_depth": None, "details": {"cases": 0, "note": note},
    }
    # 1 -> 12 atoms (about 0.5 s) is the largest system that runs
    spec = workspace.AUDITS["iterate"]
    twelve = _system_doc([1, 12], [[0] * 12]).resolve("sys")
    assert spec.size(twelve, {}) == workspace.ITERATE_BUDGET == 12


def test_iterate_at_the_atom_budget_passes():
    # 1 -> 12 atoms: every claim runs, on the 4,095 constant threads
    doc = _system_doc([1, 12], [[0] * 12])
    (result,) = execute(doc, "iterate").results
    assert (result.verdict, result.witnesses) == (PASS, ())
    assert result.details["elements"] == 4095


def test_eager_iterate_and_the_demo_never_build_a_pair_set(monkeypatch):
    # the pair constructor is the one place a poset's pairs are spelled out;
    # parsing closes covers into masks and iterate builds its constant
    # threads' order from masks, so neither reaches it
    def refuse(*_):
        raise AssertionError("a pair set was built")

    monkeypatch.setattr(Poset, "__init__", refuse)
    (result,) = execute(parse_workspace(DEMO.read_text()), "iterate").results
    assert (result.verdict, result.details["elements"]) == (PASS, 15)


@pytest.mark.parametrize("shape", ["chain", "antichain"])
def test_a_ten_thousand_element_poset_parses_within_the_ceiling(shape):
    elements = [f"e{k}" for k in range(10_000)]
    order = list(zip(elements, elements[1:])) if shape == "chain" else []
    decl = {"kind": "poset", "name": "P", "elements": elements, "order": order}
    started = time.perf_counter()
    poset = parse_workspace(minimal_doc(", " + json.dumps(decl))).resolve("P")
    assert time.perf_counter() - started < 5
    assert poset.minimal_elements() == (("e0",) if shape == "chain" else tuple(elements))


def test_incoherent_constant_is_a_witness_not_an_error():
    # the built chain 1 -> 2 -> 4 atoms gets a wrong projection from stage 1
    # to stage 0: every constant thread of the last stage is incoherent at
    # (0, 1), which constants_in_rcs records case by case instead of the
    # whole audit reading "error: ..."
    doc = _system_doc([1, 2, 4], [[0, 0], [0, 0, 1, 1]])
    object.__setattr__(doc.resolve("sys").hom(0, 1), "_project", lambda c: 0)
    [(_, _, ledger, _)] = cli._run_task(doc, {"audit": "iterate", "target": "sys"}, None, 8)
    claim = ledger.claims["constants_in_rcs"]
    assert (claim.passed, claim.cases) == (False, 15)
    (result,) = execute(doc, "iterate").results
    assert result.verdict == FAIL
    assert result.witnesses == (
        "constants_in_rcs: constant 1: not coherent at (0,1)",
        "pointwise_sup_is_the_sup: refinement not coherent at (0,1)",
        "quotient_classes_glue: stage 0, constant 1: "
        "projection of coordinate 2 does not match coordinate 0",
        "cofinal_reindex_agrees: index map (0, 2), element 1: not coherent at (0,1)",
    )


def test_complete_over_the_element_budget_checks_no_case():
    # a 6,001-element antichain: the completion's three passes over its
    # elements take 2.5-4.2 s at the budget and grow with its square; the
    # elements are counted instead
    elements = [f"a{k}" for k in range(6001)]
    decl = {"kind": "poset", "name": "P", "elements": elements}
    doc = parse_workspace(minimal_doc(", " + json.dumps(decl)))
    started = time.perf_counter()
    (result,) = execute(doc, "complete").results
    assert time.perf_counter() - started < 5
    note = f"not run: 6001 poset elements, over the budget {workspace.COMPLETE_BUDGET}"
    assert result.as_json() == {
        "name": "complete", "target": "P", "verdict": INDETERMINATE, "witnesses": [],
        "certified_depth": None, "details": {"cases": 0, "note": note},
    }
    # the demo tree has three elements, and its completion the two leaves as atoms
    tree = parse_workspace(DEMO.read_text())
    assert workspace.AUDITS["complete"].size(tree.resolve("tree"), {}) == 3
    (result,) = execute(tree, "complete").results
    assert result.as_json() == {
        "name": "complete", "target": "tree", "verdict": PASS, "witnesses": [],
        "certified_depth": None, "details": {"atoms": 2},
    }


@pytest.mark.parametrize(
    "atoms, fibers, cases, details",
    [
        # one stage has no tail, so no quotient claim
        ([2], [], {"round_trip": 4, "constants_in_rcs": 3, "pointwise_sup_is_the_sup": 3,
                   "cofinal_reindex_agrees": 4}, {"length": 1, "elements": 3}),
        # no atom: nothing to quotient at, and no antichain of atoms
        ([0, 0], [[]], {"round_trip": 1, "cofinal_reindex_agrees": 2},
         {"length": 2, "elements": 0}),
    ],
    ids=["one-stage", "no-atoms"],
)
def test_iterate_records_no_claim_without_cases(atoms, fibers, cases, details):
    # the report is the one it was before the iteration laws were recorded
    doc = _system_doc(atoms, fibers)
    assert _iterate_cases(doc, "sys") == list({**_COMPLETION, **cases}.items())
    (result,) = execute(doc, "iterate").results
    assert result.as_json() == {
        "name": "iterate", "target": "sys", "verdict": PASS, "witnesses": [],
        "certified_depth": None, "details": details,
    }


@pytest.mark.parametrize(
    "function, defect, witness",
    [
        # the re-indexed system loses its first stage whenever it has two
        ("reindex_system", lambda honest: lambda s, idx: honest(s, idx[1:] or idx),
         "cofinal_reindex_agrees: index map (0, 2), element 0: "
         "restricted to (0, 0), re-indexed to (0,)"),
        # every glued coordinate above the quotient stage gains atom 0
        ("canonical_representative", lambda honest: lambda *args: honest(*args) | 1,
         "quotient_classes_glue: stage 0, constant 0: glued (1, 1, 1), not (0, 0, 0)"),
    ],
    ids=["reindex-drops-a-stage", "gluing-adds-an-atom"],
)
def test_planted_iteration_defect_fails_iterate_alone(monkeypatch, function, defect, witness):
    monkeypatch.setattr(iteration, function, defect(getattr(iteration, function)))
    report = execute(parse_workspace(DEMO.read_text()), "verify-all")
    assert [r.name for r in report.results].index("iterate") == 5
    for r in report.results:
        expected = (FAIL, (witness,)) if r.name == "iterate" else (PASS, ())
        assert (r.verdict, r.witnesses) == expected, r.name
