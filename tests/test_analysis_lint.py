"""repro.analysis: invariant linter framework + built-in rule set.

Rule behavior is exercised against the fixture modules in
``tests/fixtures/lint/`` — one per rule, each containing ``violating_*``
functions (every one must draw that rule's finding) and ``compliant_*``
functions (none may). Fixtures are parsed under virtual ``src/repro/...``
paths, never imported.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from repro.analysis import (
    Baseline,
    Finding,
    Severity,
    lint_paths,
    lint_source,
    parse_pragmas,
    rule_ids,
    to_document,
)
from repro.analysis.registry import RuleMeta, register_rule
from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures" / "lint"
REPO_SRC = Path(__file__).parent.parent / "src"

#: fixture file -> (rule id, virtual path it is linted under)
FIXTURE_CASES = {
    "det_fixture.py": ("DET", "src/repro/service/det_fixture.py"),
    "clk_fixture.py": ("CLK", "src/repro/service/clk_fixture.py"),
    "thr_fixture.py": ("THR", "src/repro/service/thr_fixture.py"),
    "fp_fixture.py": ("FP", "src/repro/geometry/fp_fixture.py"),
    "io_fixture.py": ("IO", "src/repro/service/io_fixture.py"),
}


def _function_spans(source: str):
    """(name, first line, last line) of every top-level function/method."""
    spans = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            spans.append((node.name, node.lineno, node.end_lineno))
    return spans


@pytest.mark.parametrize("fixture_name", sorted(FIXTURE_CASES))
def test_rule_fixture(fixture_name):
    rule_id, virtual_path = FIXTURE_CASES[fixture_name]
    source = (FIXTURES / fixture_name).read_text(encoding="utf-8")
    result = lint_source(source, path=virtual_path, only=[rule_id])
    findings = result.sorted_findings()
    assert all(f.rule == rule_id for f in findings)

    flagged_lines = {f.line for f in findings}
    for name, first, last in _function_spans(source):
        hits = {line for line in flagged_lines if first <= line <= last}
        if name.startswith("violating_"):
            assert hits, f"{fixture_name}:{name} drew no {rule_id} finding"
        elif name.startswith(("compliant_", "pragmad_")):
            assert not hits, (
                f"{fixture_name}:{name} drew unexpected finding(s) "
                f"on line(s) {sorted(hits)}"
            )


def test_det_fixture_flags_module_import():
    source = (FIXTURES / "det_fixture.py").read_text(encoding="utf-8")
    result = lint_source(source, path="src/repro/service/det_fixture.py", only=["DET"])
    assert any("import of stdlib `random`" in f.message for f in result.findings)


def test_fp_fixture_pragma_is_counted():
    source = (FIXTURES / "fp_fixture.py").read_text(encoding="utf-8")
    result = lint_source(source, path="src/repro/geometry/fp_fixture.py", only=["FP"])
    assert result.suppressed == 1


def test_fixtures_out_of_scope_are_clean():
    """The same sources draw nothing outside the packages the rules guard."""
    for fixture_name in FIXTURE_CASES:
        source = (FIXTURES / fixture_name).read_text(encoding="utf-8")
        result = lint_source(source, path=f"tests/fixtures/lint/{fixture_name}")
        assert result.findings == []


# ----------------------------------------------------------------------
# pragmas
# ----------------------------------------------------------------------
VIOLATING_CLK = "import time\n\n\ndef f() -> float:\n    return time.time(){pragma}\n"


def test_line_pragma_suppresses_named_rule():
    source = VIOLATING_CLK.format(pragma="  # repro-lint: disable=CLK -- why")
    result = lint_source(source, path="src/repro/service/x.py")
    assert result.findings == []
    assert result.suppressed == 1


def test_line_pragma_all_suppresses_everything():
    source = VIOLATING_CLK.format(pragma="  # repro-lint: disable=all")
    result = lint_source(source, path="src/repro/service/x.py")
    assert result.findings == []


def test_line_pragma_other_rule_does_not_suppress():
    source = VIOLATING_CLK.format(pragma="  # repro-lint: disable=DET")
    result = lint_source(source, path="src/repro/service/x.py")
    assert [f.rule for f in result.findings] == ["CLK"]
    assert result.suppressed == 0


def test_file_pragma_in_header_window():
    source = "# repro-lint: disable-file=CLK\n" + VIOLATING_CLK.format(pragma="")
    result = lint_source(source, path="src/repro/service/x.py")
    assert result.findings == []
    assert result.suppressed == 1


def test_file_pragma_past_header_window_is_inert():
    filler = "\n" * 15
    source = filler + "# repro-lint: disable-file=CLK\n" + VIOLATING_CLK.format(pragma="")
    result = lint_source(source, path="src/repro/service/x.py")
    assert [f.rule for f in result.findings] == ["CLK"]


def test_parse_pragmas_index():
    index = parse_pragmas(
        ["x = 1  # repro-lint: disable=DET,THR", "# repro-lint: disable-file=FP"]
    )
    assert index.line_rules[1] == frozenset({"DET", "THR"})
    assert index.file_rules == frozenset({"FP"})


# ----------------------------------------------------------------------
# baseline
# ----------------------------------------------------------------------
def _clk_findings(extra: str = ""):
    source = VIOLATING_CLK.format(pragma="") + extra
    return lint_source(source, path="src/repro/service/x.py").sorted_findings()


def test_baseline_round_trip(tmp_path):
    findings = _clk_findings()
    baseline_path = str(tmp_path / "baseline.json")
    Baseline.from_findings(findings).save(baseline_path)

    loaded = Baseline.load(baseline_path)
    diff = loaded.subtract(findings)
    assert diff.new == []
    assert diff.matched == len(findings)
    assert diff.stale == 0


def test_baseline_reports_only_new_findings(tmp_path):
    old = _clk_findings()
    baseline_path = str(tmp_path / "baseline.json")
    Baseline.from_findings(old).save(baseline_path)

    new_source_findings = _clk_findings(
        extra="\n\ndef g() -> None:\n    time.sleep(1.0)\n"
    )
    diff = Baseline.load(baseline_path).subtract(new_source_findings)
    assert len(diff.new) == 1
    assert "time.sleep" in diff.new[0].message


def test_baseline_counts_stale_entries(tmp_path):
    old = _clk_findings(extra="\n\ndef g() -> None:\n    time.sleep(1.0)\n")
    baseline_path = str(tmp_path / "baseline.json")
    Baseline.from_findings(old).save(baseline_path)

    diff = Baseline.load(baseline_path).subtract(_clk_findings())
    assert diff.new == []
    assert diff.stale == 1  # the fixed sleep() entry no longer matches


def test_baseline_multiplicity(tmp_path):
    """One baselined finding forgives one occurrence, not every future one."""
    findings = _clk_findings()
    baseline_path = str(tmp_path / "baseline.json")
    Baseline.from_findings(findings).save(baseline_path)

    doubled = findings + findings
    diff = Baseline.load(baseline_path).subtract(doubled)
    assert len(diff.new) == len(findings)


def test_baseline_rejects_foreign_document(tmp_path):
    path = tmp_path / "not_a_baseline.json"
    path.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(ValueError):
        Baseline.load(str(path))


def test_baseline_paths_are_machine_independent(tmp_path):
    finding = Finding(
        rule="CLK",
        severity=Severity.ERROR,
        path="/home/alice/checkouts/repo/src/repro/service/x.py",
        line=5,
        col=11,
        message="m",
    )
    baseline_path = str(tmp_path / "baseline.json")
    Baseline.from_findings([finding]).save(baseline_path)

    other_machine = Finding(
        rule="CLK",
        severity=Severity.ERROR,
        path="C:\\ci\\build\\src\\repro\\service\\x.py",
        line=9,  # lines may drift; fingerprints ignore them
        col=0,
        message="m",
    )
    diff = Baseline.load(baseline_path).subtract([other_machine])
    assert diff.new == []


# ----------------------------------------------------------------------
# reporters, registry, framework
# ----------------------------------------------------------------------
def test_json_document_schema():
    source = VIOLATING_CLK.format(pragma="")
    result = lint_source(source, path="src/repro/service/x.py")
    document = to_document(result)
    assert document["format"] == "repro-lint"
    assert document["version"] == 1
    assert {r["id"] for r in document["rules"]} == {
        "DET", "CLK", "THR", "FP", "IO",
        "ARCH", "SEED", "SCHEMA", "LOCKORDER",
    }
    (finding,) = document["findings"]
    assert set(finding) == {"rule", "severity", "path", "line", "col", "message"}
    assert document["summary"]["errors"] == 1
    assert document["summary"]["total"] == 1


def test_builtin_rule_ids():
    assert rule_ids() == [
        "ARCH", "CLK", "DET", "FP", "IO", "LOCKORDER", "SCHEMA", "SEED", "THR",
    ]


def test_duplicate_rule_id_rejected():
    with pytest.raises(ValueError, match="duplicate rule id"):

        @register_rule
        class Clone:
            META = RuleMeta(rule_id="DET", title="", invariant="")

            def check(self, module):
                return []


def test_syntax_error_is_a_finding_not_a_crash():
    result = lint_source("def broken(:\n", path="src/repro/service/x.py")
    assert [f.rule for f in result.findings] == ["SYNTAX"]
    assert result.findings[0].severity is Severity.ERROR


def test_unknown_rule_id_raises():
    with pytest.raises(KeyError, match="unknown rule"):
        lint_source("x = 1\n", path="src/repro/service/x.py", only=["NOPE"])


# ----------------------------------------------------------------------
# the repo itself
# ----------------------------------------------------------------------
def test_repo_is_invariant_clean():
    """src/repro carries zero non-pragma'd findings — the PR-gate invariant."""
    result = lint_paths([str(REPO_SRC / "repro")])
    assert result.sorted_findings() == []
    assert result.files_checked > 90


def test_injected_unseeded_rng_in_tracking_is_caught():
    """The acceptance scenario: an unseeded Random() in repro.service.tracking."""
    tracking_path = REPO_SRC / "repro" / "service" / "tracking.py"
    source = tracking_path.read_text(encoding="utf-8")
    sabotaged = source.replace(
        "from dataclasses import", "import random\nfrom dataclasses import", 1
    ).replace(
        "rng_factory=lambda object_id: filter_run_rng(",
        "rng_factory=lambda object_id: random.Random() or filter_run_rng(",
        1,
    )
    assert "random.Random() or filter_run_rng(" in sabotaged
    result = lint_source(sabotaged, path=str(tracking_path))
    assert any(
        f.rule == "DET" and "unseeded `random.Random()`" in f.message
        for f in result.findings
    )


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _write_violating_tree(root: Path) -> Path:
    target = root / "repro" / "service"
    target.mkdir(parents=True)
    bad = target / "bad.py"
    bad.write_text(
        "import random\n\n\ndef f() -> float:\n    return random.random()\n",
        encoding="utf-8",
    )
    return root


def test_cli_lint_json_reports_det_and_fails(tmp_path, capsys):
    tree = _write_violating_tree(tmp_path)
    code = main(
        ["lint", "--format", "json", "--baseline", str(tmp_path / "b.json"), str(tree)]
    )
    document = json.loads(capsys.readouterr().out)
    assert code == 1
    assert document["format"] == "repro-lint"
    assert {f["rule"] for f in document["findings"]} == {"DET"}


def test_cli_lint_write_baseline_then_clean(tmp_path, capsys):
    tree = _write_violating_tree(tmp_path)
    baseline = str(tmp_path / "baseline.json")
    assert main(["lint", "--write-baseline", "--baseline", baseline, str(tree)]) == 0
    capsys.readouterr()
    assert main(["lint", "--baseline", baseline, str(tree)]) == 0
    out = capsys.readouterr().out
    assert "baselined" in out


def test_cli_lint_rules_filter(tmp_path, capsys):
    tree = _write_violating_tree(tmp_path)
    baseline = str(tmp_path / "unused.json")
    assert main(["lint", "--rules", "CLK", "--baseline", baseline, str(tree)]) == 0
    capsys.readouterr()


def test_cli_lint_repo_exits_zero(capsys):
    assert main(["lint", str(REPO_SRC / "repro")]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out


def test_cli_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("DET", "CLK", "THR", "FP", "IO"):
        assert rule_id in out
