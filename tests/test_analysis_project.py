"""Whole-program (``--project``) lint: cross-file rules and their plumbing.

Each project rule is exercised against a small multi-module fixture tree
under ``tests/fixtures/lint/projects/<rule>/src/repro/...`` — real files
on disk, because project mode walks the filesystem, and shaped with a
``repro`` path component so the dotted-name index resolves them exactly
like repo modules. Fixtures are parsed, never imported.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

from repro.analysis import Baseline, build_project, lint_paths, lint_project
from repro.analysis.project import module_name_of
from repro.analysis.rules.lock_order import build_lock_graph
from repro.analysis.rules.schema_lock import extract_schemas, render_lock, write_lock
from repro.cli import main

PROJECTS = Path(__file__).parent / "fixtures" / "lint" / "projects"
REPO_ROOT = Path(__file__).parent.parent


# ----------------------------------------------------------------------
# the dotted-name index
# ----------------------------------------------------------------------
def test_module_name_of_real_and_virtual_paths():
    assert module_name_of("src/repro/core/filter.py") == ("repro.core.filter", "core")
    assert module_name_of(
        "tests/fixtures/lint/projects/arch/src/repro/graph/builder.py"
    ) == ("repro.graph.builder", "graph")
    assert module_name_of("src/repro/obs/__init__.py") == ("repro.obs", "obs")
    assert module_name_of("src/repro/__init__.py") == ("repro", "<root>")
    assert module_name_of("scripts/tool.py") == ("tool", "tool")


# ----------------------------------------------------------------------
# ARCH
# ----------------------------------------------------------------------
def test_arch_fixture_flags_layer_violation_and_obs_bypass():
    result = lint_project([str(PROJECTS / "arch")], only=["ARCH"])
    findings = result.sorted_findings()
    assert len(findings) == 2, [f.render() for f in findings]

    layer = next(f for f in findings if "layer violation" in f.message)
    assert layer.path.endswith("graph/builder.py")
    assert "`graph` (layer 2)" in layer.message
    assert "`sim` (layer 11)" in layer.message

    facade = next(f for f in findings if "no-op facade" in f.message)
    assert facade.path.endswith("core/engine.py")
    assert "repro.obs.registry" in facade.message


def test_arch_fixture_compliant_module_is_clean():
    result = lint_project([str(PROJECTS / "arch")], only=["ARCH"])
    assert not any(f.path.endswith("service/clean.py") for f in result.findings)


# ----------------------------------------------------------------------
# SEED
# ----------------------------------------------------------------------
def test_seed_fixture_flags_all_three_flows():
    result = lint_project([str(PROJECTS / "seed")], only=["SEED"])
    findings = result.sorted_findings()
    assert len(findings) == 3, [f.render() for f in findings]

    direct = next(f for f in findings if f.path.endswith("filters/backend.py"))
    assert "`numpy.random.default_rng()`" in direct.message

    interprocedural = next(f for f in findings if f.path.endswith("core/engine.py"))
    assert "`repro.sim.helpers.fresh_rng()` (RAW provenance)" in interprocedural.message

    handoff = next(f for f in findings if f.path.endswith("cli/main.py"))
    assert "argument `rng` of `repro.core.runner.run_filter`" in handoff.message

    assert not any(f.path.endswith("service/good.py") for f in findings)
    assert not any(f.path.endswith("sim/helpers.py") for f in findings)


# ----------------------------------------------------------------------
# LOCKORDER
# ----------------------------------------------------------------------
def test_lockorder_fixture_reports_one_inversion():
    result = lint_project([str(PROJECTS / "lockorder")], only=["LOCKORDER"])
    findings = result.sorted_findings()
    assert len(findings) == 1, [f.render() for f in findings]
    message = findings[0].message
    assert "lock-order inversion between" in message
    assert "`repro.cache.store._STORE_LOCK`" in message
    assert "`repro.service.engine._ENGINE_LOCK`" in message
    assert "pick one global order" in message


def test_lockorder_graph_edges_and_identities():
    project = build_project([str(PROJECTS / "lockorder")])
    edges = build_lock_graph(project)
    # self._lock in a method qualifies to module.Class._lock.
    assert (
        "repro.cache.store.Store._lock",
        "repro.cache.store._STORE_LOCK",
    ) in edges
    # The interprocedural inversion: both directions present.
    assert (
        "repro.cache.store._STORE_LOCK",
        "repro.service.engine._ENGINE_LOCK",
    ) in edges
    assert (
        "repro.service.engine._ENGINE_LOCK",
        "repro.cache.store._STORE_LOCK",
    ) in edges
    # Consistent nesting stays one-directional.
    alpha = "repro.core.consistent._ALPHA_LOCK"
    beta = "repro.core.consistent._BETA_LOCK"
    assert (alpha, beta) in edges
    assert (beta, alpha) not in edges


# ----------------------------------------------------------------------
# SCHEMA
# ----------------------------------------------------------------------
def _schema_tree() -> str:
    return str(PROJECTS / "schema")


def test_schema_extraction_covers_all_three_producer_shapes():
    schemas, tags = extract_schemas(build_project([_schema_tree()]))
    assert schemas == {
        "repro.core.state.Tracker.to_state": ["seed", "ticks"],
        "repro.core.state.Tracker.state_dict": ["payload", "version"],
        "repro.core.state.save_checkpoint": ["format", "state"],
    }
    assert tags == {"repro.core.state.STATE_VERSION": 2}


def test_schema_extraction_sees_the_streamed_checkpoint_writer(tmp_path):
    module = tmp_path / "src" / "repro" / "service" / "writer.py"
    module.parent.mkdir(parents=True)
    module.write_text(
        "def save_checkpoint(state, path):\n"
        "    document = {'format': 'fixture', 'state': state}\n"
        "    write_json_atomic(path, document)\n",
        encoding="utf-8",
    )
    schemas, _ = extract_schemas(build_project([str(tmp_path)]))
    assert schemas == {"repro.service.writer.save_checkpoint": ["format", "state"]}


def test_schema_lock_round_trip_is_clean(tmp_path):
    lock = str(tmp_path / "lock.json")
    write_lock(build_project([_schema_tree()]), lock)
    result = lint_project([_schema_tree()], only=["SCHEMA"], schema_lock_path=lock)
    assert result.findings == []


def test_schema_without_lock_path_is_silent():
    result = lint_project([_schema_tree()], only=["SCHEMA"])
    assert result.findings == []


def test_schema_missing_lockfile_is_a_finding(tmp_path):
    lock = str(tmp_path / "nope.json")
    result = lint_project([_schema_tree()], only=["SCHEMA"], schema_lock_path=lock)
    assert len(result.findings) == 1
    assert "is missing" in result.findings[0].message


def test_schema_unrecognized_header_is_a_finding(tmp_path):
    lock = tmp_path / "lock.json"
    lock.write_text(json.dumps({"format": "something-else"}), encoding="utf-8")
    result = lint_project(
        [_schema_tree()], only=["SCHEMA"], schema_lock_path=str(lock)
    )
    assert [f.message for f in result.findings] == [
        "schema lockfile has an unrecognized format header; "
        "regenerate with --write-schema-lock"
    ]


def _perturbed_lock(tmp_path, mutate) -> str:
    """Write the fixture's true lock, apply ``mutate`` to the document."""
    lock = tmp_path / "lock.json"
    project = build_project([_schema_tree()])
    schemas, tags = extract_schemas(project)
    document = json.loads(render_lock(schemas, tags))
    mutate(document)
    lock.write_text(json.dumps(document), encoding="utf-8")
    return str(lock)


def test_schema_key_drift_is_flagged_at_the_producer(tmp_path):
    def drop_a_key(document):
        document["schemas"]["repro.core.state.Tracker.to_state"] = ["ticks"]

    lock = _perturbed_lock(tmp_path, drop_a_key)
    result = lint_project([_schema_tree()], only=["SCHEMA"], schema_lock_path=lock)
    (finding,) = result.findings
    assert "drifted from the lockfile" in finding.message
    assert "locked ['ticks']" in finding.message
    assert "current ['seed', 'ticks']" in finding.message
    assert finding.path.endswith("core/state.py")  # anchored at the def
    assert finding.line > 0


def test_schema_new_producer_is_flagged(tmp_path):
    def forget_state_dict(document):
        del document["schemas"]["repro.core.state.Tracker.state_dict"]

    lock = _perturbed_lock(tmp_path, forget_state_dict)
    result = lint_project([_schema_tree()], only=["SCHEMA"], schema_lock_path=lock)
    (finding,) = result.findings
    assert "is not in the lockfile" in finding.message
    assert "Tracker.state_dict" in finding.message


def test_schema_removed_producer_is_flagged(tmp_path):
    def lock_a_ghost(document):
        document["schemas"]["repro.core.state.Ghost.to_state"] = ["x"]

    lock = _perturbed_lock(tmp_path, lock_a_ghost)
    result = lint_project([_schema_tree()], only=["SCHEMA"], schema_lock_path=lock)
    (finding,) = result.findings
    assert "no longer exists in the project" in finding.message


def test_schema_tag_drift_is_flagged(tmp_path):
    def bump_tag(document):
        document["tags"]["repro.core.state.STATE_VERSION"] = 1

    lock = _perturbed_lock(tmp_path, bump_tag)
    result = lint_project([_schema_tree()], only=["SCHEMA"], schema_lock_path=lock)
    (finding,) = result.findings
    assert "version tag" in finding.message
    assert "drifted from the lockfile" in finding.message


# ----------------------------------------------------------------------
# pragmas across project rules + the stale-pragma audit
# ----------------------------------------------------------------------
def _write_tree(root: Path, relpath: str, source: str) -> Path:
    target = root / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source, encoding="utf-8")
    return root


def test_pragma_suppresses_project_finding_and_counts_as_used(tmp_path):
    tree = _write_tree(
        tmp_path,
        "src/repro/graph/bad.py",
        "from repro.sim.simulator import Simulation"
        "  # repro-lint: disable=ARCH -- fixture\n"
        "\n"
        "\n"
        "def build() -> object:\n"
        "    return Simulation\n",
    )
    result = lint_project([str(tree)])
    assert result.findings == []  # ARCH suppressed, pragma used -> no PRAGMA
    assert result.suppressed == 1


def test_unused_pragma_is_flagged_in_project_mode(tmp_path):
    tree = _write_tree(
        tmp_path,
        "src/repro/core/util.py",
        "X = 1  # repro-lint: disable=ARCH\n",
    )
    result = lint_project([str(tree)])
    (finding,) = result.findings
    assert finding.rule == "PRAGMA"
    assert "unused suppression pragma `disable=ARCH`" in finding.message
    assert "delete it" in finding.message


def test_unused_pragma_audit_skipped_on_filtered_runs(tmp_path):
    tree = _write_tree(
        tmp_path,
        "src/repro/core/util.py",
        "X = 1  # repro-lint: disable=ARCH\n",
    )
    assert lint_project([str(tree)], only=["ARCH"]).findings == []


def test_unused_pragma_is_flagged_in_per_file_mode_too(tmp_path):
    tree = _write_tree(
        tmp_path,
        "src/repro/core/util.py",
        "X = 1  # repro-lint: disable=DET\n",
    )
    result = lint_paths([str(tree)])
    assert [f.rule for f in result.findings] == ["PRAGMA"]


# ----------------------------------------------------------------------
# baseline: renames and deletions surface as stale entries
# ----------------------------------------------------------------------
def _arch_findings(tree: str):
    return lint_project([tree], only=["ARCH"]).sorted_findings()


def test_baseline_rename_goes_stale_and_finding_is_new(tmp_path):
    findings = _arch_findings(str(PROJECTS / "arch"))
    baseline = Baseline.from_findings(findings)
    moved = [replace(f, path=f.path.replace("builder.py", "renamed.py"))
             for f in findings]
    diff = baseline.subtract(moved)
    assert len(diff.new) == 1  # the moved finding no longer matches
    assert diff.stale == 1  # and its old entry matched nothing


def test_baseline_deleted_file_leaves_all_entries_stale():
    findings = _arch_findings(str(PROJECTS / "arch"))
    diff = Baseline.from_findings(findings).subtract([])
    assert diff.new == []
    assert diff.matched == 0
    assert diff.stale == len(findings)


# ----------------------------------------------------------------------
# CLI project mode
# ----------------------------------------------------------------------
def test_cli_lint_project_reports_arch_violation_as_json(tmp_path, capsys):
    tree = _write_tree(
        tmp_path / "tree",
        "src/repro/graph/bad.py",
        "from repro.sim.simulator import Simulation\n"
        "\n"
        "\n"
        "def build() -> object:\n"
        "    return Simulation\n",
    )
    lock = str(tmp_path / "lock.json")
    assert main(
        ["lint", "--project", "--write-schema-lock", "--schema-lock", lock, str(tree)]
    ) == 0
    capsys.readouterr()

    code = main(
        ["lint", "--project", "--format", "json", "--schema-lock", lock, str(tree)]
    )
    document = json.loads(capsys.readouterr().out)
    assert code == 1
    assert {f["rule"] for f in document["findings"]} == {"ARCH"}


def test_cli_lint_project_clean_tree_exits_zero(tmp_path, capsys):
    tree = _write_tree(
        tmp_path / "tree",
        "src/repro/core/fine.py",
        "from repro.geometry import Point\n"
        "\n"
        "\n"
        "def origin() -> Point:\n"
        "    return Point(0.0, 0.0)\n",
    )
    lock = str(tmp_path / "lock.json")
    assert main(
        ["lint", "--project", "--write-schema-lock", "--schema-lock", lock, str(tree)]
    ) == 0
    capsys.readouterr()
    assert main(["lint", "--project", "--schema-lock", lock, str(tree)]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_cli_write_schema_lock_requires_project_mode(tmp_path, capsys):
    code = main(["lint", "--write-schema-lock", str(tmp_path)])
    assert code == 2
    assert "requires --project" in capsys.readouterr().err


# ----------------------------------------------------------------------
# the repo itself holds its own invariants
# ----------------------------------------------------------------------
def test_repo_is_project_invariant_clean():
    """src/repro passes every cross-file rule against the committed lock."""
    result = lint_project(
        [str(REPO_ROOT / "src" / "repro")],
        schema_lock_path=str(REPO_ROOT / "schema.lock.json"),
    )
    assert result.sorted_findings() == []
    assert result.files_checked > 90


def test_committed_schema_lock_matches_the_tree():
    """Regenerating the lock from source reproduces the committed bytes."""
    project = build_project(
        [str(REPO_ROOT / "src" / "repro")],
        schema_lock_path=str(REPO_ROOT / "schema.lock.json"),
    )
    schemas, tags = extract_schemas(project)
    committed = (REPO_ROOT / "schema.lock.json").read_text(encoding="utf-8")
    assert render_lock(schemas, tags) == committed
