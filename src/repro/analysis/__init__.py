"""repro.analysis — a zero-dependency invariant linter for this repo.

The service's headline guarantee — bit-identical results at any gateway
partition count, with telemetry on or off, and across restarts — rests
on a handful of coding invariants: seeded per-object RNG streams,
injectable clocks, lock-guarded shared state, atomic checkpoint writes.
This package makes
those invariants mechanically checkable: a stdlib-``ast`` rule framework
(registry, per-file driver, pragma suppression, baseline amnesty, text +
JSON reporters) plus the built-in rule set DET / CLK / THR / FP / IO
(see :mod:`repro.analysis.rules`).

On top of the per-file rules sits a whole-program mode
(``repro lint --project``, :func:`lint_project`): one
:class:`~repro.analysis.project.ProjectUnderCheck` — module graph,
call resolver, function index — shared by the cross-file rules
ARCH / SEED / SCHEMA / LOCKORDER.

Run it as ``repro lint [--project] [--format json] [paths...]`` or
from code::

    from repro.analysis import lint_project

    result = lint_project(["src/repro"], schema_lock_path="schema.lock.json")
    assert not result.findings

The invariant catalog — what each rule enforces and why it protects the
determinism guarantee — is DESIGN.md §9; the architecture contracts the
project rules pin down are DESIGN.md §14.
"""

from repro.analysis.baseline import (
    DEFAULT_BASELINE,
    Baseline,
    BaselineDiff,
    load_if_exists,
)
from repro.analysis.driver import (
    PRAGMA_RULE_ID,
    LintResult,
    build_project,
    iter_python_files,
    lint_file,
    lint_paths,
    lint_project,
    lint_source,
)
from repro.analysis.findings import Finding, Severity
from repro.analysis.pragmas import PragmaIndex, parse_pragmas
from repro.analysis.project import ProjectModule, ProjectUnderCheck
from repro.analysis.registry import (
    ModuleUnderCheck,
    RuleMeta,
    all_project_rules,
    all_rules,
    get_project_rule,
    get_rule,
    register_project_rule,
    register_rule,
    rule_ids,
    select_project_rules,
    select_rules,
)
from repro.analysis.report import render_json, render_text, to_document

__all__ = [
    "Baseline",
    "BaselineDiff",
    "DEFAULT_BASELINE",
    "Finding",
    "LintResult",
    "ModuleUnderCheck",
    "PRAGMA_RULE_ID",
    "PragmaIndex",
    "ProjectModule",
    "ProjectUnderCheck",
    "RuleMeta",
    "Severity",
    "all_project_rules",
    "all_rules",
    "build_project",
    "get_project_rule",
    "get_rule",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_project",
    "lint_source",
    "load_if_exists",
    "parse_pragmas",
    "register_project_rule",
    "register_rule",
    "render_json",
    "render_text",
    "rule_ids",
    "select_project_rules",
    "select_rules",
    "to_document",
]
