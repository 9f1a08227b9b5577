"""SEED — interprocedural RNG seed provenance into filter/executor code.

The per-file DET rule catches *locally visible* global-RNG use; what it
cannot see is a generator constructed two modules away and handed down a
call chain. The per-object determinism guarantee needs the stronger,
whole-program statement: **every RNG object reaching
``repro.core`` / ``repro.filters`` / ``repro.service`` derives from the
seeded ``repro.rng`` factories** (``make_rng`` / ``child_rng`` /
``filter_run_rng``).

The analysis assigns every project function a *return provenance* in a
three-point lattice — ``RAW`` (constructs or forwards a generator from
``numpy.random.default_rng`` / ``random.Random`` outside ``repro.rng``),
``SEEDED`` (returns a ``repro.rng``-derived stream), ``NONE`` (returns
no statically-visible generator) — computed to a fixpoint over the call
graph, with simple local-variable tracking inside each function body.
It then flags, anywhere in the project:

* any RAW generator *created* inside the filter/executor packages
  (directly, or by calling a RAW-provenance helper in another module —
  the flow per-file DET structurally cannot see);
* any RAW value *passed into* a filter/executor function through a
  generator-shaped parameter (a keyword or positional argument whose
  parameter name mentions ``rng`` / ``generator`` / ``seed``), from any
  module — e.g. ``TrackingService(..., rng=np.random.default_rng(0))``
  in a CLI handler.

``RAW`` requires a visible unsanctioned construction: parameters and
unresolvable calls are ``NONE`` (the caller's responsibility), so
imprecision silences the rule instead of spamming it. ``repro/rng.py``
itself — the module that implements the boundary — is exempt.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import RuleMeta, register_project_rule
from repro.analysis.rules.common import resolve_dotted

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.project import ProjectModule, ProjectUnderCheck

#: Packages whose code every reaching RNG must have seeded provenance.
FILTER_EXECUTOR_PACKAGES = ("core", "filters", "service")

#: The sanctioned seeded factories.
SANCTIONED = frozenset(
    {
        "repro.rng.make_rng",
        "repro.rng.child_rng",
        "repro.rng.child_seed",
        "repro.rng.filter_run_rng",
    }
)

#: Constructors that mint generators with no repro.rng provenance.
RAW_CONSTRUCTORS = frozenset(
    {
        "numpy.random.default_rng",
        "numpy.random.Generator",
        "random.Random",
        "random.SystemRandom",
    }
)

#: The module implementing the provenance boundary (exempt).
RNG_MODULE = "repro.rng"

NONE, SEEDED, RAW = "none", "seeded", "raw"

_PARAM_MARKERS = ("rng", "generator", "seed")


def _param_is_generator_shaped(name: str) -> bool:
    lowered = name.lower()
    return any(marker in lowered for marker in _PARAM_MARKERS)


def _join(a: str, b: str) -> str:
    if RAW in (a, b):
        return RAW
    if SEEDED in (a, b):
        return SEEDED
    return NONE


@register_project_rule
class SeedProvenanceRule:
    META = RuleMeta(
        rule_id="SEED",
        title="RNG provenance into filter/executor code",
        invariant=(
            "every RNG object reaching repro.core / repro.filters / "
            "repro.service derives from the seeded repro.rng factories "
            "(make_rng / child_rng / filter_run_rng), across call and "
            "module boundaries"
        ),
        severity=Severity.ERROR,
    )

    def check_project(self, project: ProjectUnderCheck) -> List[Finding]:
        provenance = self._fixpoint(project)
        findings: List[Finding] = []
        for module, info, node in project.iter_functions():
            if module.name == RNG_MODULE:
                continue
            body = getattr(node, "body", [])
            findings.extend(
                self._scan_body(
                    project, module, info.cls, body, provenance
                )
            )
        for name in sorted(project.modules):
            module = project.modules[name]
            if module.name == RNG_MODULE:
                continue
            top_level = [
                stmt
                for stmt in module.tree.body
                if not isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                )
            ]
            findings.extend(
                self._scan_body(project, module, None, top_level, provenance)
            )
        return findings

    # ------------------------------------------------------------------
    # provenance fixpoint
    # ------------------------------------------------------------------
    def _fixpoint(self, project: ProjectUnderCheck) -> Dict[str, str]:
        provenance: Dict[str, str] = {}
        for _ in range(8):  # deep helper chains converge in a few passes
            changed = False
            for module, info, node in project.iter_functions():
                computed = self._return_provenance(
                    project, module, info.cls, node, provenance
                )
                if provenance.get(info.qname, NONE) != computed:
                    provenance[info.qname] = computed
                    changed = True
            if not changed:
                break
        return provenance

    def _return_provenance(
        self,
        project: ProjectUnderCheck,
        module: ProjectModule,
        cls: Optional[str],
        node: ast.AST,
        provenance: Dict[str, str],
    ) -> str:
        env = self._local_env(project, module, cls, node, provenance)
        result = NONE
        for stmt in ast.walk(node):
            if isinstance(stmt, ast.Return) and stmt.value is not None:
                result = _join(
                    result,
                    self._classify(
                        project, module, cls, stmt.value, env, provenance
                    ),
                )
        return result

    def _local_env(
        self,
        project: ProjectUnderCheck,
        module: ProjectModule,
        cls: Optional[str],
        node: ast.AST,
        provenance: Dict[str, str],
    ) -> Dict[str, str]:
        """Provenance of simple local names (single-target assignments)."""
        env: Dict[str, str] = {}
        for stmt in ast.walk(node):
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
            ):
                env[stmt.targets[0].id] = self._classify(
                    project, module, cls, stmt.value, env, provenance
                )
        return env

    def _classify(
        self,
        project: ProjectUnderCheck,
        module: ProjectModule,
        cls: Optional[str],
        expr: ast.expr,
        env: Dict[str, str],
        provenance: Dict[str, str],
    ) -> str:
        if isinstance(expr, ast.Name):
            return env.get(expr.id, NONE)
        if isinstance(expr, ast.IfExp):
            return _join(
                self._classify(project, module, cls, expr.body, env, provenance),
                self._classify(project, module, cls, expr.orelse, env, provenance),
            )
        if not isinstance(expr, ast.Call):
            return NONE
        dotted = resolve_dotted(expr.func, module.imports)
        if dotted in SANCTIONED:
            return SEEDED
        if dotted in RAW_CONSTRUCTORS:
            return SEEDED if module.name == RNG_MODULE else RAW
        qname = project.resolve_call(module, expr, enclosing_class=cls)
        if qname is not None:
            return provenance.get(qname, NONE)
        return NONE

    # ------------------------------------------------------------------
    # the violation scan
    # ------------------------------------------------------------------
    def _scan_body(
        self,
        project: ProjectUnderCheck,
        module: ProjectModule,
        cls: Optional[str],
        body: List[ast.stmt],
        provenance: Dict[str, str],
    ) -> List[Finding]:
        findings: List[Finding] = []
        env: Dict[str, str] = {}
        in_scope = module.package in FILTER_EXECUTOR_PACKAGES
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue  # visited as functions of their own
                if (
                    isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                ):
                    env[node.targets[0].id] = self._classify(
                        project, module, cls, node.value, env, provenance
                    )
                if not isinstance(node, ast.Call):
                    continue
                label = self._raw_creation_label(
                    project, module, cls, node, env, provenance
                )
                if in_scope and label is not None:
                    findings.append(
                        self._finding(
                            module,
                            node,
                            f"RNG without repro.rng provenance created in "
                            f"filter/executor code via {label}; derive it "
                            "with repro.rng.child_rng/filter_run_rng",
                        )
                    )
                findings.extend(
                    self._check_arguments(
                        project, module, cls, node, env, provenance
                    )
                )
        return findings

    def _raw_creation_label(
        self,
        project: ProjectUnderCheck,
        module: ProjectModule,
        cls: Optional[str],
        call: ast.Call,
        env: Dict[str, str],
        provenance: Dict[str, str],
    ) -> Optional[str]:
        """A human label when this call mints a RAW generator, else None."""
        dotted = resolve_dotted(call.func, module.imports)
        if dotted in RAW_CONSTRUCTORS and module.name != RNG_MODULE:
            return f"`{dotted}()`"
        qname = project.resolve_call(module, call, enclosing_class=cls)
        if qname is not None and provenance.get(qname, NONE) == RAW:
            return f"`{qname}()` (RAW provenance)"
        return None

    def _check_arguments(
        self,
        project: ProjectUnderCheck,
        module: ProjectModule,
        cls: Optional[str],
        call: ast.Call,
        env: Dict[str, str],
        provenance: Dict[str, str],
    ) -> List[Finding]:
        """Flag RAW values flowing into scope-package calls as rng args."""
        callee = self._scope_callee(project, module, cls, call)
        if callee is None:
            return []
        qname, params = callee
        findings: List[Finding] = []
        for position, arg in enumerate(call.args):
            name = params[position] if position < len(params) else ""
            if not _param_is_generator_shaped(name):
                continue
            if self._classify(project, module, cls, arg, env, provenance) == RAW:
                findings.append(
                    self._finding(
                        module,
                        arg,
                        f"argument `{name}` of `{qname}` receives an RNG "
                        "with no repro.rng provenance",
                    )
                )
        for keyword in call.keywords:
            if keyword.arg is None or not _param_is_generator_shaped(keyword.arg):
                continue
            value = keyword.value
            if self._classify(project, module, cls, value, env, provenance) == RAW:
                findings.append(
                    self._finding(
                        module,
                        value,
                        f"argument `{keyword.arg}` of `{qname}` receives an "
                        "RNG with no repro.rng provenance",
                    )
                )
        return findings

    def _scope_callee(
        self,
        project: ProjectUnderCheck,
        module: ProjectModule,
        cls: Optional[str],
        call: ast.Call,
    ) -> Optional[Tuple[str, List[str]]]:
        """``(qname, positional param names)`` when the callee is in scope."""
        qname = project.resolve_call(module, call, enclosing_class=cls)
        if qname is None:
            return None
        info = project.functions.get(qname)
        if info is None:
            return None
        target_module = project.modules.get(info.module_name)
        if (
            target_module is None
            or target_module.package not in FILTER_EXECUTOR_PACKAGES
        ):
            return None
        node = project.function_node(qname)
        args = getattr(node, "args", None)
        params = [a.arg for a in args.args] if args is not None else []
        if params and params[0] in ("self", "cls"):
            params = params[1:]
        return qname, params

    def _finding(
        self, module: ProjectModule, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            rule=self.META.rule_id,
            severity=self.META.severity,
            path=module.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            message=message,
        )
