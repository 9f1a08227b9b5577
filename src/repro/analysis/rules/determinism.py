"""DET — all randomness flows through seeded, labeled generator factories.

The per-object determinism guarantee holds because every filter run
draws from a private ``child_rng(seed, "pf:{second}:{object_id}")``
stream. One call into process-global RNG state — ``random.random()``,
``np.random.seed()``, an unseeded ``Random()`` — reintroduces
cross-object coupling and makes results depend on partition count and
thread interleaving.

Flagged inside ``repro.core`` / ``repro.filters`` / ``repro.service`` /
``repro.sim`` / ``repro.obs`` / ``repro.analytics`` / ``repro.bench``:

* any import of the stdlib ``random`` module (its module functions are
  one shared, implicitly seeded stream);
* ``random.Random()`` / ``Random()`` with no seed argument;
* any ``numpy.random.*`` module-function call (``seed``, ``random``,
  ``shuffle``, …) — global-state API;
* ``numpy.random.default_rng()`` with no (or ``None``) seed.

Sanctioned path: :mod:`repro.rng` (``make_rng`` / ``child_rng`` /
``child_seed``) and explicit ``numpy.random.Generator`` arguments.
"""

from __future__ import annotations

import ast
from typing import Callable, List

from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import ModuleUnderCheck, RuleMeta, register_rule
from repro.analysis.rules.common import (
    ImportMap,
    is_none_constant,
    resolve_dotted,
)

#: numpy.random attributes that are *not* global-state API.
_NUMPY_RANDOM_OK = {
    "Generator",
    "default_rng",  # checked separately for a seed argument
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "MT19937",
    "SFC64",
}


@register_rule
class DeterminismRule:
    META = RuleMeta(
        rule_id="DET",
        title="seeded RNG streams only",
        invariant=(
            "no process-global random state in core/service/sim/obs; "
            "randomness flows through repro.rng seeded factories "
            "(child_rng et al.)"
        ),
        severity=Severity.ERROR,
        applies_to=(
            "repro/core",
            "repro/filters",
            "repro/service",
            "repro/sim",
            "repro/obs",
            "repro/analytics",
            "repro/bench",
        ),
        exempt=(),
    )

    def check(self, module: ModuleUnderCheck) -> List[Finding]:
        imports = ImportMap(module.tree)
        findings: List[Finding] = []

        def flag(node: ast.AST, message: str) -> None:
            findings.append(
                Finding(
                    rule=self.META.rule_id,
                    severity=self.META.severity,
                    path=module.path,
                    line=getattr(node, "lineno", 0),
                    col=getattr(node, "col_offset", 0),
                    message=message,
                )
            )

        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        flag(
                            node,
                            "import of stdlib `random` (shared global stream); "
                            "use repro.rng.make_rng/child_rng",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random" and node.level == 0:
                    flag(
                        node,
                        "import from stdlib `random`; "
                        "use repro.rng.make_rng/child_rng",
                    )
            elif isinstance(node, ast.Call):
                self._check_call(node, imports, flag)
        return findings

    def _check_call(
        self,
        node: ast.Call,
        imports: ImportMap,
        flag: "Callable[[ast.AST, str], None]",
    ) -> None:
        target = resolve_dotted(node.func, imports)
        if target is None:
            return
        if target in ("random.Random", "random.SystemRandom"):
            if not node.args and not node.keywords:
                flag(node, f"unseeded `{target}()`; pass an explicit seed "
                           "derived via repro.rng.child_seed")
            return
        if target.startswith("random."):
            flag(
                node,
                f"call into stdlib global RNG `{target}()`; "
                "use an injected numpy Generator (repro.rng)",
            )
            return
        if target.startswith("numpy.random."):
            attr = target[len("numpy.random."):]
            if attr == "default_rng":
                seed_args = list(node.args) + [
                    kw.value for kw in node.keywords if kw.arg in (None, "seed")
                ]
                if not seed_args or all(is_none_constant(a) for a in seed_args):
                    flag(
                        node,
                        "unseeded `numpy.random.default_rng()`; derive the seed "
                        "with repro.rng.child_seed(seed, label)",
                    )
            elif "." not in attr and attr not in _NUMPY_RANDOM_OK:
                flag(
                    node,
                    f"numpy global-state RNG call `numpy.random.{attr}()`; "
                    "use a per-object Generator from repro.rng.child_rng",
                )
