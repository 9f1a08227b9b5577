"""THR — shared module state is lock-guarded in thread-reachable packages.

The filter step runs on the scheduler's loop while other threads touch
the same modules: the metrics HTTP server reads registries and health,
the gateway's pipe pumps and HTTP handlers run beside the tick loop.
Module-level mutable containers (registries, caches) mutated from
function bodies without a lock are data races waiting for a scheduler
interleaving — the class of bug that silently breaks the telemetry
on/off bit-identity guarantee.

Two checks, inside the packages those threads import:

* a module-level ``dict``/``list``/``set`` (literal or constructor,
  annotated or not) mutated from inside a function or method — subscript
  store/delete, mutating method call (``append``/``update``/``pop``/…),
  or augmented assignment — without an enclosing ``with <lock>`` block.
  Mutation *at* module level (import time, single-threaded) is fine;
  read access anywhere is fine.
* a bare ``<lock>.acquire()`` call — exception paths leak the lock;
  use ``with lock:`` so release is unconditional.

A name counts as a lock if its dotted text contains ``lock`` or
``mutex`` (case-insensitive): ``_LOCK``, ``self._lock``,
``cache.write_lock`` all qualify.
"""

from __future__ import annotations

import ast
from typing import Callable, Iterator, List, Optional, Set, Tuple

from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import ModuleUnderCheck, RuleMeta, register_rule
from repro.analysis.rules.common import dotted_name

_MUTATING_METHODS = {
    "append",
    "add",
    "update",
    "pop",
    "popitem",
    "clear",
    "extend",
    "insert",
    "remove",
    "discard",
    "setdefault",
    "sort",
    "reverse",
    "appendleft",
    "popleft",
}

_CONTAINER_CONSTRUCTORS = {
    "dict",
    "list",
    "set",
    "collections.defaultdict",
    "collections.deque",
    "collections.OrderedDict",
    "collections.Counter",
    "defaultdict",
    "deque",
    "OrderedDict",
    "Counter",
}


def _is_container_value(node: ast.expr) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        dotted = dotted_name(node.func)
        return dotted in _CONTAINER_CONSTRUCTORS
    return False


def _looks_like_lock(text: Optional[str]) -> bool:
    if not text:
        return False
    lowered = text.lower()
    return "lock" in lowered or "mutex" in lowered


def module_level_containers(tree: ast.Module) -> Set[str]:
    """Names bound at module level to a mutable container."""
    names: Set[str] = set()
    for stmt in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None or not _is_container_value(value):
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id != "__all__":
                names.add(target.id)
    return names


def _functions(tree: ast.Module) -> Iterator[ast.AST]:
    for stmt in ast.walk(tree):
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield stmt


def _walk_with_lock_state(func: ast.AST) -> Iterator[Tuple[ast.AST, bool]]:
    """DFS over one function body, tracking ``with <lock>`` nesting.

    Does not descend into nested ``def``s — those run later, outside the
    enclosing ``with`` block, and are visited as functions of their own.
    """
    stack: List[Tuple[ast.AST, bool]] = [(func, False)]
    while stack:
        node, guarded = stack.pop()
        if isinstance(node, (ast.With, ast.AsyncWith)) and any(
            _looks_like_lock(dotted_name(item.context_expr)) for item in node.items
        ):
            guarded = True
        yield node, guarded
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            stack.append((child, guarded))


@register_rule
class ThreadSafetyRule:
    META = RuleMeta(
        rule_id="THR",
        title="lock-guarded shared module state",
        invariant=(
            "module-level mutable containers in thread-reachable packages are "
            "only mutated under a lock; locks are held via `with`, never "
            "bare .acquire()"
        ),
        severity=Severity.ERROR,
        applies_to=(
            "repro/core",
            "repro/filters",
            "repro/service",
            "repro/cache",
            "repro/collector",
            "repro/obs",
            "repro/index",
            "repro/analytics",
        ),
        exempt=(),
    )

    def check(self, module: ModuleUnderCheck) -> List[Finding]:
        shared = module_level_containers(module.tree)
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

        for func in _functions(module.tree):
            for node, lock_held in _walk_with_lock_state(func):
                self._check_node(node, shared, lock_held, flag)
        return findings

    def _check_node(
        self,
        node: ast.AST,
        shared: Set[str],
        lock_held: bool,
        flag: Callable[[ast.AST, str], None],
    ) -> None:
        # with-less lock acquisition, guarded or not.
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "acquire" and _looks_like_lock(
                dotted_name(node.func.value)
            ):
                flag(
                    node,
                    f"bare `{dotted_name(node.func.value)}.acquire()`; "
                    "use `with` so the lock is released on every exit path",
                )
                return
        if lock_held or not shared:
            return
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
            for target in targets:
                name = self._subscript_global(target, shared)
                if name is not None:
                    flag(
                        node,
                        f"unguarded mutation of module-level container "
                        f"`{name}`; wrap in `with <lock>:`",
                    )
        elif isinstance(node, ast.AugAssign):
            name = self._subscript_global(node.target, shared)
            if name is None and isinstance(node.target, ast.Name) and node.target.id in shared:
                name = node.target.id
            if name is not None:
                flag(
                    node,
                    f"unguarded mutation of module-level container "
                    f"`{name}`; wrap in `with <lock>:`",
                )
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if (
                node.func.attr in _MUTATING_METHODS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in shared
            ):
                flag(
                    node,
                    f"unguarded `{node.func.value.id}.{node.func.attr}()` on a "
                    "module-level container; wrap in `with <lock>:`",
                )

    @staticmethod
    def _subscript_global(target: ast.expr, shared: Set[str]) -> Optional[str]:
        if (
            isinstance(target, ast.Subscript)
            and isinstance(target.value, ast.Name)
            and target.value.id in shared
        ):
            return target.value.id
        return None
