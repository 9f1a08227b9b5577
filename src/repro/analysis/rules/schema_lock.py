"""SCHEMA — the serialized-state surface is locked in ``schema.lock.json``.

Every ``to_state`` / ``state_dict`` / checkpoint-envelope producer in the
persistence-bearing packages defines part of the on-disk format that
``restore_state`` / ``load_checkpoint`` must accept forever (or gate
behind a version bump). Those key sets were previously only visible by
reading each function; a key added in one place and forgotten in the
restore path shipped silently.

This rule statically extracts, for every function named ``to_state`` /
``state_dict`` / ``save_checkpoint`` in the packages
``core`` / ``cache`` / ``collector`` / ``filters`` / ``service`` /
``analytics``:

* every **constant key** of dict literals returned by the function
  (directly, or via a local name assigned a dict literal and filled
  with constant-subscript stores before the return);
* every module-level ``*_VERSION`` / ``*_FORMAT`` constant — the tags
  that gate the compatibility window.

and compares against the committed lockfile (JSON, sorted keys)::

    {
      "format": "repro-schema-lock",
      "version": 1,
      "schemas": {"repro.analytics.engine.AnalyticsEngine.state_dict": ["..."]},
      "tags": {"repro.service.checkpoint.CHECKPOINT_VERSION": 2}
    }

Any drift — a new producer, a removed one, a changed key set, a changed
tag — is an ERROR naming exactly what moved. Regenerate deliberately
with ``repro lint --project --write-schema-lock`` after bumping the
matching version tag; the lockfile diff then *is* the schema review.
Without a ``--schema-lock`` path the rule is silent (fixture projects
don't carry lockfiles).
"""

from __future__ import annotations

import ast
import json
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import RuleMeta, register_project_rule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.project import ProjectModule, ProjectUnderCheck

LOCK_FORMAT = "repro-schema-lock"
LOCK_VERSION = 1

#: Default lockfile location, resolved against the current directory.
DEFAULT_SCHEMA_LOCK = "schema.lock.json"

#: Packages whose state producers are part of the locked surface.
SCHEMA_PACKAGES = frozenset(
    {"core", "cache", "collector", "filters", "service", "analytics", "gateway"}
)

#: Function names treated as schema producers.
PRODUCER_NAMES = frozenset({"to_state", "state_dict", "save_checkpoint"})

#: Module-level constant suffixes treated as version tags.
TAG_SUFFIXES = ("_VERSION", "_FORMAT")


def extract_schemas(
    project: ProjectUnderCheck,
) -> Tuple[Dict[str, List[str]], Dict[str, object]]:
    """``(schemas, tags)`` of the project's persistence surface.

    ``schemas`` maps producer qname -> sorted constant key list;
    ``tags`` maps module-level constant qname -> its literal value.
    """
    schemas: Dict[str, List[str]] = {}
    for module, info, node in project.iter_functions():
        if module.package not in SCHEMA_PACKAGES:
            continue
        name = getattr(node, "name", "")
        if name not in PRODUCER_NAMES:
            continue
        keys = _returned_dict_keys(node)
        if keys is None:
            keys = _dumped_dict_keys(node)
        if keys is not None:
            schemas[info.qname] = sorted(keys)
    tags: Dict[str, object] = {}
    for module_name in sorted(project.modules):
        module = project.modules[module_name]
        if module.package not in SCHEMA_PACKAGES:
            continue
        for qname, value in _module_tags(module):
            tags[qname] = value
    return schemas, tags


def _module_tags(module: ProjectModule) -> List[Tuple[str, object]]:
    found: List[Tuple[str, object]] = []
    for stmt in module.tree.body:
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
            continue
        target = stmt.targets[0]
        if not isinstance(target, ast.Name):
            continue
        if not any(target.id.endswith(suffix) for suffix in TAG_SUFFIXES):
            continue
        if isinstance(stmt.value, ast.Constant) and isinstance(
            stmt.value.value, (str, int)
        ):
            found.append((f"{module.name}.{target.id}", stmt.value.value))
    return found


def _returned_dict_keys(node: ast.AST) -> Optional[List[str]]:
    """Constant keys of the dict(s) this producer returns, or None.

    Unions keys over all returns (versioned envelopes branch on format);
    non-constant keys and non-dict returns are simply not part of the
    statically locked surface.
    """
    # local name -> keys gathered from its dict literal + subscript stores
    env: Dict[str, set] = {}
    collected: set = set()
    saw_dict = False
    for stmt in ast.walk(node):
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name) and isinstance(stmt.value, ast.Dict):
                env[target.id] = set(_const_keys(stmt.value))
            elif (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)
                and target.value.id in env
                and isinstance(target.slice, ast.Constant)
                and isinstance(target.slice.value, str)
            ):
                env[target.value.id].add(target.slice.value)
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            value = stmt.value
            if isinstance(value, ast.Dict):
                collected.update(_const_keys(value))
                saw_dict = True
            elif isinstance(value, ast.Name) and value.id in env:
                collected.update(env[value.id])
                saw_dict = True
    return sorted(collected) if saw_dict else None


#: Calls that persist a document, by name, with the document's position.
_DUMP_SINKS = {"dump": 0, "dumps": 0, "write_json_atomic": 1}


def _dumped_dict_keys(node: ast.AST) -> Optional[List[str]]:
    """Keys of dicts handed to ``json.dump(...)`` — envelope writers.

    ``save_checkpoint`` builds its envelope locally and writes it out
    instead of returning it; the document argument of each
    ``json.dump``/``json.dumps``/``write_json_atomic`` call (a dict
    literal, or a local name assigned one) is the schema being persisted.
    """
    env: Dict[str, set] = {}
    collected: set = set()
    saw_dict = False
    for stmt in ast.walk(node):
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name) and isinstance(stmt.value, ast.Dict):
                env[target.id] = set(_const_keys(stmt.value))
        elif isinstance(stmt, ast.Call):
            func = stmt.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            position = _DUMP_SINKS.get(name)
            if position is None or len(stmt.args) <= position:
                continue
            payload = stmt.args[position]
            if isinstance(payload, ast.Dict):
                collected.update(_const_keys(payload))
                saw_dict = True
            elif isinstance(payload, ast.Name) and payload.id in env:
                collected.update(env[payload.id])
                saw_dict = True
    return sorted(collected) if saw_dict else None


def _const_keys(node: ast.Dict) -> List[str]:
    keys: List[str] = []
    for key in node.keys:
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            keys.append(key.value)
    return keys


def render_lock(
    schemas: Dict[str, List[str]], tags: Dict[str, object]
) -> str:
    """The canonical lockfile text (sorted keys, trailing newline)."""
    document = {
        "format": LOCK_FORMAT,
        "version": LOCK_VERSION,
        "schemas": {q: schemas[q] for q in sorted(schemas)},
        "tags": {q: tags[q] for q in sorted(tags)},
    }
    return json.dumps(document, indent=2, sort_keys=False) + "\n"


def write_lock(project: ProjectUnderCheck, lock_path: str) -> str:
    """Extract and write the lockfile; returns the text written."""
    schemas, tags = extract_schemas(project)
    text = render_lock(schemas, tags)
    Path(lock_path).write_text(text, encoding="utf-8")
    return text


@register_project_rule
class SchemaLockRule:
    META = RuleMeta(
        rule_id="SCHEMA",
        title="serialized-state schema matches the committed lockfile",
        invariant=(
            "every to_state/state_dict/checkpoint-envelope key set and "
            "version tag in core/cache/collector/filters/service/"
            "analytics matches schema.lock.json; schema drift requires "
            "a deliberate lockfile regeneration"
        ),
        severity=Severity.ERROR,
    )

    def check_project(self, project: ProjectUnderCheck) -> List[Finding]:
        lock_path = project.schema_lock_path
        if lock_path is None:
            return []
        schemas, tags = extract_schemas(project)
        path = Path(lock_path)
        if not path.is_file():
            return [
                self._finding(
                    str(path),
                    0,
                    f"schema lockfile `{path}` is missing; generate it "
                    "with `repro lint --project --write-schema-lock`",
                )
            ]
        try:
            locked = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            return [
                self._finding(
                    str(path), 0, f"schema lockfile is unreadable: {exc}"
                )
            ]
        if (
            not isinstance(locked, dict)
            or locked.get("format") != LOCK_FORMAT
            or locked.get("version") != LOCK_VERSION
        ):
            return [
                self._finding(
                    str(path),
                    0,
                    "schema lockfile has an unrecognized format header; "
                    "regenerate with --write-schema-lock",
                )
            ]
        findings: List[Finding] = []
        findings.extend(
            self._diff(
                project,
                str(path),
                "schema",
                {q: list(v) for q, v in locked.get("schemas", {}).items()},
                schemas,
            )
        )
        findings.extend(
            self._diff(
                project, str(path), "version tag", locked.get("tags", {}), tags
            )
        )
        return findings

    def _diff(
        self,
        project: ProjectUnderCheck,
        lock_path: str,
        kind: str,
        locked: Dict[str, object],
        current: Dict[str, object],
    ) -> List[Finding]:
        findings: List[Finding] = []
        for qname in sorted(set(current) - set(locked)):
            findings.append(
                self._site_finding(
                    project,
                    lock_path,
                    qname,
                    f"{kind} `{qname}` is not in the lockfile; run "
                    "--write-schema-lock to lock it (and bump the "
                    "matching version tag if the format changed)",
                )
            )
        for qname in sorted(set(locked) - set(current)):
            findings.append(
                self._finding(
                    lock_path,
                    0,
                    f"locked {kind} `{qname}` no longer exists in the "
                    "project; regenerate the lockfile",
                )
            )
        for qname in sorted(set(locked) & set(current)):
            if locked[qname] != current[qname]:
                findings.append(
                    self._site_finding(
                        project,
                        lock_path,
                        qname,
                        f"{kind} `{qname}` drifted from the lockfile: "
                        f"locked {locked[qname]!r}, current "
                        f"{current[qname]!r}; bump the version tag and "
                        "regenerate with --write-schema-lock",
                    )
                )
        return findings

    def _site_finding(
        self,
        project: ProjectUnderCheck,
        lock_path: str,
        qname: str,
        message: str,
    ) -> Finding:
        """Anchor a drift finding at the producer's def line when known."""
        node = project.function_node(qname)
        if node is not None:
            info = project.functions[qname]
            module = project.modules.get(info.module_name)
            if module is not None:
                return self._finding(
                    module.path, getattr(node, "lineno", 0), message
                )
        module_part = qname.rpartition(".")[0]
        module = project.modules.get(module_part)
        if module is not None:
            return self._finding(module.path, 0, message)
        return self._finding(lock_path, 0, message)

    def _finding(self, path: str, line: int, message: str) -> Finding:
        return Finding(
            rule=self.META.rule_id,
            severity=self.META.severity,
            path=path,
            line=line,
            col=0,
            message=message,
        )
