"""Finding: one invariant violation at one source location.

A finding is deliberately small and serializable: the JSON reporter, the
baseline file, and the text reporter all consume the same dataclass.
Baseline matching uses :meth:`Finding.fingerprint` — ``(path, rule,
message)`` without the line number — so grandfathered violations survive
unrelated edits that shift lines.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Tuple, Union

JsonScalar = Union[str, int]


class Severity(enum.Enum):
    """How bad a violation is.

    ``ERROR`` findings break the per-object determinism guarantee outright
    (unseeded RNG, wall-clock in a replayed path); ``WARNING`` findings
    are latent hazards (unguarded shared state that today happens to be
    touched single-threaded).
    """

    WARNING = "warning"
    ERROR = "error"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Finding:
    """One rule violation at one location."""

    rule: str
    severity: Severity
    path: str
    line: int
    col: int
    message: str

    def fingerprint(self) -> Tuple[str, str, str]:
        """Line-insensitive identity used for baseline matching."""
        return (self.path, self.rule, self.message)

    def to_dict(self) -> Dict[str, JsonScalar]:
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        """``path:line:col: RULE severity: message`` (one text-report row)."""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} {self.severity.value}: {self.message}"
        )

    @classmethod
    def from_dict(cls, raw: Dict[str, JsonScalar]) -> "Finding":
        return cls(
            rule=str(raw["rule"]),
            severity=Severity(str(raw.get("severity", "error"))),
            path=str(raw["path"]),
            line=int(raw.get("line", 0)),
            col=int(raw.get("col", 0)),
            message=str(raw["message"]),
        )


def sort_key(finding: Finding) -> Tuple[str, int, int, str]:
    """Stable report order: path, then position, then rule id."""
    return (finding.path, finding.line, finding.col, finding.rule)
