"""Built-in invariant rules. Importing this package registers them all.

Per-file rules (one parsed module at a time):

| id  | invariant |
|-----|-----------|
| DET | randomness flows through seeded ``repro.rng`` factories |
| CLK | wall-clock reads go through injectable clocks |
| THR | shared module state in thread-reachable packages is lock-guarded |
| FP  | no exact float equality in geometry/graph coordinate math |
| IO  | durable service state is written via temp + atomic rename |

Whole-program rules (``repro lint --project``):

| id        | invariant |
|-----------|-----------|
| ARCH      | module-level imports respect the package layer map |
| SEED      | RNGs reaching core/filters/service derive from ``repro.rng`` |
| SCHEMA    | serialized-state key sets match ``schema.lock.json`` |
| LOCKORDER | the project-wide lock-acquisition graph is acyclic |
"""

from repro.analysis.rules.architecture import ArchitectureRule
from repro.analysis.rules.atomic_io import AtomicWriteRule
from repro.analysis.rules.clock import ClockRule
from repro.analysis.rules.determinism import DeterminismRule
from repro.analysis.rules.floatcmp import FloatEqualityRule
from repro.analysis.rules.lock_order import LockOrderRule
from repro.analysis.rules.schema_lock import SchemaLockRule
from repro.analysis.rules.seed_provenance import SeedProvenanceRule
from repro.analysis.rules.threads import ThreadSafetyRule

__all__ = [
    "ArchitectureRule",
    "AtomicWriteRule",
    "ClockRule",
    "DeterminismRule",
    "FloatEqualityRule",
    "LockOrderRule",
    "SchemaLockRule",
    "SeedProvenanceRule",
    "ThreadSafetyRule",
]
