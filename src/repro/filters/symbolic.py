"""The symbolic (uniform-over-reachable) model as a filter backend.

Wraps :class:`repro.symbolic.inference.SymbolicLocationModel` — the
Yang-et-al. baseline the paper compares against — behind the
:class:`~repro.filters.base.BayesFilter` contract. This backend *is* the
baseline system: the simulator's ``sm_engine`` and the CLI's
``--filter symbolic`` both run it through the exact same engine,
executor, and query-evaluation code paths as the particle and Kalman
backends.

The model is closed-form in ``(history, now)``: there is nothing to
propagate between seconds, so ``predict`` is a no-op, ``update`` merely
advances the evaluation second, and the backend opts out of state
caching (``cacheable = False`` — recomputing is cheaper than resuming).
Unlike the replay driver, the symbolic model evaluates at the *actual*
query second with no silence cap — the maximum-speed reachability
constraint plays that role — so :meth:`SymbolicBackend.run` overrides
the generic loop and evaluates directly at ``current_second``.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Union,
    cast,
)

import numpy as np

import repro.obs as obs
from repro.collector.collector import DeviceRun, ReadingHistory
from repro.config import SimulationConfig
from repro.filters.base import (
    BayesFilter,
    FilterBackend,
    FilterRun,
    FilterState,
    FilterStateError,
    ResumeState,
)
from repro.filters.registry import register_backend
from repro.graph.anchors import AnchorIndex
from repro.graph.walking_graph import WalkingGraph
from repro.rfid.reader import RFIDReader
from repro.rng import RngLike

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.symbolic.inference import SymbolicLocationModel


class SymbolicState:
    """A symbolic belief is just the inputs: the history and the second."""

    __slots__ = ("object_id", "runs", "now")

    def __init__(
        self, object_id: str, runs: Sequence[Mapping[str, object]], now: int
    ) -> None:
        self.object_id = object_id
        self.runs: List[Dict[str, object]] = [dict(r) for r in runs]
        self.now = now

    @classmethod
    def from_history(cls, history: ReadingHistory, now: int) -> "SymbolicState":
        """Capture a reading history at evaluation second ``now``."""
        return cls(
            history.object_id,
            [
                {"reader_id": run.reader_id, "seconds": list(run.seconds)}
                for run in history.runs
            ],
            now,
        )

    def history(self) -> ReadingHistory:
        """The captured history as the collector's type."""
        return ReadingHistory(
            object_id=self.object_id,
            runs=tuple(
                DeviceRun(
                    reader_id=cast(str, run["reader_id"]),
                    seconds=list(cast(List[int], run["seconds"])),
                )
                for run in self.runs
            ),
        )

    def copy(self) -> "SymbolicState":
        """An independent deep copy."""
        return SymbolicState(self.object_id, self.runs, self.now)

    def detached(self) -> "SymbolicState":
        """This state: it shares nothing with other states."""
        return self

    def to_state(self) -> Dict[str, object]:
        """JSON-safe snapshot (plain ints and strings round-trip exactly)."""
        return {
            "object_id": self.object_id,
            "runs": [dict(r) for r in self.runs],
            "now": self.now,
        }

    @classmethod
    def from_state(cls, payload: Mapping[str, object]) -> "SymbolicState":
        """Rebuild a belief from a :meth:`to_state` document."""
        try:
            return cls(
                cast(str, payload["object_id"]),
                cast(List[Mapping[str, object]], payload["runs"]),
                cast(int, payload["now"]),
            )
        except KeyError as exc:
            raise FilterStateError(
                f"symbolic state document is missing field {exc.args[0]!r}"
            ) from exc


class SymbolicBayesFilter(BayesFilter):
    """Contract adapter: evaluate the symbolic model at the tracked second."""

    def __init__(self, backend: "SymbolicBackend", state: SymbolicState) -> None:
        self._backend = backend
        self._state = state

    def predict(self, dt: float) -> None:
        # Closed-form model: time only enters through the evaluation
        # second, advanced here so the generic replay driver still lands
        # on the correct ``now``.
        self._state.now += int(dt)

    def update(
        self, second: int, readings: Sequence[str], negative_info: bool
    ) -> None:
        del negative_info  # reachability already encodes absence
        self._state.now = second
        # The retained runs grow only through the collector; a detection
        # during replay is already part of the captured history.
        del readings

    def posterior(self) -> Dict[int, float]:
        distribution = self._backend.model.infer(
            self._state.history(), self._state.now
        )
        return dict(distribution) if distribution else {}

    def state(self) -> FilterState:
        return self._state


@register_backend
class SymbolicBackend(FilterBackend):
    """Registry wrapper around the symbolic location model."""

    name = "symbolic"
    state_version = 1
    #: Stateless in the Bayesian sense: the posterior is a closed-form
    #: function of (history, now), so caching beliefs buys nothing.
    cacheable = False

    def __init__(
        self,
        graph: WalkingGraph,
        anchor_index: AnchorIndex,
        readers: Union[Mapping[str, RFIDReader], Iterable[RFIDReader]],
        config: SimulationConfig,
        resampler: object = None,
    ) -> None:
        super().__init__(graph, anchor_index, readers, config, resampler=resampler)
        # Imported here, not at module level: repro.symbolic sits above
        # repro.filters in the layer map (ARCH).
        from repro.symbolic.inference import SymbolicLocationModel

        self.model: "SymbolicLocationModel" = SymbolicLocationModel(
            self.graph, self.anchor_index, self.readers.values(), self.config
        )

    # ------------------------------------------------------------------
    def new_filter(
        self, history: ReadingHistory, rng: np.random.Generator
    ) -> BayesFilter:
        del rng  # the symbolic model is deterministic
        return SymbolicBayesFilter(
            self, SymbolicState.from_history(history, history.first_second)
        )

    def filter_from_state(
        self, state: FilterState, rng: np.random.Generator
    ) -> BayesFilter:
        del rng
        return SymbolicBayesFilter(self, cast(SymbolicState, state).copy())

    def state_from_dict(self, payload: Dict[str, object]) -> FilterState:
        return SymbolicState.from_state(payload)

    # ------------------------------------------------------------------
    def run(
        self,
        history: ReadingHistory,
        current_second: int,
        rng: RngLike = None,
        resume: Optional[ResumeState] = None,
    ) -> FilterRun:
        """Evaluate directly at ``current_second`` (no silence cap).

        The symbolic model bounds the feasible region by maximum-speed
        reachability instead of capping replay length, so the model is
        evaluated at the true query second rather than routed through the
        capped replay loop.
        """
        del rng, resume  # deterministic and closed-form
        if history.is_empty:
            raise ValueError(
                f"object {history.object_id!r} has no readings; it cannot be filtered"
            )
        with obs.span("filter.run", object=history.object_id, backend=self.name):
            obs.add("filter.runs")
            obs.add("filter.backend_runs", labels={"backend": self.name})
            filt = SymbolicBayesFilter(
                self, SymbolicState.from_history(history, int(current_second))
            )
        return FilterRun(filter=filt, end_second=int(current_second))
