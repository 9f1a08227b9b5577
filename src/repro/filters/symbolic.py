"""The symbolic (uniform-over-reachable) model as a filter backend.

Wraps :class:`repro.symbolic.inference.SymbolicLocationModel` — the
Yang-et-al. baseline the paper compares against — behind the
:class:`~repro.filters.base.FilterBackend` contract. This backend *is* the
baseline system: the simulator's ``sm_engine`` and the CLI's
``--filter symbolic`` both run it through the exact same engine,
executor, and query-evaluation code paths as the particle backend.

The model is closed-form in ``(history, now)``: there is nothing to
propagate between seconds, so the backend opts out of state caching
(``cacheable = False`` — recomputing is cheaper than resuming). Unlike
the particle filter, the symbolic model evaluates at the *actual* query
second with no silence cap — the maximum-speed reachability constraint
plays that role — so :meth:`SymbolicBackend.run_many` captures each
history at ``current_second`` and :meth:`SymbolicBackend.posteriors`
evaluates the model there.
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

import repro.obs as obs
from repro.collector.collector import DeviceRun, ReadingHistory
from repro.config import SimulationConfig
from repro.core.filter import FilterRequest
from repro.filters.base import FilterBackend, FilterRun
from repro.graph.anchors import AnchorIndex
from repro.graph.walking_graph import WalkingGraph
from repro.rfid.reader import RFIDReader

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.symbolic.inference import SymbolicLocationModel


class SymbolicState:
    """A symbolic belief is just the inputs: the history and the second."""

    __slots__ = ("history", "now")

    def __init__(self, history: ReadingHistory, now: int) -> None:
        self.history = history
        self.now = now

    @classmethod
    def from_history(cls, history: ReadingHistory, now: int) -> "SymbolicState":
        """Capture a reading history at evaluation second ``now``.

        The runs are copied: the collector keeps appending to its own.
        """
        runs = tuple(DeviceRun(run.reader_id, list(run.seconds)) for run in history.runs)
        return cls(ReadingHistory(history.object_id, runs), now)

    def detached(self) -> "SymbolicState":
        """This state: it shares nothing with other states."""
        return self


class SymbolicBackend(FilterBackend):
    """The symbolic location model behind the backend contract."""

    name = "symbolic"
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
        super().__init__(graph, anchor_index, readers, config)
        # Imported here, not at module level: repro.symbolic sits above
        # repro.filters in the layer map (ARCH).
        from repro.symbolic.inference import SymbolicLocationModel

        self.model: "SymbolicLocationModel" = SymbolicLocationModel(
            self.graph, self.anchor_index, self.readers.values(), self.config
        )

    # ------------------------------------------------------------------
    def run_many(
        self,
        requests: Sequence[FilterRequest],
        current_second: int,
        seed: Optional[int] = None,
    ) -> List[FilterRun]:
        """Capture every request's history at ``current_second`` (no silence cap).

        The symbolic model bounds the feasible region by maximum-speed
        reachability instead of capping replay length, so the model is
        evaluated at the true query second. It is deterministic and
        closed-form: the seed and requests' resume points are unused.
        """
        now = int(current_second)
        runs: List[FilterRun] = []
        for request in requests:
            history = request.history
            if history.is_empty:
                raise ValueError(
                    f"object {history.object_id!r} has no readings; it cannot be filtered"
                )
            with obs.span("filter.run", object=history.object_id, backend=self.name):
                obs.add("filter.runs")
                obs.add("filter.backend_runs", labels={"backend": self.name})
                runs.append(FilterRun(SymbolicState.from_history(history, now), now))
        return runs

    def posteriors(self, runs: Sequence[FilterRun]) -> List[Dict[int, float]]:
        """Each run's distribution: the model evaluated at the run's second."""
        distributions: List[Dict[int, float]] = []
        for run in runs:
            state = cast(SymbolicState, run.state)
            distribution = self.model.infer(state.history, state.now)
            distributions.append(dict(distribution) if distribution else {})
        return distributions
