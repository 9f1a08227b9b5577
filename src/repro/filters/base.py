"""The Bayesian filter contract every location-inference backend obeys.

The follow-up paper (*RFID-Based Indoor Spatial Query Evaluation with
Bayesian Filtering Techniques*, arXiv:2204.00747) swaps the particle
filter for alternative Bayesian estimators and compares accuracy against
cost. Such a comparison is only credible when every estimator runs
behind one model/processing interface — this module is that interface.

A **backend** (:class:`FilterBackend`) owns the immutable per-deployment
model: the walking graph, the reader layout, and whatever it precompiled
from them. Its :meth:`FilterBackend.run` turns one object's reading
history into a :class:`FilterRun` whose **filter** (:class:`BayesFilter`)
is that object's final belief:

* ``posterior()`` — the belief as per-anchor probability mass, the
  ``{ap_id: probability}`` form all query evaluation code consumes;
* ``state()`` / ``to_state()`` — checkpointing: ``state()`` exposes the
  belief itself (for the in-memory cache), ``to_state()`` a JSON-safe
  document that round-trips bit-exactly.

Randomness is injected: the caller passes a generator derived from the
``(seed, second, object_id)`` child stream
(:func:`repro.rng.filter_run_rng`), never a shared evolving stream —
this is what makes every backend's results independent of partitioning and
restarts. Deterministic backends simply ignore the generator.

:meth:`FilterBackend.run_many` runs a whole tick's objects in one call;
by default it loops over :meth:`FilterBackend.run`, and the particle
backend overrides it with its lockstep kernel.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import ClassVar, Dict, Iterable, List, Mapping, Optional, Protocol, Sequence, Tuple, Union

from repro.collector.collector import ReadingHistory
from repro.config import SimulationConfig
from repro.core.compiled import CompiledAnchors, CompiledGraph
from repro.core.filter import FilterRequest as FilterRequest
from repro.graph.anchors import AnchorIndex
from repro.graph.walking_graph import WalkingGraph
from repro.rfid.reader import RFIDReader
from repro.rng import RngLike


class FilterStateError(ValueError):
    """A serialized filter state is unreadable or from the wrong backend."""


class FilterState(Protocol):
    """What a backend's mutable belief must support to be cached/checkpointed."""

    def detached(self) -> "FilterState":
        """This belief if it shares no memory with others, else a copy."""
        ...  # pragma: no cover - protocol

    def to_state(self) -> Dict[str, object]:
        """A JSON-safe document that round-trips bit-exactly."""
        ...  # pragma: no cover - protocol


#: A cached resume point: the belief and the second it represents.
ResumeState = Tuple[FilterState, int]


class BayesFilter(ABC):
    """One object's belief, as a backend run left it."""

    @abstractmethod
    def posterior(self) -> Dict[int, float]:
        """The belief as ``{anchor_id: probability}``; mass sums to 1."""

    @abstractmethod
    def state(self) -> FilterState:
        """The belief itself, not a copy.

        Once a backend's run has returned it, the belief is never
        mutated again (see :meth:`FilterRun.state`); callers must not
        mutate it either, and a resumed run copies it first.
        """

    def to_state(self) -> Dict[str, object]:
        """JSON-safe snapshot of the belief (bit-exact round trip)."""
        return self.state().to_state()


@dataclass
class FilterRun:
    """Output of one backend run: the final belief and the second it covers."""

    filter: BayesFilter
    end_second: int

    def posterior(self) -> Dict[int, float]:
        """The run's final per-anchor distribution."""
        return self.filter.posterior()

    def state(self) -> FilterState:
        """The run's final belief, for the cache (not copied).

        The contract every backend keeps: once ``run``/``run_many`` has
        returned, nothing mutates this state, so the cache may hold it
        as is. The particle kernel returns views of a stack it built for
        the call and never touches again; the symbolic backend builds a
        fresh state per run.
        """
        return self.filter.state()


class FilterBackend(ABC):
    """Per-deployment model shared by all of one backend's filters.

    Subclasses declare:

    * ``name`` — the registry key (``--filter`` value);
    * ``state_version`` — bumped whenever ``to_state`` layout changes, so
      checkpoints refuse incompatible restores instead of mis-decoding;
    * ``cacheable`` — whether resuming from a cached belief is cheaper
      than recomputing (stateless backends opt out).
    """

    name: ClassVar[str]
    state_version: ClassVar[int] = 1
    cacheable: ClassVar[bool] = True

    def __init__(
        self,
        graph: WalkingGraph,
        anchor_index: AnchorIndex,
        readers: Union[Mapping[str, RFIDReader], Iterable[RFIDReader]],
        config: SimulationConfig,
        resampler: object = None,
    ) -> None:
        self.graph = graph
        self.anchor_index = anchor_index
        self.config = config
        if isinstance(readers, Mapping):
            self.readers: Dict[str, RFIDReader] = dict(readers)
        else:
            self.readers = {r.reader_id: r for r in readers}
        self.resampler = resampler
        self.compiled_graph = CompiledGraph(graph)
        self.compiled_anchors = CompiledAnchors(anchor_index, self.compiled_graph)

    @abstractmethod
    def state_from_dict(self, payload: Dict[str, object]) -> FilterState:
        """Decode a :meth:`BayesFilter.to_state` document (checkpoints)."""

    @abstractmethod
    def run(
        self,
        history: ReadingHistory,
        current_second: int,
        rng: RngLike = None,
        resume: Optional[ResumeState] = None,
    ) -> FilterRun:
        """Run (or resume) the filter for one object up to ``current_second``.

        Raises :class:`ValueError` when ``history`` holds no readings.
        """

    def run_many(
        self, requests: Sequence[FilterRequest], current_second: int
    ) -> List[FilterRun]:
        """Run (or resume) every request up to ``current_second``, in order.

        The preprocessing module makes one such call per tick. This
        default runs the requests one by one through :meth:`run`.
        """
        return [
            self.run(request.history, current_second, rng=request.rng, resume=request.resume)
            for request in requests
        ]

    def posteriors(self, runs: Sequence[FilterRun]) -> List[Dict[int, float]]:
        """Each run's final per-anchor distribution, in ``runs`` order.

        Backends that can snap many beliefs at once override this; the
        preprocessing module calls it once per tick.
        """
        return [run.posterior() for run in runs]

    def check_state_version(self, version: int) -> None:
        """Raise :class:`FilterStateError` unless ``version`` matches."""
        if version != self.state_version:
            raise FilterStateError(
                f"filter backend {self.name!r} speaks state version "
                f"{self.state_version}, got a version-{version} state; "
                f"re-create the checkpoint with the current code"
            )
