"""The Bayesian filter contract every location-inference backend obeys.

The follow-up paper (*RFID-Based Indoor Spatial Query Evaluation with
Bayesian Filtering Techniques*, arXiv:2204.00747) swaps the particle
filter for alternative Bayesian estimators and compares accuracy against
cost. Such a comparison is only credible when every estimator runs
behind one model/processing interface — this module is that interface.

A **backend** (:class:`FilterBackend`) owns the immutable per-deployment
model: the walking graph, the reader layout, and whatever it precompiled
from them. The preprocessing module makes two calls per tick:

* :meth:`FilterBackend.run_many` turns each object's reading history
  (and cached resume point, if any) into a :class:`FilterRun`: the
  object's final belief and the second it covers;
* :meth:`FilterBackend.posteriors` snaps those beliefs to per-anchor
  probability mass, the ``{ap_id: probability}`` form all query
  evaluation code consumes.

Beliefs are never serialized: a checkpoint saves reading histories,
and a restore replays them.

Randomness is keyed, not threaded: ``run_many`` takes the system seed,
and a backend that draws keys every draw by ``(seed, object, stepped
second)`` (:class:`repro.rng.CounterDraws`), never by a shared evolving
stream — this is what makes every backend's results independent of
partitioning, caching and restarts. Deterministic backends ignore the
seed.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import ClassVar, Dict, Iterable, List, Mapping, Optional, Protocol, Sequence, Union

from repro.config import SimulationConfig
from repro.core.compiled import CompiledAnchors, CompiledGraph
from repro.core.filter import FilterRequest as FilterRequest
from repro.graph.anchors import AnchorIndex
from repro.graph.walking_graph import WalkingGraph
from repro.rfid.reader import RFIDReader


class FilterState(Protocol):
    """What a backend's mutable belief must support to be cached."""

    def detached(self) -> "FilterState":
        """This belief if it shares no memory with others, else a copy."""
        ...  # pragma: no cover - protocol


@dataclass
class FilterRun:
    """Output of one object's run: the final belief and the second it covers.

    The contract every backend keeps: once ``run_many`` has returned,
    nothing mutates ``state``, so the cache may hold it as is. The
    particle kernel returns views of a stack it built for the call and
    never touches again; the symbolic backend builds a fresh state per
    run.
    """

    state: FilterState
    end_second: int


class FilterBackend(ABC):
    """Per-deployment model shared by all of one backend's runs.

    Subclasses declare:

    * ``name`` — the ``--filter`` value it is created under;
    * ``cacheable`` — whether resuming from a cached belief is cheaper
      than recomputing (stateless backends opt out).
    """

    name: ClassVar[str]
    cacheable: ClassVar[bool] = True

    def __init__(
        self,
        graph: WalkingGraph,
        anchor_index: AnchorIndex,
        readers: Union[Mapping[str, RFIDReader], Iterable[RFIDReader]],
        config: SimulationConfig,
        resampler: object = None,
    ) -> None:
        del resampler  # the particle backend's kernel; others have none
        self.graph = graph
        self.anchor_index = anchor_index
        self.config = config
        if isinstance(readers, Mapping):
            self.readers: Dict[str, RFIDReader] = dict(readers)
        else:
            self.readers = {r.reader_id: r for r in readers}
        self.compiled_graph = CompiledGraph(graph)
        self.compiled_anchors = CompiledAnchors(anchor_index, self.compiled_graph)

    @abstractmethod
    def run_many(
        self,
        requests: Sequence[FilterRequest],
        current_second: int,
        seed: Optional[int] = None,
    ) -> List[FilterRun]:
        """Run (or resume) every request up to ``current_second``, in order.

        Draws, if any, are keyed by ``seed`` (default: the config's).

        Raises :class:`ValueError` when a request's history holds no
        readings.
        """

    @abstractmethod
    def posteriors(self, runs: Sequence[FilterRun]) -> List[Dict[int, float]]:
        """Each run's final ``{anchor_id: probability}`` distribution, in order."""
