"""The event-driven raw data collector module (paper Section 4.1).

Per object, the collector stores aggregated readings only for the two most
recent consecutive detecting devices ("readings during the most recent
ENTER, LEAVE, ENTER events"): when an object enters the range of a third
device, the oldest device's readings are dropped.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import repro.obs as obs
from repro.collector.aggregator import aggregate_second
from repro.rfid.readings import AggregatedReading, RawReading, ReadingEntry


@dataclass
class DeviceRun:
    """A maximal stretch of seconds during which one device detected an object.

    ``seconds`` need not be contiguous: false negatives can blank
    individual seconds inside a run without ending it (the run only ends
    when a *different* device detects the object).
    """

    reader_id: str
    seconds: List[int] = field(default_factory=list)

    @property
    def first_second(self) -> int:
        """The ENTER second of the run."""
        return self.seconds[0]

    @property
    def last_second(self) -> int:
        """The most recent detection second of the run."""
        return self.seconds[-1]

    def add(self, second: int) -> None:
        """Record one more detected second."""
        if self.seconds and second <= self.seconds[-1]:
            raise ValueError(
                f"seconds must be ingested in order; got {second} after "
                f"{self.seconds[-1]}"
            )
        self.seconds.append(second)


@dataclass(frozen=True)
class ReadingHistory:
    """What the particle filter sees for one object: up to two device runs.

    ``runs`` is ordered oldest first. The filter starts at the first
    second of the older run and replays per-second entries up to the last
    detection (paper Algorithm 2, lines 2-4).
    """

    object_id: str
    runs: Tuple[DeviceRun, ...]

    @property
    def is_empty(self) -> bool:
        """True when the object has never been detected."""
        return not self.runs

    @property
    def first_second(self) -> int:
        """``t0``: the start of the retained readings."""
        return self.runs[0].first_second

    @property
    def last_second(self) -> int:
        """``td``: the most recent detection second."""
        return self.runs[-1].last_second

    @property
    def previous_reader_id(self) -> Optional[str]:
        """``d_i``: the second most recent device (None with one run)."""
        return self.runs[0].reader_id if len(self.runs) == 2 else None

    @property
    def latest_reader_id(self) -> str:
        """``d_j``: the most recent detecting device."""
        return self.runs[-1].reader_id

    @property
    def initial_reader_id(self) -> str:
        """The device whose range seeds the particle cloud (the older run)."""
        return self.runs[0].reader_id

    def entries(self) -> List[ReadingEntry]:
        """Per-second entries from ``t0`` to ``td`` inclusive.

        Seconds with no detection yield ``reader_id=None`` — Algorithm 2
        skips reweighting on those.
        """
        detected: Dict[int, str] = {}
        for run in self.runs:
            for second in run.seconds:
                detected[second] = run.reader_id
        return [
            ReadingEntry(second=s, reader_id=detected.get(s))
            for s in range(self.first_second, self.last_second + 1)
        ]

    def reading_at(self, second: int) -> Optional[str]:
        """The detecting device at ``second``, or None.

        Each run's seconds ascend (:meth:`DeviceRun.add` enforces it), so
        a bisection finds the second without scanning the run.
        """
        for run in self.runs:
            seconds = run.seconds
            index = bisect_left(seconds, second)
            if index < len(seconds) and seconds[index] == second:
                return run.reader_id
        return None


class EventDrivenCollector:
    """Stores and serves per-object reading histories.

    Feed it raw readings second by second with :meth:`ingest_second`; it
    aggregates them and maintains the two-device retention policy. A new
    device run is an ENTER (and ends the previous run with a LEAVE): it
    bumps the object's device generation and the
    ``collector.enter_events``/``collector.leave_events`` counters, and
    nothing else is kept of it.
    """

    def __init__(self, tag_to_object: Mapping[str, str], max_runs: int = 2):
        if max_runs < 1:
            raise ValueError("max_runs must be >= 1")
        self._tag_to_object = dict(tag_to_object)
        self._max_runs = max_runs
        self._runs: Dict[str, List[DeviceRun]] = {}
        self._last_ingested_second: Optional[int] = None
        self._generation: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def register_tags(self, tag_to_object: Mapping[str, str]) -> None:
        """Add (or update) tag-to-object mappings.

        Supports populations that change over time (the tracking service
        registers each tag the first time it reads it): tags registered
        here are recognized by subsequent ingests; readings from unknown
        tags are ignored.
        """
        self._tag_to_object.update(tag_to_object)

    def knows_tag(self, tag_id: str) -> bool:
        """True when a tag is registered (its readings are not ignored)."""
        return tag_id in self._tag_to_object

    def ingest_second(self, second: int, raw_readings: Iterable[RawReading]) -> None:
        """Aggregate and store one second of raw readings."""
        if self._last_ingested_second is not None and second <= self._last_ingested_second:
            raise ValueError(
                f"seconds must be ingested in increasing order; got {second} "
                f"after {self._last_ingested_second}"
            )
        self._last_ingested_second = second
        aggregated = aggregate_second(second, raw_readings, self._tag_to_object)
        for object_id, entry in aggregated.items():
            self._ingest_entry(entry)
        if obs.enabled():
            obs.add("collector.seconds_ingested")
            obs.gauge_set("collector.objects_tracked", len(self._runs))

    def _ingest_entry(self, entry: AggregatedReading) -> None:
        runs = self._runs.setdefault(entry.object_id, [])
        if runs and runs[-1].reader_id == entry.reader_id:
            runs[-1].add(entry.second)
            return
        # A new device run begins: count LEAVE for the previous run and
        # ENTER for the new one, then enforce the retention policy.
        if runs:
            obs.add("collector.leave_events")
        obs.add("collector.enter_events")
        runs.append(DeviceRun(reader_id=entry.reader_id, seconds=[entry.second]))
        if len(runs) > self._max_runs:
            del runs[: len(runs) - self._max_runs]
        self._generation[entry.object_id] = (
            self._generation.get(entry.object_id, 0) + 1
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def history(self, object_id: str) -> ReadingHistory:
        """The retained reading history of an object (possibly empty)."""
        runs = self._runs.get(object_id, [])
        return ReadingHistory(object_id=object_id, runs=tuple(runs))

    def last_detection(self, object_id: str) -> Optional[Tuple[str, int]]:
        """``(reader_id, second)`` of the most recent detection, or None."""
        runs = self._runs.get(object_id)
        if not runs:
            return None
        last = runs[-1]
        return last.reader_id, last.last_second

    def device_generation(self, object_id: str) -> int:
        """Counter bumped whenever the object is seen by a *new* device.

        The cache-management module invalidates its stored particle state
        when this changes (paper Section 4.5).
        """
        return self._generation.get(object_id, 0)

    def observed_objects(self) -> List[str]:
        """All objects with at least one retained reading."""
        return list(self._runs.keys())

    # ------------------------------------------------------------------
    # checkpoint support (repro.service.checkpoint)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Full collector state as a JSON-safe dict.

        Captures everything :meth:`restore_state` needs to resume
        ingestion mid-stream with identical behavior: retained device
        runs, device generations, the tag registry, and the last ingested
        second.
        """
        return {
            "max_runs": self._max_runs,
            "last_ingested_second": self._last_ingested_second,
            "tag_to_object": dict(self._tag_to_object),
            "generations": dict(self._generation),
            "runs": {
                object_id: [
                    {"reader_id": run.reader_id, "seconds": list(run.seconds)}
                    for run in runs
                ]
                for object_id, runs in self._runs.items()
            },
        }

    def restore_state(self, state: dict) -> None:
        """Overwrite this collector's state from :meth:`state_dict` output."""
        self._max_runs = int(state["max_runs"])
        last = state["last_ingested_second"]
        self._last_ingested_second = None if last is None else int(last)
        self._tag_to_object = dict(state["tag_to_object"])
        self._generation = {
            obj: int(gen) for obj, gen in state["generations"].items()
        }
        self._runs = {
            object_id: [
                DeviceRun(
                    reader_id=run["reader_id"],
                    seconds=[int(s) for s in run["seconds"]],
                )
                for run in runs
            ]
            for object_id, runs in state["runs"].items()
        }
