"""Noisy detection model: turning true positions into raw readings.

The paper's raw reading generator "checks whether each object is detected
by a reader according to the deployment of readers and the current
location of the object" (Section 5.1), with false negatives from RF
interference etc. (Section 1). We model each reader as sampling
``samples_per_second`` times a second and missing an in-range tag
independently per sample with probability ``1 - detection_probability``.

For robustness experiments, :class:`ReaderOutage` windows silence whole
readers (hardware failure, power loss): during an outage the reader
produces no readings at all, and the inference layers must cope with the
resulting coverage hole.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence

import numpy as np

from repro.geometry import Point
from repro.rfid.reader import RFIDReader
from repro.rfid.readings import RawReading
from repro.rng import RngLike, make_rng


@dataclass(frozen=True)
class ReaderOutage:
    """A reader producing no readings during ``[start, end)`` seconds."""

    reader_id: str
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(
                f"outage end {self.end} must be after start {self.start}"
            )

    def covers(self, second: int) -> bool:
        """True when the reader is dark during ``second``."""
        return self.start <= second < self.end


class DetectionModel:
    """Per-sample Bernoulli detection with false negatives."""

    def __init__(
        self,
        readers: Sequence[RFIDReader],
        detection_probability: float = 0.85,
        samples_per_second: int = 10,
        outages: Sequence[ReaderOutage] = (),
    ):
        if not 0.0 <= detection_probability <= 1.0:
            raise ValueError("detection_probability must be in [0, 1]")
        if samples_per_second < 1:
            raise ValueError("samples_per_second must be >= 1")
        self.readers = list(readers)
        self.detection_probability = detection_probability
        self.samples_per_second = samples_per_second
        self.outages = list(outages)
        known = {r.reader_id for r in self.readers}
        for outage in self.outages:
            if outage.reader_id not in known:
                raise ValueError(
                    f"outage references unknown reader {outage.reader_id!r}"
                )

    def _is_dark(self, reader_id: str, second: int) -> bool:
        return any(
            outage.reader_id == reader_id and outage.covers(second)
            for outage in self.outages
        )

    def sample_second(
        self,
        second: int,
        tag_positions: Mapping[str, Point],
        rng: RngLike = None,
    ) -> List[RawReading]:
        """Raw readings generated during ``[second, second + 1)``.

        ``tag_positions`` maps tag id to the tag's true position during
        that second (positions are treated as constant within the second,
        matching the 1 Hz resolution of the true trace generator).
        """
        generator = make_rng(rng)
        # One shared float per sample instant, not a numpy scalar per reading.
        times = [
            second + (index + 0.5) / self.samples_per_second
            for index in range(self.samples_per_second)
        ]
        readings: List[RawReading] = []
        for reader in self.readers:
            if self._is_dark(reader.reader_id, second):
                continue
            circle = reader.detection_circle
            for tag_id, position in tag_positions.items():
                if not circle.contains(position):
                    continue
                hits = generator.random(self.samples_per_second) < self.detection_probability
                for sample_index in np.nonzero(hits)[0].tolist():
                    readings.append(
                        RawReading(
                            time=times[sample_index],
                            tag_id=tag_id,
                            reader_id=reader.reader_id,
                        )
                    )
        readings.sort()
        return readings

    def probability_of_missed_second(self) -> float:
        """Chance that an in-range tag produces no reading for a second.

        With the defaults (p=0.85, 10 samples) this is ~5.8e-9 — the
        aggregation argument of Section 4.1: "it is very unlikely that all
        the readings of an object during one second are totally missed".
        """
        return (1.0 - self.detection_probability) ** self.samples_per_second

    def detecting_reader(self, position: Point) -> Optional[RFIDReader]:
        """The reader whose range covers ``position``, if any.

        With disjoint ranges at most one reader covers a point; if ranges
        overlap the nearest reader wins.
        """
        best = None
        best_dist = float("inf")
        for reader in self.readers:
            dist = reader.position.distance_to(position)
            if dist <= reader.activation_range and dist < best_dist:
                best = reader
                best_dist = dist
        return best
