"""Reading records produced by the RFID layer."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True, order=True, slots=True)
class RawReading:
    """One raw detection sample: (detection time, tag id, reader id).

    Matches the record the paper's raw reading generator feeds into the
    probabilistic evaluation modules (Section 5.1).
    """

    time: float
    tag_id: str
    reader_id: str


@dataclass(frozen=True)
class AggregatedReading:
    """One per-second aggregated entry for one object (Section 4.1).

    ``reader_id`` is the device that detected the object during that
    second; aggregation of tens of raw samples into one entry per second
    both saves storage and masks transient false negatives.
    """

    second: int
    object_id: str
    reader_id: str

    def __post_init__(self) -> None:
        if self.second < 0:
            raise ValueError(f"second must be non-negative, got {self.second}")


@dataclass(frozen=True)
class ReadingEntry:
    """A per-second slot as the particle filter consumes it.

    ``reader_id`` is ``None`` on silent seconds (no observation), which
    Algorithm 2 skips without reweighting.
    """

    second: int
    reader_id: Optional[str]
