"""ENTER/LEAVE observation events.

The paper defines events as "the object either entering (ENTER event) or
leaving (LEAVE event) the reading range of an RFID reader" (Section 4.1).
Events are derived from the aggregated per-second entries: an ENTER is the
first second of a device run, a LEAVE the last.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class EventKind(Enum):
    """Whether an object entered or left a reader's range."""

    ENTER = "enter"
    LEAVE = "leave"


@dataclass(frozen=True, slots=True)
class ObservationEvent:
    """One ENTER or LEAVE event of an object at a reader."""

    kind: EventKind
    object_id: str
    reader_id: str
    second: int
