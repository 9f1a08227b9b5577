"""Event-driven raw data collector (paper Section 4.1).

The collector is the front end of the system: it aggregates raw readings
into one entry per object per second, counts ENTER/LEAVE events, and
retains only the readings of the two most recent consecutive detecting
devices per object (all the particle filter needs to infer direction and
speed).
"""

from repro.collector.aggregator import aggregate_second
from repro.collector.collector import DeviceRun, EventDrivenCollector, ReadingHistory

__all__ = [
    "aggregate_second",
    "DeviceRun",
    "EventDrivenCollector",
    "ReadingHistory",
]
