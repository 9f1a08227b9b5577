"""Chrome trace-event export: load a repro trace in Perfetto.

Converts the span tree of one canonical snapshot (the ``repro-trace``
format) into the Chrome trace-event JSON object format —
``{"traceEvents": [...]}`` with complete (``"ph": "X"``) events — which
``chrome://tracing`` and https://ui.perfetto.dev open directly.

Mapping:

* span ``start``/``duration`` (seconds on the obs clock) → ``ts``/``dur``
  in microseconds;
* the tracer's normalized thread id → ``tid`` (one track per worker
  thread, so concurrent threads' spans render side by side instead of
  stacked);
* a span's optional ``process`` id → ``pid`` (multi-process snapshots —
  the gateway's federated fleet trace — render one process row per
  worker; the default pid 0 keeps single-process traces unchanged),
  named from the trace's optional ``processes`` map;
* span attrs plus the span index/parent → ``args`` (Perfetto shows them
  in the selection panel);
* snapshot ``meta`` → process metadata events, so the run's command,
  seed, and backend are visible in the UI.

Cross-process timestamp alignment: span clocks are per-process
``time.perf_counter`` readings, which on Linux share one monotonic
epoch machine-wide, so fan-out and worker spans of the same tick line
up without translation.

Span timestamps come from a monotonic clock with an arbitrary epoch;
viewers only care about relative placement, so no normalization is done
(byte-stable exports under a fake clock stay byte-stable).
"""

from __future__ import annotations

import json
from typing import Dict, List, Mapping

#: Trace-event category applied to every span event.
CATEGORY = "repro"


def chrome_trace_events(snapshot: Mapping[str, object]) -> List[Dict[str, object]]:
    """The snapshot's spans as a list of Chrome trace-event dicts."""
    trace_block = snapshot.get("trace")
    process_names = (
        trace_block.get("processes") if isinstance(trace_block, dict) else None
    )
    pid0_name = "repro"
    if isinstance(process_names, dict) and "0" in process_names:
        pid0_name = str(process_names["0"])
    events: List[Dict[str, object]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": pid0_name},
        }
    ]
    meta = snapshot.get("meta")
    if isinstance(meta, dict) and meta:
        events.append(
            {
                "name": "process_labels",
                "ph": "M",
                "pid": 0,
                "tid": 0,
                "args": {
                    "labels": ", ".join(
                        f"{key}={meta[key]}" for key in sorted(meta)
                    )
                },
            }
        )

    trace = snapshot.get("trace")
    spans = trace.get("spans", []) if isinstance(trace, dict) else []
    if not isinstance(spans, list):
        spans = []
    processes = trace.get("processes") if isinstance(trace, dict) else None
    if isinstance(processes, dict):
        for pid_key in sorted(processes, key=lambda key: int(key)):
            pid = int(pid_key)
            if pid == 0:
                continue  # pid 0's row is the header event above
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": str(processes[pid_key])},
                }
            )
    for span in spans:
        if not isinstance(span, dict):
            continue
        start = span.get("start")
        duration = span.get("duration")
        if not isinstance(start, (int, float)) or not isinstance(
            duration, (int, float)
        ):
            continue  # still-open spans have no duration
        args: Dict[str, object] = {"index": span.get("index")}
        if span.get("parent") is not None:
            args["parent"] = span.get("parent")
        attrs = span.get("attrs")
        if isinstance(attrs, dict):
            args.update(attrs)
        events.append(
            {
                "name": str(span.get("name", "?")),
                "cat": CATEGORY,
                "ph": "X",
                "ts": float(start) * 1e6,
                "dur": float(duration) * 1e6,
                "pid": int(span.get("process") or 0),
                "tid": int(span.get("thread") or 0),
                "args": args,
            }
        )
    return events


def build_chrome_trace(snapshot: Mapping[str, object]) -> Dict[str, object]:
    """The full trace document (object format, ``displayTimeUnit`` ms)."""
    return {
        "traceEvents": chrome_trace_events(snapshot),
        "displayTimeUnit": "ms",
    }


def write_chrome_trace(snapshot: Mapping[str, object], path: str) -> None:
    """Write ``snapshot``'s spans to ``path`` as Chrome trace JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(build_chrome_trace(snapshot), handle, indent=1)
        handle.write("\n")
