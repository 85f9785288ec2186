"""Pluggable event sinks for the observability layer.

Every sink consumes the same flat event dicts that
:func:`repro.obs.emit` produces:

- ``{"type": "span", "name", "trace", "span", "parent", "ts", "dur",
  "pid", "tid", "attrs"}`` — one finished span (``ts`` is wall-clock
  epoch seconds of the start, ``dur`` perf-counter seconds);
- ``{"type": "metrics", "pid", "ts", "metrics": <registry snapshot>}`` —
  a cumulative dump of one process's registry (the report layer keeps
  the *last* snapshot per pid and sums across pids);
- ``{"type": "log", ...}`` — free-form annotations.

Sinks:

- :class:`InMemorySink` — a list, for tests;
- :class:`JsonlSink` — line-buffered JSONL appends.  Worker processes
  re-open the same path in append mode (``O_APPEND``), so one smoke
  sweep's parent and worker events interleave into a single file that
  ``repro obs report`` can replay.

The Prometheus text and Chrome ``trace_event`` renderers below are not
sinks: ``repro-nas obs export`` applies them to a replayed JSONL log.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO

__all__ = [
    "Sink",
    "InMemorySink",
    "JsonlSink",
    "prometheus_text",
    "chrome_trace_events",
]


class Sink:
    """Interface every sink implements; methods must never raise upward."""

    def emit(self, event: dict) -> None:
        raise NotImplementedError

    def flush(self) -> None:  # pragma: no cover - trivial default
        pass

    def close(self) -> None:  # pragma: no cover - trivial default
        self.flush()


class InMemorySink(Sink):
    """Collects events into a list (test instrumentation)."""

    def __init__(self) -> None:
        self.events: list[dict] = []

    def emit(self, event: dict) -> None:
        self.events.append(event)

    def spans(self, name: str | None = None) -> list[dict]:
        """Span events, optionally filtered by span name."""
        return [e for e in self.events
                if e.get("type") == "span" and (name is None or e.get("name") == name)]

    def clear(self) -> None:
        self.events.clear()


class JsonlSink(Sink):
    """Line-buffered JSONL event log (one event per line, append mode).

    The file is opened with ``buffering=1`` so every event line reaches
    the OS as one write; concurrent appenders (pool workers adopting a
    propagated span context) interleave whole lines rather than bytes.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle: IO[str] | None = open(self.path, "a", encoding="utf-8", buffering=1)

    def emit(self, event: dict) -> None:
        if self._handle is None:  # pragma: no cover - emit-after-close guard
            return
        self._handle.write(json.dumps(event, sort_keys=True, default=str) + "\n")

    def flush(self) -> None:
        if self._handle is not None:
            self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------


def _prom_labels(labels: dict[str, str], extra: dict[str, str] | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in sorted(merged.items()))
    return "{" + inner + "}"


def prometheus_text(metrics: dict, extra_labels: dict[str, str] | None = None) -> str:
    """Render one registry snapshot in the Prometheus text format.

    ``extra_labels`` (e.g. ``{"pid": "1234"}``) are appended to every
    sample — the report layer uses it to keep per-process series apart.
    """
    lines: list[str] = []
    seen_types: set[str] = set()

    def type_line(name: str, kind: str) -> None:
        if name not in seen_types:
            lines.append(f"# TYPE {name} {kind}")
            seen_types.add(name)

    for item in metrics.get("counters", []):
        type_line(item["name"], "counter")
        lines.append(f"{item['name']}{_prom_labels(item['labels'], extra_labels)} {item['value']}")
    for item in metrics.get("gauges", []):
        type_line(item["name"], "gauge")
        lines.append(f"{item['name']}{_prom_labels(item['labels'], extra_labels)} {item['value']:g}")
    for item in metrics.get("histograms", []):
        name = item["name"]
        type_line(name, "histogram")
        cumulative = 0
        for edge, count in zip(item["buckets"], item["counts"]):
            cumulative += count
            le = _prom_labels(item["labels"], {**(extra_labels or {}), "le": f"{edge:g}"})
            lines.append(f"{name}_bucket{le} {cumulative}")
        cumulative += item["counts"][len(item["buckets"])]
        inf = _prom_labels(item["labels"], {**(extra_labels or {}), "le": "+Inf"})
        lines.append(f"{name}_bucket{inf} {cumulative}")
        base = _prom_labels(item["labels"], extra_labels)
        lines.append(f"{name}_sum{base} {item['sum']:g}")
        lines.append(f"{name}_count{base} {item['count']}")
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Chrome trace_event
# ---------------------------------------------------------------------------


def chrome_trace_events(events: list[dict]) -> dict:
    """Convert span events to the Chrome ``trace_event`` JSON object.

    Spans become complete (``"ph": "X"``) events with microsecond
    wall-clock timestamps, grouped by pid/tid, so a multi-process sweep
    renders as stacked per-process tracks in ``chrome://tracing``.
    """
    trace: list[dict] = []
    for e in events:
        if e.get("type") != "span":
            continue
        trace.append({
            "name": e.get("name", "?"),
            "cat": "repro",
            "ph": "X",
            "ts": float(e.get("ts", 0.0)) * 1e6,
            "dur": float(e.get("dur", 0.0)) * 1e6,
            "pid": int(e.get("pid", 0)),
            "tid": int(e.get("tid", 0)),
            "args": {
                "trace": e.get("trace", ""),
                "span": e.get("span", ""),
                "parent": e.get("parent", ""),
                **(e.get("attrs") or {}),
            },
        })
    return {"traceEvents": trace, "displayTimeUnit": "ms"}
