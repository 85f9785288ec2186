"""Process-wide observability state: one registry, a set of sinks.

The library is instrumented unconditionally — counters, gauges,
histograms and spans are recorded at every interesting point — but all
of it is a cheap no-op until :func:`configure` is called.  The global
:class:`~repro.obs.metrics.MetricsRegistry` is a true singleton whose
instruments have stable identity, so hot paths cache their handles at
import time and pay one boolean check while observability is off.

Typical use::

    import repro.obs as obs

    obs.configure(jsonl_path="run_obs.jsonl")
    ...  # run the sweep
    obs.shutdown()  # final metrics snapshot + sink flush/close

Worker processes never call :func:`configure` themselves; they inherit
a :class:`~repro.obs.trace.SpanContext` (which carries the JSONL path)
through the pickled task and activate it with
:func:`repro.obs.trace.adopt_context`.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import JsonlSink, Sink

__all__ = [
    "configure",
    "shutdown",
    "enabled",
    "registry",
    "counter",
    "gauge",
    "histogram",
    "sinks",
    "jsonl_path",
    "emit",
    "flush",
]

#: The process-wide registry.  Never replaced — only toggled — so
#: instrument handles cached by hot paths stay valid forever.
_REGISTRY = MetricsRegistry(enabled=False)
_SINKS: list[Sink] = []
_JSONL_PATH: Path | None = None


def registry() -> MetricsRegistry:
    """The process-wide metrics registry (always the same object)."""
    return _REGISTRY


def counter(name: str, **labels: str):
    """Shorthand for ``registry().counter(...)``."""
    return _REGISTRY.counter(name, **labels)


def gauge(name: str, **labels: str):
    """Shorthand for ``registry().gauge(...)``."""
    return _REGISTRY.gauge(name, **labels)


def histogram(name: str, buckets=None, **labels: str):
    """Shorthand for ``registry().histogram(...)``."""
    return _REGISTRY.histogram(name, buckets=buckets, **labels)


def enabled() -> bool:
    """Whether observability is currently recording in this process."""
    return _REGISTRY.enabled


def sinks() -> list[Sink]:
    """The live sink list (mutating it is allowed but prefer configure)."""
    return _SINKS


def jsonl_path() -> Path | None:
    """Path of the configured JSONL sink, if any (propagated to workers)."""
    return _JSONL_PATH


def configure(
    jsonl_path: str | Path | None = None,
    sinks: list[Sink] | tuple[Sink, ...] = (),
    reset_metrics: bool = False,
) -> MetricsRegistry:
    """Enable observability with the given sinks.

    Parameters
    ----------
    jsonl_path:
        Convenience: append a :class:`~repro.obs.sinks.JsonlSink` at
        this path.  This is also the path worker processes re-open when
        they adopt a propagated span context.
    sinks:
        Additional sinks, such as the
        :class:`~repro.obs.sinks.InMemorySink` tests read events from.
    reset_metrics:
        Zero the registry first (instrument identities are kept).

    Returns the process-wide registry.  Calling :func:`configure` again
    replaces the sink set (previous sinks are flushed and closed).
    """
    global _JSONL_PATH
    _teardown_sinks()
    if reset_metrics:
        _REGISTRY.reset()
    _SINKS.extend(sinks)
    if jsonl_path is not None:
        _JSONL_PATH = Path(jsonl_path)
        _SINKS.append(JsonlSink(_JSONL_PATH))
    else:
        _JSONL_PATH = None
    _REGISTRY.enabled = True
    return _REGISTRY


def _teardown_sinks() -> None:
    global _JSONL_PATH
    for sink in _SINKS:
        try:
            sink.close()
        except Exception:  # noqa: BLE001 - telemetry must not break runs
            pass
    _SINKS.clear()
    _JSONL_PATH = None


def shutdown(final_snapshot: bool = True) -> None:
    """Disable observability: final metrics snapshot, flush, close sinks.

    Safe to call when already disabled (no-op).
    """
    if not _REGISTRY.enabled:
        _teardown_sinks()
        return
    if final_snapshot:
        flush()
    _REGISTRY.enabled = False
    _teardown_sinks()


def emit(event: dict) -> None:
    """Fan one event out to every sink (no-op while disabled)."""
    if not _REGISTRY.enabled:
        return
    for sink in _SINKS:
        try:
            sink.emit(event)
        except Exception:  # noqa: BLE001 - a broken sink must not break the run
            pass


def flush() -> None:
    """Emit a cumulative metrics snapshot event and flush every sink.

    The snapshot is tagged with this process's pid; the report layer
    keeps the last snapshot per pid and sums across pids, so repeated
    flushes (including per-task flushes from pool workers) are safe.
    """
    if not _REGISTRY.enabled:
        return
    emit({
        "type": "metrics",
        "pid": os.getpid(),
        "ts": time.time(),
        "metrics": _REGISTRY.snapshot(),
    })
    for sink in _SINKS:
        try:
            sink.flush()
        except Exception:  # noqa: BLE001
            pass
