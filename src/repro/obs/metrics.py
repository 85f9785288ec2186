"""Process-wide metrics: counters, gauges and log-bucketed histograms.

The paper's Discussion calls for profiling the NAS experiments to tune
trial counts and the search space; HW-NAS-Bench shows that *recorded*
cost telemetry is what makes hardware-aware NAS comparable across
papers.  This module is the substrate both feed into: a registry of
named instruments that every layer of the library (trial runner,
executor, workspace pool, deploy plan) records into.

Design constraints, in order:

1. **Cheap when disabled.**  Every record method starts with a single
   attribute check (``self._registry.enabled``) and returns without
   taking a lock or allocating.  ``tests/test_obs.py`` asserts the
   disabled fast path allocates nothing.
2. **Thread-safe when enabled.**  Instruments guard their state with a
   per-instrument lock, so the process-pool executor's result threads
   and the main thread can record concurrently.
3. **Stable identity.**  ``registry.counter(name, **labels)`` returns
   the *same* object for the same name+labels forever, so hot paths can
   cache the handle at module import and never pay the registry lookup
   again.

Histograms use fixed log-spaced latency buckets
(:data:`DEFAULT_LATENCY_BUCKETS_S`, quarter-decade steps from 10 µs to
10 s) so per-plan inference latencies and per-fold training times render
on one comparable axis.
"""

from __future__ import annotations

import bisect
import threading
from typing import Callable, Iterable

__all__ = [
    "DEFAULT_LATENCY_BUCKETS_S",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "metric_key",
]

#: Fixed log-spaced histogram bucket upper bounds, in seconds: quarter
#: decades from 1e-5 s (10 µs) to 10 s, plus the implicit +Inf overflow
#: bucket.  Chosen so a compiled-plan inference (~0.1-10 ms) and a CV
#: fold (~0.1-100 s) both land mid-scale.
DEFAULT_LATENCY_BUCKETS_S: tuple[float, ...] = tuple(
    round(10.0 ** (exp / 4.0), 10) for exp in range(-20, 5)
)


def metric_key(name: str, labels: dict[str, str]) -> str:
    """Canonical ``name{k="v",...}`` identity of one instrument."""
    if not labels:
        return name
    inner = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return f"{name}{{{inner}}}"


class _Instrument:
    """Shared plumbing: name, labels, owning registry, lock."""

    __slots__ = ("name", "labels", "_registry", "_lock")

    def __init__(self, name: str, labels: dict[str, str], registry: "MetricsRegistry") -> None:
        self.name = name
        self.labels = labels
        self._registry = registry
        self._lock = threading.Lock()

    @property
    def key(self) -> str:
        return metric_key(self.name, self.labels)


class Counter(_Instrument):
    """A monotonically increasing count."""

    __slots__ = ("_value",)

    def __init__(self, name: str, labels: dict[str, str], registry: "MetricsRegistry") -> None:
        super().__init__(name, labels, registry)
        self._value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (no-op while the registry is disabled)."""
        if not self._registry.enabled:
            return
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0

    def snapshot(self) -> dict:
        return {"name": self.name, "labels": dict(self.labels), "value": self._value}


class Gauge(_Instrument):
    """A point-in-time value (queue depth, pooled bytes)."""

    __slots__ = ("_value",)

    def __init__(self, name: str, labels: dict[str, str], registry: "MetricsRegistry") -> None:
        super().__init__(name, labels, registry)
        self._value = 0.0

    def set(self, value: float) -> None:
        if not self._registry.enabled:
            return
        self._value = float(value)

    def add(self, delta: float) -> None:
        if not self._registry.enabled:
            return
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        return self._value

    def _reset(self) -> None:
        self._value = 0.0

    def snapshot(self) -> dict:
        return {"name": self.name, "labels": dict(self.labels), "value": self._value}


class Histogram(_Instrument):
    """Fixed-bucket distribution (log-spaced latency buckets by default)."""

    __slots__ = ("buckets", "_counts", "_sum", "_count", "_min", "_max")

    def __init__(
        self,
        name: str,
        labels: dict[str, str],
        registry: "MetricsRegistry",
        buckets: Iterable[float] | None = None,
    ) -> None:
        super().__init__(name, labels, registry)
        edges = tuple(sorted(buckets)) if buckets is not None else DEFAULT_LATENCY_BUCKETS_S
        if not edges:
            raise ValueError("histogram needs at least one bucket edge")
        self.buckets = edges
        self._counts = [0] * (len(edges) + 1)  # +1: the +Inf overflow bucket
        self._sum = 0.0
        self._count = 0
        self._min = float("inf")
        self._max = float("-inf")

    def observe(self, value: float) -> None:
        """Record one observation (no-op while the registry is disabled)."""
        if not self._registry.enabled:
            return
        idx = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def _reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.buckets) + 1)
            self._sum = 0.0
            self._count = 0
            self._min = float("inf")
            self._max = float("-inf")

    def snapshot(self) -> dict:
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "buckets": list(self.buckets),
            "counts": list(self._counts),
            "sum": self._sum,
            "count": self._count,
            "min": self._min if self._count else 0.0,
            "max": self._max if self._count else 0.0,
        }


class MetricsRegistry:
    """A namespace of instruments with stable identity and collectors.

    Parameters
    ----------
    enabled:
        Initial recording state.  The process-wide registry
        (:func:`repro.obs.registry`) starts disabled and is toggled by
        :func:`repro.obs.configure` / :func:`repro.obs.shutdown`; a
        standalone registry built with ``enabled=True`` records from
        the start.

    *Collectors* are zero-argument callables registered with
    :meth:`add_collector`; :meth:`snapshot` invokes them first so
    pull-style sources (the workspace pool's hit/miss/pooled-bytes
    figures, executor lifetime stats) can refresh their gauges without
    instrumenting their hot paths.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._instruments: dict[str, _Instrument] = {}
        self._collectors: list[Callable[[], None]] = []

    # -- instrument accessors (get-or-create, stable identity) ---------------

    def _get(self, cls, name: str, labels: dict[str, str], **kwargs) -> _Instrument:
        key = metric_key(name, labels)
        inst = self._instruments.get(key)
        if inst is None:
            with self._lock:
                inst = self._instruments.get(key)
                if inst is None:
                    inst = cls(name, labels, self, **kwargs)
                    self._instruments[key] = inst
        if not isinstance(inst, cls):
            raise TypeError(
                f"metric {key!r} already registered as {type(inst).__name__}, "
                f"not {cls.__name__}"
            )
        return inst

    def counter(self, name: str, **labels: str) -> Counter:
        """Get or create the counter ``name{labels}``."""
        return self._get(Counter, name, {k: str(v) for k, v in labels.items()})

    def gauge(self, name: str, **labels: str) -> Gauge:
        """Get or create the gauge ``name{labels}``."""
        return self._get(Gauge, name, {k: str(v) for k, v in labels.items()})

    def histogram(
        self, name: str, buckets: Iterable[float] | None = None, **labels: str
    ) -> Histogram:
        """Get or create the histogram ``name{labels}``.

        ``buckets`` only applies on first creation; later calls return
        the existing instrument unchanged.
        """
        return self._get(
            Histogram, name, {k: str(v) for k, v in labels.items()}, buckets=buckets
        )

    # -- collectors ----------------------------------------------------------

    def add_collector(self, collect: Callable[[], None]) -> None:
        """Register a refresh hook run at the start of every snapshot."""
        with self._lock:
            if collect not in self._collectors:
                self._collectors.append(collect)

    def remove_collector(self, collect: Callable[[], None]) -> None:
        """Unregister a collector (missing collectors are ignored)."""
        with self._lock:
            try:
                self._collectors.remove(collect)
            except ValueError:
                pass

    # -- introspection -------------------------------------------------------

    def find(self, name: str) -> list[_Instrument]:
        """Every instrument registered under ``name`` (any labels)."""
        return [i for i in self._instruments.values() if i.name == name]

    def counter_value(self, name: str, **labels: str) -> int:
        """Current value of one counter (0 if never created)."""
        key = metric_key(name, {k: str(v) for k, v in labels.items()})
        inst = self._instruments.get(key)
        return inst.value if isinstance(inst, Counter) else 0

    def snapshot(self) -> dict:
        """Collector-refreshed dump of every instrument, JSON-ready."""
        was_enabled = self.enabled
        if was_enabled:
            # Collectors call .set()/.inc(); keep them effective even if
            # a collector briefly toggles state.
            for collect in list(self._collectors):
                try:
                    collect()
                except Exception:  # noqa: BLE001 - telemetry must not break runs
                    pass
        out: dict[str, list[dict]] = {"counters": [], "gauges": [], "histograms": []}
        for inst in list(self._instruments.values()):
            if isinstance(inst, Counter):
                out["counters"].append(inst.snapshot())
            elif isinstance(inst, Gauge):
                out["gauges"].append(inst.snapshot())
            elif isinstance(inst, Histogram):
                out["histograms"].append(inst.snapshot())
        return out

    def reset(self) -> None:
        """Zero every instrument, keeping identities (cached handles stay valid)."""
        for inst in list(self._instruments.values()):
            inst._reset()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MetricsRegistry(enabled={self.enabled}, "
                f"instruments={len(self._instruments)})")
