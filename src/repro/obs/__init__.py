"""Unified observability: metrics, tracing, sinks, progress listeners.

The paper's Discussion calls for profiling the NAS experiments (NVIDIA
Nsight) to tune trial counts and the search space, and reports
9h20m-29h wall-times per input combination — run-level visibility is a
first-class concern for any reproduction that wants to scale.  This
package is the layer every subsystem reports into:

- **metrics** (:mod:`~repro.obs.metrics`) — a process-wide registry of
  counters, gauges and log-bucketed histograms; a cheap no-op until
  :func:`configure` is called;
- **tracing** (:mod:`~repro.obs.trace`) — nested ``span()`` context
  managers with wall-clock starts, monotonic durations and a picklable
  :class:`SpanContext` that stitches pool-worker spans into the parent
  trace;
- **sinks** (:mod:`~repro.obs.sinks`) — in-memory (tests) and
  line-buffered JSONL;
- **progress** (:mod:`~repro.obs.progress`) — the
  :class:`ProgressListener` protocol, the registry-writing
  :class:`ObsProgressListener` and a fan-out composer;
- **report** (:mod:`~repro.obs.report`) — replay a JSONL log into a
  human-readable report, Prometheus text or a Chrome trace
  (``python -m repro obs report run_obs.jsonl``).

Quick start::

    import repro.obs as obs

    obs.configure(jsonl_path="run_obs.jsonl")
    with obs.span("experiment.run", budget=8):
        ...  # instrumented library code records spans + metrics
    obs.shutdown()
"""

from repro.obs.config import (
    configure,
    counter,
    emit,
    enabled,
    flush,
    gauge,
    histogram,
    jsonl_path,
    registry,
    shutdown,
    sinks,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metric_key,
)
from repro.obs.progress import (
    LegacyCallableListener,
    ObsProgressListener,
    ProgressFanout,
    ProgressListener,
    as_listener,
)
from repro.obs.report import (
    aggregate_metrics,
    export_chrome_trace,
    export_prometheus,
    read_events,
    render_report,
    span_coverage,
    span_tree_stats,
)
from repro.obs.sinks import (
    InMemorySink,
    JsonlSink,
    Sink,
    chrome_trace_events,
    prometheus_text,
)
from repro.obs.trace import (
    Span,
    SpanContext,
    adopt_context,
    current_span,
    propagated_context,
    span,
)

__all__ = [
    # config
    "configure", "shutdown", "enabled", "registry", "counter", "gauge",
    "histogram", "emit", "flush", "sinks", "jsonl_path",
    # metrics
    "MetricsRegistry", "Counter", "Gauge", "Histogram",
    "DEFAULT_LATENCY_BUCKETS_S", "metric_key",
    # trace
    "span", "Span", "SpanContext", "current_span", "propagated_context",
    "adopt_context",
    # sinks
    "Sink", "InMemorySink", "JsonlSink", "prometheus_text",
    "chrome_trace_events",
    # progress
    "ProgressListener", "LegacyCallableListener", "ProgressFanout",
    "ObsProgressListener", "as_listener",
    # report
    "read_events", "aggregate_metrics", "render_report", "span_coverage",
    "span_tree_stats", "export_chrome_trace", "export_prometheus",
]
