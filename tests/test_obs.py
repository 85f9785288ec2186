"""Unit tests for the repro.obs observability layer.

Covers the metrics registry (identity, semantics, thread safety), the
disabled-mode zero-allocation fast path, spans and context propagation,
the JSONL sink round-trip, the Prometheus/Chrome exporters, the report
aggregation helpers, the progress-listener protocol and the executor
lifecycle errors introduced alongside the obs consolidation.
"""

from __future__ import annotations

import json
import threading
import tracemalloc

import pytest

import repro.obs as obs
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS_S,
    Counter,
    InMemorySink,
    MetricsRegistry,
    ProgressFanout,
    ProgressListener,
    aggregate_metrics,
    as_listener,
    chrome_trace_events,
    metric_key,
    prometheus_text,
    read_events,
    span_coverage,
    span_tree_stats,
)
from repro.parallel.executor import SerialExecutor, make_executor


@pytest.fixture()
def clean_obs():
    """Guarantee the process-wide obs state is reset around a test."""
    obs.shutdown(final_snapshot=False)
    obs.registry().reset()
    yield
    obs.shutdown(final_snapshot=False)
    obs.registry().reset()


class TestMetricsRegistry:
    def test_metric_key_canonical_ordering(self):
        assert metric_key("m", {}) == "m"
        assert metric_key("m", {"b": "2", "a": "1"}) == 'm{a="1",b="2"}'

    def test_stable_identity(self):
        reg = MetricsRegistry(enabled=True)
        assert reg.counter("c", x="1") is reg.counter("c", x="1")
        assert reg.counter("c", x="1") is not reg.counter("c", x="2")
        assert reg.histogram("h") is reg.histogram("h")

    def test_type_mismatch_raises(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("m")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("m")

    def test_counter_gauge_histogram_semantics(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("c").inc()
        reg.counter("c").inc(4)
        assert reg.counter_value("c") == 5
        reg.gauge("g").set(2.5)
        reg.gauge("g").add(0.5)
        assert reg.gauge("g").value == 3.0
        hist = reg.histogram("h", buckets=[1.0, 10.0])
        for v in (0.5, 5.0, 50.0):
            hist.observe(v)
        snap = hist.snapshot()
        assert snap["counts"] == [1, 1, 1]  # one per bucket + overflow
        assert snap["count"] == 3 and snap["sum"] == pytest.approx(55.5)
        assert snap["min"] == 0.5 and snap["max"] == 50.0

    def test_default_buckets_are_log_spaced(self):
        assert len(DEFAULT_LATENCY_BUCKETS_S) == 25
        assert DEFAULT_LATENCY_BUCKETS_S[0] == pytest.approx(1e-5)
        assert DEFAULT_LATENCY_BUCKETS_S[-1] == pytest.approx(10.0)
        ratios = [b / a for a, b in zip(DEFAULT_LATENCY_BUCKETS_S,
                                        DEFAULT_LATENCY_BUCKETS_S[1:])]
        # Edges are rounded to 10 decimals, so allow a loose tolerance.
        assert all(r == pytest.approx(10 ** 0.25, rel=1e-3) for r in ratios)

    def test_reset_keeps_identities(self):
        reg = MetricsRegistry(enabled=True)
        handle = reg.counter("c")
        handle.inc(7)
        reg.reset()
        assert handle.value == 0
        assert reg.counter("c") is handle

    def test_collectors_refresh_on_snapshot(self):
        reg = MetricsRegistry(enabled=True)
        gauge = reg.gauge("pull")
        state = {"v": 0}
        reg.add_collector(lambda: gauge.set(state["v"]))
        state["v"] = 42
        snap = reg.snapshot()
        assert snap["gauges"][0]["value"] == 42.0

    def test_broken_collector_does_not_break_snapshot(self):
        reg = MetricsRegistry(enabled=True)
        reg.add_collector(lambda: 1 / 0)
        reg.counter("c").inc()
        assert reg.snapshot()["counters"][0]["value"] == 1

    def test_thread_safety_under_concurrent_recording(self):
        # The process-pool executor records from its result threads while
        # the main thread records too; counters must not lose updates.
        reg = MetricsRegistry(enabled=True)
        counter = reg.counter("c")
        hist = reg.histogram("h", buckets=[0.5])

        def hammer():
            for _ in range(2000):
                counter.inc()
                hist.observe(0.1)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 16000
        assert hist.count == 16000
        assert hist.snapshot()["counts"][0] == 16000

    def test_concurrent_recording_through_executor_map(self):
        # Same property exercised through the executor layer the sweeps
        # use: per-item callbacks recording into one shared registry.
        reg = MetricsRegistry(enabled=True)
        counter = reg.counter("mapped")
        with make_executor("serial") as ex:
            list(ex.map(lambda i: counter.inc() or i, list(range(64))))
        assert counter.value == 64


class TestDisabledFastPath:
    def test_disabled_instruments_record_nothing(self, clean_obs):
        counter = obs.counter("repro_test_disabled_total")
        counter.inc(5)
        obs.gauge("repro_test_disabled_gauge").set(3)
        obs.histogram("repro_test_disabled_seconds").observe(1.0)
        assert counter.value == 0
        assert obs.registry().counter_value("repro_test_disabled_total") == 0

    def test_disabled_hot_path_allocates_nothing(self, clean_obs):
        counter = obs.counter("repro_test_alloc_total")
        hist = obs.histogram("repro_test_alloc_seconds")
        counter.inc()  # warm any lazy state
        hist.observe(0.0)
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            for _ in range(500):
                counter.inc()
                hist.observe(0.001)
                obs.emit({"type": "noop"})
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        stats = after.compare_to(before, "filename")
        grown = sum(
            s.size_diff for s in stats
            if "repro/obs/" in (s.traceback[0].filename if s.traceback else "")
        )
        assert grown == 0, f"disabled obs hot path allocated {grown} bytes"

    def test_disabled_span_is_shared_noop(self, clean_obs):
        a = obs.span("x", key=1)
        b = obs.span("y")
        assert a is b  # the shared no-op singleton
        with a as sp:
            assert obs.current_span() is None
            assert getattr(sp, "span_id", "") == ""

    def test_disabled_propagated_context_is_none(self, clean_obs):
        with obs.span("outer"):
            assert obs.propagated_context() is None


class TestSpans:
    def test_span_nesting_and_parenting(self, clean_obs, tmp_path):
        sink = InMemorySink()
        obs.configure(sinks=[sink])
        with obs.span("parent") as outer:
            with obs.span("child", k=1) as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
        names = [e["name"] for e in sink.events if e["type"] == "span"]
        assert names == ["child", "parent"]  # children emit first (on exit)
        child = sink.spans("child")[0]
        assert child["attrs"] == {"k": 1}
        assert child["dur"] >= 0.0

    def test_span_records_exception_attr(self, clean_obs):
        sink = InMemorySink()
        obs.configure(sinks=[sink])
        with pytest.raises(ValueError):
            with obs.span("broken"):
                raise ValueError("boom")
        (event,) = sink.spans("broken")
        assert "ValueError: boom" in event["attrs"]["error"]

    def test_adopt_context_parents_remote_spans(self, clean_obs):
        sink = InMemorySink()
        obs.configure(sinks=[sink])
        with obs.span("local-parent"):
            ctx = obs.propagated_context()
        assert ctx is not None and ctx.trace_id
        with obs.adopt_context(ctx):
            with obs.span("remote-child"):
                pass
        (child,) = sink.spans("remote-child")
        assert child["trace"] == ctx.trace_id
        assert child["parent"] == ctx.span_id

    def test_adopt_none_context_is_noop(self, clean_obs):
        with obs.adopt_context(None):
            assert not obs.enabled()


class TestJsonlRoundTrip:
    def test_round_trip(self, clean_obs, tmp_path):
        path = tmp_path / "obs.jsonl"
        obs.configure(jsonl_path=path)
        obs.counter("repro_rt_total").inc(3)
        with obs.span("unit", idx=7):
            pass
        obs.shutdown()  # final metrics snapshot + flush
        events = read_events(path)
        spans = [e for e in events if e["type"] == "span"]
        metrics = [e for e in events if e["type"] == "metrics"]
        assert [s["name"] for s in spans] == ["unit"]
        assert spans[0]["attrs"] == {"idx": 7}
        assert len(metrics) == 1
        agg = aggregate_metrics(events)
        values = {c["name"]: c["value"] for c in agg["counters"]}
        assert values["repro_rt_total"] == 3

    def test_corrupt_lines_are_skipped(self, clean_obs, tmp_path):
        path = tmp_path / "obs.jsonl"
        obs.configure(jsonl_path=path)
        with obs.span("ok"):
            pass
        obs.shutdown()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{truncated\n")
        events = read_events(path)
        assert [e["name"] for e in events if e["type"] == "span"] == ["ok"]
        assert any(e["type"] == "corrupt" for e in events)

    def test_sum_across_pids_last_snapshot_per_pid(self):
        def snap(pid, value):
            return {
                "type": "metrics", "pid": pid, "ts": float(value),
                "metrics": {
                    "counters": [{"name": "c", "labels": {}, "value": value}],
                    "gauges": [], "histograms": [],
                },
            }
        # Cumulative snapshots: the stale pid-1 snapshot must be replaced
        # by its later one, then summed with pid-2's.
        events = [snap(1, 5), snap(2, 7), snap(1, 9)]
        agg = aggregate_metrics(events)
        (counter,) = agg["counters"]
        assert counter["value"] == 16


class TestExporters:
    def _sample_events(self):
        return [
            {"type": "span", "name": "trial", "trace": "t", "span": "a",
             "parent": "", "ts": 100.0, "dur": 0.5, "pid": 1, "tid": 1, "attrs": {}},
            {"type": "metrics", "pid": 1, "ts": 101.0, "metrics": {
                "counters": [{"name": "repro_x_total", "labels": {"k": "v"}, "value": 2}],
                "gauges": [{"name": "repro_g", "labels": {}, "value": 1.5}],
                "histograms": [{"name": "repro_h", "labels": {}, "buckets": [1.0],
                                "counts": [1, 0], "sum": 0.5, "count": 1,
                                "min": 0.5, "max": 0.5}],
            }},
        ]

    def test_prometheus_text_exposition(self):
        text = prometheus_text(self._sample_events()[1]["metrics"])
        assert '# TYPE repro_x_total counter' in text
        assert 'repro_x_total{k="v"} 2' in text
        assert 'repro_h_bucket{le="1"} 1' in text
        assert 'repro_h_bucket{le="+Inf"} 1' in text
        assert 'repro_h_sum 0.5' in text and 'repro_h_count 1' in text

    def test_chrome_trace_events(self):
        trace = chrome_trace_events(self._sample_events())
        (event,) = trace["traceEvents"]
        assert event["ph"] == "X" and event["name"] == "trial"
        assert event["ts"] == pytest.approx(100.0 * 1e6)
        assert event["dur"] == pytest.approx(0.5 * 1e6)


class TestReportHelpers:
    def _span(self, name, span, parent, ts, dur, pid=1):
        return {"type": "span", "name": name, "trace": "t", "span": span,
                "parent": parent, "ts": ts, "dur": dur, "pid": pid, "tid": 1,
                "attrs": {}}

    def test_span_tree_stats_groups_by_parent_name(self):
        events = [
            self._span("run", "r", "", 0.0, 10.0),
            self._span("trial", "a", "r", 0.0, 4.0),
            self._span("trial", "b", "r", 4.0, 6.0),
        ]
        rows = span_tree_stats(events)
        trial_row = next(r for r in rows if r["name"] == "trial")
        assert trial_row["count"] == 2
        assert trial_row["total_s"] == pytest.approx(10.0)
        assert trial_row["parent_name"] == "run"

    def test_span_coverage_unions_child_intervals(self):
        events = [
            self._span("run", "r", "", 0.0, 10.0),
            self._span("trial", "a", "r", 0.0, 6.0),
            self._span("trial", "b", "r", 4.0, 5.0),  # overlaps a
            self._span("grandchild", "c", "a", 0.0, 10.0),  # not direct: ignored
        ]
        assert span_coverage(events, parent_name="run") == pytest.approx(0.9)

    def test_span_coverage_without_parent_is_zero(self):
        assert span_coverage([], parent_name="run") == 0.0


class TestProgressListeners:
    def test_as_listener_normalization(self):
        assert isinstance(as_listener(None), ProgressListener)
        listener = ProgressListener()
        assert as_listener(listener) is listener
        calls = []
        legacy = as_listener(lambda done, total, record: calls.append(done))
        legacy.on_trial_end(1, 2, object())
        assert calls == [1]
        with pytest.raises(TypeError):
            as_listener(42)

    def test_duck_typed_partial_listener(self):
        class Partial:
            def __init__(self):
                self.ends = []

            def on_trial_end(self, done, total, record):
                self.ends.append(done)

        duck = Partial()
        wrapped = as_listener(duck)
        wrapped.on_trial_start(0, None)  # missing hook: no-op
        wrapped.on_trial_end(3, 8, None)
        wrapped.on_run_end(None)
        assert duck.ends == [3]

    def test_fanout_propagates_exceptions(self):
        # The chaos harness's interrupt_after simulates Ctrl-C by raising
        # from a progress hook; the fan-out must not swallow it.
        def bomb(done, total, record):
            raise KeyboardInterrupt

        fanout = ProgressFanout([bomb])
        with pytest.raises(KeyboardInterrupt):
            fanout.on_trial_end(1, 1, None)

    def test_obs_listener_counts_trials(self, clean_obs):
        obs.configure(sinks=[InMemorySink()])

        class Record:
            ok = True
            attempts = 2
            error_kind = ""
            duration_s = 0.25
            skipped_devices = ("cpu",)

        class Failed:
            ok = False
            attempts = 1
            error_kind = "transient"
            duration_s = 0.1
            skipped_devices = ()

        listener = obs.ObsProgressListener()
        listener.on_trial_end(1, 2, Record())
        listener.on_trial_end(2, 2, Failed())
        reg = obs.registry()
        assert reg.counter_value("repro_trials_total", status="ok") == 1
        assert reg.counter_value("repro_trials_total", status="failed") == 1
        assert reg.counter_value("repro_trials_failed_total", kind="transient") == 1
        assert reg.counter_value("repro_trials_retried_total") == 1
        assert reg.counter_value("repro_trial_retries_total") == 1
        assert reg.counter_value("repro_trials_recovered_total") == 1
        assert reg.counter_value("repro_device_predictions_skipped_total") == 1
        assert reg.histogram("repro_trial_duration_seconds").count == 2


class TestExecutorLifecycle:
    def test_close_twice_raises(self):
        ex = make_executor("serial")
        ex.close()
        with pytest.raises(RuntimeError, match="close\\(\\) called twice"):
            ex.close()

    def test_use_after_close_raises(self):
        ex = make_executor("serial")
        ex.close()
        with pytest.raises(RuntimeError, match="closed"):
            list(ex.map(abs, [1]))
        with pytest.raises(RuntimeError, match="closed"):
            ex.map_resilient(abs, [1])
        with pytest.raises(RuntimeError, match="closed"):
            with ex:
                pass

    def test_context_manager_single_use(self):
        with SerialExecutor() as ex:
            assert list(ex.map(abs, [-2])) == [2]
        assert ex.closed
        with pytest.raises(RuntimeError):
            list(ex.map(abs, [1]))

    def test_counter_instances_are_reused(self):
        # Instrument handles resolve through the singleton registry, so
        # the executor's module-level handles survive a registry reset.
        assert isinstance(obs.counter("repro_executor_pool_deaths_total"), Counter)
        assert obs.counter("repro_executor_pool_deaths_total") is obs.counter(
            "repro_executor_pool_deaths_total"
        )


def test_jsonl_events_are_valid_json_lines(clean_obs, tmp_path):
    path = tmp_path / "obs.jsonl"
    obs.configure(jsonl_path=path)
    for i in range(5):
        with obs.span("line", i=i):
            pass
    obs.shutdown()
    with open(path, encoding="utf-8") as fh:
        parsed = [json.loads(line) for line in fh if line.strip()]
    assert sum(1 for e in parsed if e["type"] == "span") == 5
