"""Tests of the benchmark itself: its statistics, its tracer, and a smoke run
of every workload.  Run with ``python -m pytest bench/``.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

from ledger import verdict
from measure import Rung, fail_frac, max_rate, percentile, spread, tail
from tracer import Span, Tracer, layer_stats, self_times

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- percentiles ----------------------------------------------------------------


def test_percentile_matches_numpy():
    values = list(np.random.default_rng(0).exponential(5.0, 997))
    for q in (0, 50, 95, 98, 99, 100):
        assert percentile(values, q) == pytest.approx(np.percentile(values, q), rel=1e-12)


@pytest.mark.parametrize("n, q", [(1000, 99.0), (999, 98.0), (500, 98.0), (499, 95.0),
                                  (200, 95.0), (199, None)])
def test_tail_needs_ten_samples_beyond(n, q):
    values = [float(i) for i in range(n)]
    result = tail(values)
    if q is None:
        assert result is None
    else:
        assert result == (q, percentile(values, q))
        assert sum(v > result[1] for v in values) >= 10


# -- crossing rate ----------------------------------------------------------------


def test_max_rate_interpolates_between_adjacent_rungs():
    rungs = [Rung(300, 50.0), Rung(100, 10.0), Rung(200, 30.0)]
    assert max_rate(rungs, 40.0) == pytest.approx(250.0)


def test_max_rate_every_rung_passes_gives_top_rate():
    assert max_rate([Rung(100, 1.0), Rung(200, 2.0)], 40.0) == 200.0


def test_max_rate_every_rung_fails_gives_zero():
    assert max_rate([Rung(100, 41.0), Rung(200, 90.0)], 40.0) == 0.0


def test_max_rate_uses_the_first_failing_rung():
    rungs = [Rung(100, 10.0), Rung(200, 50.0), Rung(300, 20.0)]
    assert max_rate(rungs, 40.0) == pytest.approx(175.0)


def test_max_rate_failures_over_threshold_stop_at_the_passing_rung():
    rungs = [Rung(100, 10.0), Rung(200, 20.0, fail_frac=0.01), Rung(300, 30.0)]
    assert max_rate(rungs, 40.0, max_fail_frac=0.001) == 100.0
    assert max_rate(rungs, 40.0) == 300.0


def test_max_rate_missing_value_counts_as_over():
    assert max_rate([Rung(100, 10.0), Rung(200, None)], 40.0) == 100.0


def test_max_rate_higher_is_better():
    rungs = [Rung(100, 1.0), Rung(200, 1.0), Rung(300, 0.9)]
    assert max_rate(rungs, 0.99, higher_is_better=True) == pytest.approx(210.0)


def test_fail_frac_counts_refusals_and_expiries_against_attempted():
    assert fail_frac(200, failed=1, refused=2, expired=3) == pytest.approx(0.03)
    assert fail_frac(200, refused=2) == pytest.approx(0.01)
    assert fail_frac(0, refused=1) == 0.0


def test_spread_is_interquartile_range_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == pytest.approx((q3 - q1) / q2)


# -- compare verdicts -------------------------------------------------------------


def test_verdicts():
    base = [100.0 + i for i in range(10)]
    assert verdict(base, [v * 1.5 for v in base], "higher", 0.1, 0, 0)[0] == "gain"
    assert verdict(base, [v * 0.8 for v in base], "higher", 0.1, 0, 0)[0] == "regression"
    assert verdict(base, [v * 1.2 for v in base], "lower", 0.1, 0, 0)[0] == "regression"
    assert verdict(base, list(reversed(base)), "lower", 0.1, 0, 0)[0] == "same"
    noisy = [50.0, 150.0] * 5
    assert verdict(noisy, noisy, "lower", 0.1, 0, 0)[0] == "unresolved"


def test_wide_spread_is_unresolved_even_when_every_child_run_is_worse():
    parent = [100.0, 105.0, 110.0, 115.0, 120.0] * 2  # spread 0.11 > bound 0.1
    assert spread(parent) > 0.1
    worse = [v + 25.0 for v in parent]  # every child run above every parent run
    assert verdict(parent, worse, "lower", 0.1, 0, 0) == ("unresolved", 0)


def test_wide_spread_resolves_when_every_child_run_is_better():
    parent = [50.0, 100.0] * 5  # spread 0.5
    better = [101.0, 102.0] * 5  # above every parent run, but by less than the IQR
    assert verdict(parent, better, "higher", 0.1, 0, 0) == ("same", 10)
    assert verdict(parent, [v - 2.0 for v in better], "higher", 0.1, 0, 0)[0] == "unresolved"


def test_no_gain_when_the_child_fails_more_operations():
    base = [100.0 + i for i in range(10)]
    faster = [v * 1.5 for v in base]
    assert verdict(base, faster, "higher", 0.1, 3, 3)[0] == "gain"
    assert verdict(base, faster, "higher", 0.1, 0, 1)[0] == "same"


# -- tracer -------------------------------------------------------------------


def span(id, start, end, parent=0, name="x"):
    return Span(id, name, start, end, parent, "measure", 1, "w")


def test_self_time_subtracts_the_union_of_children():
    spans = [span(1, 0.0, 10.0, name="outer"),
             span(2, 1.0, 3.0, 1), span(3, 2.0, 4.0, 1),  # overlapping children
             span(4, 9.0, 12.0, 1),  # runs past its parent's end
             span(5, 1.5, 2.5, 2, name="leaf")]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 3.0 - 1.0)
    assert own[2] == pytest.approx(2.0 - 1.0)
    assert own[5] == pytest.approx(1.0)
    stats = layer_stats(spans)
    assert stats["outer"] == {"calls": 1, "busy_s": pytest.approx(6.0), "bytes": 0}
    assert stats["x"]["calls"] == 3
    assert stats["x"]["busy_s"] == pytest.approx(1.0 + 2.0 + 3.0)


def test_tracer_records_nested_calls_and_restores_call_sites():
    module = types.SimpleNamespace()

    def inner():
        time.sleep(0.02)
        return b"abc"

    def outer():
        time.sleep(0.02)
        return module.inner()

    module.inner, module.outer = inner, outer
    sys.modules["bench_test_fake"] = module
    try:
        tracer = Tracer("w")
        tracer.install([("onnxlite.export_model", "bench_test_fake", "inner"),
                        ("outer", "bench_test_fake", "outer")])
        module.outer()  # inactive: nothing recorded
        tracer.active = True
        assert module.outer() == b"abc"
        tracer.uninstall()
    finally:
        del sys.modules["bench_test_fake"]
    assert module.inner is inner and module.outer is outer
    by_name = {s.name: s for s in tracer.spans}
    assert set(by_name) == {"outer", "onnxlite.export_model"}
    assert by_name["onnxlite.export_model"].parent == by_name["outer"].id
    assert by_name["onnxlite.export_model"].size == 3
    stats = layer_stats(tracer.spans)
    assert 0.015 < stats["outer"]["busy_s"] < by_name["outer"].duration - 0.015


# -- whole runs -----------------------------------------------------------------


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_declared_metric(workload, trace, tmp_path):
    # Seed 0 adds paper_sweep's full-sweep oracle (about a minute); the
    # traced runs take seed 1, the other golden seed.
    seed = 1 if trace else 0
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "0.4",
                 "--trace", str(trace), "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in declared}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        spans = tmp_path / f"spans-{workload}-seed{seed}.jsonl"
        first = json.loads(spans.read_text().splitlines()[0])
        assert set(first) >= {"name", "start", "end", "parent", "workload"}


def test_without_program_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "paper_sweep", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
