"""Acceptance tests for the obs consolidation (ISSUE 4 criteria).

- An 8-trial chaos-free smoke sweep with a JSONL sink yields spans
  covering >= 95% of the experiment wall-time, with worker fold spans
  parented to trial spans across process boundaries, and ``repro obs
  report`` renders the counters from the file alone.
- A chaos run through ``evaluate(configs, resilient=True)`` stitches
  worker "evaluate" spans to the caller's span.
"""

from __future__ import annotations

import os
import shutil

import pytest

import repro.obs as obs
from repro.cli import main as cli_main
from repro.nas import (
    Experiment,
    FailureInjector,
    GridSearch,
    TrainingEvaluator,
    TrialStore,
)
from repro.nas.config import ModelConfig
from repro.nas.searchspace import DEFAULT_SPACE
from repro.obs import aggregate_metrics, read_events, render_report, span_coverage


@pytest.fixture()
def clean_obs():
    obs.shutdown(final_snapshot=False)
    obs.registry().reset()
    yield
    obs.shutdown(final_snapshot=False)
    obs.registry().reset()


def _tiny_evaluator(**overrides) -> TrainingEvaluator:
    kwargs = dict(samples_per_class=2, patch_size=24, epochs=1, k=2,
                  regions=["nebraska"], seed=0)
    kwargs.update(overrides)
    return TrainingEvaluator(**kwargs)


def _configs(n: int) -> list[ModelConfig]:
    return DEFAULT_SPACE.configs()[:n]


class TestSmokeSweepAcceptance:
    @pytest.fixture(scope="class")
    def sweep_log(self, tmp_path_factory):
        """Run the 8-trial smoke sweep once; several tests inspect it."""
        obs.shutdown(final_snapshot=False)
        obs.registry().reset()
        tmp = tmp_path_factory.mktemp("obs-smoke")
        log = tmp / "smoke_obs.jsonl"
        evaluator = _tiny_evaluator(executor="process", workers=2)
        obs.configure(jsonl_path=log, reset_metrics=True)
        try:
            experiment = Experiment(
                evaluator=evaluator,
                strategy=GridSearch(DEFAULT_SPACE),
                store=TrialStore(),
                failure_injector=FailureInjector.none(),
            )
            result = experiment.run(budget=8)
        finally:
            evaluator.close()
            obs.shutdown()
        assert result.launched == 8 and result.failed == 0
        artifact = os.environ.get("REPRO_OBS_ARTIFACT", "")
        if artifact:  # CI uploads the smoke sweep's metrics log
            shutil.copyfile(log, artifact)
        return log

    def test_span_coverage_at_least_95_percent(self, sweep_log):
        events = read_events(sweep_log)
        coverage = span_coverage(events, parent_name="experiment.run")
        assert coverage >= 0.95, f"span coverage {coverage:.1%} < 95%"

    def test_worker_fold_spans_parent_to_trial_spans(self, sweep_log):
        events = read_events(sweep_log)
        spans = [e for e in events if e["type"] == "span"]
        by_id = {e["span"]: e for e in spans}
        folds = [e for e in spans if e["name"] == "fold"]
        trials = [e for e in spans if e["name"] == "trial"]
        assert trials and folds
        main_pid = trials[0]["pid"]
        worker_folds = [e for e in folds if e["pid"] != main_pid]
        assert worker_folds, "no fold spans were recorded from pool workers"
        for fold in folds:
            parent = by_id.get(fold["parent"])
            assert parent is not None, "fold span has an unknown parent"
            assert parent["name"] == "trial"
            assert fold["trace"] == parent["trace"]

    def test_trial_spans_parent_to_experiment_run(self, sweep_log):
        events = read_events(sweep_log)
        spans = [e for e in events if e["type"] == "span"]
        by_id = {e["span"]: e for e in spans}
        (run,) = [e for e in spans if e["name"] == "experiment.run"]
        trials = [e for e in spans if e["name"] == "trial"]
        assert len(trials) == 8
        assert all(by_id[t["parent"]] is run for t in trials)

    def test_counters_recoverable_from_file_alone(self, sweep_log):
        agg = aggregate_metrics(read_events(sweep_log))
        counters = {c["name"]: c for c in agg["counters"]
                    if not c.get("labels")}
        labeled = {(c["name"], tuple(sorted(c.get("labels", {}).items()))): c["value"]
                   for c in agg["counters"]}
        assert labeled[("repro_trials_total", (("status", "ok"),))] == 8
        assert counters["repro_trial_attempts_total"]["value"] == 8
        hists = {h["name"] for h in agg["histograms"]}
        assert "repro_trial_duration_seconds" in hists
        assert "repro_train_fold_seconds" in hists
        fold_hist = next(h for h in agg["histograms"]
                         if h["name"] == "repro_train_fold_seconds")
        assert fold_hist["count"] == 16  # 8 trials x 2 folds

    def test_report_renders_from_file(self, sweep_log, capsys):
        exit_code = cli_main(["obs", "report", str(sweep_log)])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "trace coverage of 'experiment.run'" in out
        assert "repro_trials_total" in out
        assert "repro_trial_duration_seconds" in out
        assert "fold < trial" in out

    def test_export_chrome_and_prometheus(self, sweep_log, tmp_path, capsys):
        trace_out = tmp_path / "trace.json"
        prom_out = tmp_path / "metrics.prom"
        assert cli_main(["obs", "export", str(sweep_log), "--format", "chrome",
                         "--out", str(trace_out)]) == 0
        assert cli_main(["obs", "export", str(sweep_log), "--format", "prom",
                         "--out", str(prom_out)]) == 0
        assert trace_out.stat().st_size > 0
        text = prom_out.read_text()
        assert "# TYPE repro_trials_total counter" in text


class TestChaosStitching:
    def test_resilient_batch_stitches_worker_spans(self, clean_obs, tmp_path):
        log = tmp_path / "chaos_obs.jsonl"
        obs.configure(jsonl_path=log, reset_metrics=True)
        configs = _configs(3)
        evaluator = _tiny_evaluator(executor="process", workers=2)
        try:
            with obs.span("chaos.batch") as parent:
                outcomes = evaluator.evaluate(configs, resilient=True)
            obs.flush()
        finally:
            evaluator.close()
            obs.shutdown()
        assert all(o.ok for o in outcomes)
        assert all(o.span_id for o in outcomes)  # worker span ids round-trip
        events = read_events(log)
        spans = [e for e in events if e["type"] == "span"]
        evals = [e for e in spans if e["name"] == "evaluate"]
        assert len(evals) == 3
        main_pid = os.getpid()
        assert any(e["pid"] != main_pid for e in evals)
        assert all(e["parent"] == parent.span_id for e in evals)
        assert all(e["trace"] == parent.trace_id for e in evals)
        assert {e["span"] for e in evals} == {o.span_id for o in outcomes}

    def test_faulty_trials_keep_outcome_envelopes(self, clean_obs):
        # An injected failure fails its own outcome while the rest of
        # the batch still returns results (serial resilient map).
        from dataclasses import replace as _dc_replace

        configs = _configs(1)

        class BoomEvaluator(TrainingEvaluator):
            def _dataset(self, channels):
                if channels == 7:
                    raise RuntimeError("injected dataset failure")
                return super()._dataset(channels)

        boom = BoomEvaluator(samples_per_class=2, patch_size=24, epochs=1, k=2,
                             regions=["nebraska"], seed=0)
        distinct = [configs[0], _dc_replace(configs[0], channels=7)]
        assert distinct[0].channels != 7
        outcomes = boom.evaluate(distinct, resilient=True)
        assert outcomes[0].ok and outcomes[0].result is not None
        assert not outcomes[1].ok and outcomes[1].result is None
        assert "injected dataset failure" in outcomes[1].error
        assert outcomes[1].config == distinct[1]
        with pytest.raises(RuntimeError, match="injected dataset failure"):
            outcomes[1].unwrap()


class TestDeprecatedShims:
    def test_single_config_contract_unchanged(self):
        evaluator = _tiny_evaluator()
        config = _configs(1)[0]
        result = evaluator.evaluate(config)
        assert hasattr(result, "accuracy") and hasattr(result, "fold_accuracies")
        with pytest.raises(TypeError, match="resilient"):
            evaluator.evaluate(config, resilient=True)


class TestProcessServingObs:
    """PR 7: worker-process batch spans stitch into the parent trace.

    The serving :class:`~repro.serve.WorkerPool` captures
    :func:`repro.obs.propagated_context` at startup; every worker batch
    runs under :func:`repro.obs.adopt_context`, so its
    ``serve.worker.batch`` spans must land in the parent's JSONL with
    the parent trace/span ids, and per-pid metric snapshots must carry
    only the worker's own counts (fork-inherited counters are zeroed
    before the first worker-side increment).
    """

    def test_worker_batch_spans_and_counters_stitch_across_pids(
            self, clean_obs, tmp_path):
        import numpy as np

        from repro.deploy import load_runtime
        from repro.nn import SearchableResNet18
        from repro.onnxlite.export import export_model
        from repro.serve import BatchPolicy, PlanServer, ServeConfig, ServeRequest

        model = SearchableResNet18(in_channels=5, kernel_size=3, stride=2,
                                   padding=1, pool_choice=0,
                                   initial_output_feature=32, seed=3)
        plan = load_runtime(export_model(model, input_hw=(24, 24))).compile()
        log = tmp_path / "serve_obs.jsonl"
        obs.configure(jsonl_path=log, reset_metrics=True)
        images = np.random.default_rng(0).standard_normal(
            (4, 5, 24, 24)).astype(np.float32)
        policy = BatchPolicy(max_batch_size=2, max_queue_delay_ms=1.0,
                             max_queue_depth=16, replicas=1,
                             worker_mode="process")
        try:
            with obs.span("serve.session") as parent:
                with PlanServer(plan, ServeConfig(policy=policy, cpus=1)) as server:
                    rows = [server.infer(ServeRequest(image=img)).row for img in images]
            obs.flush()
        finally:
            obs.shutdown()
        assert all(r.shape == (2,) for r in rows)

        events = read_events(log)
        spans = [e for e in events if e["type"] == "span"]
        batches = [e for e in spans if e["name"] == "serve.worker.batch"]
        assert batches, "no worker batch spans reached the parent's sink"
        main_pid = os.getpid()
        # Spans were recorded by the worker process, not the parent...
        assert all(e["pid"] != main_pid for e in batches)
        # ...yet stitch into the parent's trace under the session span.
        assert all(e["trace"] == parent.trace_id for e in batches)
        assert all(e["parent"] == parent.span_id for e in batches)

        agg = aggregate_metrics(events)
        counters = {c["name"]: c["value"] for c in agg["counters"]
                    if not c.get("labels")}
        # Exactly one count per batch span: the worker's fork-inherited
        # registry was zeroed, so nothing from the parent double-counts.
        assert counters.get("repro_serve_worker_batches_total") == len(batches)
        assert counters.get("repro_serve_worker_deaths_total", 0) == 0
