"""Reproduction verifier, telemetry, batch-latency extension."""

import numpy as np
import pytest

from repro.core.validation import Check, VerificationReport, verify_reproduction
from repro.graph.trace import trace_model
from repro.latency.devices import DEVICE_PROFILES
from repro.latency.predictors import batch_latency_ms
from repro.nas import Experiment, GridSearch, SurrogateEvaluator
from repro.nas.searchspace import SearchSpace
from repro.nas.telemetry import RunTelemetry
from repro.nn import SearchableResNet18


class TestVerificationReport:
    def test_ok_and_failures(self):
        report = VerificationReport()
        report.add("a", True, "fine")
        report.add("b", False, "broken")
        assert not report.ok
        assert [c.name for c in report.failures()] == ["b"]
        text = report.summary()
        assert "[PASS] a" in text and "[FAIL] b" in text and "1/2" in text

    def test_all_pass(self):
        report = VerificationReport()
        report.add("x", True, "")
        assert report.ok
        assert report.failures() == []

    def test_check_is_frozen(self):
        check = Check("n", True, "d")
        with pytest.raises(AttributeError):
            check.passed = False  # type: ignore[misc]


class TestFullReproduction:
    def test_paper_sweep_reproduces_every_claim(self):
        """The whole 1,728-trial sweep: trial accounting (1,717 valid), the
        Table-3 and Table-5 ranges, the front's shared k=3/s=2/p=1/f=32
        traits and the headline."""
        report = verify_reproduction(seed=0)
        assert report.ok, report.summary()


class TestRunTelemetry:
    def test_collects_from_experiment(self):
        space = SearchSpace(
            kernel_size=(3,), stride=(2,), padding=(1,), pool_choice=(0,),
            kernel_size_pool=(3,), stride_pool=(2,), initial_output_feature=(32,),
            channels=(5,), batches=(8, 16, 32),
        )
        telemetry = RunTelemetry()
        experiment = Experiment(SurrogateEvaluator(), GridSearch(space),
                                input_hw=(48, 48), progress=telemetry)
        experiment.run(budget=3)
        assert len(telemetry.durations) == 3
        assert telemetry.total == 3
        assert telemetry.failures == 0
        assert telemetry.mean_trial_s >= 0.0
        assert "3/3 trials" in telemetry.summary()

    def test_eta_estimation(self):
        telemetry = RunTelemetry()
        telemetry._done = 5
        telemetry.total = 10
        telemetry.started_at -= 5.0  # pretend 5 s elapsed
        eta = telemetry.eta_seconds()
        assert 3.0 < eta < 8.0
        assert "eta" in telemetry.eta_line()

    def test_eta_without_progress_is_inf(self):
        telemetry = RunTelemetry()
        telemetry.total = 10
        assert telemetry.eta_seconds() == float("inf")
        assert "?" in telemetry.eta_line()


class TestBatchLatency:
    def _graph(self):
        model = SearchableResNet18(in_channels=5, kernel_size=3, stride=2, padding=1,
                                   pool_choice=0, initial_output_feature=32)
        return trace_model(model, (100, 100))

    def test_batch_one_matches_single_image(self):
        graph = self._graph()
        profile = DEVICE_PROFILES["adreno640gpu"]
        from repro.latency.predictors import LatencyPredictor

        single = LatencyPredictor(profile).predict_graph(graph)
        # batch=1 still differs slightly: weights are not re-scaled, which
        # matches the single-image model exactly.
        assert batch_latency_ms(graph, 1, profile) == pytest.approx(single, rel=1e-9)

    def test_sublinear_scaling(self):
        """Batching amortizes dispatch overhead: t(8) < 8 * t(1)."""
        graph = self._graph()
        profile = DEVICE_PROFILES["cortexA76cpu"]
        t1 = batch_latency_ms(graph, 1, profile)
        t8 = batch_latency_ms(graph, 8, profile)
        assert t1 < t8 < 8 * t1

    def test_monotone_in_batch(self):
        graph = self._graph()
        profile = DEVICE_PROFILES["myriadvpu"]
        times = [batch_latency_ms(graph, b, profile) for b in (1, 2, 4, 8)]
        assert times == sorted(times)

    def test_validation(self):
        with pytest.raises(ValueError):
            batch_latency_ms(self._graph(), 0, DEVICE_PROFILES["myriadvpu"])
