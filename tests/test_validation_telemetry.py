"""Reproduction verifier and the batch-latency extension."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.pipeline import run_paper_sweep
from repro.core.validation import Check, VerificationReport, verify_reproduction
from repro.graph.trace import trace_model
from repro.latency.devices import DEVICE_PROFILES
from repro.latency.predictors import batch_latency_ms
from repro.nas.config import ModelConfig
from repro.nn import SearchableResNet18

GOLDEN_SWEEP = Path(__file__).parent / "golden" / "paper_sweep_seed0.json"


def paper_sweep_golden(seed: int = 0) -> dict:
    """The golden-file view of ``run_paper_sweep(seed)``: trial counts and
    the Pareto front (highest accuracy first), objectives at 9
    significant digits."""
    sweep = run_paper_sweep(seed=seed)
    return {
        "launched": sweep.launched,
        "valid": sweep.valid_outcomes,
        "pareto_front": [
            {
                "trial_id": r["trial_id"],
                "config_id": ModelConfig.from_dict(r).config_id(),
                **{key: float(f"{r[key]:.9g}") for key in ("accuracy", "latency_ms", "memory_mb")},
            }
            for r in sweep.front_records()
        ],
    }


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

    def test_paper_sweep_matches_golden_file(self):
        """Trial counts and every front member's id, configuration and
        objectives are unchanged (the sweep is cached, so this reuses the
        run above)."""
        assert paper_sweep_golden(seed=0) == json.loads(GOLDEN_SWEEP.read_text())


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
