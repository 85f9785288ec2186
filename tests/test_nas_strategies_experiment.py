"""Search strategies, failure injection and the experiment runner."""

import numpy as np
import pytest

from repro.nas import (
    Experiment,
    FailureInjector,
    GridSearch,
    RandomSearch,
    RegularizedEvolution,
    SurrogateEvaluator,
    TrialStore,
)
from repro.graph.flops import count_graph_flops
from repro.graph.trace import trace_model
from repro.latency.devices import DEVICE_PROFILES, kernel_latency_ms
from repro.latency.kernels import extract_kernels
from repro.nas.experiment import ArchitectureMetrics, measure_architecture
from repro.nas.searchspace import DEFAULT_SPACE, SearchSpace, enumerate_input_combinations
from repro.nas.config import ModelConfig
from repro.nn.resnet import build_model
from repro.onnxlite import export_model

SMALL_SPACE = SearchSpace(
    kernel_size=(3,), stride=(2,), padding=(1,), pool_choice=(0, 1),
    kernel_size_pool=(3,), stride_pool=(2,), initial_output_feature=(32,),
    channels=(5,), batches=(8, 16),
)


class TestGridSearch:
    def test_budget_respected(self):
        configs = list(GridSearch(SMALL_SPACE).propose(3))
        assert len(configs) == 3

    def test_full_grid(self):
        configs = list(GridSearch(SMALL_SPACE).propose(10_000))
        assert len(configs) == SMALL_SPACE.total_configurations() == 4


class TestRandomSearch:
    def test_no_duplicates(self):
        configs = list(RandomSearch(SMALL_SPACE, seed=0).propose(4))
        assert len({c.config_id() for c in configs}) == len(configs)

    def test_deterministic(self):
        a = [c.config_id() for c in RandomSearch(SMALL_SPACE, seed=1).propose(3)]
        b = [c.config_id() for c in RandomSearch(SMALL_SPACE, seed=1).propose(3)]
        assert a == b


class TestRegularizedEvolution:
    def test_improves_on_random_start(self):
        from repro.nas.searchspace import DEFAULT_SPACE

        evo = RegularizedEvolution(DEFAULT_SPACE, population_size=8, tournament_size=4, seed=0)
        evaluator = SurrogateEvaluator(noise_sigma=0.0)
        scores = []
        for config in evo.propose(60):
            score = evaluator.expected_accuracy(config)
            evo.observe(config, score)
            scores.append(score)
        assert max(scores[30:]) >= max(scores[:10])
        best_config, best_score = evo.best()
        assert best_score == max(s for _, s in evo._population)

    def test_population_ages_out(self):
        evo = RegularizedEvolution(SMALL_SPACE, population_size=3, tournament_size=2, seed=1)
        for i, config in enumerate(evo.propose(10)):
            evo.observe(config, float(i))
        assert len(evo._population) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            RegularizedEvolution(SMALL_SPACE, population_size=1)
        with pytest.raises(ValueError):
            RegularizedEvolution(SMALL_SPACE, population_size=4, tournament_size=9)
        with pytest.raises(ValueError):
            RegularizedEvolution(SMALL_SPACE).best()


class TestFailureInjector:
    def test_paper_mode_counts(self):
        injector = FailureInjector.paper_mode()
        assert injector.total == 1728
        assert len(injector.failed_indices) == 11
        assert all(0 <= i < 1728 for i in injector.failed_indices)

    def test_deterministic_per_seed(self):
        assert FailureInjector.paper_mode(0).failed_indices == FailureInjector.paper_mode(0).failed_indices
        assert FailureInjector.paper_mode(0).failed_indices != FailureInjector.paper_mode(1).failed_indices

    def test_none_injector(self):
        injector = FailureInjector.none()
        assert not injector.fails(0)

    def test_validation(self):
        with pytest.raises(ValueError):
            FailureInjector(total=5, failures=9)


class TestMeasureArchitecture:
    def test_winner_metrics_match_paper_scale(self, winner_config):
        metrics = measure_architecture(winner_config)
        assert metrics.memory_mb == pytest.approx(11.18, rel=0.01)
        assert metrics.latency_ms == pytest.approx(8.2, rel=0.1)
        assert metrics.param_count == pytest.approx(2.8e6, rel=0.01)
        assert set(metrics.per_device_ms) == {"cortexA76cpu", "adreno640gpu", "adreno630gpu", "myriadvpu"}

    def test_baseline_metrics_match_paper_scale(self, baseline_config):
        metrics = measure_architecture(baseline_config)
        assert metrics.memory_mb == pytest.approx(44.7, rel=0.01)
        assert metrics.latency_ms == pytest.approx(31.9, rel=0.1)

    def test_equals_seeded_build_and_full_export(self):
        """Measured from shapes, the metrics equal those of a seeded build
        whose export is serialized in full: the six Table-5 baselines and
        one grid architecture per (width, pool_choice, stem kernel)."""
        picks = {}
        for config in GridSearch(DEFAULT_SPACE).propose(DEFAULT_SPACE.total_configurations()):
            picks.setdefault((config.initial_output_feature, config.pool_choice, config.kernel_size), config)
        assert len(picks) == 12
        baselines = [ModelConfig.baseline(channels=c, batch=b) for c, b in enumerate_input_combinations()]
        references: dict[tuple, ArchitectureMetrics] = {}
        for config in baselines + list(picks.values()):
            key = config.architecture_key()
            if key not in references:
                model = build_model(config, seed=0)
                graph = trace_model(model, input_hw=(100, 100))
                kernels = extract_kernels(graph)
                per_device = {name: float(sum(kernel_latency_ms(k, profile) for k in kernels))
                              for name, profile in DEVICE_PROFILES.items()}
                values = list(per_device.values())
                references[key] = ArchitectureMetrics(
                    per_device_ms=per_device,
                    latency_ms=float(np.mean(values)),
                    lat_std=float(np.std(values)),
                    memory_mb=len(export_model(model, input_hw=(100, 100))) / 1e6,
                    param_count=sum(p.size for p in model.parameters()),
                    flops=count_graph_flops(graph),
                )
            assert measure_architecture(config) == references[key], config


class TestExperiment:
    def _experiment(self, **kw):
        defaults = dict(
            evaluator=SurrogateEvaluator(),
            strategy=GridSearch(SMALL_SPACE),
            input_hw=(48, 48),
        )
        defaults.update(kw)
        return Experiment(**defaults)

    def test_run_produces_complete_records(self):
        result = self._experiment().run(budget=4)
        assert result.launched == 4 and result.succeeded == 4
        for record in result.store:
            assert record.accuracy > 50
            assert record.latency_ms > 0
            assert record.memory_mb > 0
            assert len(record.fold_accuracies) == 5

    def test_architecture_cache_shares_metrics_across_batches(self):
        experiment = self._experiment(latency_jitter=0.0)
        result = experiment.run(budget=4)
        by_batch = {}
        for record in result.store:
            key = record.config.architecture_key()[1:]  # ignore channels slot
            by_batch.setdefault((record.config.pool_choice,), []).append(record.latency_ms)
        for values in by_batch.values():
            assert len(set(round(v, 9) for v in values)) == 1  # identical without jitter

    def test_latency_jitter_differentiates_trials(self):
        result = self._experiment(latency_jitter=0.01).run(budget=4)
        latencies = [r.latency_ms for r in result.store if r.config.pool_choice == 0]
        assert len(set(latencies)) == len(latencies)

    def test_failure_injection_recorded(self):
        injector = FailureInjector(total=4, failures=2, seed=0)
        result = self._experiment(failure_injector=injector).run(budget=4)
        assert result.failed == 2 and result.succeeded == 2
        failed = [r for r in result.store if not r.ok]
        assert all("injected" in r.error for r in failed)

    def test_store_persists_during_run(self, tmp_path):
        store = TrialStore(tmp_path / "trials.jsonl")
        self._experiment(store=store).run(budget=2)
        reloaded = TrialStore(tmp_path / "trials.jsonl")
        assert reloaded.load() == 2

    def test_progress_callback(self):
        seen = []
        exp = self._experiment(progress=lambda done, total, rec: seen.append((done, total)))
        exp.run(budget=3)
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            self._experiment().run(budget=0)
        with pytest.raises(ValueError):
            self._experiment(latency_jitter=-0.1)

    def test_resume_skips_completed_trials(self, tmp_path):
        path = tmp_path / "resume.jsonl"
        first = Experiment(
            evaluator=SurrogateEvaluator(),
            strategy=GridSearch(SMALL_SPACE),
            store=TrialStore(path),
            input_hw=(48, 48),
        )
        first.run(budget=2)  # partial sweep, then "interrupted"

        resumed_store = TrialStore(path)
        assert resumed_store.load() == 2
        second = Experiment(
            evaluator=SurrogateEvaluator(),
            strategy=GridSearch(SMALL_SPACE),
            store=resumed_store,
            input_hw=(48, 48),
            skip_existing=True,
        )
        result = second.run(budget=4)
        assert result.skipped == 2
        assert result.launched == 2  # only the remaining configs ran
        assert len(resumed_store) == 4
