"""The energy extension of the latency predictors."""

import pytest

from repro.graph.trace import trace_model
from repro.latency import DEVICE_PROFILES, estimate_energy_mj
from repro.latency.energy import ENERGY_MODELS
from repro.nn import SearchableResNet18, build_baseline_resnet18


def _graph(pool=1, f=64):
    model = SearchableResNet18(in_channels=5, kernel_size=3, stride=2, padding=1,
                               pool_choice=pool, kernel_size_pool=3, stride_pool=2,
                               initial_output_feature=f)
    return trace_model(model, (100, 100))


class TestEnergy:
    def test_positive_and_scales_with_model(self):
        small = estimate_energy_mj(_graph(f=32))
        big = estimate_energy_mj(trace_model(build_baseline_resnet18(5), (100, 100)))
        assert 0 < small < big

    def test_all_devices_have_models(self):
        graph = _graph(f=32)
        for device in DEVICE_PROFILES:
            assert device in ENERGY_MODELS
            assert estimate_energy_mj(graph, device) > 0

    def test_unknown_device(self):
        with pytest.raises(KeyError):
            estimate_energy_mj(_graph(f=32), "tpu")

    def test_dynamic_compute_dominates(self):
        # The un-pooled model runs ~4x the FLOPs; even against the VPU's
        # long pooled latency (idle energy), dynamic compute dominates.
        pooled = estimate_energy_mj(_graph(pool=1, f=32), "myriadvpu")
        unpooled = estimate_energy_mj(_graph(pool=0, f=32), "myriadvpu")
        assert unpooled > pooled

    def test_cpu_least_efficient_per_flop(self):
        graph = _graph(pool=0, f=64)
        assert estimate_energy_mj(graph, "cortexA76cpu") > estimate_energy_mj(graph, "adreno640gpu")
