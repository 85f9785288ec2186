"""Latency prediction: fusion, kernels, device models, calibration."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.graph.ir import OpType
from repro.graph.trace import trace_model
from repro.latency import (
    DEVICE_PROFILES,
    LatencyPredictor,
    extract_kernels,
    fuse_graph,
    get_predictor,
    list_predictors,
    predict_all_devices,
    PREDICTOR_METADATA,
)
from repro.latency.calibration import PAPER_ANCHORS, calibration_report
from repro.latency.devices import kernel_latency_ms
from repro.latency.kernels import Kernel
from repro.nn import SearchableResNet18, build_baseline_resnet18

GOLDEN_ANCHORS = Path(__file__).parent / "golden" / "latency_anchors.json"


def latency_anchors_golden() -> list[dict]:
    """The golden-file view of ``calibration_report()``: each Table-3/4/5
    anchor's predicted mean and std at 9 significant digits."""
    return [
        {
            "anchor": row["anchor"],
            **{key: float(f"{row[key]:.9g}") for key in ("pred_mean", "pred_std")},
        }
        for row in calibration_report()
    ]


def _winner(channels=7):
    return SearchableResNet18(in_channels=channels, kernel_size=3, stride=2, padding=1,
                              pool_choice=0, initial_output_feature=32)


class TestFusion:
    def test_every_non_io_node_covered_once(self):
        graph = trace_model(build_baseline_resnet18(5), (100, 100))
        fused = fuse_graph(graph)
        covered = [n.name for op in fused for n in op.nodes]
        assert len(covered) == len(set(covered))
        non_io = [n.name for n in graph.nodes() if n.op not in (OpType.INPUT, OpType.OUTPUT)]
        assert sorted(covered) == sorted(non_io)

    def test_conv_bn_relu_chains_fuse(self):
        graph = trace_model(_winner(), (64, 64))
        fused = fuse_graph(graph)
        stem = next(op for op in fused if op.lead.name == "conv1")
        assert [n.op for n in stem.folded] == [OpType.BATCH_NORM, OpType.RELU]

    def test_block_second_conv_fuses_only_bn(self):
        graph = trace_model(_winner(), (64, 64))
        fused = fuse_graph(graph)
        conv2 = next(op for op in fused if op.lead.name.endswith("0.conv2"))
        assert [n.op for n in conv2.folded] == [OpType.BATCH_NORM]

    def test_add_relu_fuses(self):
        graph = trace_model(_winner(), (64, 64))
        fused = fuse_graph(graph)
        adds = [op for op in fused if op.lead.op is OpType.ADD]
        assert len(adds) == 8
        assert all(len(op.folded) == 1 and op.folded[0].op is OpType.RELU for op in adds)


class TestKernels:
    def test_kernel_count_matches_fusion(self):
        graph = trace_model(build_baseline_resnet18(5), (100, 100))
        assert len(extract_kernels(graph)) == len(fuse_graph(graph))

    def test_flops_preserved_by_fusion(self):
        from repro.graph.flops import count_graph_flops

        graph = trace_model(_winner(), (100, 100))
        assert sum(k.flops for k in extract_kernels(graph)) == count_graph_flops(graph)

    def test_add_kernel_reads_two_inputs(self):
        graph = trace_model(_winner(), (64, 64))
        kernels = extract_kernels(graph)
        add = next(k for k in kernels if k.kernel_type == "add-relu")
        single = next(k for k in kernels if k.kernel_type == "conv-bn-relu")
        # Two producer tensors of the same shape -> double input bytes.
        assert add.input_bytes == 2 * add.output_bytes

    def test_conv_kernel_size_recorded(self):
        graph = trace_model(build_baseline_resnet18(5), (100, 100))
        stem = next(k for k in extract_kernels(graph) if k.name == "conv1")
        assert stem.conv_kernel == 7


class TestDeviceModel:
    def _kernel(self, **kw):
        defaults = dict(name="k", kernel_type="conv-bn-relu", flops=10_000_000,
                        input_bytes=100_000, output_bytes=100_000, weight_bytes=50_000)
        defaults.update(kw)
        return Kernel(**defaults)

    def test_latency_positive_and_monotone_in_flops(self):
        profile = DEVICE_PROFILES["cortexA76cpu"]
        small = kernel_latency_ms(self._kernel(flops=1_000_000), profile)
        large = kernel_latency_ms(self._kernel(flops=100_000_000), profile)
        assert 0 < small < large

    def test_pool_penalty_applied_only_to_maxpool(self):
        profile = DEVICE_PROFILES["myriadvpu"]
        pool = kernel_latency_ms(self._kernel(kernel_type="maxpool", flops=1000), profile)
        relu = kernel_latency_ms(self._kernel(kernel_type="relu", flops=1000), profile)
        assert pool - relu > 30.0  # the VPU's large pool penalty

    def test_large_kernel_derated(self):
        profile = DEVICE_PROFILES["adreno640gpu"]
        k3 = kernel_latency_ms(self._kernel(conv_kernel=3), profile)
        k7 = kernel_latency_ms(self._kernel(conv_kernel=7), profile)
        assert k7 > k3

    def test_cache_slowdown(self):
        profile = DEVICE_PROFILES["adreno630gpu"]
        tiny = kernel_latency_ms(self._kernel(input_bytes=1000, output_bytes=1000, weight_bytes=0), profile)
        huge = kernel_latency_ms(self._kernel(input_bytes=10_000_000, output_bytes=10_000_000,
                                              weight_bytes=0), profile)
        assert huge > 3 * tiny


class TestPredictors:
    def test_registry_names(self):
        assert set(list_predictors()) == {"cortexA76cpu", "adreno640gpu", "adreno630gpu", "myriadvpu"}
        assert get_predictor("CORTEXA76CPU").name == "cortexA76cpu"
        with pytest.raises(KeyError):
            get_predictor("tpu")

    def test_metadata_matches_table2(self):
        rows = {r["hardware_name"]: r for r in PREDICTOR_METADATA}
        assert rows["myriadvpu"]["device"] == "Intel Movidius NCS2"
        assert rows["cortexA76cpu"]["framework"] == "TFLite v2.1"

    def test_predict_model_end_to_end(self):
        latency = get_predictor("adreno640gpu").predict_model(_winner(), input_hw=(100, 100))
        assert 1.0 < latency < 50.0

    def test_summary_mean_std(self):
        graph = trace_model(_winner(), (100, 100))
        summary = predict_all_devices(graph)
        values = list(summary.per_device_ms.values())
        assert summary.mean_ms == pytest.approx(np.mean(values))
        assert summary.std_ms == pytest.approx(np.std(values))
        flat = summary.as_dict()
        assert "latency_ms" in flat and "lat_std" in flat


class TestCalibration:
    def test_all_anchor_means_within_tolerance(self):
        for row in calibration_report():
            relative = abs(row["pred_mean"] - row["paper_mean"]) / row["paper_mean"]
            assert relative < 0.15, f"{row['anchor']}: {row['pred_mean']} vs {row['paper_mean']}"

    def test_anchor_stds_within_tolerance(self):
        for row in calibration_report():
            if not np.isnan(row["paper_std"]):
                assert abs(row["pred_std"] - row["paper_std"]) / row["paper_std"] < 0.15

    def test_paper_orderings_hold(self):
        """The qualitative facts the paper reports must hold exactly."""
        report = {r["anchor"]: r for r in calibration_report()}
        # Winners are ~4x faster than the baseline.
        assert report["baseline-5ch"]["pred_mean"] > 3 * report["pareto-BD"]["pred_mean"]
        # Pooled winners are ~2x slower than unpooled, with bigger spread.
        assert report["pareto-C"]["pred_mean"] > 1.7 * report["pareto-A"]["pred_mean"]
        assert report["pareto-C"]["pred_std"] > 2 * report["pareto-A"]["pred_std"]

    def test_anchor_set_covers_tables_4_and_5(self):
        labels = {a.label for a in PAPER_ANCHORS}
        assert {"baseline-5ch", "baseline-7ch", "pareto-A", "pareto-C", "sweep-max"} <= labels

    def test_anchor_predictions_match_golden_file(self):
        """Every anchor's predicted mean and std under the frozen
        ``DEVICE_PROFILES`` is unchanged."""
        assert latency_anchors_golden() == json.loads(GOLDEN_ANCHORS.read_text())


class TestKernelVariantRegistry:
    """The predictor/executor matching invariant for kernel variants.

    ``repro.latency.fusion.KERNEL_VARIANTS`` is the single source of
    truth for which kernel implementations exist; the deploy compiler
    only emits names from it (asserted in ``tests/test_qkernels.py``)
    and the energy model must price every one of them.
    """

    def _registry_names(self):
        from repro.latency import KERNEL_VARIANTS

        return {v for names in KERNEL_VARIANTS.values() for v in names}

    def test_energy_factors_cover_registry_exactly(self):
        from repro.latency import VARIANT_COST_FACTORS

        assert set(VARIANT_COST_FACTORS) == self._registry_names()

    def test_defaults_are_fp32(self):
        from repro.latency import KERNEL_VARIANTS

        for op, names in KERNEL_VARIANTS.items():
            assert names[0].endswith(".f32"), (op, names)

    def test_variant_pricing_scales_energy(self):
        from repro.latency import kernel_energy_mj

        kernel = Kernel(name="k", kernel_type="conv-bn-relu", flops=1e8,
                        input_bytes=1e5, output_bytes=1e5, weight_bytes=1e5,
                        conv_kernel=3)
        fp32 = kernel_energy_mj(kernel, "cortexA76cpu", "conv.im2col.f32")
        int8 = kernel_energy_mj(kernel, "cortexA76cpu", "conv.im2col.int8")
        assert int8 < fp32  # quarter bytes + quarter pJ/MAC
        assert kernel_energy_mj(kernel, "cortexA76cpu", None) == fp32  # default
        with pytest.raises(KeyError):
            kernel_energy_mj(kernel, "cortexA76cpu", "conv.fft.f32")

    def test_energy_report_rows_match_kernels(self):
        from repro.latency import energy_report

        model = SearchableResNet18(in_channels=5, kernel_size=3, stride=2, padding=1,
                                   pool_choice=0, initial_output_feature=32)
        graph = trace_model(model, input_hw=(24, 24))
        rows = energy_report(graph, "cortexA76cpu")
        kernels = extract_kernels(graph)
        assert [r["kernel"] for r in rows] == [k.name for k in kernels]
        assert all(r["variant"] in self._registry_names() for r in rows)
        assert all(r["energy_mj"] > 0 for r in rows)
