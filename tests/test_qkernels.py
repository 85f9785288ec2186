"""Integer kernels, Winograd convolution, and compile-time autotuning.

Certification suite for the true-int8 inference path and the kernel
variant registry:

- ``chunked_int_gemm`` is *bit-exact* against int64 integer matmul
  (fuzzed, including K > 512 so the panel loop is exercised);
- the gemmlowp-style fixed-point requantization matches round-to-nearest
  within one code;
- the F(2x2, 3x3) Winograd binder matches the im2col binder to tight
  absolute tolerance across fuzzed odd geometries (padding, C_in=1, the
  24x24 deployment tile, 25x25);
- a fully integer compiled plan certifies against the fp32 interpreter
  within quantization tolerance and agrees on argmax;
- variant forcing validates against eligibility and the registry;
- autotune decisions replay deterministically from the JSON cache, also
  across processes;
- the quantized path materializes zero dequantized fp32 weight copies
  (the lazy-weight invariant).
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.deploy import autotune_variants, compile_plan
from repro.deploy.passes import PlanNode
from repro.deploy.plan import Arena, _bind_conv, channels_last
from repro.deploy.qkernels import (
    K_CHUNK,
    chunked_int_gemm,
    quantize_multiplier,
    quantize_multipliers,
    requantize,
)
from repro.deploy.runtime import OnnxliteRuntime
from repro.deploy.winograd import WINOGRAD_VARIANT, bind_winograd_conv, winograd_eligible
from repro.latency.fusion import KERNEL_VARIANTS
from repro.nn import SearchableResNet18
from repro.onnxlite.reader import proto_from_bytes
from repro.quant.calibrate import calibrate_activations
from repro.quant.export import export_quantized_model

_relaxed = settings(max_examples=16, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

HW = 24  # the deployment tile


def _model(seed=3):
    return SearchableResNet18(in_channels=5, kernel_size=3, stride=2, padding=1,
                              pool_choice=0, initial_output_feature=32, seed=seed)


def _calibrated_proto(size=HW, seed=3):
    """Quantized export + activation calibration on synthetic patches."""
    proto = proto_from_bytes(export_quantized_model(_model(seed), input_hw=(size, size)))
    rng = np.random.default_rng(seed + 100)
    calibrate_activations(proto, rng.standard_normal((12, 5, size, size)).astype(np.float32))
    return proto


@pytest.fixture(scope="module")
def calibrated_proto():
    return _calibrated_proto()


class TestChunkedIntGemm:
    """The f32-carrier integer GEMM is exact, not approximately right."""

    @_relaxed
    @given(c=st.integers(1, 6), k=st.integers(1, 1300), m=st.integers(1, 48),
           seed=st.integers(0, 2**16))
    def test_bit_exact_vs_int64_matmul(self, c, k, m, seed):
        rng = np.random.default_rng(seed)
        w = rng.integers(-127, 128, size=(c, k)).astype(np.float32)
        a = rng.integers(0, 256, size=(k, m)).astype(np.float32)
        acc = np.empty((c, m), np.float64)
        part = np.empty((c, m), np.float32)
        chunked_int_gemm(w, a, acc, part)
        ref = w.astype(np.int64) @ a.astype(np.int64)
        assert np.array_equal(acc, ref)

    def test_multi_panel_extremes(self):
        """Worst-case magnitudes across several K panels stay exact."""
        k = 3 * K_CHUNK + 17
        w = np.full((2, k), -127, np.float32)
        a = np.full((k, 5), 255, np.float32)
        acc = np.empty((2, 5), np.float64)
        chunked_int_gemm(w, a, acc, np.empty((2, 5), np.float32))
        assert np.array_equal(acc, np.full((2, 5), -127 * 255 * k, np.int64))

    @_relaxed
    @given(m=st.floats(1e-6, 0.999), seed=st.integers(0, 2**16))
    def test_requantize_matches_rounding(self, m, seed):
        """Fixed-point requantization == round(acc * m) + zp within 1 code."""
        m0, shift = quantize_multiplier(m)
        assert 2**30 <= m0 < 2**31
        rng = np.random.default_rng(seed)
        acc = rng.integers(-(2**23), 2**23, size=(4, 32)).astype(np.int64)
        out = np.empty(acc.shape, np.uint8)
        requantize(acc.copy(), m0, shift, zero_point=10, relu=False, out=out)
        exact = np.clip(np.round(acc * m) + 10, 0, 255)
        assert np.abs(out.astype(np.int64) - exact).max() <= 1

    def test_requantize_relu_clamps_at_zero_point(self):
        acc = np.array([[-100000, 0, 100000]], np.int64)
        m0, shift = quantize_multiplier(0.001)
        out = np.empty((1, 3), np.uint8)
        requantize(acc, m0, shift, zero_point=12, relu=True, out=out)
        assert out[0, 0] == 12 and out[0, 1] == 12 and out[0, 2] > 12

    def test_per_channel_multipliers(self):
        scales = np.array([0.5, 0.01, 0.25], np.float64)
        m0, shift = quantize_multipliers(scales)
        acc = np.tile(np.array([[1000]], np.int64), (3, 4))
        out = np.empty((3, 4), np.uint8)
        requantize(acc, m0, shift, zero_point=0, relu=False, out=out, axis=0)
        assert out[:, 0].tolist() == [255, 10, 250]  # 500 clips, 10, 250


def _conv_node(c_out, c_in, padding, relu, seed):
    rng = np.random.default_rng(seed)
    return PlanNode(
        name="conv", op_type="Conv", inputs=["x"], output="y",
        attrs={"kernel": 3, "stride": 1, "padding": padding},
        relu=relu,
        weights={
            "weight": (rng.standard_normal((c_out, c_in, 3, 3)) * 0.3).astype(np.float32),
            "bias": rng.standard_normal(c_out).astype(np.float32),
        },
    )


class TestWinograd:
    """F(2x2, 3x3) output transform equivalence against im2col."""

    def _compare(self, c_out, c_in, h, w, padding, relu, batch, seed=0):
        node = _conv_node(c_out, c_in, padding, relu, seed)
        oh, ow = h + 2 * padding - 2, w + 2 * padding - 2
        in_shape, out_shape = (c_in, h, w), (c_out, oh, ow)
        rng = np.random.default_rng(seed + 1)
        x = channels_last(rng.standard_normal((batch, *in_shape)).astype(np.float32))
        x = np.ascontiguousarray(x)  # kernels read the plan's channels-last buffers
        ref = _bind_conv(node, in_shape, out_shape, Arena())({"x": x})
        got = bind_winograd_conv(node, in_shape, out_shape, Arena())({"x": x})
        np.testing.assert_allclose(got, ref, atol=5e-5, rtol=1e-5)

    @_relaxed
    @given(c_out=st.sampled_from((1, 4, 9)), c_in=st.sampled_from((1, 3, 8)),
           h=st.integers(3, 26), w=st.integers(3, 26),
           padding=st.sampled_from((0, 1)), relu=st.booleans(),
           batch=st.sampled_from((1, 3)), seed=st.integers(0, 99))
    def test_fuzzed_geometries(self, c_out, c_in, h, w, padding, relu, batch, seed):
        self._compare(c_out, c_in, h, w, padding, relu, batch, seed)

    @pytest.mark.parametrize("hw", [HW, 25])
    def test_deployment_tile_and_odd_neighbor(self, hw):
        """24x24 (even tiles) and 25x25 (bottom/right crop) both match."""
        self._compare(c_out=16, c_in=8, h=hw, w=hw, padding=1, relu=True, batch=2)

    def test_eligibility(self):
        assert winograd_eligible({"kernel": 3, "stride": 1})
        assert not winograd_eligible({"kernel": 3, "stride": 2})
        assert not winograd_eligible({"kernel": 7, "stride": 1})


class TestIntegerPlanCertification:
    """The all-integer compiled plan vs the fp32 interpreted reference."""

    def test_integer_plan_matches_interpreter(self, calibrated_proto):
        runtime = OnnxliteRuntime(calibrated_proto)
        plan = runtime.compile()
        variants = plan.kernel_variants()
        # Every Conv/Gemm actually took an integer kernel by default.
        leads = {name: v for name, v in variants.items()
                 if v.startswith(("conv.", "gemm."))}
        assert leads and all(v.endswith(".int8") for v in leads.values()), variants
        rng = np.random.default_rng(7)
        x = rng.standard_normal((32, 5, HW, HW)).astype(np.float32)
        ref = runtime.run(x)
        got = plan.run(x)
        # Quantization tolerance: uint8 activation grids accumulate a
        # few LSBs of noise through 20+ integer layers; empirically the
        # worst logit error is ~0.01 on a ~0.9 logit range, so 0.08
        # fails loudly on any real kernel bug while never flaking.
        assert np.abs(got - ref).max() <= 0.08
        agreement = float((got.argmax(axis=1) == ref.argmax(axis=1)).mean())
        assert agreement >= 0.9

    def test_variants_subset_of_registry(self, calibrated_proto):
        plan = compile_plan(calibrated_proto)
        registry = {v for names in KERNEL_VARIANTS.values() for v in names}
        assert set(plan.kernel_variants().values()) <= registry

    def test_forcing_f32_demotes_chain(self, calibrated_proto):
        plan = compile_plan(calibrated_proto)
        conv_int8 = [n for n, v in plan.kernel_variants().items()
                     if v == "conv.im2col.int8"]
        forced = compile_plan(calibrated_proto, variants={conv_int8[0]: "conv.im2col.f32"})
        assert forced.kernel_variants()[conv_int8[0]] == "conv.im2col.f32"
        rng = np.random.default_rng(11)
        x = rng.standard_normal((4, 5, HW, HW)).astype(np.float32)
        np.testing.assert_allclose(forced.run(x), plan.run(x), atol=0.08)

    def test_forcing_unknown_variant_raises(self, calibrated_proto):
        with pytest.raises(ValueError, match="variant"):
            compile_plan(calibrated_proto, variants={"conv1": "conv.fft.f32"})

    def test_forcing_winograd_on_strided_conv_raises(self, calibrated_proto):
        # conv1 is the stride-2 stem: not F(2x2, 3x3) eligible.
        with pytest.raises(ValueError):
            compile_plan(calibrated_proto, variants={"conv1": WINOGRAD_VARIANT})

    def test_forcing_int8_without_calibration_raises(self):
        proto = proto_from_bytes(export_quantized_model(_model(), input_hw=(HW, HW)))
        with pytest.raises(ValueError):
            compile_plan(proto, variants={"conv1": "conv.im2col.int8"})


class TestLazyWeightInvariant:
    """The integer path never pays for dequantized fp32 weight copies."""

    def test_zero_fp32_materialization(self, calibrated_proto):
        runtime = OnnxliteRuntime(calibrated_proto)
        plan = runtime.compile()
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 5, HW, HW)).astype(np.float32)
        plan.run(x)
        table = runtime._weights
        # Conv/Gemm weights stayed integer codes end to end: zero bytes
        # of dequantized copies (BN params and biases are unquantized,
        # so their direct access contributes nothing here).
        assert table.materialized_bytes() == 0
        quantized = {name for name in table
                     if table.tensor(name).quantized}
        assert quantized and not (table.materialized & quantized)

    def test_arena_steady_state(self, calibrated_proto):
        plan = compile_plan(calibrated_proto)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 5, HW, HW)).astype(np.float32)
        plan.run(x)  # warm: sizes all buckets
        allocations = plan.memory_stats()["allocations"]
        for _ in range(3):
            plan.run(x)
        assert plan.memory_stats()["allocations"] == allocations


class TestAutotune:
    def test_decisions_are_registry_members_and_cache_replays(self, calibrated_proto, tmp_path):
        cache = tmp_path / "autotune.json"
        first = autotune_variants(calibrated_proto, batch=2, rounds=1, cache_path=cache)
        assert not first.cached and first.variants
        for name, row in first.table.items():
            assert row["chosen"] in KERNEL_VARIANTS[row["op_type"]]
            assert row["chosen"] == first.variants[name]
            assert set(row["timings_us"]) >= {row["chosen"]}
        second = autotune_variants(calibrated_proto, batch=2, rounds=1, cache_path=cache)
        assert second.cached and second.variants == first.variants
        # A different batch is a different cache key (crossovers move).
        other = autotune_variants(calibrated_proto, batch=4, rounds=1, cache_path=cache)
        assert not other.cached
        # The tuned plan compiles and runs.
        plan = compile_plan(calibrated_proto, variants=first.variants)
        out = plan.run(np.zeros((2, 5, HW, HW), np.float32))
        assert out.shape == (2, 2)

    def test_corrupt_cache_is_a_miss_and_heals(self, calibrated_proto, tmp_path):
        """An unreadable cache file must not crash tuning — it re-tunes
        and atomically rewrites a valid store over the garbage."""
        cache = tmp_path / "autotune.json"
        cache.write_text("not json{{{")
        res = autotune_variants(calibrated_proto, batch=2, rounds=1, cache_path=cache)
        assert not res.cached and res.variants
        again = autotune_variants(calibrated_proto, batch=2, rounds=1, cache_path=cache)
        assert again.cached and again.variants == res.variants

    def test_cache_determinism_across_processes(self, calibrated_proto, tmp_path):
        """A second *process* sharing the cache compiles the same variant map."""
        cache = tmp_path / "autotune.json"
        local = autotune_variants(calibrated_proto, batch=2, rounds=1, cache_path=cache)
        script = f"""
import json
import numpy as np
from repro.deploy import autotune_variants
from repro.nn import SearchableResNet18
from repro.onnxlite.reader import proto_from_bytes
from repro.quant.calibrate import calibrate_activations
from repro.quant.export import export_quantized_model

model = SearchableResNet18(in_channels=5, kernel_size=3, stride=2, padding=1,
                           pool_choice=0, initial_output_feature=32, seed=3)
proto = proto_from_bytes(export_quantized_model(model, input_hw=({HW}, {HW})))
rng = np.random.default_rng(103)
calibrate_activations(proto, rng.standard_normal((12, 5, {HW}, {HW})).astype(np.float32))
res = autotune_variants(proto, batch=2, rounds=1, cache_path={str(cache)!r})
print(json.dumps({{"cached": res.cached, "variants": res.variants}}))
"""
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"})
        assert proc.returncode == 0, proc.stderr
        remote = json.loads(proc.stdout.strip().splitlines()[-1])
        # Same model + same calibration stream -> same fingerprint -> the
        # sibling process replays the cached decisions verbatim.
        assert remote["cached"] is True
        assert remote["variants"] == local.variants
