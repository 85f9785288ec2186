"""Integer kernels and the int8-or-fp32 kernel rule.

Certification suite for the true-int8 inference path and the kernel
variant registry:

- ``chunked_int_gemm`` is *bit-exact* against int64 integer matmul
  (fuzzed, including K > 512 so the panel loop is exercised);
- the gemmlowp-style fixed-point requantization matches round-to-nearest
  within one code;
- a fully integer compiled plan certifies against the fp32 interpreter
  within quantization tolerance and agrees on argmax;
- variant forcing validates against the registry and the quantization
  payloads;
- ``autotune_variants`` keeps every Conv/Gemm int8 where the native
  kernels load, forces them all to fp32 where they do not, and returns
  one map however often it is called;
- the quantized path materializes zero dequantized fp32 weight copies
  (the lazy-weight invariant);
- the native kernels (:mod:`repro.deploy.native`): the fused pad +
  im2col gather gives the NumPy front end's columns bit for bit (float32,
  uint8 and quantizing, from contiguous and NCHW-view input); both int8
  GEMM engines (AMX tiles and VNNI, VNNI forced on an AMX host by
  patching the loader's decision) accumulate exactly and produce the
  NumPy int8 kernels' output bits over fuzzed conv, Gemm and Add
  geometries and every M, K and C_out tail; no kernel reads or writes
  past a buffer (sentinels, and fenced pages in a child process); two
  thread replicas give the serial bits; with the loader returning
  ``None`` the plan binds the NumPy kernels; the built library is cached
  and a truncated one is rebuilt.  Native tests skip, printing the
  loader's reason, on hosts without a compiler or VNNI, and AMX tests
  on hosts without AMX.
"""

import ctypes
import errno
import itertools
import os
import shutil
import subprocess
import sys
import textwrap
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.deploy import autotune_variants, compile_plan, native
from repro.deploy.passes import PlanNode
from repro.deploy.plan import (
    Arena,
    _bind_conv,
    _bind_qadd,
    _bind_qconv,
    _bind_qgemm,
    _im2col_into,
    _native_gather,
    _native_layer,
    _pad_into,
    channels_last,
)
from repro.deploy.qkernels import (
    K_CHUNK,
    chunked_int_gemm,
    quantize_into,
    quantize_multiplier,
    quantize_multipliers,
    requantize,
)
from repro.deploy.runtime import OnnxliteRuntime
from repro.latency.fusion import KERNEL_VARIANTS
from repro.nn import SearchableResNet18
from repro.onnxlite.reader import proto_from_bytes
from repro.onnxlite.schema import TensorProto
from repro.quant.affine import AffineQuantizer
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
        # Native kernels read packed int8 codes: no node builds the
        # float32 code carrier (4 bytes per weight) the NumPy GEMM needs.
        if native.load() is not None:
            roles = [set(node.weights) for node in plan.blueprint.nodes if node.qconfig
                     and node.op_type in ("Conv", "Gemm")]
            assert roles and all("w_packed" in r and "w_codes_f32" not in r for r in roles)

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
    """The int8-or-fp32 rule: it reads which int8 kernels loaded, not a clock."""

    @staticmethod
    def _conv_gemm(plan):
        return {name: v for name, v in plan.kernel_variants().items()
                if v.startswith(("conv.", "gemm."))}

    def test_native_kernels_keep_every_int8_default(self, calibrated_proto):
        if native.load() is None:
            _skip_without_native()
        tune = autotune_variants(calibrated_proto)
        assert tune.variants == {}
        leads = self._conv_gemm(compile_plan(calibrated_proto, variants=tune.variants))
        assert leads and all(v.endswith(".int8") for v in leads.values()), leads

    def test_numpy_kernels_force_every_conv_and_gemm_to_fp32(self, calibrated_proto):
        with _on("numpy"):
            tune = autotune_variants(calibrated_proto)
            plan = compile_plan(calibrated_proto, variants=tune.variants)
        leads = self._conv_gemm(plan)
        assert leads and all(v.endswith(".f32") for v in leads.values()), leads
        assert set(tune.variants) == set(leads)
        # The whole chain re-forms in fp32: no int8 epilogue is left.
        assert all(v.endswith(".f32") for v in plan.kernel_variants().values())

    def test_repeated_calls_return_one_map(self, calibrated_proto):
        maps = {tuple(sorted(autotune_variants(calibrated_proto, batch=b).variants.items()))
                for b in (1, 1, 4, 16)}
        assert len(maps) == 1


# --------------------------------------------------------------------------
# native kernels (AMX tiles, VNNI) vs the NumPy kernels
# --------------------------------------------------------------------------

def _skip(reason: str):
    print(reason)
    pytest.skip(reason)


def _skip_without_native():
    _skip(f"native kernels unavailable: {native.status()}")


@pytest.fixture(scope="module")
def native_lib():
    lib = native.load()
    if lib is None:
        _skip_without_native()
    return lib


def _engines() -> tuple[str, ...]:
    """The native int8 GEMM engines this host runs, each compared with
    NumPy: AMX tiles where the loader granted them, and VNNI (forced on an
    AMX host by patching the loader's decision)."""
    return ("amx", "vnni") if native.engine() == "amx" else ("vnni",)


def _on(engine: str):
    """Bind as on a host whose int8 GEMM runs on ``engine``: VNNI on an AMX
    host by patching the loader's decision, NumPy by a loader returning None."""
    if engine == "numpy":
        return mock.patch.object(native, "load", return_value=None)
    return mock.patch.object(native, "engine", return_value=engine)


def _poisoned_arena() -> Arena:
    """A poison arena whose first buffers already hold 0xFF bytes, so a
    kernel reading bytes it never wrote (column padding included) shows."""
    arena = Arena(poison=True)
    for _ in range(4):
        arena.release(arena.acquire((1 << 20,), np.uint8))
    return arena


def _native_s32(lib, a: np.ndarray, w: np.ndarray, engine: str) -> np.ndarray:
    """``a (M, K) uint8 @ w (K, N) int8`` as the native int32 accumulators.

    The column rows carry 0xFF in their K padding: the packed weights
    there are zero, so no padding byte may reach a sum.
    """
    m, k = a.shape
    kp = native.column_stride(k)
    cols = np.full((m, kp), 255, np.uint8)
    cols[:, :k] = a
    packed = native.pack_weights(w)
    zeros = np.zeros(16 * packed.shape[0])
    layer = native.Layer(w=packed.ctypes.data, zp_term=zeros.ctypes.data,
                         f64=zeros.ctypes.data, k=k, kp=kp, n=w.shape[1],
                         out_kind=native.OUT_S32, amx=int(engine == "amx"))
    out = np.empty((m, w.shape[1]), np.int32)
    lib.qn_gemm(ctypes.byref(layer), cols.ctypes.data, m, out.ctypes.data)
    return out


def _u8_quantizer(rng, scale=None):
    scale = float(rng.uniform(0.01, 0.1)) if scale is None else scale
    return AffineQuantizer(scale=scale, zero_point=int(rng.integers(0, 256)), dtype="uint8")


def _qnode(op_type, rng, c_out, weight_shape, attrs, relu, quantized_out, bias):
    """A Conv/Gemm node with int8 codes, per-channel scales and a qconfig."""
    codes = rng.integers(-128, 128, size=(c_out, *weight_shape)).astype(np.int8)
    s_w = rng.uniform(0.002, 0.02, size=c_out)
    q_in = _u8_quantizer(rng)
    k = int(np.prod(weight_shape))
    # An output grid about 50-100 codes per accumulator standard deviation
    # (~74 * 74 * sqrt(K) for uniform codes): most outputs land mid-range,
    # the tails clip at both limits.
    q_out = (_u8_quantizer(rng, q_in.scale * float(s_w.mean()) * 110 * np.sqrt(k))
             if quantized_out else None)
    weights = {"bias": rng.standard_normal(c_out).astype(np.float32)} if bias else {}
    return PlanNode(name="q", op_type=op_type, inputs=["x"], output="y", attrs=attrs,
                    relu=relu, weights=weights,
                    qweight=TensorProto("q.weight", codes, scale=s_w),
                    qconfig={"input": q_in, "output": q_out})


def _input(rng, shape, in_form):
    if in_form == "u8":
        return rng.integers(0, 256, size=shape, dtype=np.uint8)
    return (rng.standard_normal(shape) * 3).astype(np.float32)


def _bound_outputs(bind, x) -> dict[str, np.ndarray]:
    """One node's output bound to each native engine and to NumPy."""
    outputs = {}
    for engine in (*_engines(), "numpy"):
        with _on(engine):
            outputs[engine] = bind(_poisoned_arena())({"x": x})
    return outputs


def _front_end_reference(x, mode, kernel, stride, padding, scale, zp):
    """The NumPy front end: ``(quantize_into +) _pad_into + _im2col_into``."""
    n, h, w, c = x.shape
    oh, ow = (h + 2 * padding - kernel) // stride + 1, (w + 2 * padding - kernel) // stride + 1
    if mode == "quantize":
        src = np.empty(x.shape, np.uint8)
        quantize_into(x, scale, zp, src, np.empty(x.shape, np.float32))
    else:
        src = x
    fill = 0.0 if mode == "f32" else zp
    xp = src
    if padding:
        xp = _pad_into(np.empty((n, h + 2 * padding, w + 2 * padding, c), src.dtype),
                       src, padding, fill)
    cols = np.empty((n, oh, ow, kernel, kernel, c), src.dtype)
    return _im2col_into(cols, xp, kernel, stride).reshape(n * oh * ow, -1)


def _native_front_end(lib, x, mode, kernel, stride, padding, scale, zp, sentinel=0xA5):
    """The native gather into a sentinel-fenced column buffer:
    ``(columns as the reference's dtype, K padding bytes, tail bytes)``."""
    n, h, w, c = x.shape
    oh, ow = (h + 2 * padding - kernel) // stride + 1, (w + 2 * padding - kernel) // stride + 1
    k_dim = kernel * kernel * c
    out_size = 4 if mode == "f32" else 1
    row = 4 * k_dim if mode == "f32" else native.column_stride(k_dim)
    m = n * oh * ow
    buf = np.full(m * row + 256, sentinel, np.uint8)
    gather = _native_gather(lib, h=h, w=w, c=c, kernel=kernel, stride=stride, pad=padding,
                            oh=oh, ow=ow, in_size=x.itemsize, out_size=out_size, row=row,
                            scale=scale, zp=zp)
    gather(x, buf[: m * row].reshape(m, row))
    rows = buf[: m * row].reshape(m, row)
    cols = rows[:, : k_dim * out_size].copy().view(np.float32 if mode == "f32" else np.uint8)
    return cols, rows[:, k_dim * out_size:], buf[m * row:]


class TestNativeKernels:
    """The native kernels compute exactly what the NumPy kernels compute."""

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(c=st.integers(1, 20), kernel=st.sampled_from((1, 3, 5)), stride=st.sampled_from((1, 2)),
           padding=st.integers(0, 3), hw=st.integers(5, 12), batch=st.sampled_from((1, 3, 16)),
           mode=st.sampled_from(("f32", "u8", "quantize")), nchw=st.booleans(),
           scale=st.sampled_from((0.5, 0.03125, 0.0713)), seed=st.integers(0, 2**16))
    def test_gather_matches_numpy_front_end(self, native_lib, c, kernel, stride, padding, hw,
                                            batch, mode, nchw, scale, seed):
        """Columns, border fill and quantization bit for bit, from contiguous
        channels-last input and from the channels-last view of an NCHW
        batch (the model input), read in place.  Inputs on a 1/8 grid make
        x / scale land on exact .5 ties (round half to even) and past both
        clip limits."""
        rng = np.random.default_rng(seed)
        if mode == "u8":
            logical = rng.integers(0, 256, size=(batch, c, hw, hw), dtype=np.uint8)
        else:
            logical = (rng.integers(-400, 400, size=(batch, c, hw, hw)) / 8).astype(np.float32)
        x = (channels_last(logical) if nchw
             else np.ascontiguousarray(channels_last(logical)))
        zp = int(rng.integers(0, 256))
        ref = _front_end_reference(x, mode, kernel, stride, padding, scale, zp)
        got, pad, tail = _native_front_end(native_lib, x, mode, kernel, stride, padding,
                                           scale, zp)
        np.testing.assert_array_equal(got.view(np.uint8), ref.view(np.uint8))
        assert (pad == 0).all() and (tail == 0xA5).all()

    @pytest.mark.parametrize("mode", ["f32", "u8", "quantize"])
    def test_gather_writes_stay_inside_the_columns(self, native_lib, mode):
        """Every border case at once (kernel 5, padding 3, stride 2 over a
        7x9 map): the bytes after the column buffer keep their sentinel,
        whatever the sentinel."""
        rng = np.random.default_rng(1)
        shape = (3, 7, 9, 6)
        x = (rng.integers(0, 256, size=shape, dtype=np.uint8) if mode == "u8"
             else rng.standard_normal(shape).astype(np.float32))
        for sentinel in (0x00, 0x5A, 0xFF):
            _, _, tail = _native_front_end(native_lib, x, mode, 5, 2, 3, 0.05, 17, sentinel)
            assert (tail == sentinel).all()

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(m=st.integers(1, 70), k=st.integers(1, 700), n=st.integers(1, 70),
           seed=st.integers(0, 2**16))
    def test_accumulators_match_int64_matmul(self, native_lib, m, k, n, seed):
        """Every M % 16, K % 4, K % 64, C_out % 16 and C_out % 32 tail."""
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 256, size=(m, k), dtype=np.uint8)
        w = rng.integers(-128, 128, size=(k, n)).astype(np.int8)
        ref = a.astype(np.int64) @ w.astype(np.int64)
        for engine in _engines():
            np.testing.assert_array_equal(_native_s32(native_lib, a, w, engine), ref)

    def test_accumulator_extremes(self, native_lib):
        """255 x -128 over K = 5,001 (not a multiple of 4) stays exact."""
        k = 5001
        a = np.full((7, k), 255, np.uint8)
        w = np.full((k, 19), -128, np.int8)
        w[:, 1] = 127
        for engine in _engines():
            got = _native_s32(native_lib, a, w, engine)
            assert (got[:, 0] == -128 * 255 * k).all() and (got[:, 1] == 127 * 255 * k).all()

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(c_in=st.integers(1, 20), c_out=st.integers(1, 40), kernel=st.sampled_from((1, 3, 5)),
           stride=st.sampled_from((1, 2)), padding=st.integers(0, 3), hw=st.integers(5, 12),
           relu=st.booleans(), quantized_out=st.booleans(), bias=st.booleans(),
           in_form=st.sampled_from(("u8", "f32")), batch=st.sampled_from((1, 3, 16)),
           seed=st.integers(0, 2**16))
    def test_conv_bitwise_equal(self, native_lib, c_in, c_out, kernel, stride, padding, hw,
                                relu, quantized_out, bias, in_form, batch, seed):
        rng = np.random.default_rng(seed)
        node = _qnode("Conv", rng, c_out, (c_in, kernel, kernel),
                      {"kernel": kernel, "stride": stride, "padding": padding},
                      relu, quantized_out, bias)
        oh = (hw + 2 * padding - kernel) // stride + 1
        x = _input(rng, (batch, hw, hw, c_in), in_form)
        outputs = _bound_outputs(lambda arena: _bind_qconv(node, (c_in, hw, hw), (c_out, oh, oh),
                                                           arena, in_form), x)
        ref = outputs.pop("numpy")
        assert ref.dtype == (np.uint8 if quantized_out else np.float32)
        for got in outputs.values():
            assert got.dtype == ref.dtype
            np.testing.assert_array_equal(got, ref)

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(k=st.integers(1, 600), c_out=st.integers(1, 40), relu=st.booleans(),
           quantized_out=st.booleans(), bias=st.booleans(),
           in_form=st.sampled_from(("u8", "f32")), batch=st.sampled_from((1, 3, 16, 17, 35)),
           seed=st.integers(0, 2**16))
    def test_gemm_bitwise_equal(self, native_lib, k, c_out, relu, quantized_out, bias,
                                in_form, batch, seed):
        rng = np.random.default_rng(seed)
        node = _qnode("Gemm", rng, c_out, (k,), {}, relu, quantized_out, bias)
        x = _input(rng, (batch, k), in_form)
        outputs = _bound_outputs(
            lambda arena: _bind_qgemm(node, (k,), (c_out,), arena, in_form), x)
        ref = outputs.pop("numpy")
        for got in outputs.values():
            np.testing.assert_array_equal(got, ref)

    def test_fp32_conv_binds_the_native_gather_with_the_same_outputs(self, native_lib):
        """An fp32 conv over the NCHW model input: native gather and NumPy
        front end feed the same GEMM the same columns."""
        rng = np.random.default_rng(4)
        node = PlanNode(name="c", op_type="Conv", inputs=["x"], output="y",
                        attrs={"kernel": 3, "stride": 2, "padding": 1}, relu=True,
                        weights={"weight": rng.standard_normal((8, 5, 3, 3)).astype(np.float32),
                                 "bias": rng.standard_normal(8).astype(np.float32)})
        x = channels_last(rng.standard_normal((3, 5, 11, 11)).astype(np.float32))
        got = _bind_conv(node, (5, 11, 11), (8, 6, 6), _poisoned_arena())({"x": x})
        with _on("numpy"):
            ref = _bind_conv(node, (5, 11, 11), (8, 6, 6), _poisoned_arena())({"x": x})
        np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("za,zb,zo,clips", [(0, 0, 200, "high"), (255, 255, 10, "low"),
                                                (128, 77, 128, None)])
    def test_add_rounding_ties_and_clip_limits(self, native_lib, relu, za, zb, zo, clips):
        """Every pair of codes, with rescales of exactly 1/2 and 1/4.

        Odd ``a - za`` and ``b - zb`` = 2 (mod 4) land exactly on .5, so
        round-half-up decides; (0, 0, 200) drives sums past 255 and
        (255, 255, 10) below 0 (or below the ReLU floor at ``zo``).
        """
        q_out = AffineQuantizer(scale=0.04, zero_point=zo, dtype="uint8")
        node = PlanNode(
            name="add", op_type="Add", inputs=["a", "b"], output="y", relu=relu,
            qconfig={"input": AffineQuantizer(scale=0.02, zero_point=za, dtype="uint8"),
                     "input_b": AffineQuantizer(scale=0.01, zero_point=zb, dtype="uint8"),
                     "output": q_out})
        codes = np.arange(256, dtype=np.uint8)
        a = np.ascontiguousarray(np.repeat(codes, 256).reshape(1, 256, 256, 1))
        b = np.ascontiguousarray(np.tile(codes, 256).reshape(1, 256, 256, 1))
        got = _bind_qadd(node, Arena(poison=True), None)({"a": a, "b": b})
        with _on("numpy"):
            ref = _bind_qadd(node, Arena(poison=True), None)({"a": a, "b": b})
        np.testing.assert_array_equal(got, ref)
        if clips == "high":
            assert got.max() == 255
        elif clips == "low":
            assert got.min() == (zo if relu else 0)
        # In place on an input buffer, as the plan binds a dying operand.
        inplace = a.copy()
        out = _bind_qadd(node, Arena(), "a")({"a": inplace, "b": b})
        assert out is inplace
        np.testing.assert_array_equal(out, ref)

    def test_writes_stay_inside_the_output(self, native_lib):
        """Masked and short tiles (19 channels; 5 and 37 rows, so AMX runs a
        2 x 2 block, a tail block of 5 rows and a single channel block)
        write no byte past the output: the bytes after it keep their
        sentinel."""
        rng = np.random.default_rng(0)
        for engine, rows, quantized_out in itertools.product(_engines(), (5, 37), (False, True)):
            a = rng.integers(0, 256, size=(rows, native.column_stride(45)), dtype=np.uint8)
            node = _qnode("Gemm", rng, 19, (45,), {}, True, quantized_out, True)
            q_in = node.qconfig["input"]
            with _on(engine):
                layer = _native_layer(node, q_in.scale, q_in.zero_point, 45, 19)
            out = np.full(rows * 19 + 64, 7, np.uint8 if quantized_out else np.float32)
            native_lib.qn_gemm(ctypes.byref(layer), a.ctypes.data, rows, out.ctypes.data)
            assert (out[rows * 19:] == 7).all()
        q = AffineQuantizer(scale=0.02, zero_point=3, dtype="uint8")
        node = PlanNode(name="add", op_type="Add", inputs=["a", "b"], output="y",
                        qconfig={"input": q, "input_b": q, "output": q})
        codes = np.full(189 + 64, 250, np.uint8)
        b = rng.integers(0, 256, size=(1, 7, 9, 3), dtype=np.uint8)
        target = codes[:189].reshape(b.shape)
        _bind_qadd(node, Arena(), "a")({"a": target, "b": b})
        assert (codes[189:] == 250).all()

    def test_amx_engine_binds_where_the_loader_grants_it(self, native_lib):
        """Where AMX tiles run, status names them and bound int8 layers run
        on them; with the decision patched to VNNI the same node binds the
        VNNI loop.  Skips, printing the loader's reason, without AMX."""
        if native.engine() != "amx":
            _skip(f"AMX tiles unavailable: {native.status()}")
        assert native.status().startswith("native, AMX tiles + VNNI")
        node = _qnode("Gemm", np.random.default_rng(0), 19, (45,), {}, True, True, True)
        q_in = node.qconfig["input"]
        for engine in _engines():
            with _on(engine):
                layer = _native_layer(node, q_in.scale, q_in.zero_point, 45, 19)
            assert layer.amx == (engine == "amx")

    def test_no_read_or_write_past_a_buffer(self, native_lib):
        """Each input, column and output buffer ends at an inaccessible page:
        a byte read or written past any of them on a tail (M % 16, K % 64,
        C_out % 16, the border of the gather) kills the child process."""
        script = textwrap.dedent("""
            import ctypes, mmap
            import numpy as np
            from repro.deploy import native
            from repro.deploy.plan import _native_gather
            from tests.test_qkernels import _qnode
            from repro.deploy.plan import _native_layer
            libc = ctypes.CDLL(None, use_errno=True)
            libc.mprotect.argtypes = [ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int]
            keep = []

            def fenced(shape, dtype):
                nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
                pages = -(-nbytes // mmap.PAGESIZE) + 1
                m = mmap.mmap(-1, pages * mmap.PAGESIZE)
                base = ctypes.addressof(ctypes.c_char.from_buffer(m))
                fence = base + (pages - 1) * mmap.PAGESIZE
                assert libc.mprotect(fence, mmap.PAGESIZE, 0) == 0
                keep.append(m)
                arr = np.frombuffer(m, np.uint8, count=nbytes,
                                    offset=(pages - 1) * mmap.PAGESIZE - nbytes)
                return arr.view(dtype).reshape(shape)

            lib = native.load()
            rng = np.random.default_rng(0)
            engines = ("amx", "vnni") if native.engine() == "amx" else ("vnni",)
            for m, k, n in ((1, 45, 19), (17, 130, 33), (37, 64, 16), (50, 577, 48)):
                kp = native.column_stride(k)
                a = fenced((m, kp), np.uint8)
                a[...] = rng.integers(0, 256, size=a.shape)
                for engine in engines:
                    native.engine = lambda: engine
                    for quantized in (False, True):
                        node = _qnode("Gemm", rng, n, (k,), {}, True, quantized, True)
                        q = node.qconfig["input"]
                        layer = _native_layer(node, q.scale, q.zero_point, k, n)
                        out = fenced((m, n), np.uint8 if quantized else np.float32)
                        lib.qn_gemm(ctypes.byref(layer), a.ctypes.data, m, out.ctypes.data)
            for in_size, out_size in ((4, 4), (1, 1), (4, 1)):
                x = fenced((2, 7, 9, 5), np.float32 if in_size == 4 else np.uint8)
                x[...] = 1
                for view in (x, x.reshape(2, 5, 7, 9).transpose(0, 2, 3, 1)):
                    k_dim = 5 * 5 * 5
                    row = 4 * k_dim if out_size == 4 else native.column_stride(k_dim)
                    cols = fenced((2 * 4 * 5, row), np.uint8)
                    gather = _native_gather(lib, h=7, w=9, c=5, kernel=5, stride=2, pad=3,
                                            oh=4, ow=5, in_size=in_size, out_size=out_size,
                                            row=row, scale=0.05, zp=9)
                    gather(view, cols)
            print("ok")
        """)
        root = Path(__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": f"{root / 'src'}{os.pathsep}{root}"}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, cwd=root, timeout=300)
        assert proc.returncode == 0 and proc.stdout.split() == ["ok"], proc.stderr[-2000:]

    def test_thread_replicas_match_serial(self, native_lib, calibrated_proto):
        """Two replicas run int8 batches in two threads at once (ctypes
        releases the GIL, and AMX tile state is configured per call, per
        thread) and return the serial bits."""
        plan = compile_plan(calibrated_proto)
        rng = np.random.default_rng(11)
        batches = [rng.standard_normal((b, 5, HW, HW)).astype(np.float32) for b in (1, 3, 16, 5)]
        serial = [plan.run(x) for x in batches]
        replicas = [plan.replicate() for _ in range(2)]
        mismatches = [0, 0]
        runs = [0, 0]
        start = threading.Barrier(2, timeout=60)

        def work(i: int) -> None:
            start.wait()
            for _ in range(10):
                for x, ref in zip(batches, serial):
                    mismatches[i] += not np.array_equal(replicas[i].run(x), ref)
                    runs[i] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert runs == [40, 40] and mismatches == [0, 0]

    def test_fallback_binds_numpy_kernels_with_the_same_outputs(self, calibrated_proto):
        """With the loader returning None the plan binds the NumPy kernels
        (float32 code carriers, no packed codes) and its outputs equal the
        default plan's bit for bit."""
        with _on("numpy"):
            fallback = compile_plan(calibrated_proto, poison=True)
        int8_nodes = [n for n in fallback.blueprint.nodes
                      if n.qconfig and n.op_type in ("Conv", "Gemm")]
        assert int8_nodes and all("w_codes_f32" in n.weights and "w_packed" not in n.weights
                                  for n in int8_nodes)
        default = compile_plan(calibrated_proto, poison=True)
        x = np.random.default_rng(5).standard_normal((16, 5, HW, HW)).astype(np.float32)
        for n in (1, 3, 16):
            np.testing.assert_array_equal(default.run(x[:n]), fallback.run(x[:n]))


class TestNativeLibraryCache:
    """Build once per machine, rebuild a damaged library, load lazily."""

    @pytest.fixture()
    def fresh_cache(self, tmp_path, monkeypatch):
        """An empty cache directory and a process that has loaded nothing."""
        if shutil.which("cc") is None:
            _skip_without_native()
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(native, "_state", None)
        builds = []
        real_compile = native._compile

        def counting_compile(compiler, flags, path):
            builds.append(path)
            real_compile(compiler, flags, path)

        monkeypatch.setattr(native, "_compile", counting_compile)
        return builds

    def test_second_load_runs_no_compiler_and_truncation_rebuilds(self, fresh_cache, tmp_path,
                                                                  monkeypatch):
        """Whichever build the compiler accepts: once with the AMX flags as
        they are, once with them replaced by a flag the compiler rejects
        (the first load then runs the compiler twice and loads the second
        build).  The rebuild after truncation runs what the first load ran."""
        for flavour, amx_flags in (("as-is", native.AMX_FLAGS),
                                   ("rejected", ("-mno-such-target-flag",))):
            monkeypatch.setattr(native, "AMX_FLAGS", amx_flags)
            monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / flavour))
            monkeypatch.setattr(native, "_state", None)
            fresh_cache.clear()
            first = native.load()
            builds = len(fresh_cache)
            path = fresh_cache[-1]  # the build that loaded
            assert builds in (1, 2)
            assert path.parent == native.cache_dir() and path.is_file()
            assert not [p for p in path.parent.iterdir() if p.name.startswith(".")]  # no temp

            monkeypatch.setattr(native, "_state", None)
            assert (native.load() is None) == (first is None)
            assert len(fresh_cache) == builds  # the cached library loaded; no compiler ran

            # Damage the cached file (a new inode, so this process's mapping
            # of the old one stays valid): the next load rebuilds it.
            tmp = path.with_name("truncated")
            tmp.write_bytes(path.read_bytes()[:4096])
            os.replace(tmp, path)
            assert not native._intact(path)
            monkeypatch.setattr(native, "_state", None)
            native.load()
            assert len(fresh_cache) == 2 * builds and fresh_cache[-1] == path
            assert native._intact(path)

    def test_compiler_without_amx_builds_the_vnni_kernels(self, fresh_cache, monkeypatch):
        """A compiler that rejects the AMX flags builds the same source without
        its AMX code: the VNNI kernels load and the status says why AMX is
        off.  Later loads reuse that build without running the compiler."""
        monkeypatch.setattr(native, "AMX_FLAGS", ("-mno-such-target-flag",))
        if native.load() is None:
            _skip_without_native()
        assert native.engine() == "vnni"
        # The reason quotes the compiler's error, which names the flag.
        reason = native.status().partition("AMX off: ")[2]
        assert reason.startswith("cc -mno-such-target-flag failed: ")
        assert "-mno-such-target-flag" in reason.removeprefix("cc -mno-such-target-flag")
        assert len(fresh_cache) == 2  # the rejected AMX build, then the VNNI build
        monkeypatch.setattr(native, "_state", None)
        assert native.engine() == "vnni" and len(fresh_cache) == 2
        assert "an earlier cc -mno-such-target-flag build failed" in native.status()

    def test_amx_refusals_name_their_cause(self):
        assert "CPU" in native._amx_refusal(2)
        assert "ENOSPC" in native._amx_refusal(-errno.ENOSPC)
        assert "signal stack" in native._amx_refusal(-errno.ENOSPC)
        assert "EINVAL" in native._amx_refusal(-errno.EINVAL)

    def test_unwritable_cache_falls_back_to_numpy(self, fresh_cache, tmp_path, monkeypatch):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        assert native.load() is None
        assert native.implementation() == "numpy"
        assert "failed" in native.status()

    def test_import_loads_nothing(self):
        script = (
            "import repro.deploy, repro.deploy.native as n\n"
            "maps = open('/proc/self/maps').read() if __import__('os').path.exists("
            "'/proc/self/maps') else ''\n"
            "print(n._state is None, 'qnative' in maps)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True", "False"]
