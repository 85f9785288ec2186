"""Compiled inference plans: arena-allocated, pre-bound fused kernels.

:func:`compile_plan` lowers a :class:`~repro.onnxlite.schema.ModelProto`
through the pass pipeline of :mod:`repro.deploy.passes` and binds every
fused operator to a concrete closure at compile time (NumPy, except that
int8 Conv/Gemm/Add call the native VNNI kernels of
:mod:`repro.deploy.native` wherever that library loads):

- **no per-call dispatch** — each step is a closure with its weights,
  geometry, and GEMM matrices captured as locals (BatchNorm already
  folded into the Conv weights, ReLU applied in-kernel);
- **channels-last activations** — every kernel reads and writes
  ``(N, H, W, C)`` buffers (:func:`channels_last` is the one place that
  decides it).  A Conv is one position-major kernel for every batch
  size: an ``(N·P, k·k·C)`` im2col copied in contiguous C-runs (K order
  ``(kh, kw, c)``), then one ``@ (k·k·C, C_out)`` GEMM that writes the
  next layer's input directly.  :meth:`InferencePlan.run` still takes
  and returns the logical layout, and ``plan.shapes`` stays logical
  ``(C, H, W)``;
- **static memory planning** — a liveness-derived release schedule
  recycles intermediate buffers through an :class:`Arena` the moment
  their last consumer has run, instead of accumulating every activation
  for the whole forward pass;
- **workspace reuse** — the im2col column matrix and padded-input
  scratch come from the same arena, so Conv ops sharing a shape share
  one allocation across the run *and* across runs;
- **kernel choice by rule, not by stopwatch** — calibrated Conv/Gemm
  layers default to int8, and :func:`autotune_variants` keeps that
  default only where the native int8 kernels loaded (see its docstring
  for why), so one host always compiles one variant map.

The interpreted :class:`~repro.deploy.runtime.OnnxliteRuntime` path is
kept unchanged (and NCHW) as the independent reference implementation;
equivalence between the two (and :mod:`repro.nn`) is enforced by
``tests/test_deploy_plan.py``.
"""

from __future__ import annotations

import bisect
import ctypes
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

import repro.obs as obs

from repro.deploy import native
from repro.deploy.passes import (
    PlanNode,
    build_plan_nodes,
    compute_liveness,
    fuse_operators,
    gemm_matrix,
    infer_shapes,
    plan_quantization,
    toposort_nodes,
)
from repro.deploy.qkernels import (
    chunked_int_gemm,
    quantize_into,
    quantize_multiplier,
    quantize_multipliers,
    requantize,
)
from repro.deploy.weights import LazyWeightTable
from repro.latency.fusion import KERNEL_VARIANTS
from repro.onnxlite.schema import ModelProto

__all__ = [
    "Arena",
    "AutotuneResult",
    "ConcurrentPlanError",
    "InferencePlan",
    "PlanStep",
    "autotune_variants",
    "channels_last",
    "compile_plan",
]

_INPUT = "input"


def channels_last(x: np.ndarray, inverse: bool = False) -> np.ndarray:
    """View a logical batch in the plan's activation layout (or back).

    The compiled plan's one layout decision: feature maps are carried
    channels-last, ``(N, C, H, W)`` -> ``(N, H, W, C)``, so a conv's
    im2col copies contiguous C-runs and its GEMM output is already the
    next layer's input.  ``inverse=True`` maps a plan buffer back to the
    logical layout.  Flat ``(N, F)`` batches are the same in both.
    Returns a view, never a copy.
    """
    if x.ndim != 4:
        return x
    return x.transpose(0, 3, 1, 2) if inverse else x.transpose(0, 2, 3, 1)


class ConcurrentPlanError(RuntimeError):
    """Two threads entered :meth:`InferencePlan.run` at the same time.

    A compiled plan owns one :class:`Arena`; concurrent runs would hand
    out the same scratch buffers twice and silently corrupt activations.
    The run guard turns that misuse into a loud error — for concurrent
    serving, give each worker its own replica via
    :meth:`InferencePlan.replicate` (what :class:`repro.serve.PlanCache`
    does) instead of sharing one plan.
    """


class Arena:
    """A pooling allocator for intermediate activation buffers.

    Buffers are flat byte arrays handed out as shaped, dtype-cast views
    (float32 by default; the integer kernel path draws uint8 activations
    and int32 accumulators from the same pool); released buffers return
    to a free pool and are reused by the smallest-fit candidate, so a
    full forward pass settles into a handful of allocations that persist
    across runs.  The free pool is kept sorted by capacity, so the
    smallest-fit lookup is a bisect + pop instead of a linear scan —
    O(log f) per acquire where the old scan was O(f), which matters once
    batch-bucketed serving multiplies the pooled buffer population.

    Parameters
    ----------
    poison:
        Debug mode — released buffers are filled with 0xFF bytes (NaN
        when read as float32) so any kernel reading a freed tensor
        corrupts the output and fails the equivalence tests instead of
        silently reading stale data.
    """

    def __init__(self, poison: bool = False) -> None:
        self.poison = poison
        #: Free pool of flat uint8 base buffers, kept sorted ascending by
        #: byte capacity; the parallel ``_free_sizes`` list is the bisect
        #: key.  Pooling bytes rather than elements lets a retired fp32
        #: activation come back as an int32 accumulator or 4x the uint8
        #: codes without fragmenting the pool by dtype.
        self._free: list[np.ndarray] = []
        self._free_sizes: list[int] = []
        self._live: dict[int, np.ndarray] = {}
        self.current_bytes = 0
        self.peak_bytes = 0
        self.allocations = 0
        self.reuses = 0

    def acquire(self, shape: tuple[int, ...], dtype=np.float32) -> np.ndarray:
        """A ``dtype`` buffer of ``shape`` (pooled when possible)."""
        dt = np.dtype(dtype)
        nbytes = int(math.prod(shape)) * dt.itemsize
        # Smallest fit = first pooled buffer with capacity >= nbytes.
        i = bisect.bisect_left(self._free_sizes, nbytes)
        if i < len(self._free):
            base = self._free.pop(i)
            self._free_sizes.pop(i)
            self.reuses += 1
        else:
            base = np.empty(nbytes, dtype=np.uint8)
            self.allocations += 1
        view = base[:nbytes].view(dt).reshape(shape)
        self._live[id(view)] = base
        self.current_bytes += base.nbytes
        self.peak_bytes = max(self.peak_bytes, self.current_bytes)
        return view

    def release(self, view: np.ndarray) -> None:
        """Return a buffer obtained from :meth:`acquire` to the pool."""
        base = self._live.pop(id(view), None)
        if base is None:
            raise KeyError("released a buffer the arena does not own (planner bug)")
        if self.poison:
            base.fill(0xFF)  # NaN as float32, -1 as int32, 255 as uint8
        self.current_bytes -= base.nbytes
        i = bisect.bisect_left(self._free_sizes, base.size)
        self._free.insert(i, base)
        self._free_sizes.insert(i, base.size)

    @property
    def live_count(self) -> int:
        """Number of buffers currently handed out."""
        return len(self._live)

    @property
    def pooled_bytes(self) -> int:
        """Capacity currently parked in the free pool."""
        return sum(b.nbytes for b in self._free)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Arena(live={self.live_count}, pooled={len(self._free)}, "
                f"peak_bytes={self.peak_bytes:,}, allocs={self.allocations}, "
                f"reuses={self.reuses})")


@dataclass
class PlanStep:
    """One executable step: a pre-bound kernel plus its release schedule."""

    name: str
    chain: tuple[str, ...]
    run: Callable[[dict[str, np.ndarray]], np.ndarray]
    inputs: tuple[str, ...]
    output: str
    #: The kernel variant bound to this step — always a name from
    #: :data:`repro.latency.fusion.KERNEL_VARIANTS`, so predicted and
    #: executed kernels join on ``(op_type, variant)``.
    variant: str = ""
    #: Tensors whose buffers return to the arena after this step.
    release: list[str] = field(default_factory=list)
    #: Tensors dropped from the environment without an arena release
    #: (their buffer was transferred to this step's in-place output).
    drop: list[str] = field(default_factory=list)


# --------------------------------------------------------------------------
# kernel binding
# --------------------------------------------------------------------------


def _pad_into(xp: np.ndarray, x: np.ndarray, padding: int, fill) -> np.ndarray:
    """Copy a channels-last batch into the interior of ``xp``; fill the border.

    Border-only fill (the interior is fully overwritten by the copy)
    saves a full memset of the padded buffer per call.  ``fill`` is 0.0
    for fp32 and the input zero point for uint8 codes.
    """
    h, w = x.shape[1:3]
    xp[:, :padding] = fill
    xp[:, padding + h :] = fill
    xp[:, padding : padding + h, :padding] = fill
    xp[:, padding : padding + h, padding + w :] = fill
    xp[:, padding : padding + h, padding : padding + w] = x
    return xp


def _im2col_into(cols: np.ndarray, xp: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Gather the conv windows of a channels-last batch, position-major.

    ``cols`` is ``(N, OH, OW, k, k, C)``: row ``(n, oh, ow)`` of the
    ``(N·P, k·k·C)`` column matrix, K order ``(kh, kw, c)``.  Each window
    row is ``k·C`` contiguous values in both source and destination, so
    the copy moves whole runs (and fuses a uint8 -> float32 cast).
    """
    windows = sliding_window_view(xp, (kernel, kernel), axis=(1, 2))[:, ::stride, ::stride]
    np.copyto(cols, windows.transpose(0, 1, 2, 4, 5, 3))
    return cols


def _bind_conv(node: PlanNode, in_shape, out_shape, arena: Arena):
    """Bind a (fused) Conv to the position-major im2col kernel.

    One code path for every batch size: the channels-last input is
    gathered into an ``(N·P, k·k·C)`` column matrix, one
    ``@ (k·k·C, C_out)`` GEMM writes the ``(N, OH, OW, C_out)`` output
    directly, and bias and ReLU run over that contiguous buffer.  Each
    output row depends only on its own sample, so a batched run returns
    per image what a single-image run does, up to BLAS blocking.
    """
    c_in, h, w = in_shape
    c_out, oh, ow = out_shape
    kernel = int(node.attrs["kernel"])
    stride = int(node.attrs["stride"])
    padding = int(node.attrs["padding"])
    w_mat = node.gemm_weight()
    bias = node.weights.get("bias")
    relu = node.relu
    in_name = node.inputs[0]
    k_dim = kernel * kernel * c_in

    def run(env: dict[str, np.ndarray]) -> np.ndarray:
        x = env[in_name]
        n = x.shape[0]
        if padding:
            xp = _pad_into(arena.acquire((n, h + 2 * padding, w + 2 * padding, c_in)),
                           x, padding, 0.0)
        else:
            xp = x
        cols = _im2col_into(arena.acquire((n, oh, ow, kernel, kernel, c_in)), xp, kernel, stride)
        if padding:
            arena.release(xp)
        out = arena.acquire((n, oh, ow, c_out))
        np.matmul(cols.reshape(-1, k_dim), w_mat, out=out.reshape(-1, c_out))
        arena.release(cols)
        if bias is not None:
            out += bias
        if relu:
            np.maximum(out, 0.0, out=out)
        return out

    return run


def _bind_gemm(node: PlanNode, out_shape, arena: Arena):
    weight_k = node.gemm_weight()  # (in, out)
    bias = node.weights.get("bias")
    relu = node.relu
    in_name = node.inputs[0]
    out_features = out_shape[0]

    def run(env: dict[str, np.ndarray]) -> np.ndarray:
        x = env[in_name]
        out = arena.acquire((x.shape[0], out_features))
        np.matmul(x, weight_k, out=out)
        if bias is not None:
            out += bias
        if relu:
            np.maximum(out, 0.0, out=out)
        return out

    return run


def _bind_batch_norm(node: PlanNode, arena: Arena, inplace: bool):
    scale = node.weights["scale"]  # (C,) broadcasts over the channels-last axis
    shift = node.weights["shift"]
    relu = node.relu
    in_name = node.inputs[0]

    def run(env: dict[str, np.ndarray]) -> np.ndarray:
        x = env[in_name]
        out = x if inplace else arena.acquire(x.shape)
        np.multiply(x, scale, out=out)
        out += shift
        if relu:
            np.maximum(out, 0.0, out=out)
        return out

    return run


def _bind_relu(node: PlanNode, arena: Arena, inplace: bool):
    in_name = node.inputs[0]

    def run(env: dict[str, np.ndarray]) -> np.ndarray:
        x = env[in_name]
        out = x if inplace else arena.acquire(x.shape)
        np.maximum(x, 0.0, out=out)
        return out

    return run


def _bind_add(node: PlanNode, arena: Arena, inplace_name: str | None):
    a_name, b_name = node.inputs
    relu = node.relu

    def run(env: dict[str, np.ndarray]) -> np.ndarray:
        a, b = env[a_name], env[b_name]
        out = env[inplace_name] if inplace_name is not None else arena.acquire(a.shape)
        np.add(a, b, out=out)
        if relu:
            np.maximum(out, 0.0, out=out)
        return out

    return run


def _pool_windows(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """``(N, OH, OW, C, k, k)`` pooling windows of a channels-last batch."""
    return sliding_window_view(x, (kernel, kernel), axis=(1, 2))[:, ::stride, ::stride]


def _bind_max_pool(node: PlanNode, out_shape, arena: Arena):
    kernel = int(node.attrs["kernel"])
    stride = int(node.attrs["stride"])
    average = bool(node.attrs.get("average"))
    c, oh, ow = out_shape
    in_name = node.inputs[0]

    def run(env: dict[str, np.ndarray]) -> np.ndarray:
        x = env[in_name]
        windows = _pool_windows(x, kernel, stride)
        out = arena.acquire((x.shape[0], oh, ow, c))
        if average:
            np.mean(windows, axis=(-2, -1), dtype=np.float32, out=out)
        else:
            np.max(windows, axis=(-2, -1), out=out)
        return out

    return run


def _bind_global_avg_pool(node: PlanNode, out_shape, arena: Arena):
    in_name = node.inputs[0]
    channels = out_shape[0]

    def run(env: dict[str, np.ndarray]) -> np.ndarray:
        x = env[in_name]
        out = arena.acquire((x.shape[0], channels))
        np.mean(x, axis=(1, 2), dtype=np.float32, out=out)
        return out

    return run


def _bind_flatten(node: PlanNode, in_shape, out_shape, arena: Arena):
    in_name = node.inputs[0]
    flat = out_shape[0]

    def run(env: dict[str, np.ndarray]) -> np.ndarray:
        x = env[in_name]
        out = arena.acquire((x.shape[0], flat))
        # Flatten in the logical (C, H, W) order, whatever the carrier.
        np.copyto(out.reshape(x.shape[0], *in_shape), channels_last(x, inverse=True))
        return out

    return run


# --------------------------------------------------------------------------
# integer kernel binding
# --------------------------------------------------------------------------


def _quantized_codes_matrix(node: PlanNode) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The node's weight codes in GEMM form, cached across plan replicas.

    Returns ``(codes_f32, scales, col_sums)``: the int8 codes as the
    ``(K, C_out)`` right-hand operand (:func:`~repro.deploy.passes.gemm_matrix`,
    the same K order as the fp32 kernels) pre-converted to float32 (the
    carrier dtype of the exact SGEMM trick — see
    :mod:`repro.deploy.qkernels`), the per-output-channel scales
    (float64), and the per-channel code sums used by the zero-point
    fold.  No ``dequantized()`` call happens here: the f32 matrix holds
    integer *codes*, not reconstructed weights, so the lazy-weight
    invariant (zero dequantized fp32 copies on the quantized path) is
    preserved.
    """
    mat = node.weights.get("w_codes_f32")
    if mat is None:
        qw = node.qweight
        mat = gemm_matrix(qw.data).astype(np.float32)
        node.weights["w_codes_f32"] = mat
        node.weights["w_scales"] = qw.channel_scales()
        node.weights["w_col_sums"] = mat.sum(axis=0, dtype=np.float64)
    return mat, node.weights["w_scales"], node.weights["w_col_sums"]


def _requant_operands(node: PlanNode, s_in: float, s_w: np.ndarray):
    """``(m0, shift, bias_q)`` of a uint8-output Conv/Gemm, for both int8 kernels.

    The per-channel Q31 multiplier of ``s_in * s_w / s_out`` and the bias
    rounded to accumulator units (``None`` without a bias).
    """
    m0, shift = quantize_multipliers(s_in * s_w / node.qconfig["output"].scale)
    bias = node.weights.get("bias")
    bias_q = None if bias is None else np.round(bias.astype(np.float64) / (s_in * s_w))
    return m0, shift, bias_q


def _make_int_epilogue(node: PlanNode, s_in: float, s_w: np.ndarray, arena: Arena):
    """Epilogue closure for integer Conv/Gemm accumulators.

    Maps the exact float64 accumulator (channels last; zero-point
    already folded, bias not yet) to the kernel's output:

    - quantized output (``qconfig["output"]`` set): int32 bias fold +
      gemmlowp fixed-point requantization to uint8 codes (fused ReLU is
      a clamp at the output zero point);
    - float32 epilogue (``output`` is None): per-channel dequant scale
      ``s_in * s_w[c]`` plus the fp32 bias and ReLU.

    The closure takes ownership of (and releases) ``acc``.  The native
    kernel's epilogue (:func:`_native_layer`) repeats this arithmetic.
    """
    q_out = node.qconfig["output"]
    bias = node.weights.get("bias")
    relu = node.relu
    if q_out is not None:
        m0, shift, bias_q = _requant_operands(node, s_in, s_w)
        zp_out = int(q_out.zero_point)

        def finish(acc: np.ndarray) -> np.ndarray:
            if bias_q is not None:
                acc += bias_q
            acc_i64 = arena.acquire(acc.shape, np.int64)
            np.copyto(acc_i64, acc, casting="unsafe")
            arena.release(acc)
            om = arena.acquire(acc_i64.shape, np.uint8)
            requantize(acc_i64, m0, shift, zp_out, relu=relu, out=om, axis=-1)
            arena.release(acc_i64)
            return om

        return finish

    scale = s_in * s_w  # float64 (C,)
    bias_f32 = None if bias is None else bias.astype(np.float32)

    def finish(acc: np.ndarray) -> np.ndarray:
        om = arena.acquire(acc.shape)
        np.multiply(acc, scale, out=om)
        arena.release(acc)
        if bias_f32 is not None:
            om += bias_f32
        if relu:
            np.maximum(om, 0.0, out=om)
        return om

    return finish


def _native_layer(node: PlanNode, s_in: float, zp_in: int, k: int, n: int) -> native.Layer:
    """The node's ``qn_layer`` (``k`` x ``n`` GEMM) for the native kernel.

    The packed weight codes (:func:`repro.deploy.native.pack_weights`)
    and the per-channel epilogue vectors are computed once and cached in
    ``node.weights``, like ``weight_k``, so plan replicas and
    shared-memory workers share them; no float32 code carrier is built.
    The vectors hold the operands :func:`_make_int_epilogue` computes
    with, zero-padded to the packed channel count:

    - ``q_f64``: ``zp_in * col_sums``, then either the rounded bias in
      accumulator units (uint8 output) or the dequantization scale
      ``s_in * s_w`` (float32 output);
    - ``q_i64`` (uint8 output): the Q31 mantissa, the round-half-up term
      and the total right shift of :func:`~repro.deploy.qkernels.requantize`;
    - ``q_bias`` (float32 output with a bias): the fp32 bias.
    """
    weights = node.weights
    q_out = node.qconfig["output"]
    if "w_packed" not in weights:
        codes = gemm_matrix(node.qweight.data)
        s_w = node.qweight.channel_scales()
        weights["w_packed"] = native.pack_weights(codes)
        width = 16 * weights["w_packed"].shape[0]

        def padded(dtype, *rows):
            block = np.zeros((len(rows), width), dtype)
            for i, row in enumerate(rows):
                block[i, : len(row)] = row
            return block

        zp_term = zp_in * codes.sum(axis=0, dtype=np.int64).astype(np.float64)
        if q_out is not None:
            m0, shift, bias_q = _requant_operands(node, s_in, s_w)
            total = 31 + shift
            weights["q_f64"] = padded(np.float64, zp_term,
                                      np.zeros_like(s_w) if bias_q is None else bias_q)
            weights["q_i64"] = padded(np.int64, m0, np.left_shift(1, total - 1), total)
        else:
            weights["q_f64"] = padded(np.float64, zp_term, s_in * s_w)
            if "bias" in weights:
                weights["q_bias"] = padded(np.float32, weights["bias"].astype(np.float32))[0]
    packed, q_f64 = weights["w_packed"], weights["q_f64"]
    q_i64, q_bias = weights.get("q_i64"), weights.get("q_bias")
    m0, rnd, total = (None,) * 3 if q_i64 is None else (row.ctypes.data for row in q_i64)
    zp_out = 0 if q_out is None else int(q_out.zero_point)
    layer = native.Layer(
        w=packed.ctypes.data, zp_term=q_f64[0].ctypes.data, f64=q_f64[1].ctypes.data,
        bias=None if q_bias is None else q_bias.ctypes.data, m0=m0, rnd=rnd, total=total,
        k=k, n=n, zp_out=zp_out, lo=zp_out if node.relu else 0,
        out_kind=native.OUT_F32 if q_out is None else native.OUT_U8, relu=int(node.relu),
    )
    layer.arrays = (packed, q_f64, q_i64, q_bias)  # native code reads them via the layer
    return layer


def _bind_qconv(node: PlanNode, in_shape, out_shape, arena: Arena, in_form: str):
    """Bind a (fused) Conv to the true-int8 QLinearConv-style kernel.

    The activation side runs in the quantized domain end to end: uint8
    codes in (quantized on the fly when the producer is fp32), the same
    position-major im2col as the fp32 kernel over codes with the padding
    filled at the input *zero point*, an exact integer GEMM, and either
    a requantized uint8 output (when every consumer reads codes) or a
    float32 epilogue.  BatchNorm is already folded into the integer
    weights by :func:`repro.deploy.passes.fold_batch_norm`; fused ReLU
    rides the epilogue.

    The GEMM and its epilogue run natively (:mod:`repro.deploy.native`:
    VNNI over uint8 columns, epilogue fused) when the library loaded,
    and otherwise as the chunked float32-carrier GEMM of
    :mod:`repro.deploy.qkernels` plus :func:`_make_int_epilogue`; both
    produce the same bits.
    """
    c_in, h, w = in_shape
    c_out, oh, ow = out_shape
    kernel = int(node.attrs["kernel"])
    stride = int(node.attrs["stride"])
    padding = int(node.attrs["padding"])
    q_in = node.qconfig["input"]
    s_in, zp_in = float(q_in.scale), int(q_in.zero_point)
    in_name = node.inputs[0]
    k_dim = kernel * kernel * c_in

    def columns(x: np.ndarray, dtype) -> np.ndarray:
        """The ``(N, OH, OW, k, k, C)`` im2col of the input codes, as ``dtype``."""
        n = x.shape[0]
        if in_form == "u8":
            codes = x
        else:
            codes = arena.acquire((n, h, w, c_in), np.uint8)
            scratch = arena.acquire((n, h, w, c_in))
            quantize_into(x, s_in, zp_in, codes, scratch)
            arena.release(scratch)
        if padding:
            # The input zero point is the integer representation of 0.0.
            xp = arena.acquire((n, h + 2 * padding, w + 2 * padding, c_in), np.uint8)
            _pad_into(xp, codes, padding, zp_in)
            if in_form != "u8":
                arena.release(codes)
        else:
            xp = codes
        cols = _im2col_into(arena.acquire((n, oh, ow, kernel, kernel, c_in), dtype),
                            xp, kernel, stride)
        if padding or in_form != "u8":
            arena.release(xp)
        return cols

    lib = native.load()
    if lib is not None:
        layer = ctypes.byref(_native_layer(node, s_in, zp_in, k_dim, c_out))
        out_dtype = np.float32 if node.qconfig["output"] is None else np.uint8

        def run(env: dict[str, np.ndarray]) -> np.ndarray:
            cols = columns(env[in_name], np.uint8)
            n = cols.shape[0]
            out = arena.acquire((n, oh, ow, c_out), out_dtype)
            lib.qn_gemm(layer, cols.ctypes.data, n * oh * ow, out.ctypes.data)
            arena.release(cols)
            return out

        return run

    w_mat, s_w, col_sums = _quantized_codes_matrix(node)
    finish = _make_int_epilogue(node, s_in, s_w, arena)
    zp_term = zp_in * col_sums  # float64 (C_out,), exact

    def run(env: dict[str, np.ndarray]) -> np.ndarray:
        # im2col straight into integer-valued float32 (the cast fuses
        # into the gather copy; K-panels then slice with no copy).
        cols = columns(env[in_name], np.float32)
        n = cols.shape[0]
        acc = arena.acquire((n, oh, ow, c_out), np.float64)
        part = arena.acquire((n, oh, ow, c_out))
        chunked_int_gemm(cols.reshape(-1, k_dim), w_mat,
                         acc.reshape(-1, c_out), part.reshape(-1, c_out))
        arena.release(cols)
        arena.release(part)
        acc -= zp_term
        return finish(acc)

    return run


def _bind_qgemm(node: PlanNode, in_shape, out_shape, arena: Arena, in_form: str):
    """Bind a Gemm to the int8 kernel (same recipe as :func:`_bind_qconv`)."""
    k_in = in_shape[0]
    out_features = out_shape[0]
    q_in = node.qconfig["input"]
    s_in, zp_in = float(q_in.scale), int(q_in.zero_point)
    in_name = node.inputs[0]

    lib = native.load()
    if lib is not None:
        layer = ctypes.byref(_native_layer(node, s_in, zp_in, k_in, out_features))
        out_dtype = np.float32 if node.qconfig["output"] is None else np.uint8

        def run(env: dict[str, np.ndarray]) -> np.ndarray:
            x = env[in_name]
            n = x.shape[0]
            if in_form == "u8":
                codes = np.ascontiguousarray(x)
            else:
                codes = arena.acquire((n, k_in), np.uint8)
                scratch = arena.acquire((n, k_in))
                quantize_into(x, s_in, zp_in, codes, scratch)
                arena.release(scratch)
            out = arena.acquire((n, out_features), out_dtype)
            lib.qn_gemm(layer, codes.ctypes.data, n, out.ctypes.data)
            if in_form != "u8":
                arena.release(codes)
            return out

        return run

    w_mat, s_w, col_sums = _quantized_codes_matrix(node)
    finish = _make_int_epilogue(node, s_in, s_w, arena)
    zp_term = zp_in * col_sums

    def run(env: dict[str, np.ndarray]) -> np.ndarray:
        x = env[in_name]
        n = x.shape[0]
        cols = arena.acquire((n, k_in))
        if in_form == "u8":
            np.copyto(cols, x)
        else:
            np.divide(x, s_in, out=cols)
            np.rint(cols, out=cols)
            cols += zp_in
            np.clip(cols, 0.0, 255.0, out=cols)
        acc = arena.acquire((n, out_features), np.float64)
        part = arena.acquire((n, out_features))
        chunked_int_gemm(cols, w_mat, acc, part)
        arena.release(cols)
        arena.release(part)
        acc -= zp_term
        return finish(acc)

    return run


def _bind_qadd(node: PlanNode, arena: Arena, inplace_name: str | None):
    """Bind a residual Add over uint8 inputs.

    With a quantized output the two operands are rescaled onto the
    output grid by independent fixed-point multipliers and summed in
    int64 (each term rounds once — a <= 1 ULP difference from the
    fp32 reference, inside the certification tolerance); the native
    ``qn_add`` runs the same arithmetic when the library loaded.  With a
    float32 epilogue both operands dequantize and the add runs in fp32.
    """
    q_a, q_b = node.qconfig["input"], node.qconfig["input_b"]
    q_out = node.qconfig["output"]
    relu = node.relu
    a_name, b_name = node.inputs
    za, zb = int(q_a.zero_point), int(q_b.zero_point)

    if q_out is not None:
        m0a, sha = quantize_multiplier(q_a.scale / q_out.scale)
        m0b, shb = quantize_multiplier(q_b.scale / q_out.scale)
        ta, tb = 31 + sha, 31 + shb
        zo = int(q_out.zero_point)
        lo = zo if relu else 0

        lib = native.load()
        if lib is not None:
            params = (ctypes.c_int64 * 10)(
                za, zb, m0a, m0b, 1 << (ta - 1), 1 << (tb - 1), ta, tb, zo, lo)

            def run(env: dict[str, np.ndarray]) -> np.ndarray:
                a, b = env[a_name], env[b_name]
                out = env[inplace_name] if inplace_name is not None else arena.acquire(
                    a.shape, np.uint8
                )
                lib.qn_add(a.ctypes.data, b.ctypes.data, out.ctypes.data, a.size, params)
                return out

            return run

        def run(env: dict[str, np.ndarray]) -> np.ndarray:
            a, b = env[a_name], env[b_name]
            ra = (a.astype(np.int64) - za) * m0a
            ra += 1 << (ta - 1)
            ra >>= ta
            rb = (b.astype(np.int64) - zb) * m0b
            rb += 1 << (tb - 1)
            rb >>= tb
            ra += rb
            ra += zo
            np.clip(ra, lo, 255, out=ra)
            out = env[inplace_name] if inplace_name is not None else arena.acquire(
                a.shape, np.uint8
            )
            out[...] = ra
            return out

        return run

    sa, sb = float(q_a.scale), float(q_b.scale)

    def run(env: dict[str, np.ndarray]) -> np.ndarray:
        a, b = env[a_name], env[b_name]
        out = arena.acquire(a.shape)
        out[...] = a
        out -= za
        out *= sa
        tmp = arena.acquire(b.shape)
        tmp[...] = b
        tmp -= zb
        tmp *= sb
        out += tmp
        arena.release(tmp)
        if relu:
            np.maximum(out, 0.0, out=out)
        return out

    return run


def _dequant_epilogue(out: np.ndarray, scale: float, zero_point: int) -> np.ndarray:
    """In-place affine map from codes (already cast to f32) to values."""
    out -= zero_point
    out *= scale
    return out


def _bind_qmax_pool(node: PlanNode, out_shape, arena: Arena):
    """MaxPool over uint8 codes (max commutes with the affine map)."""
    kernel = int(node.attrs["kernel"])
    stride = int(node.attrs["stride"])
    c, oh, ow = out_shape
    q_in = node.qconfig["input"]
    q_out = node.qconfig["output"]
    in_name = node.inputs[0]

    def run(env: dict[str, np.ndarray]) -> np.ndarray:
        x = env[in_name]
        dtype = np.uint8 if q_out is not None else np.float32
        out = arena.acquire((x.shape[0], oh, ow, c), dtype)
        np.max(_pool_windows(x, kernel, stride), axis=(-2, -1), out=out)
        if q_out is None:
            _dequant_epilogue(out, float(q_in.scale), int(q_in.zero_point))
        return out

    return run


def _bind_qrelu(node: PlanNode, arena: Arena, inplace: bool):
    """Standalone ReLU on codes: a clamp at the input zero point."""
    q_in = node.qconfig["input"]
    q_out = node.qconfig["output"]
    zp = int(q_in.zero_point)
    in_name = node.inputs[0]

    def run(env: dict[str, np.ndarray]) -> np.ndarray:
        x = env[in_name]
        if q_out is not None:
            out = x if inplace else arena.acquire(x.shape, np.uint8)
            np.maximum(x, zp, out=out)
            return out
        out = arena.acquire(x.shape)
        np.maximum(x, zp, out=out)
        return _dequant_epilogue(out, float(q_in.scale), zp)

    return run


def _bind_qflatten(node: PlanNode, in_shape, out_shape, arena: Arena):
    """Flatten on codes: a reshape copy (plus dequant when leaving u8)."""
    flat = out_shape[0]
    q_in = node.qconfig["input"]
    q_out = node.qconfig["output"]
    in_name = node.inputs[0]

    def run(env: dict[str, np.ndarray]) -> np.ndarray:
        x = env[in_name]
        dtype = np.uint8 if q_out is not None else np.float32
        out = arena.acquire((x.shape[0], flat), dtype)
        np.copyto(out.reshape(x.shape[0], *in_shape), channels_last(x, inverse=True))
        if q_out is None:
            _dequant_epilogue(out, float(q_in.scale), int(q_in.zero_point))
        return out

    return run


def _bind_qgap(node: PlanNode, out_shape, arena: Arena):
    """GlobalAveragePool over codes, emitting float32.

    The code sum over a <= 24x24 tile is at most 576 * 255 < 2^24, so a
    float32 accumulation is exact; only the final divide rounds.
    """
    channels = out_shape[0]
    q_in = node.qconfig["input"]
    s, zp = float(q_in.scale), int(q_in.zero_point)
    in_name = node.inputs[0]

    def run(env: dict[str, np.ndarray]) -> np.ndarray:
        x = env[in_name]
        out = arena.acquire((x.shape[0], channels))
        np.mean(x, axis=(1, 2), dtype=np.float32, out=out)
        return _dequant_epilogue(out, s, zp)

    return run


#: Default integer variant per lead op type (when the quantization
#: planner marked the node integer and no explicit choice overrides it).
_INTEGER_VARIANTS = {
    "Conv": "conv.im2col.int8",
    "Gemm": "gemm.int8",
    "Add": "add.int8",
    "MaxPool": "maxpool.u8",
    "GlobalAveragePool": "gap.u8",
    "Flatten": "flatten.u8",
    "Relu": "relu.u8",
}


def _resolve_variants(
    nodes: list[PlanNode], variant_map: dict[str, str]
) -> dict[str, str]:
    """Final node -> kernel-variant assignment.

    Explicit choices (:func:`autotune_variants` overrides, test
    overrides) are validated against
    :data:`~repro.latency.fusion.KERNEL_VARIANTS`; everything else
    defaults to the integer variant when
    :func:`~repro.deploy.passes.plan_quantization` marked the node
    integer, and to the op's fp32 variant otherwise.
    """
    resolved: dict[str, str] = {}
    for node in nodes:
        allowed = KERNEL_VARIANTS.get(node.op_type, ())
        forced = variant_map.get(node.name)
        if forced is not None:
            if forced not in allowed:
                raise ValueError(
                    f"unknown variant {forced!r} for {node.op_type} node "
                    f"{node.name!r}; expected one of {allowed}"
                )
            resolved[node.name] = forced
        elif node.qconfig:
            resolved[node.name] = _INTEGER_VARIANTS[node.op_type]
        else:
            resolved[node.name] = allowed[0] if allowed else f"{node.op_type.lower()}.f32"
    return resolved


@dataclass
class AutotuneResult:
    """The kernel-variant overrides for one model on this host.

    ``variants`` feeds straight into ``compile_plan(..., variants=...)``.
    """

    variants: dict[str, str] = field(default_factory=dict)


def autotune_variants(proto: ModelProto, batch: int = 1) -> AutotuneResult:
    """Choose int8 or fp32 Conv/Gemm kernels by which int8 kernels loaded.

    Where the native VNNI library of :mod:`repro.deploy.native` loaded,
    no layer is overridden, so :func:`compile_plan`'s int8 default on
    calibrated layers stands.  Otherwise every Conv and Gemm is forced
    to its fp32 variant: the NumPy int8 kernels run the same float32
    BLAS GEMM as fp32 (:func:`~repro.deploy.qkernels.chunked_int_gemm`)
    plus a quantize and a requantize epilogue, so they never win.

    The choice reads the platform, not a timing: per-layer int8 and fp32
    timings overlap, and picking between overlapping distributions from
    one sample picks by host noise.  ``batch`` does not affect the
    choice; it is accepted for callers that specialize a plan to one.
    """
    if native.load() is not None:
        return AutotuneResult()
    return AutotuneResult({
        op.name: KERNEL_VARIANTS[op.op_type][0]
        for op in proto.operators if op.op_type in ("Conv", "Gemm")
    })


def _bind_step(
    node: PlanNode,
    step: int,
    shapes: dict[str, tuple[int, ...]],
    release: list[list[str]],
    arena: Arena,
    forms: dict[str, str],
    variants: dict[str, str],
) -> PlanStep:
    """Resolve one fused node to a concrete closure + release schedule."""
    in_shape = shapes[node.inputs[0]]
    out_shape = shapes[node.output]
    kind = node.op_type
    variant = variants.get(node.name, "")
    in_form = forms.get(node.inputs[0], "f32")
    out_form = forms.get(node.output, "f32")
    drop: list[str] = []

    def claim_inplace() -> str | None:
        """Steal a dying, arena-owned input buffer for the output.

        Requires a matching carrier form: a uint8 code buffer must never
        be recycled in place as a float32 output (or vice versa) — the
        byte capacities differ and the view dtypes would lie.
        """
        for name in node.inputs:
            if (
                name != _INPUT
                and name in release[step]
                and shapes[name] == out_shape
                and forms.get(name, "f32") == out_form
            ):
                release[step].remove(name)
                drop.append(name)
                return name
        return None

    if kind == "Conv":
        if variant == "conv.im2col.int8":
            run = _bind_qconv(node, in_shape, out_shape, arena, in_form)
        else:
            run = _bind_conv(node, in_shape, out_shape, arena)
    elif kind == "Gemm":
        if variant == "gemm.int8":
            run = _bind_qgemm(node, in_shape, out_shape, arena, in_form)
        else:
            run = _bind_gemm(node, out_shape, arena)
    elif kind == "BatchNormalization":
        run = _bind_batch_norm(node, arena, inplace=claim_inplace() is not None)
    elif kind == "Relu":
        if variant == "relu.u8":
            run = _bind_qrelu(node, arena, inplace=claim_inplace() is not None)
        else:
            run = _bind_relu(node, arena, inplace=claim_inplace() is not None)
    elif kind == "Add":
        if variant == "add.int8":
            run = _bind_qadd(node, arena, inplace_name=claim_inplace())
        else:
            run = _bind_add(node, arena, inplace_name=claim_inplace())
    elif kind == "MaxPool":
        if variant == "maxpool.u8":
            run = _bind_qmax_pool(node, out_shape, arena)
        else:
            run = _bind_max_pool(node, out_shape, arena)
    elif kind == "GlobalAveragePool":
        if variant == "gap.u8":
            run = _bind_qgap(node, out_shape, arena)
        else:
            run = _bind_global_avg_pool(node, out_shape, arena)
    elif kind == "Flatten":
        if variant == "flatten.u8":
            run = _bind_qflatten(node, in_shape, out_shape, arena)
        else:
            run = _bind_flatten(node, in_shape, out_shape, arena)
    else:  # pragma: no cover - guarded by runtime op validation
        raise ValueError(f"cannot bind kernel for operator {kind!r}")

    return PlanStep(
        name=node.name,
        chain=node.chain,
        run=run,
        inputs=tuple(node.inputs),
        output=node.output,
        variant=variant,
        release=release[step],
        drop=drop,
    )


# --------------------------------------------------------------------------
# the plan
# --------------------------------------------------------------------------


class InferencePlan:
    """A compiled model: fused, pre-bound kernels over an arena.

    Built by :func:`compile_plan` (or
    :meth:`repro.deploy.runtime.OnnxliteRuntime.compile`); run with
    :meth:`run`.  The plan is specialized to the model's compile-time
    spatial input shape — only the batch dimension is dynamic.  The
    arena persists across calls, so steady-state inference performs no
    large allocations at all.
    """

    def __init__(
        self,
        name: str,
        input_shape: tuple[int, ...],
        steps: list[PlanStep],
        arena: Arena,
        shapes: dict[str, tuple[int, ...]],
        final_output: str,
        naive_tensor_shapes: list[tuple[int, ...]],
        blueprint: "_PlanBlueprint | None" = None,
        fingerprint: str = "",
    ) -> None:
        self.name = name
        self.input_shape = tuple(int(d) for d in input_shape)
        self.steps = steps
        self.arena = arena
        self.shapes = shapes
        self.final_output = final_output
        #: Stable identity of the compiled model (weights + topology);
        #: the serving plan cache keys on ``(fingerprint, batch bucket)``.
        self.fingerprint = fingerprint
        self._blueprint = blueprint
        self._naive_tensor_shapes = naive_tensor_shapes
        # Re-entrancy guard: one arena per plan means run() must never be
        # entered concurrently; the non-blocking lock turns such misuse
        # into ConcurrentPlanError instead of silent corruption.
        self._run_guard = threading.Lock()
        # Per-plan inference latency histogram (no-op while obs is
        # disabled; handle cached here so run() pays one flag check).
        self._latency = obs.histogram(
            "repro_inference_latency_seconds", plan=name, runtime="compiled"
        )

    # -- execution -------------------------------------------------------------

    def run(self, x: np.ndarray) -> np.ndarray:
        """Run inference on a batch of the compiled input shape.

        Not thread-safe: the plan owns one :class:`Arena`, so concurrent
        calls on the *same* plan raise :class:`ConcurrentPlanError`.
        For parallel serving, hand each worker its own
        :meth:`replicate` (weights stay shared; arenas are private).
        """
        started = time.perf_counter()
        x = np.asarray(x, dtype=np.float32)
        if x.ndim != 4 or tuple(x.shape[1:]) != self.input_shape:
            raise ValueError(
                f"plan compiled for input (N, {', '.join(map(str, self.input_shape))}); "
                f"got shape {tuple(x.shape)} — use the interpreted runtime for "
                f"other spatial sizes"
            )
        if not self._run_guard.acquire(blocking=False):
            raise ConcurrentPlanError(
                f"InferencePlan {self.name!r} entered concurrently; plans are "
                f"single-threaded — use InferencePlan.replicate() (or "
                f"repro.serve.PlanServer) to run batches in parallel"
            )
        try:
            env: dict[str, np.ndarray] = {_INPUT: channels_last(x)}
            arena = self.arena
            for step in self.steps:
                env[step.output] = step.run(env)
                for name in step.release:
                    arena.release(env.pop(name))
                for name in step.drop:
                    env.pop(name)
            result = env.pop(self.final_output)
            out = result.copy()
            arena.release(result)
        finally:
            self._run_guard.release()
        self._latency.observe(time.perf_counter() - started)
        return out

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Class predictions (argmax of the logits)."""
        return self.run(x).argmax(axis=1)

    # -- replication ----------------------------------------------------------

    def replicate(self, poison: bool | None = None) -> "InferencePlan":
        """A new plan over the *same weights* with a private arena.

        Replicas are how concurrent serving scales out: the fused
        weight matrices are captured by reference when the blueprint
        re-binds its kernels (``ascontiguousarray`` on the already
        contiguous folded weights is a no-copy pass-through), so N
        replicas cost N arenas of activation scratch but only one copy
        of the model parameters.

        Parameters
        ----------
        poison:
            Debug NaN-poisoning for the replica's arena; defaults to the
            source plan's setting.
        """
        if self._blueprint is None:
            raise ValueError(
                "plan was constructed without a blueprint and cannot be "
                "replicated; build it via compile_plan()"
            )
        if poison is None:
            poison = self.arena.poison
        return self._blueprint.bind(poison=poison)

    # -- introspection --------------------------------------------------------------

    @property
    def blueprint(self) -> "_PlanBlueprint | None":
        """The bind-time blueprint (``None`` for hand-built plans).

        Exposed for the serving tier: :mod:`repro.serve.shm` publishes
        the blueprint's node weight table into shared memory and rebinds
        it in worker processes onto zero-copy views, so replicas in
        *other processes* cost arenas only — the same deal
        :meth:`replicate` gives threads.
        """
        return self._blueprint

    @property
    def num_kernels(self) -> int:
        """Number of compiled dispatches per forward pass."""
        return len(self.steps)

    def kernel_chains(self) -> list[tuple[str, ...]]:
        """The fused op-type chain of every step, in execution order."""
        return [step.chain for step in self.steps]

    def kernel_variants(self) -> dict[str, str]:
        """Step name -> bound kernel-variant name, in execution order.

        Every value is a member of
        :data:`repro.latency.fusion.KERNEL_VARIANTS` — the contract that
        keeps latency/energy prediction and execution joined.
        """
        return {step.name: step.variant for step in self.steps}

    def planned_peak_bytes(self, batch: int = 1) -> int:
        """Static peak of live intermediate bytes under the release plan."""
        live: dict[str, int] = {}
        peak = 0
        for step in self.steps:
            live[step.output] = 4 * batch * int(math.prod(self.shapes[step.output]))
            peak = max(peak, sum(live.values()))
            for name in (*step.release, *step.drop):
                live.pop(name, None)
        return peak

    def naive_env_bytes(self, batch: int = 1) -> int:
        """Bytes the interpreted runtime keeps live (every activation)."""
        return sum(4 * batch * int(math.prod(s)) for s in self._naive_tensor_shapes)

    def memory_stats(self) -> dict[str, int]:
        """Arena counters (measured over all runs so far)."""
        return {
            "peak_bytes": self.arena.peak_bytes,
            "current_bytes": self.arena.current_bytes,
            "pooled_bytes": self.arena.pooled_bytes,
            "allocations": self.arena.allocations,
            "reuses": self.arena.reuses,
        }

    def describe(self) -> str:
        """Human-readable step table (kernel chain, shapes, releases)."""
        lines = [f"InferencePlan {self.name!r}: {self.num_kernels} kernels, "
                 f"input (N, {', '.join(map(str, self.input_shape))})"]
        for step in self.steps:
            chain = "+".join(step.chain)
            out_shape = "x".join(map(str, self.shapes[step.output]))
            freed = f"  frees {sorted(step.release)}" if step.release else ""
            inplace = f"  in-place on {step.drop[0]!r}" if step.drop else ""
            lines.append(
                f"  {step.name:32s} {chain:34s} {step.variant:22s} -> "
                f"{out_shape}{freed}{inplace}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"InferencePlan(model={self.name!r}, kernels={self.num_kernels}, "
                f"input_shape={self.input_shape})")


@dataclass
class _PlanBlueprint:
    """Everything needed to (re)bind an :class:`InferencePlan`.

    :func:`compile_plan` runs the pass pipeline once and parks the
    result here; :meth:`bind` then stamps out executable plans — the
    original and any :meth:`InferencePlan.replicate` replicas — each
    with a private :class:`Arena` but sharing the fused weight arrays
    held by the :class:`~repro.deploy.passes.PlanNode` list.
    """

    name: str
    input_shape: tuple[int, ...]
    nodes: list[PlanNode]
    shapes: dict[str, tuple[int, ...]]
    #: Pristine liveness schedule; bind() hands each plan its own copy
    #: because ``claim_inplace`` mutates the per-step release lists.
    release: list[list[str]]
    final_output: str
    naive_tensor_shapes: list[tuple[int, ...]]
    fingerprint: str
    #: Per-tensor carrier form ("u8" | "f32") from plan_quantization.
    forms: dict[str, str] = field(default_factory=dict)
    #: Resolved node -> kernel-variant assignment; replicas re-bind the
    #: exact same variants, so explicit overrides survive replication.
    variants: dict[str, str] = field(default_factory=dict)

    def bind(self, poison: bool = False) -> InferencePlan:
        """Bind the kernels to a fresh arena and return a runnable plan."""
        arena = Arena(poison=poison)
        release = [list(names) for names in self.release]
        steps = [
            _bind_step(node, i, self.shapes, release, arena, self.forms, self.variants)
            for i, node in enumerate(self.nodes)
        ]
        return InferencePlan(
            name=self.name,
            input_shape=self.input_shape,
            steps=steps,
            arena=arena,
            shapes=self.shapes,
            final_output=self.final_output,
            naive_tensor_shapes=self.naive_tensor_shapes,
            blueprint=self,
            fingerprint=self.fingerprint,
        )


def compile_plan(
    proto: ModelProto,
    weights: dict[str, np.ndarray] | None = None,
    *,
    poison: bool = False,
    variants: "dict[str, str] | None" = None,
) -> InferencePlan:
    """Compile a model proto into an :class:`InferencePlan`.

    Parameters
    ----------
    proto:
        The deserialized model.  Quantized payloads stay as integer codes
        and are dequantized lazily, per consumer — only layers bound to
        an fp32 kernel variant materialize an fp32 weight copy.  A model
        carrying an activation-calibration table (see
        :func:`repro.quant.calibrate.calibrate_activations`) compiles
        its eligible layers onto the true-int8 kernel path by default.
    weights:
        Optional initializer table (name -> float32 array, or a
        :class:`~repro.deploy.weights.LazyWeightTable`);
        :class:`~repro.deploy.runtime.OnnxliteRuntime` passes its own so
        the two paths share one load step.
    poison:
        Debug mode: fill released arena buffers with NaN to surface any
        read-after-free in the release schedule (see :class:`Arena`).
    variants:
        Optional node-name -> kernel-variant overrides (names from
        :data:`repro.latency.fusion.KERNEL_VARIANTS`) — how
        :func:`autotune_variants` and A/B comparisons pick non-default
        kernels, e.g. ``{"conv1": "conv.im2col.f32"}``.  Unknown names,
        or an integer variant without the required quantization
        payloads, raise ``ValueError``.
    """
    if not proto.operators:
        raise ValueError("model has no operators")
    if weights is None:
        weights = LazyWeightTable(proto)
    final_output = proto.operators[-1].outputs[0]
    nodes = build_plan_nodes(proto, weights)

    # Static naive footprint (pre-fusion): one live tensor per operator.
    naive_shapes = list(
        infer_shapes(toposort_nodes(nodes), proto.input_shape).values()
    )

    nodes = fuse_operators(nodes)
    nodes = toposort_nodes(nodes)
    shapes = infer_shapes(nodes, proto.input_shape)
    forms = plan_quantization(nodes, proto, variant_map=variants)
    resolved = _resolve_variants(nodes, dict(variants or {}))
    release, _ = compute_liveness(nodes, final_output=final_output)

    blueprint = _PlanBlueprint(
        name=proto.name,
        input_shape=proto.input_shape,
        nodes=nodes,
        shapes=shapes,
        release=release,
        final_output=final_output,
        naive_tensor_shapes=naive_shapes,
        fingerprint=proto.fingerprint(),
        forms=forms,
        variants=resolved,
    )
    return blueprint.bind(poison=poison)
