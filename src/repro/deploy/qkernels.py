"""Integer kernel primitives: exact int32 GEMM and fixed-point requantization.

These are the NumPy int8 kernels: the only int8 path on hosts without a
C compiler or AVX-512 VNNI, and the bitwise reference for the native
kernels of :mod:`repro.deploy.native`, which bind instead wherever that
library loads and compute the same outputs (``qnative.c`` repeats the
arithmetic below in the same order).

The int8 inference path follows the QLinearConv/QLinearGemm recipe every
edge runtime (TFLite, ONNX Runtime, OpenVINO) implements:

    acc[c]  = sum_k W_q[c, k] * A_q[k]            (int32)
    acc[c] += bias_q[c] - zp_in * rowsum(W_q)[c]  (zero-point fold)
    out[c]  = requantize(acc[c]) = clip(round(acc * M_c) + zp_out)

with the per-channel real multiplier ``M_c = s_in * s_w[c] / s_out``
expressed as a Q31 fixed-point mantissa plus a right shift
(:func:`quantize_multiplier`, the gemmlowp convention), so the whole
kernel is integer arithmetic end to end.

**Exact integer accumulation over BLAS.** NumPy's integer ``matmul``
bypasses BLAS entirely (it runs a generic inner loop, an order of
magnitude slower than SGEMM), so the int32 accumulation here rides the
float32 GEMM instead — validly: int8 x uint8 products are bounded by
``127 * 255 = 32 385``, so any partial sum over a K-panel of at most
:data:`K_CHUNK` = 512 terms is bounded by ``512 * 32 385 = 16.6M <
2^24``, inside the float32 mantissa.  Every intermediate a float32 GEMM
can form (any summation order, FMA or not) is therefore an exactly
representable integer, and chunking K at 512 with float64 accumulation
across chunks (exact below 2^53) yields the bit-exact int32 result of a
true integer GEMM — at SGEMM speed.  ``tests/test_qkernels.py`` checks
this against ``np.matmul`` on int64 across fuzzed shapes.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "K_CHUNK",
    "quantize_multiplier",
    "quantize_multipliers",
    "requantize",
    "chunked_int_gemm",
    "quantize_into",
]

#: K-panel bound keeping every float32 partial sum exactly representable:
#: 512 * 127 * 255 = 16 581 120 < 2^24 = 16 777 216.
K_CHUNK = 512


def quantize_multiplier(m: float) -> tuple[int, int]:
    """A positive real multiplier as (Q31 mantissa, right shift).

    Returns ``(m0, shift)`` with ``m = m0 * 2^-31 * 2^-shift`` and
    ``m0`` in ``[2^30, 2^31)`` — gemmlowp's normalized fixed-point form.
    Requantization then computes ``round(acc * m)`` as
    ``(acc * m0 + round_bias) >> (31 + shift)`` in int64.
    """
    if not (m > 0) or not math.isfinite(m):
        raise ValueError(f"multiplier must be positive and finite, got {m}")
    mantissa, exponent = math.frexp(m)  # m = mantissa * 2^exponent, mantissa in [0.5, 1)
    m0 = int(round(mantissa * (1 << 31)))
    if m0 == (1 << 31):  # mantissa rounded up to 1.0
        m0 >>= 1
        exponent += 1
    shift = -exponent
    if 31 + shift < 1:
        raise ValueError(f"multiplier {m} too large for Q31 requantization")
    return m0, shift


def quantize_multipliers(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`quantize_multiplier` over a channel vector."""
    pairs = [quantize_multiplier(float(v)) for v in np.asarray(m, dtype=np.float64)]
    m0 = np.array([p[0] for p in pairs], dtype=np.int64)
    shift = np.array([p[1] for p in pairs], dtype=np.int64)
    return m0, shift


def requantize(
    acc: np.ndarray,
    m0: np.ndarray,
    shift: np.ndarray,
    zero_point: int,
    relu: bool = False,
    out: np.ndarray | None = None,
    axis: int = 0,
) -> np.ndarray:
    """int32 accumulators -> uint8 codes via fixed-point rescale.

    ``m0``/``shift`` are per-channel vectors broadcast along ``axis`` of
    ``acc`` (or scalars).  Rounds half up — a <= 1 ULP difference from
    round-half-even on exact ties, well inside the certification
    tolerance.  ``relu`` clamps at the output zero point (ReLU in the
    quantized domain).
    """
    acc64 = acc.astype(np.int64, copy=False)
    if np.ndim(m0) > 0:
        col_shape = [1] * acc.ndim
        col_shape[axis] = -1
        m0 = np.asarray(m0, dtype=np.int64).reshape(col_shape)
        shift = np.asarray(shift, dtype=np.int64).reshape(col_shape)
    total = 31 + np.asarray(shift, dtype=np.int64)
    t = acc64 * m0
    t += np.left_shift(1, total - 1)  # round half up
    t >>= total
    t += zero_point
    lo = zero_point if relu else 0
    np.clip(t, lo, 255, out=t)
    if out is None:
        return t.astype(np.uint8)
    out[...] = t
    return out


def chunked_int_gemm(
    lhs_f32: np.ndarray,
    rhs_f32: np.ndarray,
    acc: np.ndarray,
    part_f32: np.ndarray,
) -> np.ndarray:
    """Exact ``lhs @ rhs`` integer GEMM over float32 BLAS panels.

    One operand holds int8 codes in [-128, 127], the other uint8 codes in
    [0, 255], both as *integer-valued* float32 (the compiled plan passes
    the ``(M, K)`` activation columns — their conversion fused into the
    im2col gather — and the ``(K, C)`` weight codes).

    Parameters
    ----------
    lhs_f32, rhs_f32:
        ``(M, K)`` and ``(K, C)`` code matrices.  K-panels are plain
        slices (a column slice of ``lhs`` is a strided BLAS operand), so
        no per-panel copy is made.
    acc:
        float64 ``(M, C)`` accumulator (arena scratch); overwritten with
        the exact integer result.
    part_f32:
        float32 ``(M, C)`` per-panel GEMM output scratch.

    Returns ``acc`` (float64 holding exact integers).
    """
    k = lhs_f32.shape[1]
    if k <= K_CHUNK:
        np.matmul(lhs_f32, rhs_f32, out=part_f32)
        acc[...] = part_f32
        return acc
    acc.fill(0.0)
    for k0 in range(0, k, K_CHUNK):
        k1 = min(k0 + K_CHUNK, k)
        np.matmul(lhs_f32[:, k0:k1], rhs_f32[k0:k1], out=part_f32)
        acc += part_f32
    return acc


def quantize_into(
    x: np.ndarray,
    scale: float,
    zero_point: int,
    out_u8: np.ndarray,
    scratch_f32: np.ndarray,
) -> np.ndarray:
    """Quantize a float32 tensor to uint8 codes, in preallocated buffers.

    The on-the-fly input quantization of integer kernels fed by fp32
    producers (the model input, or an fp32 neighbor layer).
    """
    np.divide(x, scale, out=scratch_f32)
    np.rint(scratch_f32, out=scratch_f32)
    scratch_f32 += zero_point
    np.clip(scratch_f32, 0.0, 255.0, out=scratch_f32)
    out_u8[...] = scratch_f32
    return out_u8
