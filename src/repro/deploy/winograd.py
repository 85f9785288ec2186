"""Winograd F(2x2, 3x3) convolution kernel for the compiled plan.

The minimal-filtering algorithm of Lavin & Gray: each 2x2 output tile is
computed from a 4x4 input tile with 16 multiplies instead of the 36 an
im2col GEMM spends — a 2.25x reduction in multiply count for stride-1
3x3 convolutions, the dominant layer type of the VGG-style search space.

    Y = A^T [ (G g G^T) . (B^T d B) ] A

with the F(2x2, 3x3) transform matrices

    B^T = [[1, 0, -1, 0], [0, 1, 1, 0], [0, -1, 1, 0], [0, 1, 0, -1]]
    G   = [[1, 0, 0], [1/2, 1/2, 1/2], [1/2, -1/2, 1/2], [0, 0, 1]]
    A^T = [[1, 1, 1, 0], [0, 1, -1, -1]]

The data path mirrors the plan's position-major im2col kernel and its
channels-last ``(N, H, W, C)`` activations: tiles from all samples merge
into one GEMM M dimension, the 16 tile components become a stacked
``(16, nT, C_in) @ (16, C_in, C_out)`` batched matmul whose rows are
tiles and whose columns are output channels, and the input/inverse
transforms are hardcoded add/subtract passes over contiguous channel
rows (B and A are 0/±1 matrices; only G carries halves, and those land
in the *weight* transform, precomputed once at bind time in float64).
The tile gather and the output scatter both move whole C-runs.

All workspaces come from the plan's :class:`~repro.deploy.plan.Arena`.
Odd output extents round the tile grid up; the kernel computes into a
full-tile buffer and crops the bottom/right overhang.  Numerically the
result differs from im2col only by float reassociation — certified
against it at tight ``atol`` in ``tests/test_qkernels.py``.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = ["WINOGRAD_VARIANT", "winograd_eligible", "transform_weight", "bind_winograd_conv"]

#: Variant name this module implements (must appear in
#: :data:`repro.latency.fusion.KERNEL_VARIANTS`).
WINOGRAD_VARIANT = "conv.winograd2x2.f32"

_G = np.array(
    [[1.0, 0.0, 0.0], [0.5, 0.5, 0.5], [0.5, -0.5, 0.5], [0.0, 0.0, 1.0]],
    dtype=np.float64,
)


def winograd_eligible(attrs: dict) -> bool:
    """Whether a Conv's geometry admits the F(2x2, 3x3) kernel."""
    return int(attrs.get("kernel", 0)) == 3 and int(attrs.get("stride", 0)) == 1


def transform_weight(weight: np.ndarray) -> np.ndarray:
    """Precompute ``U = G g G^T`` for every filter.

    ``weight`` is the (folded) fp32 conv weight as its ``(9·C_in, C_out)``
    GEMM operand, K order ``(kh, kw, c)`` (see
    :meth:`~repro.deploy.passes.PlanNode.gemm_weight`); returns
    ``(16, C_in, C_out)`` float32, the stacked per-component GEMM
    weights.  Computed in float64 so the 1/2 and 1/4 terms do not add
    f32 rounding on top of the unavoidable transform arithmetic.
    """
    k_dim, c_out = weight.shape
    g = weight.reshape(3, 3, k_dim // 9, c_out).astype(np.float64)
    u = np.einsum("ij,jkco,lk->ilco", _G, g, _G)
    return np.ascontiguousarray(u.reshape(16, k_dim // 9, c_out).astype(np.float32))


def bind_winograd_conv(node, in_shape, out_shape, arena):
    """Bind a stride-1 3x3 (fused) Conv to the Winograd kernel.

    Same closure contract as the im2col binder: reads the channels-last
    input from ``env``, draws every workspace from ``arena``, returns
    the ``(N, OH, OW, C_out)`` output buffer.
    """
    if not winograd_eligible(node.attrs):
        raise ValueError(f"node {node.name!r} is not Winograd-eligible: {node.attrs}")
    c_in, h, w = in_shape
    c_out, oh, ow = out_shape
    padding = int(node.attrs["padding"])
    # Transformed weights are cached on the node, so plan replicas share
    # one copy (exactly like the im2col path's weight matrix).
    u = node.weights.get("winograd_u")
    if u is None:
        u = transform_weight(node.gemm_weight())
        node.weights["winograd_u"] = u
    bias = node.weights.get("bias")
    relu = node.relu
    in_name = node.inputs[0]
    oht, owt = -(-oh // 2), -(-ow // 2)  # tile grid, rounded up
    hp, wp = 2 * oht + 2, 2 * owt + 2  # padded extent the tiles read
    exact = (2 * oht == oh) and (2 * owt == ow)

    def run(env: dict[str, np.ndarray]) -> np.ndarray:
        x = env[in_name]
        n = x.shape[0]
        nt = n * oht * owt  # total tiles, merged across the batch

        # Pad (conv padding + the bottom/right tile overhang), border-only.
        xp = arena.acquire((n, hp, wp, c_in))
        xp[:, :padding] = 0.0
        xp[:, padding + h :] = 0.0
        xp[:, padding : padding + h, :padding] = 0.0
        xp[:, padding : padding + h, padding + w :] = 0.0
        xp[:, padding : padding + h, padding : padding + w] = x

        # Gather 4x4 tiles at stride 2 into (4, 4, nT, C_in).
        tiles = arena.acquire((4, 4, nt, c_in))
        windows = sliding_window_view(xp, (4, 4), axis=(1, 2))[:, ::2, ::2]
        np.copyto(
            tiles.reshape(4, 4, n, oht, owt, c_in),
            windows.transpose(4, 5, 0, 1, 2, 3),
        )
        arena.release(xp)

        # Input transform V = B^T d B, hardcoded (B is 0/±1).
        tmp = arena.acquire((4, 4, nt, c_in))
        np.subtract(tiles[0], tiles[2], out=tmp[0])
        np.add(tiles[1], tiles[2], out=tmp[1])
        np.subtract(tiles[2], tiles[1], out=tmp[2])
        np.subtract(tiles[1], tiles[3], out=tmp[3])
        v = tiles  # second pass writes back into the tile buffer
        np.subtract(tmp[:, 0], tmp[:, 2], out=v[:, 0])
        np.add(tmp[:, 1], tmp[:, 2], out=v[:, 1])
        np.subtract(tmp[:, 2], tmp[:, 1], out=v[:, 2])
        np.subtract(tmp[:, 1], tmp[:, 3], out=v[:, 3])
        arena.release(tmp)

        # 16 stacked GEMMs: M[i] = V[i] @ U[i].
        m = arena.acquire((16, nt, c_out))
        np.matmul(v.reshape(16, nt, c_in), u, out=m)
        arena.release(v)

        # Inverse transform Y = A^T M A, hardcoded (A is 0/±1).
        m4 = m.reshape(4, 4, nt, c_out)
        z = arena.acquire((2, 4, nt, c_out))
        np.add(m4[0], m4[1], out=z[0])
        z[0] += m4[2]
        np.subtract(m4[1], m4[2], out=z[1])
        z[1] -= m4[3]
        y = arena.acquire((2, 2, nt, c_out))
        np.add(z[:, 0], z[:, 1], out=y[:, 0])
        y[:, 0] += z[:, 2]
        np.subtract(z[:, 1], z[:, 2], out=y[:, 1])
        y[:, 1] -= z[:, 3]
        arena.release(z)
        arena.release(m)

        if bias is not None:
            y += bias  # (C_out,) broadcasts over (2, 2, nT, C_out)
        if relu:
            np.maximum(y, 0.0, out=y)

        # Scatter tiles back channels-last; crop the overhang for odd extents.
        full = arena.acquire((n, 2 * oht, 2 * owt, c_out))
        np.copyto(
            full.reshape(n, oht, 2, owt, 2, c_out),
            y.reshape(2, 2, n, oht, owt, c_out).transpose(2, 3, 0, 4, 1, 5),
        )
        arena.release(y)
        if exact:
            return full
        out = arena.acquire((n, oh, ow, c_out))
        np.copyto(out, full[:, :oh, :ow])
        arena.release(full)
        return out

    return run
