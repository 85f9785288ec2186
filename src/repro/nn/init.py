"""Weight initialization schemes (Kaiming / Xavier / constant).

The searchable ResNet uses Kaiming-normal fan-out init for convolutions
and unit/zero init for batch-norm scale/shift, matching torchvision's
ResNet initialization so training dynamics are comparable.

:func:`skip_init` builds models for their shapes alone, the way PyTorch's
``skip_init`` and accelerate's ``init_empty_weights`` do.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

import numpy as np

__all__ = [
    "kaiming_normal",
    "kaiming_uniform",
    "xavier_uniform",
    "uniform",
    "skip_init",
    "conv_fans",
    "linear_fans",
]

#: Per-context (so per-thread) switch set by :func:`skip_init`.
_SKIP_INIT: ContextVar[bool] = ContextVar("repro_nn_skip_init", default=False)


@contextmanager
def skip_init() -> Iterator[None]:
    """Within the block, random initializers return zeros and draw nothing.

    For callers that need a model's shapes but not its values: latency
    prediction, FLOPs and the serialized size depend only on the graph and
    the parameter shapes.  ``np.zeros`` maps large arrays lazily, so a
    skip-init model costs neither RNG time nor resident memory.  The switch
    lives in a :class:`~contextvars.ContextVar`: other threads keep
    drawing seeded weights, and it resets even when the block raises.
    Outside the block every weight is unchanged, bit for bit.
    """
    token = _SKIP_INIT.set(True)
    try:
        yield
    finally:
        _SKIP_INIT.reset(token)


def conv_fans(weight_shape: tuple[int, int, int, int]) -> tuple[int, int]:
    """``(fan_in, fan_out)`` of a conv weight ``(C_out, C_in, K, K)``."""
    c_out, c_in, kh, kw = weight_shape
    receptive = kh * kw
    return c_in * receptive, c_out * receptive


def linear_fans(weight_shape: tuple[int, int]) -> tuple[int, int]:
    """``(fan_in, fan_out)`` of a linear weight ``(out, in)``."""
    out_features, in_features = weight_shape
    return in_features, out_features


def _fan(shape: tuple[int, ...], mode: str) -> int:
    if len(shape) == 4:
        fan_in, fan_out = conv_fans(shape)  # type: ignore[arg-type]
    elif len(shape) == 2:
        fan_in, fan_out = linear_fans(shape)  # type: ignore[arg-type]
    else:
        raise ValueError(f"cannot infer fans for weight shape {shape}")
    if mode == "fan_in":
        return fan_in
    if mode == "fan_out":
        return fan_out
    raise ValueError(f"unknown fan mode {mode!r}")


def kaiming_normal(
    shape: tuple[int, ...],
    rng: np.random.Generator,
    mode: str = "fan_out",
    nonlinearity: str = "relu",
) -> np.ndarray:
    """He-normal init: ``N(0, gain^2 / fan)`` with gain sqrt(2) for ReLU."""
    gain = math.sqrt(2.0) if nonlinearity == "relu" else 1.0
    std = gain / math.sqrt(_fan(shape, mode))
    if _SKIP_INIT.get():
        return np.zeros(shape, dtype=np.float32)
    return rng.normal(0.0, std, size=shape).astype(np.float32)


def kaiming_uniform(
    shape: tuple[int, ...],
    rng: np.random.Generator,
    mode: str = "fan_in",
    nonlinearity: str = "relu",
) -> np.ndarray:
    """He-uniform init: ``U(-b, b)`` with ``b = gain * sqrt(3 / fan)``."""
    gain = math.sqrt(2.0) if nonlinearity == "relu" else 1.0
    return uniform(shape, gain * math.sqrt(3.0 / _fan(shape, mode)), rng)


def xavier_uniform(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Glorot-uniform init balancing fan-in and fan-out variance."""
    if len(shape) == 4:
        fan_in, fan_out = conv_fans(shape)  # type: ignore[arg-type]
    else:
        fan_in, fan_out = linear_fans(shape)  # type: ignore[arg-type]
    return uniform(shape, math.sqrt(6.0 / (fan_in + fan_out)), rng)


def uniform(shape: tuple[int, ...], bound: float, rng: np.random.Generator) -> np.ndarray:
    """``U(-bound, bound)`` init; :class:`~repro.nn.layers.Linear` uses
    ``bound = 1 / sqrt(in_features)`` for weight and bias (PyTorch's default)."""
    if _SKIP_INIT.get():
        return np.zeros(shape, dtype=np.float32)
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)
