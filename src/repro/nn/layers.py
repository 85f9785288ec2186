"""Standard layers: convolution, linear, batch norm, pooling, activations."""

from __future__ import annotations

import numpy as np

from repro.nn.init import kaiming_normal, uniform
from repro.nn.module import Module, Parameter
from repro.tensor import functional as F
from repro.tensor import conv_ops
from repro.tensor.tensor import Tensor
from repro.utils.rng import rng_from_seed

__all__ = [
    "Conv2d",
    "Linear",
    "BatchNorm2d",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "ReLU",
    "Dropout",
    "Identity",
    "Flatten",
]


class Conv2d(Module):
    """2-D convolution with square kernels and symmetric padding.

    Parameters
    ----------
    in_channels, out_channels:
        Channel counts.
    kernel_size, stride, padding:
        Uniform spatial geometry.
    bias:
        Whether to add a per-filter bias.  ResNet convs use ``bias=False``
        because a BatchNorm immediately follows.
    rng:
        Seed or generator for weight init (Kaiming-normal, fan-out).
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng=None,
    ) -> None:
        super().__init__()
        if in_channels < 1 or out_channels < 1:
            raise ValueError("channel counts must be positive")
        if kernel_size < 1:
            raise ValueError(f"kernel_size must be >= 1, got {kernel_size}")
        generator = rng_from_seed(rng)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(kaiming_normal(shape, generator))
        self.bias = Parameter(np.zeros(out_channels, dtype=np.float32)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return conv_ops.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)

    def __repr__(self) -> str:
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, kernel_size={self.kernel_size}, "
            f"stride={self.stride}, padding={self.padding}, bias={self.bias is not None})"
        )


class Linear(Module):
    """Affine layer ``y = x W^T + b`` with weight shape ``(out, in)``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True, rng=None) -> None:
        super().__init__()
        if in_features < 1 or out_features < 1:
            raise ValueError("feature counts must be positive")
        generator = rng_from_seed(rng)
        self.in_features = in_features
        self.out_features = out_features
        bound = 1.0 / np.sqrt(in_features)
        self.weight = Parameter(uniform((out_features, in_features), bound, generator))
        self.bias = Parameter(uniform((out_features,), bound, generator)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features}, bias={self.bias is not None})"


class BatchNorm2d(Module):
    """Batch normalization over channels of an ``(N, C, H, W)`` tensor."""

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5) -> None:
        super().__init__()
        if num_features < 1:
            raise ValueError("num_features must be positive")
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.weight = Parameter(np.ones(num_features, dtype=np.float32))
        self.bias = Parameter(np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_mean", np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_var", np.ones(num_features, dtype=np.float32))

    def forward(self, x: Tensor) -> Tensor:
        return F.batch_norm_2d(
            x,
            self.weight,
            self.bias,
            self.running_mean,
            self.running_var,
            training=self.training,
            momentum=self.momentum,
            eps=self.eps,
        )

    def __repr__(self) -> str:
        return f"BatchNorm2d({self.num_features})"


class MaxPool2d(Module):
    """Max pooling with square windows and no padding."""

    def __init__(self, kernel_size: int, stride: int | None = None) -> None:
        super().__init__()
        if kernel_size < 1:
            raise ValueError("kernel_size must be >= 1")
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return conv_ops.max_pool2d(x, self.kernel_size, self.stride)

    def __repr__(self) -> str:
        return f"MaxPool2d(kernel_size={self.kernel_size}, stride={self.stride})"


class AvgPool2d(Module):
    """Average pooling with square windows and no padding."""

    def __init__(self, kernel_size: int, stride: int | None = None) -> None:
        super().__init__()
        if kernel_size < 1:
            raise ValueError("kernel_size must be >= 1")
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return conv_ops.avg_pool2d(x, self.kernel_size, self.stride)

    def __repr__(self) -> str:
        return f"AvgPool2d(kernel_size={self.kernel_size}, stride={self.stride})"


class GlobalAvgPool2d(Module):
    """Adaptive average pooling to 1x1: ``(N, C, H, W) -> (N, C)``."""

    def forward(self, x: Tensor) -> Tensor:
        return conv_ops.global_avg_pool2d(x)

    def __repr__(self) -> str:
        return "GlobalAvgPool2d()"


class ReLU(Module):
    """Rectified linear unit."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()

    def __repr__(self) -> str:
        return "ReLU()"


class Dropout(Module):
    """Inverted dropout; a no-op in eval mode.

    A seeded generator keeps training runs reproducible; each forward in
    training mode consumes fresh randomness from it.
    """

    def __init__(self, p: float = 0.5, rng=None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = rng_from_seed(rng)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, rng=self._rng, training=self.training)

    def __repr__(self) -> str:
        return f"Dropout(p={self.p})"


class Identity(Module):
    """Pass-through (used for the 'no pooling' search-space choice)."""

    def forward(self, x: Tensor) -> Tensor:
        return x

    def __repr__(self) -> str:
        return "Identity()"


class Flatten(Module):
    """Flatten all dimensions after the batch dimension."""

    def forward(self, x: Tensor) -> Tensor:
        return x.reshape(x.shape[0], int(np.prod(x.shape[1:])))

    def __repr__(self) -> str:
        return "Flatten()"
