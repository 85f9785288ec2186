"""The memory objective: serialized model size in MB.

Matches the paper's convention (Table 3/4/5 'memory (MB)'): the size of
the exported model file divided by 1e6.  The size is a function of the
model's shapes, so it is computed from the container header and the
initializers' ``nbytes`` without serializing the weights.
"""

from __future__ import annotations

from repro.graph.trace import trace_model
from repro.nn.resnet import SearchableResNet18
from repro.onnxlite.export import build_model_proto, serialized_size

__all__ = ["model_size_bytes", "model_size_mb"]

BYTES_PER_MB = 1_000_000.0


def model_size_bytes(model: SearchableResNet18, input_hw: tuple[int, int] = (100, 100)) -> int:
    """Exact size in bytes of the model's onnxlite serialization."""
    return serialized_size(build_model_proto(model, trace_model(model, input_hw=input_hw)))


def model_size_mb(model: SearchableResNet18, input_hw: tuple[int, int] = (100, 100)) -> float:
    """Model memory in MB (decimal, matching the paper's units)."""
    return model_size_bytes(model, input_hw=input_hw) / BYTES_PER_MB
