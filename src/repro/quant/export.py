"""Quantized onnxlite export.

Serializes a model with int8 (or int16) weight payloads and per-tensor
affine parameters, so the *measured file size* — the paper's memory
objective — reflects quantized deployment.  The standalone runtime
(:mod:`repro.deploy`) dequantizes on load and runs the model unchanged.
"""

from __future__ import annotations

from pathlib import Path

from repro.graph.trace import trace_model
from repro.nn.resnet import SearchableResNet18
from repro.onnxlite.export import build_model_proto, proto_to_bytes, serialized_size
from repro.onnxlite.schema import ModelProto, TensorProto
from repro.quant.affine import AffineQuantizer, PerChannelQuantizer
from repro.quant.model import _is_quantizable

__all__ = ["export_quantized_model", "quantized_model_size_mb"]


def _quantized_proto(
    model: SearchableResNet18, input_hw: tuple[int, int], dtype: str, per_channel: bool
) -> ModelProto:
    graph = trace_model(model, input_hw=input_hw)
    proto = build_model_proto(model, graph, name="quantized-model")
    replaced: list[TensorProto] = []
    for tensor in proto.initializers:
        if _is_quantizable(tensor.name, tensor.data):
            if per_channel:
                quantizer = PerChannelQuantizer.fit(tensor.data, dtype=dtype)
                scale: object = quantizer.scales
            else:
                quantizer = AffineQuantizer.fit(tensor.data, dtype=dtype, symmetric=True)
                scale = quantizer.scale
            replaced.append(
                TensorProto(
                    tensor.name,
                    quantizer.quantize(tensor.data),
                    scale=scale,
                    zero_point=quantizer.zero_point,
                )
            )
        else:
            replaced.append(tensor)
    proto.initializers = replaced
    proto.metadata["quantization"] = dtype
    proto.metadata["per_channel"] = per_channel
    return proto


def export_quantized_model(
    model: SearchableResNet18,
    input_hw: tuple[int, int] = (100, 100),
    path: str | Path | None = None,
    dtype: str = "int8",
    per_channel: bool = True,
) -> bytes:
    """Trace and export ``model`` with quantized weight payloads.

    Conv/FC weights are stored as integer codes with their affine
    parameters; batch-norm parameters, biases and running statistics stay
    float32 (the standard PTQ layout).  ``per_channel`` (the default)
    fits one symmetric scale per output channel instead of per tensor —
    the TFLite weight convention, and what the integer kernel path needs
    to fold batch-norm without leaving the int8 domain.
    """
    blob = proto_to_bytes(_quantized_proto(model, input_hw, dtype, per_channel))
    if path is not None:
        Path(path).write_bytes(blob)
    return blob


def quantized_model_size_mb(
    model: SearchableResNet18,
    input_hw: tuple[int, int] = (100, 100),
    dtype: str = "int8",
) -> float:
    """File size (MB) of the quantized export — the deployment memory objective.

    The header carries the fitted scales, so unlike the fp32 size this
    one depends on the weight values.
    """
    return serialized_size(_quantized_proto(model, input_hw, dtype, per_channel=True)) / 1e6
