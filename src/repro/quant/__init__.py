"""Post-training quantization (library extension, paper future work).

The paper targets resource-limited devices but evaluates fp32 models
only; the standard next step for edge deployment is int8 post-training
quantization.  This subpackage provides an honest simulation:

- :mod:`~repro.quant.affine` — symmetric/affine per-tensor int8
  quantization with exact round-trip arithmetic;
- :mod:`~repro.quant.model` — quantize a model's weights (fake-quant:
  quantize-dequantize in place) so real forward passes measure the true
  accuracy cost on data, plus the int8 storage size for the memory
  objective;
- :mod:`~repro.quant.export` — int8/int16 onnxlite export, so the measured
  file size reflects quantized deployment;
- :mod:`~repro.quant.calibrate` — per-tensor activation ranges, recorded
  over the fp32 interpreter, for the integer inference plans.
"""

from repro.quant.affine import (
    AffineQuantizer,
    PerChannelQuantizer,
    dequantize,
    quantize_affine,
    quantization_error,
)
from repro.quant.model import (
    fake_quantize_model,
    quantized_size_bytes,
    quantized_size_mb,
    quantize_state_dict,
)
from repro.quant.export import export_quantized_model, quantized_model_size_mb

__all__ = [
    "export_quantized_model",
    "quantized_model_size_mb",
    "AffineQuantizer",
    "PerChannelQuantizer",
    "quantize_affine",
    "dequantize",
    "quantization_error",
    "quantize_state_dict",
    "fake_quantize_model",
    "quantized_size_bytes",
    "quantized_size_mb",
]
