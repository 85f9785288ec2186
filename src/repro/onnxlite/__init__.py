"""ONNX-style model serialization ("onnxlite").

The paper's memory objective is "the memory requirement to store the model
in the onnx file format" (Table 4 caption).  This subpackage provides a
minimal self-contained equivalent: a binary container holding the traced
operator graph plus float32 initializers for every parameter.  The measured
file size reproduces the paper's MB values because ONNX files are dominated
by the raw fp32 weight payload (4 bytes/parameter, see DESIGN.md).
"""

from repro.onnxlite.schema import ModelProto, TensorProto, OperatorProto
from repro.onnxlite.export import export_model, export_graph, serialized_size
from repro.onnxlite.reader import load_model
from repro.onnxlite.size import model_size_bytes, model_size_mb

__all__ = [
    "ModelProto",
    "TensorProto",
    "OperatorProto",
    "export_model",
    "export_graph",
    "serialized_size",
    "load_model",
    "model_size_bytes",
    "model_size_mb",
]
