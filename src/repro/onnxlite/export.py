"""Export a model (or a pre-traced graph) to the onnxlite binary format.

Layout::

    ONXL | u32 version | u32 header_len | header JSON | weight payload

The JSON header records graph topology, operator attributes and per-tensor
(offset, nbytes, shape) entries; the payload is the concatenated raw fp32
weight data.  File size is therefore ``4 * n_params + O(graph text)``,
matching how real ONNX files scale.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from repro.graph.ir import Graph, OpType
from repro.graph.trace import trace_model
from repro.nn.module import Module
from repro.nn.resnet import SearchableResNet18
from repro.onnxlite.schema import FORMAT_MAGIC, FORMAT_VERSION, ModelProto, OperatorProto, TensorProto

__all__ = ["build_model_proto", "export_graph", "export_model", "proto_to_bytes", "serialized_size"]

# IR op -> onnxlite operator type string (deliberately ONNX-flavoured names).
_OP_NAMES = {
    OpType.CONV: "Conv",
    OpType.BATCH_NORM: "BatchNormalization",
    OpType.RELU: "Relu",
    OpType.MAX_POOL: "MaxPool",
    OpType.GLOBAL_AVG_POOL: "GlobalAveragePool",
    OpType.FLATTEN: "Flatten",
    OpType.FC: "Gemm",
    OpType.ADD: "Add",
}


def build_model_proto(model: Module, graph: Graph, name: str = "model") -> ModelProto:
    """Assemble a :class:`ModelProto` from a module and its traced graph."""
    inp = graph.ops(OpType.INPUT)[0]
    out = graph.ops(OpType.OUTPUT)[0]
    proto = ModelProto(name=name, input_shape=inp.out_shape, output_shape=out.out_shape)

    params = dict(model.named_parameters())
    buffers = dict(model.named_buffers())
    for tensor_name in sorted(params):
        proto.initializers.append(TensorProto(tensor_name, params[tensor_name].data))
    # Batch-norm running statistics ship in ONNX files too.
    for buffer_name in sorted(buffers):
        proto.initializers.append(TensorProto(buffer_name, buffers[buffer_name]))

    for node in graph.topological():
        if node.op in (OpType.INPUT, OpType.OUTPUT):
            continue
        proto.operators.append(
            OperatorProto(
                name=node.name,
                op_type=_OP_NAMES[node.op],
                inputs=[p.name for p in graph.predecessors(node)],
                outputs=[node.name],
                attrs=dict(node.attrs),
            )
        )
    return proto


def _container_header(proto: ModelProto) -> bytes:
    """Everything before the weight payload: magic, version, header length, JSON."""
    entries = []
    offset = 0
    for tensor in proto.initializers:
        entry = {
            "name": tensor.name,
            "shape": list(tensor.data.shape),
            "offset": offset,
            "nbytes": tensor.nbytes,
        }
        if tensor.quantized or tensor.dtype != "float32":
            entry["dtype"] = tensor.dtype
            # Per-channel scales serialize as a JSON list, scalars as a number.
            entry["scale"] = tensor.scale.tolist() if tensor.per_channel else tensor.scale
            entry["zero_point"] = tensor.zero_point
        entries.append(entry)
        offset += tensor.nbytes
    header = {
        "name": proto.name,
        "input_shape": list(proto.input_shape),
        "output_shape": list(proto.output_shape),
        "metadata": proto.metadata,
        "operators": [
            {
                "name": op.name,
                "op_type": op.op_type,
                "inputs": op.inputs,
                "outputs": op.outputs,
                "attrs": op.attrs,
            }
            for op in proto.operators
        ],
        "initializers": entries,
    }
    header_bytes = json.dumps(header).encode("utf-8")
    return FORMAT_MAGIC + struct.pack("<II", FORMAT_VERSION, len(header_bytes)) + header_bytes


def proto_to_bytes(proto: ModelProto) -> bytes:
    """Serialize a :class:`ModelProto` to the binary container.

    The payload is joined straight from the initializer arrays, so each
    weight byte is copied once.
    """
    return b"".join(
        [_container_header(proto), *(np.ascontiguousarray(t.data) for t in proto.initializers)]
    )


def serialized_size(proto: ModelProto) -> int:
    """``len(proto_to_bytes(proto))`` without serializing the payload.

    The size is the header plus every initializer's ``nbytes``: a function
    of names, shapes and dtypes (and quantization scales), never of fp32
    weight values.
    """
    return len(_container_header(proto)) + sum(t.nbytes for t in proto.initializers)


def export_graph(model: Module, graph: Graph, path: str | Path | None = None, name: str = "model") -> bytes:
    """Export a traced model; optionally write the container to ``path``."""
    blob = proto_to_bytes(build_model_proto(model, graph, name=name))
    if path is not None:
        Path(path).write_bytes(blob)
    return blob


def export_model(
    model: SearchableResNet18,
    input_hw: tuple[int, int] = (100, 100),
    path: str | Path | None = None,
    name: str = "model",
) -> bytes:
    """Trace and export a searchable ResNet in one step."""
    return export_graph(model, trace_model(model, input_hw=input_hw), path=path, name=name)
