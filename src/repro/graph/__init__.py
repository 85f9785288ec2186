"""Model intermediate representation.

A traced model becomes a :class:`~repro.graph.ir.Graph` — a DAG of
operator nodes, held in plain dicts, annotated with shapes, parameter
counts and FLOPs.  Its topological order is networkx's (Kahn's algorithm
by generations), which the tests check against networkx itself.
The latency predictors (:mod:`repro.latency`) and the ONNX-style exporter
(:mod:`repro.onnxlite`) both consume this IR, exactly as nn-Meter and ONNX
consume a traced PyTorch model in the paper's pipeline.
"""

from repro.graph.ir import Graph, Node, OpType
from repro.graph.trace import trace_model
from repro.graph.shapes import conv_out_hw, pool_out_hw
from repro.graph.flops import count_graph_flops, node_flops

__all__ = [
    "Graph",
    "Node",
    "OpType",
    "trace_model",
    "conv_out_hw",
    "pool_out_hw",
    "count_graph_flops",
    "node_flops",
]
