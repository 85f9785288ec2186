"""Kernel records: what the per-device cost models consume.

A :class:`Kernel` carries exactly the features nn-Meter-style predictors
regress on: kernel type, arithmetic work, and the bytes moved through the
memory system (activations in/out plus weights).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.flops import node_flops
from repro.graph.ir import Graph, Node, OpType
from repro.latency.fusion import FusedOp, fuse_graph

__all__ = ["Kernel", "KernelType", "extract_kernels", "BYTES_PER_ELEMENT"]

BYTES_PER_ELEMENT = 4  # float32 inference

# Kernel-type vocabulary (fused names match nn-Meter's kernel taxonomy).
KernelType = str
CONV_BN_RELU = "conv-bn-relu"
CONV_BN = "conv-bn"
ADD_RELU = "add-relu"
MAX_POOL = "maxpool"
GLOBAL_AVG_POOL = "global-avgpool"
FC = "fc"
BATCH_NORM = "bn"
RELU = "relu"
ADD = "add"


def _numel(shape: tuple[int, ...]) -> int:
    n = 1
    for d in shape:
        n *= d
    return n


@dataclass(frozen=True)
class Kernel:
    """One schedulable kernel and its cost-model features.

    ``conv_kernel`` is the spatial kernel size for convolution kernels
    (0 otherwise); device cost models derate compute efficiency for large
    kernels, which edge runtimes execute far less efficiently than the
    heavily optimized 3x3 path.
    """

    name: str
    kernel_type: KernelType
    flops: int
    input_bytes: int
    output_bytes: int
    weight_bytes: int
    conv_kernel: int = 0

    @property
    def memory_bytes(self) -> int:
        """Total bytes through the memory hierarchy for one invocation."""
        return self.input_bytes + self.output_bytes + self.weight_bytes


def _kernel_type(op: FusedOp) -> KernelType:
    lead = op.lead.op
    folded = tuple(n.op for n in op.folded)
    if lead is OpType.CONV:
        if OpType.RELU in folded:
            return CONV_BN_RELU
        if OpType.BATCH_NORM in folded:
            return CONV_BN
        return CONV_BN  # bare conv costs like conv-bn (bn folds at inference)
    if lead is OpType.ADD:
        return ADD_RELU if folded else ADD
    if lead is OpType.MAX_POOL:
        return MAX_POOL
    if lead is OpType.GLOBAL_AVG_POOL:
        return GLOBAL_AVG_POOL
    if lead is OpType.FC:
        return FC
    if lead is OpType.BATCH_NORM:
        return BATCH_NORM
    if lead is OpType.RELU:
        return RELU
    if lead is OpType.FLATTEN:
        return RELU  # pure data movement; costed like an elementwise op
    raise ValueError(f"cannot type kernel for op {lead}")


def _kernel_from_fused(graph: Graph, op: FusedOp) -> Kernel:
    lead = op.lead
    flops = sum(node_flops(n) for n in op.nodes)
    # ADD kernels read two producer tensors.
    n_inputs = max(len(graph.predecessors(lead)), 1)
    input_bytes = n_inputs * _numel(lead.in_shape) * BYTES_PER_ELEMENT
    output_bytes = _numel(op.out_shape) * BYTES_PER_ELEMENT
    weight_bytes = sum(n.params for n in op.nodes) * BYTES_PER_ELEMENT
    return Kernel(
        name=lead.name,
        kernel_type=_kernel_type(op),
        flops=flops,
        input_bytes=input_bytes,
        output_bytes=output_bytes,
        weight_bytes=weight_bytes,
        conv_kernel=int(lead.attrs.get("kernel", 0)) if lead.op is OpType.CONV else 0,
    )


def extract_kernels(graph: Graph) -> list[Kernel]:
    """Fuse the IR and return its kernel list in execution order."""
    return [_kernel_from_fused(graph, op) for op in fuse_graph(graph)]
