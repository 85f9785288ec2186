"""Operator fusion: group IR nodes into runtime kernels.

Edge inference runtimes (TFLite, OpenVINO) execute *fused* kernels —
a convolution with its following batch-norm and ReLU is one dispatch.
nn-Meter's kernel detection mirrors this; we implement the same rules:

- ``CONV (+ BATCH_NORM) (+ RELU)`` -> one kernel (linear chains only);
- ``ADD (+ RELU)`` -> one kernel;
- every other op is its own kernel.

Fusion only applies along single-consumer edges: a tensor consumed by two
ops (e.g. the block input feeding both conv1 and the skip path) must be
materialized and cannot be folded away.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.graph.ir import Graph, Node, OpType

__all__ = [
    "FUSION_RULES",
    "KERNEL_VARIANTS",
    "FusedOp",
    "fuse_graph",
    "fusion_rule",
]

#: Canonical fusion rule table, keyed by the onnxlite operator-type
#: strings the exporter emits.  Both the latency predictors (this module)
#: and the deploy compiler (:mod:`repro.deploy.passes`) consume this
#: table, so the kernels nn-Meter-style prediction assumes are exactly
#: the kernels the compiled runtime executes.
FUSION_RULES: dict[str, tuple[str, ...]] = {
    "Conv": ("BatchNormalization", "Relu"),
    "Add": ("Relu",),
}

#: Kernel-variant vocabulary, keyed by lead operator type.  This is the
#: *matching invariant* between prediction and execution: every variant
#: name the deploy compiler can stamp on a :class:`PlanStep` (including
#: every explicit override) appears here, and the per-variant energy
#: model (:mod:`repro.latency.energy`) prices exactly these names — so a
#: predicted kernel and the kernel the plan actually runs can always be
#: joined on ``(op_type, variant)``.  The first entry of each tuple is
#: the operator's default (fp32) variant.
KERNEL_VARIANTS: dict[str, tuple[str, ...]] = {
    "Conv": ("conv.im2col.f32", "conv.im2col.int8"),
    "Gemm": ("gemm.f32", "gemm.int8"),
    "Add": ("add.f32", "add.int8"),
    "MaxPool": ("maxpool.f32", "maxpool.u8"),
    "GlobalAveragePool": ("gap.f32", "gap.u8"),
    "Flatten": ("flatten.f32", "flatten.u8"),
    "Relu": ("relu.f32", "relu.u8"),
    "BatchNormalization": ("bn.f32",),
}


#: IR op type <-> onnxlite operator-type string (the fusable subset).
_IR_TO_ONNX = {
    OpType.CONV: "Conv",
    OpType.BATCH_NORM: "BatchNormalization",
    OpType.RELU: "Relu",
    OpType.ADD: "Add",
}
_ONNX_TO_IR = {name: op for op, name in _IR_TO_ONNX.items()}


def fusion_rule(op: OpType | str) -> tuple[OpType, ...]:
    """Fusable follower chain for a lead operator (empty if none).

    Accepts either an IR :class:`OpType` or an onnxlite operator-type
    string; returns the follower chain as IR op types, in chain order.
    """
    key = _IR_TO_ONNX.get(op, op) if isinstance(op, OpType) else op
    return tuple(_ONNX_TO_IR[name] for name in FUSION_RULES.get(key, ()))


# Fusable follower sets, in chain order (derived from FUSION_RULES).
_CONV_FOLLOWERS = fusion_rule(OpType.CONV)
_ADD_FOLLOWERS = fusion_rule(OpType.ADD)


@dataclass
class FusedOp:
    """A fused kernel: its lead node plus the folded followers."""

    lead: Node
    folded: list[Node] = field(default_factory=list)

    @property
    def nodes(self) -> list[Node]:
        """All IR nodes covered by this kernel, lead first."""
        return [self.lead, *self.folded]

    @property
    def out_shape(self) -> tuple[int, ...]:
        """Output shape of the fused kernel (last folded node's output)."""
        return self.nodes[-1].out_shape

    @property
    def name(self) -> str:
        """Kernel name, derived from the lead node."""
        return self.lead.name


def _chain_follower(graph: Graph, node: Node, allowed: tuple[OpType, ...]) -> Node | None:
    """The unique consumer of ``node`` if it is fusable, else None."""
    succs = graph.successors(node)
    if len(succs) != 1:
        return None
    follower = succs[0]
    if follower.op not in allowed:
        return None
    # The follower must have node as its only producer (ADD never fuses in).
    if len(graph.predecessors(follower)) != 1:
        return None
    return follower


def fuse_graph(graph: Graph) -> list[FusedOp]:
    """Partition the IR into fused kernels, in topological order.

    Every non-IO node lands in exactly one :class:`FusedOp`.
    """
    consumed: set[str] = set()
    fused: list[FusedOp] = []
    for node in graph.topological():
        if node.op in (OpType.INPUT, OpType.OUTPUT) or node.name in consumed:
            continue
        op = FusedOp(lead=node)
        consumed.add(node.name)
        if node.op is OpType.CONV:
            followers = _CONV_FOLLOWERS
        elif node.op is OpType.ADD:
            followers = _ADD_FOLLOWERS
        else:
            followers = ()
        current = node
        remaining = list(followers)
        while remaining:
            follower = _chain_follower(graph, current, (remaining[0],))
            if follower is None:
                # Allow skipping an optional stage (e.g. conv followed
                # directly by relu with no bn) by trying the next type.
                remaining.pop(0)
                continue
            op.folded.append(follower)
            consumed.add(follower.name)
            current = follower
            remaining.pop(0)
        fused.append(op)
    return fused
