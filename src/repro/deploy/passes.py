"""Compile-time passes over an onnxlite operator list.

The deploy compiler lowers a :class:`~repro.onnxlite.schema.ModelProto`
into a list of :class:`PlanNode` records through a fixed pass pipeline:

1. **Fusion** (:func:`fuse_operators`) — greedy follower absorption
   driven by :data:`repro.latency.fusion.FUSION_RULES`, the *same* rule
   table the latency predictors use, so every kernel nn-Meter-style
   prediction prices is exactly one compiled dispatch.  Absorbing a
   ``BatchNormalization`` constant-folds its affine map into the
   producing Conv's weights/bias (:func:`fold_batch_norm`); absorbing a
   ``Relu`` sets an in-kernel activation flag.
2. **Re-toposort** (:func:`toposort_nodes`) — a stable Kahn pass that
   re-validates dataflow after rewiring (and catches compiler bugs).
3. **Shape inference** (:func:`infer_shapes`) — static per-sample shapes
   for every tensor, from the proto's input shape and operator attrs.
4. **Liveness** (:func:`compute_liveness`) — last-use analysis producing
   the static release schedule the arena executes, so intermediate
   buffers are recycled the moment their final consumer has run.

All passes are pure functions over plain data; :mod:`repro.deploy.plan`
binds the result to concrete NumPy kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.latency.fusion import FUSION_RULES
from repro.onnxlite.schema import ModelProto, OperatorProto, TensorProto
from repro.quant.calibrate import calibration_quantizers
from repro.tensor.conv_ops import conv_output_size, pool_output_size

__all__ = [
    "PlanNode",
    "build_plan_nodes",
    "gemm_matrix",
    "fold_batch_norm",
    "fuse_operators",
    "toposort_nodes",
    "infer_shapes",
    "compute_liveness",
    "plan_quantization",
]

_BN_EPS = 1e-5


@dataclass
class PlanNode:
    """One compiled kernel-to-be: a lead operator plus folded followers."""

    name: str
    op_type: str
    inputs: list[str]
    output: str
    attrs: dict = field(default_factory=dict)
    #: Op-type chain of absorbed followers (e.g. ["BatchNormalization", "Relu"]).
    fused: list[str] = field(default_factory=list)
    #: Apply ReLU inside the kernel (a fused follower).
    relu: bool = False
    #: Folded weights, keyed by role ("weight", "bias", "scale", "shift").
    weights: dict[str, np.ndarray] = field(default_factory=dict)
    #: Raw quantized weight record (integer codes + per-channel scales)
    #: when the source initializer was quantized and loaded lazily; the
    #: fp32 form is materialized only if an fp32 kernel variant binds
    #: this node (see :meth:`fp32_weight`).
    qweight: TensorProto | None = None
    #: Quantization execution config, set by :func:`plan_quantization`:
    #: keys "input" / "output" hold the activation quantizers when this
    #: node runs an integer kernel (absent otherwise).
    qconfig: dict = field(default_factory=dict)

    @property
    def chain(self) -> tuple[str, ...]:
        """The full fused op-type chain, lead first."""
        return (self.op_type, *self.fused)

    @property
    def weight_shape(self) -> tuple[int, ...]:
        """Shape of the (possibly still-quantized) weight tensor."""
        if "weight" in self.weights:
            return self.weights["weight"].shape
        if self.qweight is not None:
            return self.qweight.data.shape
        raise KeyError(f"node {self.name!r} has no weight")

    def fp32_weight(self) -> np.ndarray:
        """The weight as float32, materialized (and memoized) on demand."""
        weight = self.weights.get("weight")
        if weight is None:
            if self.qweight is None:
                raise KeyError(f"node {self.name!r} has no weight")
            weight = self.qweight.dequantized()
            self.weights["weight"] = weight
        return weight

    def gemm_weight(self) -> np.ndarray:
        """The fp32 weight as the ``(K, C_out)`` right-hand GEMM operand.

        Built once by :func:`gemm_matrix` and cached under ``"weight_k"``
        *in place of* ``"weight"``: the node keeps one fp32 copy, in the
        layout the compiled kernels read, which plan replicas and
        shared-memory workers then share.
        """
        mat = self.weights.get("weight_k")
        if mat is None:
            mat = gemm_matrix(self.fp32_weight())
            self.weights["weight_k"] = mat
            del self.weights["weight"]
        return mat


def gemm_matrix(weight: np.ndarray) -> np.ndarray:
    """A Conv or Gemm weight as a C-contiguous ``(K, C_out)`` matrix.

    Conv ``(C_out, C_in, kh, kw)`` rows run in the channels-last K order
    ``(kh, kw, c)``, the column order of the compiled plan's im2col;
    Gemm ``(out, in)`` weights are transposed.  Works on any dtype (the
    int8 kernels flatten their integer codes the same way).
    """
    order = (*range(2, weight.ndim), 1, 0)
    return np.ascontiguousarray(weight.transpose(order).reshape(-1, weight.shape[0]))


def build_plan_nodes(proto: ModelProto, weights: Mapping[str, np.ndarray]) -> list[PlanNode]:
    """Lift the proto's operators into :class:`PlanNode` records.

    ``weights`` maps initializer names to dequantized float32 arrays;
    each node captures its own parameters so later folds mutate node-local
    copies, never the runtime's weight table.  When ``weights`` is a
    :class:`~repro.deploy.weights.LazyWeightTable`, quantized Conv/Gemm
    weights stay as raw integer records on ``node.qweight`` and are only
    dequantized if an fp32 kernel variant ends up binding the node.
    """
    nodes: list[PlanNode] = []
    for op in proto.operators:
        node = PlanNode(
            name=op.name,
            op_type=op.op_type,
            inputs=list(op.inputs),
            output=op.outputs[0],
            attrs=dict(op.attrs),
        )
        _attach_weights(node, op, weights)
        nodes.append(node)
    return nodes


def _attach_weights(node: PlanNode, op: OperatorProto, weights: Mapping[str, np.ndarray]) -> None:
    def get(suffix: str, required: bool = True) -> np.ndarray | None:
        key = f"{op.name}.{suffix}"
        if key not in weights:
            if required:
                raise KeyError(f"initializer {key!r} missing from the model")
            return None
        return weights[key]

    def raw(suffix: str) -> TensorProto | None:
        """The raw initializer record, if ``weights`` exposes them."""
        tensor = getattr(weights, "tensor", None)
        if tensor is None:
            return None
        key = f"{op.name}.{suffix}"
        return tensor(key) if key in weights else None

    if node.op_type in ("Conv", "Gemm"):
        record = raw("weight")
        if record is not None and record.quantized and record.zero_point == 0:
            # Keep the integer codes; fp32 materializes per-consumer.
            node.qweight = record
        else:
            node.weights["weight"] = get("weight")
        bias = get("bias", required=False)
        if bias is not None:
            node.weights["bias"] = bias
    elif node.op_type == "BatchNormalization":
        gamma, beta = get("weight"), get("bias")
        mean, var = get("running_mean"), get("running_var")
        scale = (gamma / np.sqrt(var + _BN_EPS)).astype(np.float32)
        node.weights["scale"] = scale
        node.weights["shift"] = (beta - mean * scale).astype(np.float32)


def fold_batch_norm(conv: PlanNode, bn: PlanNode) -> None:
    """Constant-fold a BatchNormalization's affine map into its Conv.

    ``y = (W * x + b) * scale + shift`` becomes a single convolution with
    ``W' = W * scale`` (per output channel) and ``b' = b * scale + shift``
    — the standard inference-time BN fold every edge runtime performs.

    For a quantized conv the fold stays in the integer domain: the
    per-channel weight scales absorb ``|scale|`` and channels with a
    negative BN scale flip their code signs, so the int8 payload never
    round-trips through fp32 (see :func:`_fold_bn_into_qweight`).
    """
    scale, shift = bn.weights["scale"], bn.weights["shift"]
    if conv.qweight is not None:
        conv.qweight = _fold_bn_into_qweight(conv.qweight, scale)
        conv.weights.pop("weight", None)  # any fp32 copy is now stale
    else:
        weight = conv.weights["weight"]
        conv.weights["weight"] = (weight * scale[:, None, None, None]).astype(np.float32)
    bias = conv.weights.get("bias")
    folded_bias = shift if bias is None else bias * scale + shift
    conv.weights["bias"] = folded_bias.astype(np.float32)


def _fold_bn_into_qweight(qweight: TensorProto, bn_scale: np.ndarray) -> TensorProto:
    """BN fold on an int8 weight without leaving the integer domain.

    ``W' = W * s_bn`` per output channel becomes ``scales' = scales *
    |s_bn|`` with code signs flipped where ``s_bn < 0``.  The flip maps
    -128 outside int8, so it clamps to 127 — a <= 1 LSB perturbation on
    the single most-negative code, far inside the quantization error
    already present.  A zero BN scale keeps the codes and floors the
    scale at 1e-12 (the channel's output is numerically zero either way).
    """
    codes = qweight.data
    scales = qweight.channel_scales() * np.maximum(np.abs(bn_scale).astype(np.float64), 1e-12)
    flip = bn_scale < 0
    if flip.any():
        info = np.iinfo(codes.dtype)
        widened = codes.astype(np.int32)
        widened[flip] = -widened[flip]
        codes = np.clip(widened, info.min, info.max).astype(codes.dtype)
    return TensorProto(qweight.name, codes, scale=scales, zero_point=0)


def fuse_operators(nodes: list[PlanNode]) -> list[PlanNode]:
    """Absorb followers into leads per :data:`FUSION_RULES`.

    Mirrors :func:`repro.latency.fusion.fuse_graph` on the serialized
    operator list: a follower is absorbed only when it is the *sole*
    consumer chained off the lead's output and itself single-input, so
    fan-out tensors (residual skips) stay materialized.  BatchNorm
    absorption triggers the weight fold; Relu absorption sets the
    kernel's activation flag.
    """
    consumers: dict[str, list[PlanNode]] = {}
    for node in nodes:
        for name in node.inputs:
            consumers.setdefault(name, []).append(node)

    absorbed: set[int] = set()
    fused: list[PlanNode] = []
    for lead in nodes:
        if id(lead) in absorbed:
            continue
        remaining = list(FUSION_RULES.get(lead.op_type, ()))
        while remaining:
            follower = _chain_follower(consumers, lead.output, remaining[0])
            if follower is None:
                remaining.pop(0)  # optional stage absent; try the next type
                continue
            if follower.op_type == "BatchNormalization":
                fold_batch_norm(lead, follower)
            elif follower.op_type == "Relu":
                lead.relu = True
            lead.fused.append(follower.op_type)
            lead.output = follower.output
            absorbed.add(id(follower))
            remaining.pop(0)
        fused.append(lead)
    return fused


def _chain_follower(
    consumers: dict[str, list[PlanNode]], tensor: str, op_type: str
) -> PlanNode | None:
    cands = consumers.get(tensor, [])
    if len(cands) != 1:
        return None
    follower = cands[0]
    if follower.op_type != op_type or len(follower.inputs) != 1:
        return None
    return follower


def toposort_nodes(nodes: list[PlanNode], input_name: str = "input") -> list[PlanNode]:
    """Stable topological re-sort over tensor dataflow (Kahn's algorithm).

    The exporter already emits a valid order and fusion preserves it;
    this pass re-validates after rewiring and raises ``ValueError`` on a
    cycle or a read of a tensor nothing produces.
    """
    produced = {input_name}
    pending = list(nodes)
    ordered: list[PlanNode] = []
    known = produced | {n.output for n in pending}
    for node in pending:
        for name in node.inputs:
            if name not in known:
                raise ValueError(f"kernel {node.name!r} reads unknown tensor {name!r}")
    while pending:
        ready = [n for n in pending if all(i in produced for i in n.inputs)]
        if not ready:
            stuck = ", ".join(n.name for n in pending)
            raise ValueError(f"operator list is not schedulable (cycle?): {stuck}")
        for node in ready:
            ordered.append(node)
            produced.add(node.output)
        pending = [n for n in pending if id(n) not in {id(r) for r in ready}]
    return ordered


def infer_shapes(
    nodes: list[PlanNode], input_shape: tuple[int, ...], input_name: str = "input"
) -> dict[str, tuple[int, ...]]:
    """Static per-sample (batch-free) shapes for every tensor in the plan."""
    shapes: dict[str, tuple[int, ...]] = {input_name: tuple(int(d) for d in input_shape)}
    for node in nodes:
        in_shape = shapes[node.inputs[0]]
        kind = node.op_type
        if kind == "Conv":
            c, h, w = in_shape
            k = int(node.attrs["kernel"])
            s = int(node.attrs["stride"])
            p = int(node.attrs["padding"])
            out = (
                int(node.weight_shape[0]),
                conv_output_size(h, k, s, p),
                conv_output_size(w, k, s, p),
            )
        elif kind == "MaxPool":
            c, h, w = in_shape
            k = int(node.attrs["kernel"])
            s = int(node.attrs["stride"])
            out = (c, pool_output_size(h, k, s), pool_output_size(w, k, s))
        elif kind == "GlobalAveragePool":
            out = (in_shape[0],)
        elif kind == "Flatten":
            out = (int(np.prod(in_shape)),)
        elif kind == "Gemm":
            out = (int(node.weight_shape[0]),)
        elif kind in ("Relu", "BatchNormalization", "Add"):
            out = in_shape
        else:  # pragma: no cover - guarded by runtime op validation
            raise ValueError(f"cannot infer shape for operator {kind!r}")
        shapes[node.output] = out
    return shapes


#: Ops that pass uint8 activation codes straight through (same quantizer
#: on input and output) when their input is carried in the integer domain.
_PASSTHROUGH_OPS = ("MaxPool", "Flatten", "Relu")


def plan_quantization(
    nodes: list[PlanNode],
    proto: ModelProto,
    variant_map: Mapping[str, str] | None = None,
    input_name: str = "input",
) -> dict[str, str]:
    """Assign integer execution configs and per-tensor carrier forms.

    Consumes the activation-calibration table embedded by
    :func:`repro.quant.calibrate.calibrate_activations` and decides, per
    node, whether it runs an integer kernel, and per tensor, whether it
    is carried as uint8 codes (``"u8"``) or float32 values (``"f32"``)
    between kernels.  The rules:

    - **Conv/Gemm** run int8 when they kept integer weight codes
      (``node.qweight``) and their input tensor is calibrated.  They
      accept either carrier form (f32 inputs are quantized on the fly)
      and emit u8 codes when *every* consumer reads codes; otherwise
      the accumulators take a float32 epilogue instead.
    - **MaxPool/Flatten/Relu** pass codes through untouched when their
      input arrives as u8; the output inherits the input's quantizer
      (max and reshape commute with a monotone affine map).
    - **Add** runs integer when both inputs arrive as u8, requantizing
      to its own calibrated output grid (or a float32 epilogue).
    - **GlobalAveragePool** accumulates codes but always emits float32.
    - The plan's **final output** is always float32, whatever produced it.

    ``variant_map`` (node name -> kernel variant, e.g. the overrides of
    :func:`repro.deploy.autotune_variants`) can force an eligible node
    onto its ``.f32`` variant;
    forcing an ``.int8``/``.u8`` variant onto an ineligible node raises.
    Mutates ``node.qconfig`` in place (keys ``input`` / ``input_b`` /
    ``output``; ``output=None`` marks the float32 epilogue) and returns
    the tensor-form map used by buffer allocation and in-place reuse.
    """
    variant_map = dict(variant_map or {})
    base_act = calibration_quantizers(proto)
    for node in nodes:
        node.qconfig = {}
    final = nodes[-1].output if nodes else None
    tensors = {input_name} | {n.output for n in nodes}
    forms = {name: "f32" for name in tensors}

    consumers: dict[str, list[PlanNode]] = {}
    for node in nodes:
        for name in node.inputs:
            consumers.setdefault(name, []).append(node)

    def forced_f32(node: PlanNode) -> bool:
        variant = variant_map.get(node.name)
        return variant is not None and variant.endswith(".f32")

    integer: dict[str, bool] = {}
    for node in nodes:
        if not base_act or forced_f32(node):
            integer[node.name] = False
        elif node.op_type in ("Conv", "Gemm"):
            integer[node.name] = (
                node.qweight is not None
                and node.qweight.dtype == "int8"
                and node.inputs[0] in base_act
                and base_act[node.inputs[0]].dtype == "uint8"
            )
        elif node.op_type == "MaxPool" and node.attrs.get("average"):
            # Average pooling does not commute with the integer grid
            # (the mean of codes is not a code); stays fp32.
            integer[node.name] = False
        elif node.op_type in (*_PASSTHROUGH_OPS, "GlobalAveragePool", "Add"):
            # Provisional; the fixpoint below demotes nodes whose inputs
            # cannot actually be carried as codes.
            integer[node.name] = all(
                name in base_act and base_act[name].dtype == "uint8"
                for name in node.inputs
            )
        else:  # standalone BatchNormalization has no integer kernel
            integer[node.name] = False

    # Fixpoint: compute carrier forms forward (nodes are topo-sorted),
    # then demote integer nodes whose code-only inputs turned out to be
    # f32.  Demotion is monotone, so this terminates within len(nodes)
    # rounds; in practice one or two.
    act = dict(base_act)
    while True:
        act = dict(base_act)
        new_forms = {name: "f32" for name in tensors}
        for node in nodes:
            if not integer[node.name]:
                continue
            out = node.output
            if node.op_type in ("Conv", "Gemm", "Add"):
                emits_u8 = out in act and act[out].dtype == "uint8"
            elif node.op_type in _PASSTHROUGH_OPS:
                emits_u8 = new_forms[node.inputs[0]] == "u8"
                if emits_u8:
                    # Codes pass through untouched, so the output *is*
                    # the input's grid, whatever calibration observed.
                    act[out] = act[node.inputs[0]]
            else:  # GlobalAveragePool: integer accumulation, f32 output
                emits_u8 = False
            readers = consumers.get(out, [])
            if emits_u8 and out != final and readers and all(integer[r.name] for r in readers):
                new_forms[out] = "u8"
        demoted = False
        for node in nodes:
            if not integer[node.name]:
                continue
            if node.op_type in (*_PASSTHROUGH_OPS, "GlobalAveragePool", "Add"):
                if any(new_forms[name] != "u8" for name in node.inputs):
                    integer[node.name] = False
                    demoted = True
        if not demoted:
            forms = new_forms
            break

    # Validate explicit integer requests now that eligibility is final.
    for node in nodes:
        variant = variant_map.get(node.name)
        if variant and (variant.endswith(".int8") or variant.endswith(".u8")):
            if not integer[node.name]:
                raise ValueError(
                    f"variant {variant!r} requested for {node.name!r}, but the node "
                    "is not integer-eligible (missing int8 weights, calibration, "
                    "or a u8-carried input)"
                )

    for node in nodes:
        if not integer[node.name]:
            continue
        config: dict = {"input": act[node.inputs[0]]}
        if node.op_type == "Add":
            config["input_b"] = act[node.inputs[1]]
        config["output"] = act[node.output] if forms[node.output] == "u8" else None
        node.qconfig = config
    return forms


def compute_liveness(
    nodes: list[PlanNode], input_name: str = "input", final_output: str | None = None
) -> tuple[list[list[str]], dict[str, int]]:
    """Static release schedule: which tensors die after each step.

    Returns ``(release, last_use)`` where ``release[i]`` lists the tensor
    names whose final consumer is step ``i`` (excluding the caller-owned
    input and the plan's final output, which outlives the run).
    """
    if not nodes:
        return [], {}
    last_use: dict[str, int] = {}
    for step, node in enumerate(nodes):
        for name in node.inputs:
            last_use[name] = step
    if final_output is None:
        final_output = nodes[-1].output
    release: list[list[str]] = [[] for _ in nodes]
    for name, step in last_use.items():
        if name == input_name or name == final_output:
            continue
        release[step].append(name)
    return release, last_use
