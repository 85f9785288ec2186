"""Lazy, per-consumer weight materialization for plan compilation.

Historically the deploy layer dequantized *every* initializer to float32
at load time (``{t.name: t.dequantized() for t in proto.initializers}``)
— both the runtime and ``compile_plan`` did it, so a quantized model
paid for its full fp32 weight set before a single kernel was bound, and
layers destined for the integer kernel path never needed those copies at
all.

:class:`LazyWeightTable` replaces that eager dict with a read-through
cache over the raw :class:`~repro.onnxlite.schema.TensorProto` records:

- ``table[name]`` dequantizes **on first access** and memoizes — code
  that genuinely needs fp32 (the interpreter, fp32 kernel binding, BN
  folding) is unchanged;
- ``table.tensor(name)`` hands the raw proto record to consumers that
  want the integer codes themselves (the int8 kernel binder), which
  therefore never trigger an fp32 materialization;
- ``table.materialized`` reports which names have been dequantized, so
  tests can assert that compiling a fully-quantized model materializes
  no fp32 conv/fc weights.
"""

from __future__ import annotations

from typing import Iterator, Mapping

import numpy as np

from repro.onnxlite.schema import ModelProto, TensorProto

__all__ = ["LazyWeightTable", "plan_weight_arrays", "weight_residency"]


def plan_weight_arrays(nodes) -> "Iterator[tuple[str, str, np.ndarray]]":
    """Every bound weight array of a compiled plan: (node, role, array).

    Walks the :class:`~repro.deploy.passes.PlanNode` weight dicts in a
    deterministic order.  After :func:`~repro.deploy.plan.compile_plan`
    has bound a template once, these dicts hold *everything* the kernels
    capture — fp32 Conv/Gemm weights as ``(K, C_out)`` GEMM operands
    ("weight_k", which replaces the folded "weight" at bind time),
    biases and unfused BatchNorm affines ("bias", "scale", "shift"),
    int8 codes — packed for the native kernels ("w_packed", with the
    per-channel epilogue vectors "q_f64", "q_i64", "q_bias") or as the
    NumPy kernels' float32 code matrix with its per-channel scales and
    code sums ("w_codes_f32", "w_scales", "w_col_sums") — so publishing
    exactly this set into a shared-memory segment covers every kernel
    variant a rebind can pick.
    """
    for node in nodes:
        for role in sorted(node.weights):
            yield node.name, role, np.asarray(node.weights[role])


def weight_residency(nodes, buffer) -> dict[str, int]:
    """How many weight bytes live inside ``buffer`` vs privately.

    ``buffer`` is a buffer-protocol object (e.g. a
    ``multiprocessing.shared_memory.SharedMemory.buf`` memoryview).
    Returns ``{"shared_bytes", "private_bytes", "arrays"}`` — the
    materialized_bytes-style assertion behind the serving tier's
    "weights are shared, not copied" guarantee: a worker that rebinds a
    plan from shared memory must report ``private_bytes == 0``.
    """
    base = np.frombuffer(buffer, dtype=np.uint8)
    shared = private = arrays = 0
    for _node, _role, arr in plan_weight_arrays(nodes):
        arrays += 1
        if np.shares_memory(arr, base):
            shared += arr.nbytes
        else:
            private += arr.nbytes
    return {"shared_bytes": shared, "private_bytes": private, "arrays": arrays}


class LazyWeightTable(Mapping):
    """Mapping of initializer name -> float32 array, dequantized lazily."""

    def __init__(self, proto: ModelProto) -> None:
        self._tensors: dict[str, TensorProto] = {t.name: t for t in proto.initializers}
        self._cache: dict[str, np.ndarray] = {}

    def __getitem__(self, name: str) -> np.ndarray:
        array = self._cache.get(name)
        if array is None:
            array = self._tensors[name].dequantized()
            self._cache[name] = array
        return array

    def __contains__(self, name: object) -> bool:
        return name in self._tensors

    def __iter__(self) -> Iterator[str]:
        return iter(self._tensors)

    def __len__(self) -> int:
        return len(self._tensors)

    def tensor(self, name: str) -> TensorProto:
        """The raw initializer record (no dequantization)."""
        return self._tensors[name]

    @property
    def materialized(self) -> set[str]:
        """Names whose fp32 form has been materialized so far."""
        return set(self._cache)

    def materialized_bytes(self) -> int:
        """Total bytes of fp32 copies created on top of the raw payloads.

        Unquantized tensors return their payload array itself (no copy),
        so only dequantized copies count.
        """
        total = 0
        for name in self._cache:
            if self._tensors[name].quantized:
                total += self._cache[name].nbytes
        return total

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"LazyWeightTable(tensors={len(self._tensors)}, "
                f"materialized={len(self._cache)})")
