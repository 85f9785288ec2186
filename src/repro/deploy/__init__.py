"""Inference runtime for exported onnxlite models.

The paper's deployment story ends at an ONNX file consumed by an edge
runtime (TFLite / OpenVINO).  This subpackage is that runtime's
stand-in, with two execution paths:

- :class:`~repro.deploy.runtime.OnnxliteRuntime` — the interpreted
  reference.  It loads a serialized model and executes it with NumPy
  kernels that share **no code** with :mod:`repro.nn`, so a train ->
  export -> deploy round trip cross-validates both implementations
  (see ``tests/test_deploy.py``).
- :class:`~repro.deploy.plan.InferencePlan` — the compiled fast path
  (``runtime.compile()``): Conv+BN+ReLU / Add+ReLU fusion per the rule
  table shared with :mod:`repro.latency.fusion`, pre-bound kernel
  closures, and static arena memory planning (see
  ``tests/test_deploy_plan.py`` and DEVELOPMENT.md).

Plans are single-threaded by design (one arena each); concurrent
serving replicates them (:meth:`InferencePlan.replicate` — weights
shared, arenas private) behind the micro-batching server in
:mod:`repro.serve`.  Misuse raises :class:`ConcurrentPlanError`.
"""

from repro.deploy.plan import (
    Arena,
    AutotuneResult,
    ConcurrentPlanError,
    InferencePlan,
    autotune_variants,
    compile_plan,
)
from repro.deploy.runtime import OnnxliteRuntime, load_runtime
from repro.deploy.weights import LazyWeightTable, plan_weight_arrays, weight_residency

__all__ = [
    "Arena",
    "AutotuneResult",
    "ConcurrentPlanError",
    "InferencePlan",
    "LazyWeightTable",
    "OnnxliteRuntime",
    "autotune_variants",
    "compile_plan",
    "load_runtime",
    "plan_weight_arrays",
    "weight_residency",
]
