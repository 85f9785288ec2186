"""Kernel-level inference latency prediction (nn-Meter substitute).

nn-Meter predicts model latency by decomposing the model graph into fused
*kernels* (the units edge runtimes actually schedule) and summing per-kernel
costs from device-specific regressors.  This subpackage re-implements that
architecture:

- :mod:`~repro.latency.fusion` — conv-bn-relu / add-relu fusion rules;
- :mod:`~repro.latency.kernels` — kernel extraction from the graph IR;
- :mod:`~repro.latency.devices` — the four device profiles of paper
  Table 2 (cortexA76cpu, adreno640gpu, adreno630gpu, myriadvpu) with
  roofline cost coefficients;
- :mod:`~repro.latency.predictors` — per-device predictors and the
  4-predictor mean/std aggregation the paper reports;
- :mod:`~repro.latency.calibration` — least-squares fitting of device
  coefficients against the paper's anchor latencies (the frozen defaults
  in ``devices.py`` come from this fit);
- :mod:`~repro.latency.registry` — name-based predictor lookup plus the
  Table-2 metadata.
"""

from repro.latency.kernels import Kernel, extract_kernels
from repro.latency.fusion import (
    FUSION_RULES,
    KERNEL_VARIANTS,
    FusedOp,
    fuse_graph,
    fusion_rule,
    variants_for,
)
from repro.latency.devices import DeviceProfile, DEVICE_PROFILES
from repro.latency.predictors import LatencyPredictor, predict_all_devices, LatencySummary
from repro.latency.registry import get_predictor, list_predictors, PREDICTOR_METADATA
from repro.latency.selection import (
    ModelCandidate,
    ModelSelection,
    NoFeasibleModel,
    latency_table,
    select_model,
)
from repro.latency.energy import (
    ENERGY_MODELS,
    VARIANT_COST_FACTORS,
    EnergyModel,
    VariantCostFactors,
    energy_report,
    estimate_energy_mj,
    kernel_energy_mj,
)

__all__ = [
    "EnergyModel",
    "ENERGY_MODELS",
    "VariantCostFactors",
    "VARIANT_COST_FACTORS",
    "energy_report",
    "estimate_energy_mj",
    "kernel_energy_mj",
    "KERNEL_VARIANTS",
    "variants_for",
    "Kernel",
    "extract_kernels",
    "fuse_graph",
    "FusedOp",
    "FUSION_RULES",
    "fusion_rule",
    "DeviceProfile",
    "DEVICE_PROFILES",
    "LatencyPredictor",
    "predict_all_devices",
    "LatencySummary",
    "get_predictor",
    "list_predictors",
    "PREDICTOR_METADATA",
    "ModelCandidate",
    "ModelSelection",
    "NoFeasibleModel",
    "latency_table",
    "select_model",
]
