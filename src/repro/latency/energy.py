"""Inference energy estimation (library extension, not in the paper).

Edge deployments ultimately budget *energy*, not just latency; this
module extends the kernel cost model with a first-order energy estimate

    E(kernel) = flops * pJ_per_flop + bytes * pJ_per_byte
    E(model)  = sum over kernels + idle_power * predicted_latency

The per-device coefficients below are order-of-magnitude figures for
mobile-class silicon (~1 pJ/FLOP class compute, ~100 pJ/byte DRAM) and
are **synthetic**: the paper reports no energy numbers, so there is
nothing to calibrate against.  Useful for what-if analyses and as a
fourth objective in :mod:`repro.pareto` demos.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.ir import Graph
from repro.latency.devices import DEVICE_PROFILES, DeviceProfile, kernel_latency_ms
from repro.latency.fusion import KERNEL_VARIANTS
from repro.latency.kernels import Kernel, extract_kernels

__all__ = [
    "EnergyModel",
    "ENERGY_MODELS",
    "VariantCostFactors",
    "VARIANT_COST_FACTORS",
    "estimate_energy_mj",
    "kernel_energy_mj",
    "energy_report",
]


@dataclass(frozen=True)
class EnergyModel:
    """First-order energy coefficients of one device."""

    device: str
    pj_per_flop: float
    pj_per_byte: float
    idle_power_mw: float


ENERGY_MODELS: dict[str, EnergyModel] = {
    "cortexA76cpu": EnergyModel("cortexA76cpu", pj_per_flop=2.0, pj_per_byte=120.0, idle_power_mw=350.0),
    "adreno640gpu": EnergyModel("adreno640gpu", pj_per_flop=0.8, pj_per_byte=100.0, idle_power_mw=450.0),
    "adreno630gpu": EnergyModel("adreno630gpu", pj_per_flop=0.9, pj_per_byte=110.0, idle_power_mw=420.0),
    "myriadvpu": EnergyModel("myriadvpu", pj_per_flop=0.5, pj_per_byte=90.0, idle_power_mw=1200.0),
}


@dataclass(frozen=True)
class VariantCostFactors:
    """TEA-DNN-style scaling of a kernel's energy terms under one variant.

    Multiplies the baseline (fp32 im2col) cost features: ``flops`` is
    the arithmetic-count ratio, ``bytes`` the memory-traffic ratio, and
    ``pj_per_flop`` the per-operation energy ratio (int8 MACs cost a
    fraction of an fp32 FMA on silicon with integer dot-product units).
    """

    flops: float = 1.0
    bytes: float = 1.0
    pj_per_flop: float = 1.0


#: Energy factors per kernel variant.  Keys mirror
#: :data:`repro.latency.fusion.KERNEL_VARIANTS` exactly (checked in
#: ``tests/test_latency.py``) — the same matching invariant that ties
#: the latency predictor to the compiled plan ties this table to every
#: kernel the plan binds, so an energy estimate exists for any plan the
#: deploy compiler can emit.  The fp32 defaults are identity (the
#: baseline the coefficients of :data:`ENERGY_MODELS` were set for);
#: int8 kernels keep the multiply count but quarter the bytes moved and
#: the per-MAC energy (TEA-DNN's int8 assumption).
VARIANT_COST_FACTORS: dict[str, VariantCostFactors] = {
    "conv.im2col.f32": VariantCostFactors(),
    "conv.im2col.int8": VariantCostFactors(bytes=0.25, pj_per_flop=0.25),
    "gemm.f32": VariantCostFactors(),
    "gemm.int8": VariantCostFactors(bytes=0.25, pj_per_flop=0.25),
    "add.f32": VariantCostFactors(),
    "add.int8": VariantCostFactors(bytes=0.25, pj_per_flop=0.5),
    "maxpool.f32": VariantCostFactors(),
    "maxpool.u8": VariantCostFactors(bytes=0.25, pj_per_flop=0.5),
    "gap.f32": VariantCostFactors(),
    "gap.u8": VariantCostFactors(bytes=0.25, pj_per_flop=0.5),
    "flatten.f32": VariantCostFactors(),
    "flatten.u8": VariantCostFactors(bytes=0.25),
    "relu.f32": VariantCostFactors(),
    "relu.u8": VariantCostFactors(bytes=0.25, pj_per_flop=0.5),
    "bn.f32": VariantCostFactors(),
}

#: Baseline variant per lead op type (first entry of KERNEL_VARIANTS).
_DEFAULT_VARIANT = {op: names[0] for op, names in KERNEL_VARIANTS.items()}

#: Kernel-type -> lead op type, to default a variant when none is given.
_KERNEL_TYPE_LEAD = {
    "conv-bn-relu": "Conv",
    "conv-bn": "Conv",
    "add-relu": "Add",
    "add": "Add",
    "maxpool": "MaxPool",
    "global-avgpool": "GlobalAveragePool",
    "fc": "Gemm",
    "bn": "BatchNormalization",
    "relu": "Relu",
}


def kernel_energy_mj(
    kernel: Kernel, device: str = "cortexA76cpu", variant: str | None = None
) -> float:
    """Dynamic (compute + memory) energy of one kernel, in millijoules."""
    model = ENERGY_MODELS[device]
    if variant is None:
        lead = _KERNEL_TYPE_LEAD.get(kernel.kernel_type, "Relu")
        variant = _DEFAULT_VARIANT.get(lead, "relu.f32")
    if variant not in VARIANT_COST_FACTORS:
        raise KeyError(
            f"no energy factors for kernel variant {variant!r}; "
            f"known: {sorted(VARIANT_COST_FACTORS)}"
        )
    f = VARIANT_COST_FACTORS[variant]
    pj = (
        kernel.flops * f.flops * model.pj_per_flop * f.pj_per_flop
        + kernel.memory_bytes * f.bytes * model.pj_per_byte
    )
    return pj / 1e9


def estimate_energy_mj(
    graph: Graph,
    device: str = "cortexA76cpu",
    variants: "dict[str, str] | None" = None,
) -> float:
    """Estimated single-inference energy in millijoules on ``device``.

    ``variants`` (kernel name -> variant, e.g. a compiled plan's
    :meth:`~repro.deploy.plan.InferencePlan.kernel_variants`)
    re-prices each kernel under the variant that actually executes;
    omitted kernels price at their fp32 default, so the no-argument call
    is unchanged.
    """
    if device not in ENERGY_MODELS:
        raise KeyError(f"no energy model for {device!r}; known: {sorted(ENERGY_MODELS)}")
    model = ENERGY_MODELS[device]
    profile: DeviceProfile = DEVICE_PROFILES[device]
    variants = variants or {}
    kernels = extract_kernels(graph)
    dynamic_mj = sum(kernel_energy_mj(k, device, variants.get(k.name)) for k in kernels)
    latency_ms = sum(kernel_latency_ms(k, profile) for k in kernels)
    idle_mj = model.idle_power_mw * latency_ms / 1e6  # mW * ms -> uJ -> mJ
    return dynamic_mj + idle_mj


def energy_report(
    graph: Graph,
    device: str = "cortexA76cpu",
    variants: "dict[str, str] | None" = None,
) -> list[dict]:
    """Per-kernel energy rows (name, variant, dynamic mJ) for reports."""
    variants = variants or {}
    rows = []
    for k in extract_kernels(graph):
        variant = variants.get(k.name)
        if variant is None:
            lead = _KERNEL_TYPE_LEAD.get(k.kernel_type, "Relu")
            variant = _DEFAULT_VARIANT.get(lead, "relu.f32")
        rows.append(
            {
                "kernel": k.name,
                "kernel_type": k.kernel_type,
                "variant": variant,
                "energy_mj": kernel_energy_mj(k, device, variant),
            }
        )
    return rows
