"""Calibration of the device cost models against the paper's anchors.

The paper reports mean/std latencies (over its four nn-Meter predictors)
for a handful of concrete configurations: the stock ResNet-18 at 5 and 7
input channels (Table 5) and the five Pareto-optimal models (Table 4);
Table 3 adds the sweep-wide maximum.  :func:`fit_device_profiles` treats
the 16 device coefficients (throughput, bandwidth, per-kernel overhead and
max-pool penalty for each of the four devices) as unknowns and solves a
log-domain least-squares problem matching those anchors, with a weak prior
pulling toward physically plausible initial values.

The fitted coefficients are frozen in
:data:`repro.latency.devices.DEVICE_PROFILES`; re-running the fit is only
needed if the cost-model *form* changes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from repro.graph.trace import trace_model
from repro.latency.devices import DEVICE_PROFILES, DeviceProfile, kernel_latency_ms
from repro.latency.kernels import Kernel, extract_kernels
from repro.nn.init import skip_init
from repro.nn.resnet import SearchableResNet18

__all__ = ["Anchor", "PAPER_ANCHORS", "fit_device_profiles", "calibration_report"]

_COEFF_NAMES = ("throughput_gflops", "bandwidth_gbps", "overhead_ms", "pool_penalty_ms", "cache_mb")


@dataclass(frozen=True)
class Anchor:
    """A model configuration with its paper-reported latency statistics."""

    label: str
    config: dict[str, int]  # SearchableResNet18 kwargs (incl. in_channels)
    mean_ms: float
    std_ms: float | None = None  # None: only the mean is anchored
    weight: float = 1.0


def _cfg(channels, kernel, stride, padding, pool, kpool, spool, feat) -> dict[str, int]:
    return {
        "in_channels": channels,
        "kernel_size": kernel,
        "stride": stride,
        "padding": padding,
        "pool_choice": pool,
        "kernel_size_pool": kpool,
        "stride_pool": spool,
        "initial_output_feature": feat,
    }


#: The paper's latency anchors (Tables 3-5).  Table 4 rows 2 and 4 are the
#: same architecture measured twice (8.23/8.13 ms) — anchored once at the
#: average.  The Table-3 maximum (249.56 ms) is attributed to the most
#: expensive point of the search space: 7 channels, 7x7 stride-1 stem,
#: no pooling, 64 initial features.
PAPER_ANCHORS: tuple[Anchor, ...] = (
    Anchor("baseline-5ch", _cfg(5, 7, 2, 3, 1, 3, 2, 64), 31.91, 20.36),
    Anchor("baseline-7ch", _cfg(7, 7, 2, 3, 1, 3, 2, 64), 32.46, 20.96),
    Anchor("pareto-A", _cfg(7, 3, 2, 1, 0, 3, 2, 32), 8.19, 4.59),
    Anchor("pareto-BD", _cfg(5, 3, 2, 1, 0, 3, 2, 32), 8.18, 4.60),
    Anchor("pareto-C", _cfg(7, 3, 2, 1, 1, 3, 2, 32), 18.30, 16.02),
    Anchor("pareto-E", _cfg(5, 3, 2, 1, 1, 3, 1, 32), 18.24, 15.96),
    Anchor("sweep-max", _cfg(7, 7, 1, 3, 0, 3, 2, 64), 249.56, None, weight=1.0),
)


def _anchor_kernels(anchor: Anchor, input_hw: tuple[int, int]) -> list[Kernel]:
    with skip_init():
        model = SearchableResNet18(num_classes=2, **anchor.config)
    return extract_kernels(trace_model(model, input_hw=input_hw))


def _profiles_from_vector(x: np.ndarray, base: dict[str, DeviceProfile]) -> dict[str, DeviceProfile]:
    profiles: dict[str, DeviceProfile] = {}
    values = np.exp(x).reshape(len(base), len(_COEFF_NAMES))
    for row, (name, profile) in zip(values, base.items()):
        profiles[name] = profile.with_coefficients(**dict(zip(_COEFF_NAMES, map(float, row))))
    return profiles


def _vector_from_profiles(profiles: dict[str, DeviceProfile]) -> np.ndarray:
    rows = [[getattr(p, c) for c in _COEFF_NAMES] for p in profiles.values()]
    return np.log(np.asarray(rows, dtype=float).reshape(-1))


def fit_device_profiles(
    anchors: tuple[Anchor, ...] = PAPER_ANCHORS,
    base: dict[str, DeviceProfile] | None = None,
    input_hw: tuple[int, int] = (100, 100),
    prior_weight: float = 0.05,
) -> dict[str, DeviceProfile]:
    """Fit the 16 device coefficients to the paper's latency anchors.

    Residuals are relative errors of the anchored means and stds, plus a
    weak log-domain prior toward the initial coefficients (the problem is
    otherwise mildly underdetermined).
    """
    base = dict(DEVICE_PROFILES) if base is None else dict(base)
    kernel_lists = [_anchor_kernels(a, input_hw) for a in anchors]
    x0 = _vector_from_profiles(base)

    def residuals(x: np.ndarray) -> np.ndarray:
        profiles = _profiles_from_vector(x, base)
        res: list[float] = []
        for anchor, kernels in zip(anchors, kernel_lists):
            per_device = [
                sum(kernel_latency_ms(k, p) for k in kernels) for p in profiles.values()
            ]
            mean = float(np.mean(per_device))
            res.append(anchor.weight * (mean - anchor.mean_ms) / anchor.mean_ms)
            if anchor.std_ms is not None:
                std = float(np.std(per_device))
                res.append(anchor.weight * (std - anchor.std_ms) / anchor.std_ms)
        res.extend(prior_weight * (x - x0))
        return np.asarray(res)

    solution = least_squares(residuals, x0, method="lm", max_nfev=4000)
    return _profiles_from_vector(solution.x, base)


def calibration_report(
    profiles: dict[str, DeviceProfile] | None = None,
    anchors: tuple[Anchor, ...] = PAPER_ANCHORS,
    input_hw: tuple[int, int] = (100, 100),
) -> list[dict[str, float | str]]:
    """Paper-vs-predicted table for every anchor under ``profiles``."""
    profiles = DEVICE_PROFILES if profiles is None else profiles
    rows: list[dict[str, float | str]] = []
    for anchor in anchors:
        kernels = _anchor_kernels(anchor, input_hw)
        per_device = [sum(kernel_latency_ms(k, p) for k in kernels) for p in profiles.values()]
        rows.append(
            {
                "anchor": anchor.label,
                "paper_mean": anchor.mean_ms,
                "pred_mean": float(np.mean(per_device)),
                "paper_std": anchor.std_ms if anchor.std_ms is not None else float("nan"),
                "pred_std": float(np.std(per_device)),
            }
        )
    return rows
