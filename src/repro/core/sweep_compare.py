"""Compare two sweep results (seed-sensitivity and regression analysis).

The paper reports a single NNI run; a natural robustness question is how
stable its conclusions are across runs.  :func:`compare_sweeps` aligns
two result sets by configuration, computes the accuracy rank correlation
(Spearman), the front overlap at the architecture level, and per-objective
deltas — used by the seed-sensitivity ablation bench.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.pipeline import PipelineResult
from repro.nas.config import ModelConfig

__all__ = ["SweepComparison", "compare_sweeps"]


@dataclass(frozen=True)
class SweepComparison:
    """Alignment statistics between two sweeps."""

    common_trials: int
    accuracy_spearman: float
    mean_abs_accuracy_delta: float
    front_a_size: int
    front_b_size: int
    front_architecture_jaccard: float
    best_architecture_matches: bool
    best_family_matches: bool  # same (kernel, stride, padding, width) traits

    def summary(self) -> str:
        best = ("matches" if self.best_architecture_matches
                else ("same family" if self.best_family_matches else "DIFFERS"))
        return (
            f"{self.common_trials} aligned trials; accuracy Spearman rho = "
            f"{self.accuracy_spearman:.3f}, mean |delta| = {self.mean_abs_accuracy_delta:.2f} pp; "
            f"fronts {self.front_a_size} vs {self.front_b_size}, architecture Jaccard = "
            f"{self.front_architecture_jaccard:.2f}; best architecture {best}"
        )


def _records_by_config(result: PipelineResult) -> dict[str, dict]:
    out: dict[str, dict] = {}
    for record in result.records:
        out[ModelConfig.from_dict(record).config_id()] = record
    return out


def _front_architectures(result: PipelineResult) -> set[tuple]:
    return {
        ModelConfig.from_dict(record).architecture_key()
        for record in result.front_records()
    }


def compare_sweeps(a: PipelineResult, b: PipelineResult) -> SweepComparison:
    """Align two sweeps by configuration and compare their conclusions."""
    by_a = _records_by_config(a)
    by_b = _records_by_config(b)
    common = sorted(set(by_a) & set(by_b))
    if len(common) < 3:
        raise ValueError(f"only {len(common)} common trials; nothing to compare")
    acc_a = np.array([by_a[key]["accuracy"] for key in common])
    acc_b = np.array([by_b[key]["accuracy"] for key in common])
    # Imported on first use: scipy.stats takes about 0.25 s to import.
    from scipy.stats import spearmanr

    rho, _ = spearmanr(acc_a, acc_b)

    front_a = _front_architectures(a)
    front_b = _front_architectures(b)
    union = front_a | front_b
    jaccard = len(front_a & front_b) / len(union) if union else 1.0

    best_a_cfg = ModelConfig.from_dict(a.front_records()[0])
    best_b_cfg = ModelConfig.from_dict(b.front_records()[0])
    best_a = best_a_cfg.architecture_key()
    best_b = best_b_cfg.architecture_key()

    def family(cfg: ModelConfig) -> tuple:
        return (cfg.kernel_size, cfg.stride, cfg.padding, cfg.initial_output_feature)

    return SweepComparison(
        common_trials=len(common),
        accuracy_spearman=float(rho),
        mean_abs_accuracy_delta=float(np.abs(acc_a - acc_b).mean()),
        front_a_size=len(a.front_records()),
        front_b_size=len(b.front_records()),
        front_architecture_jaccard=float(jaccard),
        best_architecture_matches=best_a == best_b,
        best_family_matches=family(best_a_cfg) == family(best_b_cfg),
    )
