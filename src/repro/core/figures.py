"""Figure-data generators (the repository is plot-library-free; each
generator returns the numbers a plotting frontend would draw, and the
benches print them as text).

- Figure 1: the ResNet-18 architecture with 5- vs 7-channel inputs;
- Figure 2: the search-space structure and its cardinality;
- Figure 3: the 3-D objective scatter with the Pareto front highlighted;
- Figure 4: radar-plot axes for the non-dominated solutions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.pipeline import PipelineResult
from repro.data.dataset import CHANNEL_NAMES_5, CHANNEL_NAMES_7
from repro.graph.trace import trace_model
from repro.nas.searchspace import SearchSpace, DEFAULT_SPACE
from repro.nn.init import skip_init
from repro.nn.resnet import SearchableResNet18, build_baseline_resnet18
from repro.pareto.normalize import normalize_minmax

__all__ = [
    "architecture_figure",
    "searchspace_figure",
    "pareto_scatter_figure",
    "radar_figure",
    "RadarSolution",
]


def architecture_figure(model: SearchableResNet18 | None = None, input_hw: tuple[int, int] = (100, 100)) -> dict:
    """Figure 1: layer stack of the (baseline) model for both channel sets.

    Returns per-layer rows (name, op, output shape, params) plus the two
    channel stacks.
    """
    if model is None:
        with skip_init():
            model = build_baseline_resnet18(in_channels=5)
    graph = trace_model(model, input_hw=input_hw)
    layers = [
        {
            "name": node.name,
            "op": node.op.value,
            "out_shape": "x".join(map(str, node.out_shape)),
            "params": node.params,
        }
        for node in graph.topological()
    ]
    return {
        "channels_5": list(CHANNEL_NAMES_5),
        "channels_7": list(CHANNEL_NAMES_7),
        "layers": layers,
        "total_params": graph.total_params(),
    }


def searchspace_figure(space: SearchSpace = DEFAULT_SPACE) -> dict:
    """Figure 2: every knob with its choices plus the cardinality ladder."""
    knobs = {name: list(getattr(space, name)) for name in space._ARCH_FIELDS}
    return {
        "knobs": knobs,
        "input_combinations": [
            {"channels": c, "batch": b}
            for c in space.channels
            for b in space.batches
        ],
        "architectures_per_combination": space.architectures_per_combination(),
        "unique_architectures_per_combination": space.unique_architectures_per_combination(),
        "total_configurations": space.total_configurations(),
    }


def pareto_scatter_figure(result: PipelineResult) -> dict:
    """Figure 3: normalized 3-D point cloud + the red (front) mask.

    Axes are normalized within their observed ranges, as the paper does
    'to emphasize the connections among the non-dominated solutions'.
    """
    values = result.pareto.values
    normalized = normalize_minmax(values)
    mask = np.zeros(len(values), dtype=bool)
    mask[result.pareto.front_indices] = True
    return {
        "axes": list(result.pareto.objective_keys),
        "points": values,
        "points_normalized": normalized,
        "front_mask": mask,
        "n_points": int(len(values)),
        "n_front": int(mask.sum()),
    }


@dataclass
class RadarSolution:
    """One radar polygon: per-axis normalized values plus its group."""

    label: str
    pooled: bool  # green circles = with pooling, red = without (paper legend)
    axes: list[str] = field(default_factory=list)
    values: list[float] = field(default_factory=list)


_RADAR_AXES = (
    "accuracy",
    "latency_ms",
    "memory_mb",
    "kernel_size",
    "stride",
    "padding",
    "kernel_size_pool",
    "stride_pool",
    "initial_output_feature",
)


def radar_figure(result: PipelineResult) -> list[RadarSolution]:
    """Figure 4: normalized config+objective axes per non-dominated model."""
    front = result.front_records()
    if not front:
        return []
    matrix = np.array([[float(rec[a]) for a in _RADAR_AXES] for rec in front])
    normalized = normalize_minmax(matrix)
    solutions = []
    for i, rec in enumerate(front):
        solutions.append(
            RadarSolution(
                label=f"ch{rec['channels']}-b{rec['batch']}-acc{rec['accuracy']:.2f}",
                pooled=bool(rec["pool_choice"]),
                axes=list(_RADAR_AXES),
                values=[float(v) for v in normalized[i]],
            )
        )
    return solutions
