"""Lightweight per-layer profiling (the Discussion's Nsight substitute)."""

from repro.profiling.profiler import (
    LayerProfiler,
    LayerProfile,
    TrainingStepProfile,
    profile_model,
    profile_training_step,
)
from repro.profiling.report import profile_table

__all__ = [
    "LayerProfiler",
    "LayerProfile",
    "TrainingStepProfile",
    "profile_model",
    "profile_training_step",
    "profile_table",
]
