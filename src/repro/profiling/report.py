"""Rendering of profiler output."""

from __future__ import annotations

from typing import Sequence

from repro.profiling.profiler import LayerProfile
from repro.utils.tables import render_table
from repro.utils.timing import format_duration

__all__ = ["profile_table"]


def profile_table(profiles: Sequence[LayerProfile], title: str = "Layer profile") -> str:
    """An aligned text table of per-stage time / FLOPs / throughput."""
    total_s = sum(p.seconds for p in profiles) or 1.0
    rows = []
    for p in profiles:
        rows.append(
            {
                "stage": p.name,
                "time": format_duration(p.seconds),
                "share": f"{100.0 * p.seconds / total_s:.1f}%",
                "MFLOPs": round(p.flops / 1e6, 1),
                "GFLOP/s": round(p.gflops_per_s, 2),
            }
        )
    return render_table(rows, title=title)
