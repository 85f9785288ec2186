"""Markdown report generation for a sweep.

Renders one self-contained markdown document — trial accounting, Table 3
ranges, the Table-4 front, per-combination fronts, and the Table-5
baseline — each next to the paper's reported values.  ``repro-nas report``
writes it to disk; EXPERIMENTS.md in this repository is the curated
version of this artifact.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, Sequence

from repro.core.paper import TABLE3_RANGES, TABLE4_PARETO, TABLE5_BASELINE, TOTAL_TRIALS, VALID_OUTCOMES
from repro.core.pipeline import PipelineResult, evaluate_baselines
from repro.core.report import baseline_table, pareto_table, per_combination_fronts

__all__ = ["sweep_markdown", "write_sweep_report"]


def _md_table(rows: Sequence[Mapping], columns: Sequence[str] | None = None) -> str:
    """Rows as a GitHub-flavored markdown table."""
    if not rows:
        return "*(empty)*\n"
    columns = list(columns) if columns is not None else list(rows[0])
    head = "| " + " | ".join(columns) + " |"
    rule = "|" + "|".join("---" for _ in columns) + "|"
    body = []
    for row in rows:
        cells = []
        for col in columns:
            value = row.get(col, "")
            cells.append(f"{value:.2f}" if isinstance(value, float) else str(value))
        body.append("| " + " | ".join(cells) + " |")
    return "\n".join([head, rule, *body]) + "\n"


_FRONT_COLUMNS = ("channels", "batch", "accuracy", "latency_ms", "lat_std", "memory_mb",
                  "kernel_size", "stride", "padding", "pool_choice", "initial_output_feature")


def _fault_tolerance_section(result: PipelineResult) -> list[str]:
    """Retry/failure/degradation accounting from the trial records.

    Computed from the store itself (``attempts`` / ``error_kind`` /
    ``skipped_devices`` are persisted per record), so the section also
    renders correctly for stores reloaded from disk; quarantined-line
    counts come from the store's last crash-safe ``load``.
    """
    records = result.store.records()
    retried = [r for r in records if r.attempts > 1]
    recovered = sum(1 for r in retried if r.ok)
    failures: dict[str, int] = {}
    for r in records:
        if not r.ok:
            kind = r.error_kind or "failed"
            failures[kind] = failures.get(kind, 0) + 1
    skipped_devices = sum(len(r.skipped_devices) for r in records)
    quarantined = len(getattr(result.store, "quarantined", ()))
    parts = ["\n## Fault tolerance\n"]
    rows = [
        {"quantity": "trials retried", "value": len(retried)},
        {"quantity": "extra attempts", "value": sum(r.attempts - 1 for r in retried)},
        {"quantity": "recovered by retry", "value": recovered},
        {"quantity": "deadline exceeded", "value": failures.get("deadline", 0)},
        {"quantity": "device predictions skipped", "value": skipped_devices},
        {"quantity": "store lines quarantined", "value": quarantined},
    ]
    rows.extend(
        {"quantity": f"failed ({kind})", "value": count}
        for kind, count in sorted(failures.items())
    )
    parts.append(_md_table(rows))
    return parts


def _kernel_energy_section(device: str = "cortexA76cpu") -> list[str]:
    """TEA-DNN-style kernel-variant energy what-if for the deployment tile.

    Prices the Pareto-winner architecture at the 24x24 deployment tile
    under the two kernel families the deploy compiler can emit (fp32
    im2col, the int8 integer path), using the per-variant factors of
    :data:`repro.latency.energy.VARIANT_COST_FACTORS`.  Static estimate
    only — which family a quantized plan binds depends on whether the
    native int8 kernels loaded (:func:`repro.deploy.autotune_variants`).
    """
    from repro.graph.trace import trace_model
    from repro.latency.energy import energy_report
    from repro.nas.config import ModelConfig
    from repro.nn.init import skip_init
    from repro.nn.resnet import build_model

    config = ModelConfig(channels=5, batch=8, kernel_size=3, stride=2, padding=1,
                         pool_choice=0, kernel_size_pool=3, stride_pool=2,
                         initial_output_feature=32)
    with skip_init():
        model = build_model(config)
    graph = trace_model(model, input_hw=(24, 24))
    integer = {"conv-bn-relu": "conv.im2col.int8", "conv-bn": "conv.im2col.int8",
               "fc": "gemm.int8", "add-relu": "add.int8", "add": "add.int8",
               "maxpool": "maxpool.u8", "global-avgpool": "gap.u8", "relu": "relu.u8"}
    fp32_rows = energy_report(graph, device)
    int8_map = {r["kernel"]: integer.get(r["kernel_type"], r["variant"]) for r in fp32_rows}
    fp32_total = sum(r["energy_mj"] for r in fp32_rows)
    scenarios = [("fp32 im2col (compiler default)", {}),
                 ("int8 integer path", int8_map)]
    rows = []
    for label, variants in scenarios:
        total = sum(r["energy_mj"] for r in energy_report(graph, device, variants=variants))
        rows.append({"kernel selection": label, "energy_mj": round(total, 3),
                     "vs_fp32": f"{total / fp32_total:.2f}x"})
    parts = ["\n## Kernel variants & energy (deployment tile)\n"]
    parts.append(f"Estimated dynamic energy per inference on `{device}` at the "
                 "24x24 tile, by kernel selection (library extension — the "
                 "paper reports no energy figures):\n")
    parts.append(_md_table(rows))
    parts.append("\nA quantized plan binds the int8 path where the native "
                 "int8 kernels load and fp32 elsewhere (`repro-nas infer "
                 "--quantized` prints the bound variants with per-kernel "
                 "energy).\n")
    return parts


def sweep_markdown(result: PipelineResult, include_baseline: bool = True) -> str:
    """The full markdown report for one sweep result."""
    parts: list[str] = ["# Sweep report (paper vs measured)\n"]

    parts.append("## Trial accounting\n")
    parts.append(_md_table([
        {"quantity": "launched", "measured": result.launched, "paper": TOTAL_TRIALS},
        {"quantity": "valid outcomes", "measured": result.valid_outcomes, "paper": VALID_OUTCOMES},
    ]))

    parts.extend(_fault_tolerance_section(result))

    parts.append("\n## Objective ranges (Table 3)\n")
    ranges = result.pareto.ranges()
    rows = []
    for key, (paper_lo, paper_hi) in TABLE3_RANGES.items():
        lo, hi = ranges[key]
        rows.append({"objective": key, "measured_min": round(lo, 2), "measured_max": round(hi, 2),
                     "paper_min": paper_lo, "paper_max": paper_hi})
    parts.append(_md_table(rows))

    parts.append("\n## Non-dominated solutions (Table 4)\n")
    parts.append(_md_table(pareto_table(result), _FRONT_COLUMNS))
    parts.append("\nPaper's reported rows:\n")
    parts.append(_md_table(TABLE4_PARETO, _FRONT_COLUMNS))

    parts.extend(_kernel_energy_section())

    parts.append("\n## Per-input-combination fronts\n")
    for (channels, batch), rows_ in per_combination_fronts(result).items():
        parts.append(f"\n### channels={channels}, batch={batch} ({len(rows_)} members)\n")
        parts.append(_md_table(rows_[:3], _FRONT_COLUMNS))

    if include_baseline:
        parts.append("\n## Stock ResNet-18 variants (Table 5)\n")
        rows = baseline_table(evaluate_baselines())
        paper = {(r["channels"], r["batch"]): r for r in TABLE5_BASELINE}
        for row in rows:
            ref = paper[(row["channels"], row["batch"])]
            row["paper_accuracy"] = ref["accuracy"]
            row["paper_latency_ms"] = ref["latency_ms"]
        parts.append(_md_table(rows))

    return "\n".join(parts)


def write_sweep_report(result: PipelineResult, path: str | Path, include_baseline: bool = True) -> int:
    """Write the markdown report; returns the byte size."""
    path = Path(path)
    path.write_text(sweep_markdown(result, include_baseline=include_baseline), encoding="utf-8")
    return path.stat().st_size
