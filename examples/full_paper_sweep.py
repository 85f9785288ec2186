"""Regenerate the paper's full evaluation section in one run.

Launches the exhaustive 1,728-trial sweep (paper Section 4) with the
calibrated surrogate, paper-mode failure injection, the four latency
predictors and onnxlite memory measurement, then prints:

- the trial accounting (1,717 valid outcomes),
- Table 3 (objective ranges),
- Table 4 (non-dominated solutions) plus the per-combination fronts,
- Table 5 (stock ResNet-18 variants),
- Figure 3/4 summary statistics.

Takes ~5-10 seconds on one CPU core: latency and memory are measured
from each architecture's shapes, without drawing or serializing weights.

Run:  python examples/full_paper_sweep.py [output.jsonl]
"""

import sys

from repro.core.paper import TABLE3_RANGES, TABLE4_PARETO, TABLE5_BASELINE
from repro.core.pipeline import evaluate_baselines, run_paper_sweep
from repro.core.report import baseline_table, objective_ranges_table, pareto_table, per_combination_fronts
from repro.core.figures import pareto_scatter_figure, radar_figure
from repro.nas.storage import TrialStore
from repro.utils.tables import render_table


def main() -> None:
    print("running the 1,728-trial grid sweep (surrogate accuracy, "
          "4 latency predictors, onnxlite memory)...")
    result = run_paper_sweep(seed=0)
    print(f"launched {result.launched} trials, {result.valid_outcomes} valid outcomes "
          f"(paper: 1,717)\n")

    if len(sys.argv) > 1:
        store = TrialStore(sys.argv[1])
        store.extend(result.store.records())
        print(f"trials written to {sys.argv[1]}\n")

    rows = objective_ranges_table(result)
    for row, (key, (lo, hi)) in zip(rows, TABLE3_RANGES.items()):
        row["paper_min"], row["paper_max"] = lo, hi
    print(render_table(rows, title="Table 3 — objective value ranges"))

    print(render_table(pareto_table(result),
                       title="Table 4 — non-dominated solutions (ours)"))
    print(render_table(TABLE4_PARETO, title="Table 4 — paper's reported rows"))

    print("Per-input-combination fronts (recovers pooled solutions like paper rows 3/5):")
    for combo, front_rows in per_combination_fronts(result).items():
        best = front_rows[0]
        print(f"  ch{combo[0]} b{combo[1]:2d}: {len(front_rows)} members, best "
              f"acc={best['accuracy']:.2f} lat={best['latency_ms']:.2f} pool={best['pool_choice']}")
    print()

    baselines = baseline_table(evaluate_baselines())
    paper = {(r["channels"], r["batch"]): r for r in TABLE5_BASELINE}
    for row in baselines:
        ref = paper[(row["channels"], row["batch"])]
        row["paper_acc"], row["paper_lat"] = ref["accuracy"], ref["latency_ms"]
    print(render_table(baselines, title="Table 5 — stock ResNet-18 variants"))

    scatter = pareto_scatter_figure(result)
    print(f"Figure 3: {scatter['n_points']} points, {scatter['n_front']} non-dominated")
    from repro.core.plots import ascii_radar_bars, ascii_scatter

    print(ascii_scatter(scatter["points"][:, 1], scatter["points"][:, 0],
                        scatter["front_mask"], x_label="latency (ms)", y_label="accuracy (%)"))
    radar = radar_figure(result)
    print(f"Figure 4: {len(radar)} radar polygons "
          f"({sum(s.pooled for s in radar)} pooled, {sum(not s.pooled for s in radar)} un-pooled)")
    print(ascii_radar_bars(radar[:2]))


if __name__ == "__main__":
    main()
