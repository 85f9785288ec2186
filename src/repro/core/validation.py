"""Programmatic reproduction verification.

:func:`verify_reproduction` runs the full pipeline and checks every
qualitative claim the reproduction stands on (the same criteria the
benchmark suite asserts), returning a structured pass/fail report —
usable from the CLI (``repro-nas verify``) or CI without pytest.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.paper import TABLE3_RANGES, TABLE5_BASELINE, TOTAL_TRIALS, VALID_OUTCOMES
from repro.core.pipeline import PipelineResult, evaluate_baselines, run_paper_sweep
from repro.core.report import baseline_table, pareto_table

__all__ = ["Check", "VerificationReport", "verify_reproduction"]


@dataclass(frozen=True)
class Check:
    """One verified claim."""

    name: str
    passed: bool
    detail: str


@dataclass
class VerificationReport:
    """All checks from one verification run."""

    checks: list[Check] = field(default_factory=list)

    def add(self, name: str, passed: bool, detail: str) -> None:
        self.checks.append(Check(name, bool(passed), detail))

    @property
    def ok(self) -> bool:
        """Whether every check passed."""
        return all(c.passed for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]

    def summary(self) -> str:
        lines = []
        for check in self.checks:
            status = "PASS" if check.passed else "FAIL"
            lines.append(f"[{status}] {check.name}: {check.detail}")
        lines.append(f"--- {sum(c.passed for c in self.checks)}/{len(self.checks)} checks passed")
        return "\n".join(lines) + "\n"


def _check_trials(report: VerificationReport, sweep: PipelineResult) -> None:
    report.add(
        "trial accounting",
        sweep.launched == TOTAL_TRIALS and sweep.valid_outcomes == VALID_OUTCOMES,
        f"{sweep.launched} launched / {sweep.valid_outcomes} valid (paper: {TOTAL_TRIALS}/{VALID_OUTCOMES})",
    )


def _check_ranges(report: VerificationReport, sweep: PipelineResult) -> None:
    ranges = sweep.pareto.ranges()
    tolerances = {"accuracy": (3.0, 1.5), "latency_ms": (1.5, 26.0), "memory_mb": (0.2, 0.3)}
    for key, (paper_lo, paper_hi) in TABLE3_RANGES.items():
        lo, hi = ranges[key]
        tol_lo, tol_hi = tolerances[key]
        report.add(
            f"table3 range: {key}",
            abs(lo - paper_lo) <= tol_lo and abs(hi - paper_hi) <= tol_hi,
            f"measured [{lo:.2f}, {hi:.2f}] vs paper [{paper_lo}, {paper_hi}]",
        )


def _check_front(report: VerificationReport, sweep: PipelineResult) -> None:
    rows = pareto_table(sweep)
    report.add("front is small and selective", 2 <= len(rows) <= 10, f"{len(rows)} members (paper: 5)")
    traits = all(
        r["kernel_size"] == 3 and r["stride"] == 2 and r["padding"] == 1
        and r["initial_output_feature"] == 32
        for r in rows
    )
    report.add("front shares the paper's winning traits", traits,
               "k=3, s=2, p=1, f=32 for every member" if traits else "trait mismatch")
    best = rows[0]
    report.add(
        "best solution matches the paper's",
        best["channels"] == 7 and best["batch"] == 16 and best["pool_choice"] == 0
        and abs(best["accuracy"] - 96.13) < 1.0 and abs(best["latency_ms"] - 8.19) < 1.0,
        f"ch{best['channels']}/b{best['batch']} acc={best['accuracy']:.2f} lat={best['latency_ms']:.2f}",
    )


def _check_baseline(report: VerificationReport) -> None:
    rows = baseline_table(evaluate_baselines())
    paper = {(r["channels"], r["batch"]): r for r in TABLE5_BASELINE}
    worst_acc = max(abs(r["accuracy"] - paper[(r["channels"], r["batch"])]["accuracy"]) for r in rows)
    worst_lat = max(
        abs(r["latency_ms"] - paper[(r["channels"], r["batch"])]["latency_ms"])
        / paper[(r["channels"], r["batch"])]["latency_ms"]
        for r in rows
    )
    report.add("table5 baseline accuracies", worst_acc <= 1.5, f"max |delta| = {worst_acc:.2f} pp")
    report.add("table5 baseline latencies", worst_lat <= 0.10, f"max rel delta = {worst_lat:.1%}")
    by = {(r["channels"], r["batch"]): r["accuracy"] for r in rows}
    orderings = all(
        by[(ch, 16)] > by[(ch, 8)] > by[(ch, 32)] for ch in (5, 7)
    ) and by[(7, 16)] > by[(5, 16)]
    report.add("table5 orderings (7ch>5ch, b16>b8>b32)", orderings, "all orderings hold" if orderings else "broken")


def _check_headline(report: VerificationReport, sweep: PipelineResult) -> None:
    rows = pareto_table(sweep)
    baselines = baseline_table(evaluate_baselines())
    best = rows[0]
    base = next(r for r in baselines if (r["channels"], r["batch"]) == (7, 16))
    speedup = base["latency_ms"] / best["latency_ms"]
    shrink = base["memory_mb"] / best["memory_mb"]
    report.add(
        "headline: winners beat the baseline ~4x at equal accuracy",
        speedup > 3.0 and shrink > 3.5 and best["accuracy"] >= base["accuracy"] - 0.5,
        f"{speedup:.1f}x faster, {shrink:.1f}x smaller, acc {best['accuracy']:.2f} vs {base['accuracy']:.2f}",
    )


def verify_reproduction(seed: int = 0) -> VerificationReport:
    """Run the sweep and verify every headline claim; ~5-10 s on one core."""
    report = VerificationReport()
    sweep = run_paper_sweep(seed=seed)
    _check_trials(report, sweep)
    _check_ranges(report, sweep)
    _check_front(report, sweep)
    _check_baseline(report)
    _check_headline(report, sweep)
    return report
