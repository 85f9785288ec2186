"""Experiment run telemetry: progress, throughput, ETA.

The paper reports NNI experiment wall-times (9h20m-29h per input
combination); :class:`RunTelemetry` captures the equivalent statistics
for this library's sweeps and renders them live through the Experiment's
progress callback.

:class:`RunTelemetry` implements the :class:`~repro.obs.ProgressListener`
protocol, so it can be passed directly as ``Experiment(progress=...)``
alongside other listeners.  It keeps plain per-run fields for the
console lines; the exportable counters are written once, into the
process-wide obs registry, by the :class:`~repro.obs.ObsProgressListener`
that every ``Experiment`` and ``FabricSweep`` installs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.nas.trial import TrialRecord
from repro.utils.timing import format_duration

__all__ = ["RunTelemetry"]


@dataclass
class RunTelemetry:
    """Collects per-trial durations and derives run-level statistics.

    Use as an Experiment progress callback::

        telemetry = RunTelemetry()
        Experiment(..., progress=telemetry).run(budget)
        print(telemetry.summary())
    """

    started_at: float = field(default_factory=time.perf_counter)
    durations: list[float] = field(default_factory=list)
    failures: int = 0
    total: int = 0
    log_every: int = 0  # 0 disables live printing
    #: Fault-tolerance counters (see :mod:`repro.nas.retry`): trials
    #: that needed >1 attempt, extra attempts summed, trials recovered
    #: by retry (ok after >1 attempt), per-error-kind failure counts,
    #: and device predictors skipped by graceful degradation.
    retried_trials: int = 0
    total_retries: int = 0
    recovered_trials: int = 0
    deadline_exceeded: int = 0
    failures_by_kind: dict = field(default_factory=dict)
    skipped_device_measurements: int = 0
    _done: int = 0

    def __call__(self, done: int, total: int, record: TrialRecord) -> None:
        """Experiment progress hook."""
        self._done = done
        self.total = total
        self.durations.append(record.duration_s)
        if record.attempts > 1:
            self.retried_trials += 1
            self.total_retries += record.attempts - 1
            if record.ok:
                self.recovered_trials += 1
        self.skipped_device_measurements += len(record.skipped_devices)
        if not record.ok:
            self.failures += 1
            kind = record.error_kind or "failed"
            self.failures_by_kind[kind] = self.failures_by_kind.get(kind, 0) + 1
            if kind == "deadline":
                self.deadline_exceeded += 1
        if self.log_every and done % self.log_every == 0:
            print(f"  [{done}/{total}] {self.eta_line()}")

    # -- ProgressListener protocol -------------------------------------------
    # RunTelemetry predates the listener protocol; the legacy ``__call__``
    # form remains the data path, and these hooks make the class a
    # first-class listener for ``Experiment(progress=...)`` fan-outs.

    def on_trial_start(self, trial_id: int, config: object) -> None:
        """Listener hook (no per-trial state needed at start)."""

    def on_trial_end(self, done: int, total: int, record: TrialRecord) -> None:
        """Listener hook: delegates to the legacy callable form."""
        self(done, total, record)

    def on_run_end(self, result: object) -> None:
        """Listener hook (summary stays pull-based via :meth:`summary`)."""

    @property
    def elapsed_s(self) -> float:
        return time.perf_counter() - self.started_at

    @property
    def mean_trial_s(self) -> float:
        """Mean wall time per completed trial."""
        return sum(self.durations) / len(self.durations) if self.durations else 0.0

    @property
    def trials_per_second(self) -> float:
        return self._done / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def eta_seconds(self) -> float:
        """Estimated remaining time from the observed rate."""
        remaining = max(self.total - self._done, 0)
        rate = self.trials_per_second
        return remaining / rate if rate > 0 else float("inf")

    def eta_line(self) -> str:
        """One-line progress status."""
        eta = self.eta_seconds()
        eta_text = format_duration(eta) if eta != float("inf") else "?"
        return (
            f"{self._done}/{self.total} trials, "
            f"{self.trials_per_second:.1f}/s, eta {eta_text}, "
            f"{self.failures} failed"
        )

    def fault_line(self) -> str:
        """One-line fault-tolerance summary (retries, recoveries, kinds)."""
        kinds = ", ".join(f"{k}={v}" for k, v in sorted(self.failures_by_kind.items()))
        return (
            f"{self.retried_trials} trials retried ({self.total_retries} extra attempts, "
            f"{self.recovered_trials} recovered), {self.deadline_exceeded} deadline-exceeded, "
            f"{self.skipped_device_measurements} device predictions skipped"
            + (f"; failures by kind: {kinds}" if kinds else "")
        )

    def summary(self) -> str:
        """End-of-run report."""
        slowest = max(self.durations) if self.durations else 0.0
        line = (
            f"completed {self._done}/{self.total} trials in {format_duration(self.elapsed_s)} "
            f"({self.failures} failed); mean trial {format_duration(self.mean_trial_s)}, "
            f"slowest {format_duration(slowest)}"
        )
        if self.retried_trials or self.failures or self.skipped_device_measurements:
            line += "; " + self.fault_line()
        return line
