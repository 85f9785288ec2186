"""Deterministic trial-failure injection.

The paper launched 6 x 288 = 1,728 grid trials but reports 1,717 valid
outcomes; the 11 missing trials failed at run time (the space contains no
structurally invalid configs for 100x100 inputs — see DESIGN.md).  The
injector reproduces that effect deterministically: a seeded hash marks a
fixed subset of trial indices as failed, and 'paper mode' picks exactly
11 of 1,728.

This module is the minimal, paper-faithful injector.  The general chaos
harness — typed transient exceptions, latency spikes, deadline-testing
hangs, store-tail corruption — lives in :mod:`repro.faults`; its
:meth:`repro.faults.FaultPlan.paper_mode` preset selects the *same* 11
trial indices as this injector for the same seed (it delegates to
:meth:`FailureInjector.paper_mode`), so either can drive the paper
accounting.
"""

from __future__ import annotations

from repro.utils.rng import rng_from_seed, stable_hash

__all__ = ["FailureInjector", "PAPER_FAILURE_COUNT", "PAPER_TRIAL_COUNT"]

PAPER_TRIAL_COUNT = 1728
PAPER_FAILURE_COUNT = 11


class FailureInjector:
    """Marks a deterministic subset of trial indices as failed.

    Parameters
    ----------
    total:
        Total number of trials in the run.
    failures:
        How many of them fail.
    seed:
        Selects which indices fail (same seed -> same set).
    """

    def __init__(self, total: int, failures: int = 0, seed: int = 0) -> None:
        if failures < 0 or failures > total:
            raise ValueError(f"failures must be in [0, {total}], got {failures}")
        self.total = total
        self.failures = failures
        rng = rng_from_seed(stable_hash("failure-injection", seed, total, failures))
        self._failed = frozenset(map(int, rng.choice(total, size=failures, replace=False))) if failures else frozenset()

    @classmethod
    def none(cls) -> "FailureInjector":
        """An injector that fails nothing."""
        return cls(total=1, failures=0)

    @classmethod
    def paper_mode(cls, seed: int = 0) -> "FailureInjector":
        """The paper's 11-of-1,728 failure pattern."""
        return cls(total=PAPER_TRIAL_COUNT, failures=PAPER_FAILURE_COUNT, seed=seed)

    def fails(self, trial_index: int) -> bool:
        """Whether the given trial index is injected as a failure."""
        return trial_index in self._failed

    @property
    def failed_indices(self) -> frozenset[int]:
        """The injected failure set."""
        return self._failed

    def describe(self) -> str:
        """Stable one-line identity (used by the store's run manifest)."""
        return (
            f"FailureInjector(total={self.total}, failures={self.failures}, "
            f"failed={sorted(self._failed)})"
        )
