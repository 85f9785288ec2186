"""The deterministic fault-injection harness.

Everything here is seeded: the same ``(seed, total, counts)`` produce the
same fault schedule in every process, so chaos tests are exactly
repeatable and a resumed sweep sees the same injected world as the
original one.

Building blocks
---------------
- :class:`FaultPlan` — a per-trial schedule of typed faults.  Plugs into
  :class:`~repro.nas.experiment.Experiment` as its ``failure_injector``:
  the runner calls ``fails(trial_id)`` (permanent, the paper's
  11-of-1,728 accounting) and ``on_attempt(trial_id, attempt)`` (raises
  transient errors, sleeps latency spikes, simulates hangs that honor
  the active :func:`~repro.nas.retry.current_deadline`).
- :class:`KillSwitch` — a crash-safe once-only file latch.  A
  :class:`~repro.nas.fabric.NodeEvaluator` given ``kill_config_ids``
  fires one inside its pool worker, which ``os._exit``\\ s before
  evaluating (exactly once, even across a resume), exercising pool
  respawn + requeue in :meth:`~repro.parallel.Executor.map_resilient`.
- :func:`corrupt_store_tail` — deterministic JSONL tail corruption
  (truncate / garbage / partial append), the exact artifact a writer
  killed mid-append leaves behind.
- :func:`interrupt_after` — a progress callback that kills the sweep
  after N trials (fatal, propagates), for interrupt/resume round-trips.
"""

from __future__ import annotations

import enum
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

from repro.nas.failures import FailureInjector
from repro.nas.retry import NodeKilledError, TransientTrialError, current_deadline
from repro.utils.rng import rng_from_seed, stable_hash

__all__ = [
    "FaultKind",
    "Fault",
    "FaultPlan",
    "InjectedTransientError",
    "KillSwitch",
    "NodeFault",
    "NodeFaultKind",
    "NodeFaultPlan",
    "corrupt_store_tail",
    "interrupt_after",
]


class InjectedTransientError(TransientTrialError):
    """A scheduled transient fault (recoverable by retry)."""


class FaultKind(str, enum.Enum):
    """What kind of fault a schedule entry injects."""

    TRIAL_FAILURE = "trial_failure"  # permanent: the paper's lost-trials model
    TRANSIENT = "transient"  # raises on the first `attempts` attempts, then heals
    LATENCY_SPIKE = "latency_spike"  # sleeps `delay_s` inside the attempt
    HANG = "hang"  # sleeps until the trial deadline expires (or `delay_s` cap)


@dataclass(frozen=True)
class Fault:
    """One scheduled fault.

    ``attempts`` is how many leading attempts of the trial the fault
    affects (transients heal after that many failures); ``delay_s`` is
    the spike duration or the hang's hard cap when no deadline is active.
    """

    kind: FaultKind
    trial_id: int
    attempts: int = 1
    delay_s: float = 0.0
    note: str = ""


_HANG_TICK_S = 0.005  # cooperative hang granularity


class FaultPlan:
    """A deterministic, trial-indexed fault schedule.

    Duck-type compatible with :class:`~repro.nas.failures.FailureInjector`
    (``fails``/``failed_indices``), plus the retry-aware
    :meth:`on_attempt` hook the experiment runner calls inside each
    attempt.  Injection counters (:attr:`counters`) feed telemetry and
    test assertions.
    """

    def __init__(self, faults: Iterable[Fault] = (), seed: int = 0) -> None:
        self.seed = seed
        self._by_trial: dict[int, list[Fault]] = {}
        for fault in faults:
            self._by_trial.setdefault(fault.trial_id, []).append(fault)
        #: How many times each fault kind actually fired.
        self.counters: dict[str, int] = {kind.value: 0 for kind in FaultKind}

    # -- construction --------------------------------------------------------

    @classmethod
    def none(cls) -> "FaultPlan":
        """A plan that injects nothing."""
        return cls()

    @classmethod
    def paper_mode(cls, seed: int = 0) -> "FaultPlan":
        """The paper's 11-of-1,728 lost-trials preset.

        Delegates index selection to
        :meth:`FailureInjector.paper_mode`, so the injected trial set is
        bit-identical to the legacy injector's for the same seed.
        """
        legacy = FailureInjector.paper_mode(seed=seed)
        return cls(
            (Fault(FaultKind.TRIAL_FAILURE, t, note="paper lost trial")
             for t in sorted(legacy.failed_indices)),
            seed=seed,
        )

    @classmethod
    def chaos(
        cls,
        total: int,
        transients: int = 0,
        transient_attempts: int = 1,
        failures: int = 0,
        spikes: int = 0,
        spike_s: float = 0.0,
        hangs: int = 0,
        hang_cap_s: float = 0.05,
        seed: int = 0,
    ) -> "FaultPlan":
        """A seeded chaos schedule over ``total`` trials.

        Picks **disjoint** trial sets per fault kind (a trial suffers at
        most one scheduled fault, keeping test assertions crisp):
        ``transients`` trials fail their first ``transient_attempts``
        attempts then heal; ``failures`` trials fail permanently;
        ``spikes`` sleep ``spike_s``; ``hangs`` sleep until the trial
        deadline fires (capped at ``hang_cap_s`` without one).
        """
        want = transients + failures + spikes + hangs
        if want > total:
            raise ValueError(f"scheduled {want} faulty trials but the sweep has only {total}")
        rng = rng_from_seed(stable_hash("fault-plan", seed, total, transients,
                                        failures, spikes, hangs))
        picks = list(map(int, rng.choice(total, size=want, replace=False)))
        faults: list[Fault] = []
        cursor = 0
        for count, kind, kw in (
            (transients, FaultKind.TRANSIENT, {"attempts": transient_attempts}),
            (failures, FaultKind.TRIAL_FAILURE, {}),
            (spikes, FaultKind.LATENCY_SPIKE, {"delay_s": spike_s}),
            (hangs, FaultKind.HANG, {"delay_s": hang_cap_s}),
        ):
            for trial_id in picks[cursor: cursor + count]:
                faults.append(Fault(kind, trial_id, **kw))
            cursor += count
        return cls(faults, seed=seed)

    # -- schedule queries ----------------------------------------------------

    def trials_with(self, kind: FaultKind) -> list[int]:
        """Sorted trial ids carrying a fault of ``kind``."""
        return sorted(t for t, fs in self._by_trial.items() if any(f.kind is kind for f in fs))

    @property
    def failed_indices(self) -> frozenset[int]:
        """Trials injected as permanent failures (legacy-injector API)."""
        return frozenset(self.trials_with(FaultKind.TRIAL_FAILURE))

    def fails(self, trial_id: int) -> bool:
        """Legacy-injector API: is this trial a scheduled permanent loss?"""
        failed = any(f.kind is FaultKind.TRIAL_FAILURE for f in self._by_trial.get(trial_id, ()))
        if failed:
            self.counters[FaultKind.TRIAL_FAILURE.value] += 1
        return failed

    # -- injection -----------------------------------------------------------

    def on_attempt(self, trial_id: int, attempt: int) -> None:
        """Fire the scheduled faults for ``(trial_id, attempt)``.

        Called by the experiment runner *inside* the retried attempt, so
        raised :class:`InjectedTransientError`\\ s flow through the
        taxonomy and hangs are bounded by the active trial deadline.
        """
        for fault in self._by_trial.get(trial_id, ()):
            if fault.kind is FaultKind.TRANSIENT and attempt <= fault.attempts:
                self.counters[FaultKind.TRANSIENT.value] += 1
                raise InjectedTransientError(
                    f"injected transient fault (trial {trial_id}, attempt {attempt}"
                    f"/{fault.attempts} faulty)"
                )
            if fault.kind is FaultKind.LATENCY_SPIKE and attempt <= fault.attempts:
                self.counters[FaultKind.LATENCY_SPIKE.value] += 1
                self._sleep_cooperatively(fault.delay_s)
            if fault.kind is FaultKind.HANG and attempt <= fault.attempts:
                self.counters[FaultKind.HANG.value] += 1
                self._hang(fault.delay_s)

    @staticmethod
    def _sleep_cooperatively(duration_s: float) -> None:
        """Sleep ``duration_s``, honoring the active trial deadline."""
        deadline = current_deadline()
        end = time.monotonic() + duration_s
        while True:
            if deadline is not None:
                deadline.check("injected latency spike")
            remaining = end - time.monotonic()
            if remaining <= 0:
                return
            time.sleep(min(remaining, _HANG_TICK_S))

    @staticmethod
    def _hang(cap_s: float) -> None:
        """Simulate a hang: sleep until the deadline fires (or ``cap_s``).

        With an active deadline shorter than the cap this raises
        :class:`~repro.nas.retry.TrialDeadlineExceeded` — the scenario
        deadline tests assert.  The cap keeps the hang finite even when
        no deadline is installed.
        """
        deadline = current_deadline()
        end = time.monotonic() + cap_s
        while time.monotonic() < end:
            if deadline is not None:
                deadline.check("injected hang")
            time.sleep(_HANG_TICK_S)
        if deadline is not None:
            deadline.check("injected hang")

    def describe(self) -> str:
        """One-line schedule summary for manifests and logs."""
        parts = [f"{kind.value}={len(self.trials_with(kind))}" for kind in FaultKind
                 if self.trials_with(kind)]
        return "FaultPlan(" + (", ".join(parts) or "none") + f", seed={self.seed})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.describe()


# ---------------------------------------------------------------------------
# Worker kills
# ---------------------------------------------------------------------------


class KillSwitch:
    """A cross-process, crash-safe once-only latch (``O_CREAT | O_EXCL``).

    The first process to :meth:`acquire` the latch wins; every later
    attempt (including after respawn or resume) loses.  This makes a
    scheduled worker kill fire exactly once, so pool respawn + requeue
    can be asserted deterministically.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    def acquire(self) -> bool:
        """Atomically claim the latch; ``True`` exactly once per path."""
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        os.close(fd)
        return True

    def fire_once(self, exit_code: int = 42) -> None:
        """Kill this process abruptly — but only on the first acquire.

        ``os._exit`` skips interpreter cleanup, which is exactly how a
        segfaulted / OOM-killed pool worker looks to the parent
        (``BrokenProcessPool``).
        """
        if self.acquire():
            os._exit(exit_code)


# ---------------------------------------------------------------------------
# Node-level faults (the distributed sweep fabric)
# ---------------------------------------------------------------------------


class NodeFaultKind(str, enum.Enum):
    """What kind of node-level fault a schedule entry injects."""

    NODE_KILL = "node_kill"  # the node dies mid-lease (stops heartbeating)
    HEARTBEAT_LOSS = "heartbeat_loss"  # node keeps working, heartbeats vanish


@dataclass(frozen=True)
class NodeFault:
    """One scheduled node-level fault.

    ``after_trials`` arms the fault once the node has completed that many
    trials.  For :attr:`~NodeFaultKind.HEARTBEAT_LOSS`,
    ``duration_trials`` is how many subsequent trials run silent and
    ``stall_s`` delays each silent trial's result submission — long
    enough relative to the lease TTL, the coordinator reclaims the lease
    while the work is genuinely still in flight (the duplicate-commit
    scenario the fabric must deduplicate).
    """

    kind: NodeFaultKind
    node_id: str = ""
    after_trials: int = 0
    duration_trials: int = 1
    stall_s: float = 0.0
    note: str = ""


class NodeFaultPlan:
    """A deterministic schedule of node deaths and heartbeat losses.

    Plugs into :class:`~repro.nas.fabric.WorkerNode` (``fault_plan=``).
    Node kills raise :class:`~repro.nas.retry.NodeKilledError` from
    :meth:`before_trial` — fatal to the node thread, which unwinds
    without releasing its lease, exactly like a machine that dropped off
    the network; the coordinator's reclaim loop re-leases the work.

    Each fault fires **once**, latched either in memory or — with a
    ``latch_dir`` — through crash-safe :class:`KillSwitch` files that
    survive a resume, so the second leg of a chaos round-trip is not
    re-killed.  A torn store between legs is :func:`corrupt_store_tail`'s
    job.
    """

    def __init__(
        self,
        faults: Iterable[NodeFault] = (),
        latch_dir: str | Path | None = None,
    ) -> None:
        self.faults = list(faults)
        self.latch_dir = Path(latch_dir) if latch_dir is not None else None
        self._fired: set[str] = set()
        #: node_id -> {fault index: suppress heartbeats through this trial count}
        self._loss_until: dict[str, dict[int, int]] = {}
        #: How many times each fault kind actually fired.
        self.counters: dict[str, int] = {kind.value: 0 for kind in NodeFaultKind}

    def _latch(self, key: str) -> bool:
        """Once-only trigger; crash-safe when ``latch_dir`` is set."""
        if self.latch_dir is not None:
            return KillSwitch(self.latch_dir / f"{key}.latch").acquire()
        if key in self._fired:
            return False
        self._fired.add(key)
        return True

    def before_trial(self, node_id: str, trials_run: int) -> None:
        """Fire armed faults for a node about to start its next trial.

        Raises :class:`~repro.nas.retry.NodeKilledError` for an armed
        :attr:`~NodeFaultKind.NODE_KILL`; arms heartbeat-loss windows.
        """
        for idx, fault in enumerate(self.faults):
            if fault.node_id != node_id or trials_run < fault.after_trials:
                continue
            if fault.kind is NodeFaultKind.NODE_KILL:
                if self._latch(f"node-kill-{node_id}-{idx}"):
                    self.counters[NodeFaultKind.NODE_KILL.value] += 1
                    raise NodeKilledError(
                        f"injected node kill on {node_id!r} after {trials_run} trial(s)"
                    )
            elif fault.kind is NodeFaultKind.HEARTBEAT_LOSS:
                if self._latch(f"heartbeat-loss-{node_id}-{idx}"):
                    self.counters[NodeFaultKind.HEARTBEAT_LOSS.value] += 1
                    self._loss_until.setdefault(node_id, {})[idx] = (
                        trials_run + fault.duration_trials
                    )

    def heartbeat_suppressed(self, node_id: str, trials_run: int) -> bool:
        """Whether this node's heartbeats are currently swallowed."""
        return any(
            trials_run <= until
            for until in self._loss_until.get(node_id, {}).values()
        )

    def stall_s(self, node_id: str, trials_run: int) -> float:
        """Submission delay for a node inside a heartbeat-loss window."""
        return max(
            (
                self.faults[idx].stall_s
                for idx, until in self._loss_until.get(node_id, {}).items()
                if trials_run <= until
            ),
            default=0.0,
        )

    def describe(self) -> str:
        """One-line schedule summary for logs."""
        by_kind: dict[str, int] = {}
        for fault in self.faults:
            by_kind[fault.kind.value] = by_kind.get(fault.kind.value, 0) + 1
        parts = [f"{k}={n}" for k, n in sorted(by_kind.items())]
        return "NodeFaultPlan(" + (", ".join(parts) or "none") + ")"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.describe()


# ---------------------------------------------------------------------------
# Store corruption
# ---------------------------------------------------------------------------


def corrupt_store_tail(
    path: str | Path,
    mode: str = "truncate",
    seed: int = 0,
) -> dict[str, object]:
    """Deterministically corrupt the tail of a JSONL store.

    Modes (all reproduce real crash artifacts):

    - ``"truncate"`` — cut the last line at a seeded midpoint and drop
      the trailing newline: a writer killed mid-``write``.
    - ``"garbage"`` — overwrite the tail of the last line with seeded
      binary junk: a torn sector / partial page flush.
    - ``"partial-append"`` — append the seeded prefix of a plausible new
      record with no newline: a crash between ``write`` and ``flush``.

    Returns a description dict (``mode``, ``line``, ``removed_bytes``)
    for test assertions.
    """
    path = Path(path)
    raw = path.read_bytes()
    if not raw.strip():
        raise ValueError(f"{path} is empty; nothing to corrupt")
    rng = rng_from_seed(stable_hash("corrupt-store", seed, mode, len(raw)))
    lines = raw.rstrip(b"\n").split(b"\n")
    last = lines[-1]
    if mode == "truncate":
        cut = int(rng.integers(1, max(len(last) - 1, 2)))
        lines[-1] = last[:cut]
        body = b"\n".join(lines)  # no trailing newline: mid-append kill
        removed = len(raw) - len(body)
    elif mode == "garbage":
        junk_len = int(rng.integers(4, 24))
        junk = bytes(int(b) for b in rng.integers(0, 256, size=junk_len))
        keep = max(len(last) // 2, 1)
        lines[-1] = last[:keep] + junk
        body = b"\n".join(lines) + b"\n"
        removed = len(last) - keep
    elif mode == "partial-append":
        partial = b'{"trial_id": 999999, "config": {"chan'
        cut = int(rng.integers(8, len(partial)))
        body = raw + partial[:cut]
        removed = 0
    else:
        raise ValueError(f"unknown corruption mode {mode!r}; "
                         "use 'truncate', 'garbage' or 'partial-append'")
    path.write_bytes(body)
    return {"mode": mode, "line": len(lines), "removed_bytes": int(removed)}


def interrupt_after(
    n_trials: int,
    exc_type: type[BaseException] = KeyboardInterrupt,
) -> Callable[[int, int, object], None]:
    """A progress callback that kills the sweep after ``n_trials``.

    The raised exception is fatal by taxonomy, so it propagates out of
    :meth:`Experiment.run` exactly like a user's Ctrl-C — the store
    keeps every completed trial, and the in-flight one is lost (or, with
    :func:`corrupt_store_tail`, half-written).
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")

    def _progress(done: int, total: int, record: object) -> None:
        if done >= n_trials:
            raise exc_type(f"injected interrupt after {done} trials")

    return _progress
