"""Lease-based work claims with deadline reclaim and poison quarantine.

The coordinator's source of truth for *who is running what*.  Work is
handed out as **leases**: a worker claims a batch of trials together
with a monotonic-clock deadline; liveness is proven by heartbeats that
push the deadline forward.  A worker that dies (or loses its network,
or stalls past the TTL) simply stops heartbeating — its lease expires
and the **reclaim loop** returns the unfinished trials to the front of
the pending queue for another worker to pick up.

Failure handling rides the :mod:`repro.nas.retry` taxonomy:

- a missed heartbeat is a :class:`~repro.nas.retry.WorkerLostError` —
  *transient* by classification, so the trials are re-leased;
- a trial that keeps losing its workers (``lease_count`` reaching
  ``max_leases``) is presumed **poison** — it is quarantined out of the
  queue (and recorded as a failed trial by the coordinator) instead of
  killing workers forever;
- fatal/permanent release reasons poison the batch immediately.

Pending work is one FIFO queue in proposal order: every claim takes the
next ``batch_size`` trials, whichever worker asks.

Everything here is wall-clock free: deadlines and heartbeat ages are
computed with ``time.monotonic()`` (injectable for tests), so an NTP
step can neither spuriously expire every lease nor keep a dead worker
alive.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

import repro.obs as obs
from repro.nas.retry import ErrorKind, WorkerLostError, classify_error
from repro.utils.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.nas.config import ModelConfig

__all__ = ["TrialTask", "Lease", "LeaseTable"]

_LOG = get_logger("nas.fabric.lease")

# Module-level instrument handles: cached once, no-ops while obs is disabled.
_CLAIMS = obs.counter("repro_nas_lease_claims_total")
_HEARTBEATS = obs.counter("repro_nas_lease_heartbeats_total")
_RECLAIMS = obs.counter("repro_nas_lease_reclaims_total")
_POISONED = obs.counter("repro_nas_poison_trials_total")
_PENDING = obs.gauge("repro_nas_fabric_pending_trials")
_ACTIVE = obs.gauge("repro_nas_fabric_active_leases")


@dataclass
class TrialTask:
    """One unit of leased work: a trial to run."""

    trial_id: int
    config: "ModelConfig"
    #: Times this task has been handed out (1 after the first claim).
    lease_count: int = 0


@dataclass
class Lease:
    """A worker's claim on a batch of tasks, valid until ``expires_at``.

    ``expires_at`` is a ``time.monotonic()`` instant — comparable only
    inside the coordinator process, immune to wall-clock steps.
    """

    lease_id: int
    worker_id: str
    tasks: list[TrialTask]
    expires_at: float
    issued_at: float
    heartbeats: int = 0


@dataclass
class _Stats:
    claims: int = 0
    heartbeats: int = 0
    reclaims: int = 0
    poisoned: int = 0
    releases: int = 0


class LeaseTable:
    """Thread-safe lease bookkeeping for one sweep.

    Parameters
    ----------
    batch_size:
        Maximum tasks per claim.
    ttl_s:
        Lease time-to-live: a lease not heartbeated for this long is
        expired and reclaimed.  Must comfortably exceed one trial's
        duration — an over-eager TTL only costs duplicate *execution*,
        never duplicate *records* (the coordinator deduplicates
        commits), but wasted work is wasted work.
    max_leases:
        Times one task may be leased before it is quarantined as poison.
    clock:
        Injectable monotonic clock (tests); defaults to
        ``time.monotonic`` — never the wall clock.
    """

    def __init__(
        self,
        tasks: Iterable[TrialTask] = (),
        batch_size: int = 1,
        ttl_s: float = 30.0,
        max_leases: int = 3,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if ttl_s <= 0:
            raise ValueError(f"ttl_s must be positive, got {ttl_s}")
        if max_leases < 1:
            raise ValueError(f"max_leases must be >= 1, got {max_leases}")
        self.batch_size = batch_size
        self.ttl_s = ttl_s
        self.max_leases = max_leases
        self._clock = clock
        self._lock = threading.Lock()
        self._queue: deque[TrialTask] = deque()
        self._active: dict[int, Lease] = {}
        self._done: set[int] = set()
        self._poisoned: list[TrialTask] = []
        self._next_lease_id = 0
        self._total = 0
        self.stats = _Stats()
        for task in tasks:
            self.add_task(task)

    # -- task intake ---------------------------------------------------------

    def add_task(self, task: TrialTask) -> None:
        """Enqueue one task (callable mid-sweep: elastic workloads)."""
        with self._lock:
            self._queue.append(task)
            self._total += 1
            _PENDING.set(len(self._queue))

    # -- queries -------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Tasks waiting in the queue."""
        with self._lock:
            return len(self._queue)

    @property
    def poisoned(self) -> list[TrialTask]:
        """Tasks quarantined after exhausting ``max_leases``."""
        with self._lock:
            return list(self._poisoned)

    @property
    def outstanding(self) -> int:
        """Tasks not yet done or poisoned (pending + leased)."""
        with self._lock:
            leased = sum(len(lease.tasks) for lease in self._active.values())
            return len(self._queue) + leased

    @property
    def finished(self) -> bool:
        """Whether every task is done or poisoned."""
        with self._lock:
            total_settled = len(self._done) + len(self._poisoned)
            return total_settled >= self._total and not self._active \
                and not self._queue

    # -- the lease lifecycle -------------------------------------------------

    def claim(self, worker_id: str) -> Lease | None:
        """Claim the next ``batch_size`` tasks; ``None`` when nothing is pending."""
        with self._lock:
            tasks: list[TrialTask] = []
            while self._queue and len(tasks) < self.batch_size:
                task = self._queue.popleft()
                if task.trial_id in self._done:
                    # A stale worker committed this trial after it was
                    # reclaimed; the requeued copy is obsolete.
                    continue
                task.lease_count += 1
                tasks.append(task)
            if not tasks:
                _PENDING.set(0)
                return None
            now = self._clock()
            lease = Lease(
                lease_id=self._next_lease_id,
                worker_id=worker_id,
                tasks=tasks,
                expires_at=now + self.ttl_s,
                issued_at=now,
            )
            self._next_lease_id += 1
            self._active[lease.lease_id] = lease
            self.stats.claims += 1
            _CLAIMS.inc()
            _PENDING.set(len(self._queue))
            _ACTIVE.set(len(self._active))
            return lease

    def heartbeat(self, lease_id: int) -> bool:
        """Extend a lease's deadline; ``False`` if the lease is gone.

        A ``False`` return tells a worker its lease was reclaimed (it
        was presumed dead) — it should abandon the batch; any results it
        still submits are deduplicated by the coordinator.
        """
        with self._lock:
            lease = self._active.get(lease_id)
            if lease is None:
                return False
            lease.expires_at = self._clock() + self.ttl_s
            lease.heartbeats += 1
            self.stats.heartbeats += 1
            _HEARTBEATS.inc()
            return True

    def mark_done(self, trial_id: int) -> None:
        """Record a committed trial; removes it from any active lease."""
        with self._lock:
            self._done.add(trial_id)
            emptied = []
            for lease in self._active.values():
                lease.tasks = [t for t in lease.tasks if t.trial_id != trial_id]
                if not lease.tasks:
                    emptied.append(lease.lease_id)
            for lease_id in emptied:
                del self._active[lease_id]
            _ACTIVE.set(len(self._active))

    def release(
        self, lease_id: int, error: BaseException | None = None
    ) -> list[TrialTask]:
        """Voluntarily return a lease's unfinished tasks.

        The release reason is classified by the retry taxonomy:
        transient (the default, :class:`WorkerLostError`) re-queues the
        tasks at the *front* of the queue; anything else poisons them.
        Returns the poisoned tasks.
        """
        with self._lock:
            lease = self._active.pop(lease_id, None)
            if lease is None:
                return []
            self.stats.releases += 1
            poisoned = self._requeue_or_poison(lease, error)
            _PENDING.set(len(self._queue))
            _ACTIVE.set(len(self._active))
            return poisoned

    def reclaim(self, now: float | None = None) -> list[Lease]:
        """Expire and re-lease overdue leases; returns the reclaimed ones.

        The coordinator pumps this continuously.  A reclaimed lease's
        tasks go back to the front of the queue (transient worker
        loss) unless a task has hit ``max_leases`` — then it is poison.
        """
        reclaimed: list[Lease] = []
        with self._lock:
            now = self._clock() if now is None else now
            for lease_id, lease in list(self._active.items()):
                if not lease.tasks:  # fully committed; retire quietly
                    del self._active[lease_id]
                    continue
                if lease.expires_at > now:
                    continue
                del self._active[lease_id]
                error = WorkerLostError(
                    f"worker {lease.worker_id!r} missed its heartbeat "
                    f"(lease {lease_id}, ttl {self.ttl_s:.3g}s)"
                )
                self._requeue_or_poison(lease, error)
                reclaimed.append(lease)
                self.stats.reclaims += 1
                _RECLAIMS.inc()
                _LOG.warning(
                    "reclaimed lease %d from worker %r (%d trial(s) re-queued)",
                    lease_id, lease.worker_id, len(lease.tasks),
                )
            if reclaimed:
                _PENDING.set(len(self._queue))
                _ACTIVE.set(len(self._active))
        return reclaimed

    def _requeue_or_poison(
        self, lease: Lease, error: BaseException | None
    ) -> list[TrialTask]:
        """Lock held.  Returns the tasks that were poisoned."""
        kind = ErrorKind.TRANSIENT if error is None else classify_error(error)
        poisoned: list[TrialTask] = []
        for task in reversed(lease.tasks):  # appendleft preserves order
            if task.trial_id in self._done:
                continue
            exhausted = task.lease_count >= self.max_leases
            if kind is not ErrorKind.TRANSIENT or exhausted:
                self._poisoned.append(task)
                poisoned.append(task)
                self.stats.poisoned += 1
                _POISONED.inc()
                _LOG.warning(
                    "poisoned trial %d after %d lease(s): %s",
                    task.trial_id, task.lease_count,
                    error if error is not None else "non-transient release",
                )
            else:
                self._queue.appendleft(task)
        return poisoned
