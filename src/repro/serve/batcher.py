"""Dynamic micro-batching: coalesce single-image requests into batches.

The batcher is the request-path front of every per-model queue inside
:class:`repro.serve.FleetServer` (and so of
:class:`repro.serve.PlanServer`, its one-model case).  Producers call
:meth:`MicroBatcher.submit_request` and get a future; worker threads
call :meth:`MicroBatcher.next_batch` and receive batches formed under
the policy's ``max_batch_size`` / ``max_queue_delay_ms`` knobs.

The request object is :class:`ServeRequest` — image plus tenant,
priority class, wall-clock SLO deadline, device/latency budget, model
hint, and accuracy floor.  Completed requests resolve to a
:class:`ServeResponse` carrying the logits row, the served model and
queue/exec timings.

Scheduling is priority-class then FIFO: higher ``priority`` pops first,
arrival order within a class.  With every request in the default class
(priority 0) the batcher is exactly the old FIFO queue.

Overload is shed at two gates:

- per-tenant token buckets (an optional
  :class:`~repro.serve.admission.AdmissionController`) bound *fairness*
  — one chatty tenant exhausts its own bucket, not the shared queue;
- the bounded queue (``max_queue_depth``) bounds *memory* — past the
  high-water mark ``submit_request`` raises :class:`ServerOverloaded`.

Requests whose ``deadline_ms`` elapses while still queued are failed
fast with :class:`DeadlineExceeded` instead of being executed — serving
a reply the client has already abandoned only steals capacity from
requests that can still make their SLO.

Shutdown is a graceful drain: after :meth:`close`, queued requests
still come out of ``next_batch`` until the queue is empty, then workers
see ``None``.
"""

from __future__ import annotations

import collections
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping

import numpy as np

import repro.obs as obs

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a module cycle)
    from repro.serve.admission import AdmissionController

__all__ = [
    "DeadlineExceeded",
    "MicroBatcher",
    "Request",
    "ServeRequest",
    "ServeResponse",
    "ServerOverloaded",
    "complete_batch",
]

# Cached observability handles (no-ops until ``repro.obs.configure``).
_QUEUE_DEPTH = obs.gauge("repro_serve_queue_depth")
_REJECTED = obs.counter("repro_serve_requests_rejected_total")
_EXPIRED = obs.counter("repro_serve_deadline_expired_total")
_SLO_ATTAINED = obs.counter("repro_serve_slo_attained_total")
_SLO_MISSED = obs.counter("repro_serve_slo_missed_total")


class ServerOverloaded(RuntimeError):
    """The bounded request queue is at its high-water mark.

    Raised by :meth:`MicroBatcher.submit_request` (and therefore
    :meth:`repro.serve.FleetServer.submit`).  Clients should back off or
    shed the request; the load generator counts these as rejections.
    """


class DeadlineExceeded(RuntimeError):
    """A request's wall-clock SLO deadline elapsed before execution.

    Set on the request's future by the batcher's fail-fast expiry scan;
    the request is dropped from the queue without running.
    """


@dataclass
class ServeRequest:
    """Canonical serving request: one image plus declared intent.

    Parameters
    ----------
    image:
        Input array (``(C, H, W)`` or ``(1, C, H, W)``).
    tenant:
        Billing/fairness identity for admission control.
    priority:
        Explicit priority class (higher is served first).  ``None``
        defers to the tenant's quota default (0 without admission).
    deadline_ms:
        Wall-clock SLO budget measured from submit.  Expired requests
        fail fast with :class:`DeadlineExceeded`; completions record
        SLO attainment either way.
    budget_ms:
        *Predicted-latency* routing budget for fleet model selection
        (falls back to ``deadline_ms`` when unset).  Distinct from
        ``deadline_ms``: budgets are compared against
        :mod:`repro.latency` device predictions, deadlines against the
        wall clock.
    model:
        Model hint — pin the request to a registered fleet model,
        bypassing routing.
    device:
        Device profile name (see ``repro.latency.DEVICE_PROFILES``)
        whose predictions the budget is checked against; ``None`` uses
        the cross-device mean.
    accuracy_floor:
        Minimum acceptable model accuracy (fraction or percent — same
        scale the fleet's models were registered with).
    """

    image: np.ndarray | Any
    tenant: str = "default"
    priority: int | None = None
    deadline_ms: float | None = None
    budget_ms: float | None = None
    model: str | None = None
    device: str | None = None
    accuracy_floor: float = 0.0


@dataclass(frozen=True)
class ServeResponse:
    """Completed request: logits row plus routing/timing telemetry."""

    row: np.ndarray
    model: str | None
    tenant: str
    priority: int
    queue_ms: float
    exec_ms: float
    total_ms: float
    deadline_met: bool | None  # None = no deadline declared
    predicted_ms: float | None = None  # routing-time latency prediction

    def as_dict(self) -> dict:
        """JSON-ready summary (the row itself is omitted)."""
        return {
            "model": self.model,
            "tenant": self.tenant,
            "priority": self.priority,
            "queue_ms": self.queue_ms,
            "exec_ms": self.exec_ms,
            "total_ms": self.total_ms,
            "deadline_met": self.deadline_met,
            "predicted_ms": self.predicted_ms,
        }


@dataclass
class Request:
    """One queued inference request (batcher-internal envelope)."""

    request: ServeRequest
    enqueued_at: float
    priority: int = 0
    deadline_at: float | None = None  # clock units, None = no SLO
    meta: Mapping[str, Any] = field(default_factory=dict)  # router annotations
    future: Future = field(default_factory=Future)


class MicroBatcher:
    """Bounded priority/FIFO request queue with deadline-driven batching.

    A batch is released to a waiting worker as soon as either

    - ``max_batch_size`` requests are queued (full batch), or
    - the *oldest* queued request has waited ``max_queue_delay_ms``
      (deadline flush — bounds the batching tax on tail latency), or
    - the batcher is closed (drain — flush whatever is left, in order).

    Batches pop highest priority class first, FIFO within a class, and
    may mix classes to fill ``max_batch_size``.  Consumers block on a
    condition variable — an idle batcher wakes only on submit/close/
    :meth:`kick`, never on a timer (``idle_wakeups`` counts the
    spurious ones; it stays ~0).

    Thread-safe: any number of producers and consumers.

    Parameters
    ----------
    max_batch_size, max_queue_delay_ms, max_queue_depth:
        See :class:`repro.serve.BatchPolicy`.
    clock:
        Injectable monotonic clock (tests use a fake to step deadlines
        deterministically).
    admission:
        Optional :class:`~repro.serve.admission.AdmissionController`
        consulted (per tenant) before enqueueing.
    """

    def __init__(
        self,
        max_batch_size: int = 8,
        max_queue_delay_ms: float = 2.0,
        max_queue_depth: int = 128,
        clock=time.monotonic,
        admission: "AdmissionController | None" = None,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_queue_depth < max_batch_size:
            raise ValueError(
                f"max_queue_depth ({max_queue_depth}) must be >= "
                f"max_batch_size ({max_batch_size})"
            )
        self.max_batch_size = max_batch_size
        self.max_queue_delay_s = max_queue_delay_ms / 1000.0
        self.max_queue_depth = max_queue_depth
        self.admission = admission
        self._clock = clock
        # One FIFO deque per priority class, popped highest-class first.
        self._queues: dict[int, collections.deque[Request]] = {}
        self._depth = 0
        self._cond = threading.Condition()
        self._closed = False
        self.submitted = 0
        self.rejected = 0
        self.expired = 0
        self.idle_wakeups = 0

    # -- producer side ---------------------------------------------------------

    def submit_request(
        self,
        request: ServeRequest,
        *,
        meta: Mapping[str, Any] | None = None,
    ) -> Future:
        """Queue one :class:`ServeRequest`; returns the future of its result.

        The future resolves to a :class:`ServeResponse`, or fails with
        :class:`DeadlineExceeded` if the request's ``deadline_ms``
        elapses before execution.  Raises
        :class:`~repro.serve.admission.TenantOverloaded` when the
        tenant's token bucket is empty, :class:`ServerOverloaded` past
        the queue high-water mark and ``RuntimeError`` after
        :meth:`close`.
        """
        if self.admission is not None:
            self.admission.admit(request.tenant)  # raises TenantOverloaded
        priority = request.priority
        if priority is None:
            priority = (
                self.admission.priority_for(request.tenant)
                if self.admission is not None
                else 0
            )
        with self._cond:
            if self._closed:
                raise RuntimeError("MicroBatcher is closed; no new requests accepted")
            if self._depth >= self.max_queue_depth:
                self.rejected += 1
                _REJECTED.inc()
                raise ServerOverloaded(
                    f"request queue at high-water mark ({self.max_queue_depth}); "
                    f"back off and retry"
                )
            now = self._clock()
            envelope = Request(
                request=request,
                enqueued_at=now,
                priority=priority,
                deadline_at=(
                    now + request.deadline_ms / 1000.0
                    if request.deadline_ms is not None
                    else None
                ),
                meta=dict(meta) if meta else {},
            )
            self.submitted += 1
            if request.deadline_ms is not None and request.deadline_ms <= 0:
                # Already dead on arrival — fail fast without queueing.
                self._expire(envelope)
                return envelope.future
            self._queues.setdefault(priority, collections.deque()).append(envelope)
            self._depth += 1
            _QUEUE_DEPTH.set(self._depth)
            self._cond.notify()
        return envelope.future

    # -- consumer side ---------------------------------------------------------

    def next_batch(
        self,
        poll_s: float | None = None,
        stop: Callable[[], bool] | None = None,
    ) -> list[Request] | None:
        """Block until a batch is ready; ``None`` once closed *and* drained.

        With the default ``poll_s=None`` an empty queue blocks on the
        condition variable until a submit/:meth:`close`/:meth:`kick`
        notifies — no periodic polling, ~0 idle CPU.  A float ``poll_s``
        caps each wait (legacy behaviour, useful under a fake clock that
        never fires notifications at deadline time).

        ``stop`` is re-checked after every wakeup; when it returns true
        the call returns ``None`` without popping (used by the fleet
        autoscaler to retire a worker — pair with :meth:`kick`).
        """
        with self._cond:
            while True:
                if stop is not None and stop():
                    return None
                now = self._clock()
                self._expire_queued(now)
                if self._depth > 0:
                    if self._depth >= self.max_batch_size or self._closed:
                        return self._pop_batch()
                    flush_at = self._oldest_enqueued_at() + self.max_queue_delay_s
                    expiry_at = self._earliest_deadline_at()
                    wake_at = flush_at if expiry_at is None else min(flush_at, expiry_at)
                    remaining = wake_at - now
                    if remaining <= 0:
                        return self._pop_batch()
                    timeout = remaining if poll_s is None else min(remaining, poll_s)
                    self._cond.wait(timeout=timeout)
                else:
                    if self._closed:
                        return None
                    woke = self._cond.wait(timeout=poll_s)
                    if self._depth == 0 and not self._closed and (
                        woke or poll_s is None
                    ):
                        # A notify (or spurious wakeup) with nothing to do.
                        self.idle_wakeups += 1

    def _oldest_enqueued_at(self) -> float:
        return min(q[0].enqueued_at for q in self._queues.values() if q)

    def _earliest_deadline_at(self) -> float | None:
        deadlines = [
            r.deadline_at for q in self._queues.values() for r in q
            if r.deadline_at is not None
        ]
        return min(deadlines) if deadlines else None

    def _expire(self, envelope: Request) -> None:
        self.expired += 1
        _EXPIRED.inc()
        _SLO_MISSED.inc()
        envelope.future.set_exception(
            DeadlineExceeded(
                f"deadline_ms={envelope.request.deadline_ms:g} elapsed before "
                f"execution (tenant {envelope.request.tenant!r})"
            )
        )

    def _expire_queued(self, now: float) -> None:
        """Fail-fast scan: drop queued requests whose SLO already lapsed."""
        dropped = False
        for queue in self._queues.values():
            if not any(r.deadline_at is not None and r.deadline_at <= now for r in queue):
                continue
            keep: list[Request] = []
            for r in queue:
                if r.deadline_at is not None and r.deadline_at <= now:
                    self._expire(r)
                    self._depth -= 1
                    dropped = True
                else:
                    keep.append(r)
            queue.clear()
            queue.extend(keep)
        if dropped:
            _QUEUE_DEPTH.set(self._depth)

    def _pop_batch(self) -> list[Request]:
        batch: list[Request] = []
        for priority in sorted(self._queues, reverse=True):
            queue = self._queues[priority]
            while queue and len(batch) < self.max_batch_size:
                batch.append(queue.popleft())
            if len(batch) >= self.max_batch_size:
                break
        self._depth -= len(batch)
        _QUEUE_DEPTH.set(self._depth)
        self._cond.notify()  # more may be ready for the next worker
        return batch

    # -- lifecycle -------------------------------------------------------------

    def kick(self) -> None:
        """Wake every blocked consumer so it re-checks its ``stop`` predicate."""
        with self._cond:
            self._cond.notify_all()

    def close(self) -> None:
        """Stop accepting requests; queued ones will still be served."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def depth(self) -> int:
        """Requests currently queued."""
        with self._cond:
            return self._depth

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"MicroBatcher(depth={self.depth}, max_batch={self.max_batch_size}, "
                f"delay_ms={self.max_queue_delay_s * 1e3:g}, "
                f"submitted={self.submitted}, rejected={self.rejected}, "
                f"expired={self.expired})")


def complete_batch(
    batch: list[Request],
    rows,
    *,
    model: str | None = None,
    started: float,
    finished: float,
) -> tuple[int, int]:
    """Resolve a batch's futures with :class:`ServeResponse` objects.

    ``rows[i]`` must be the logits row for ``batch[i]`` (a view into a
    padded batch output is fine — rows are copied here, so callers
    can't alias each other through the shared output block).  Returns
    ``(slo_attained, slo_missed)`` counts over the requests that
    declared a deadline, ticking the corresponding obs counters.
    """
    attained = missed = 0
    for i, r in enumerate(batch):
        deadline_met: bool | None = None
        if r.deadline_at is not None:
            deadline_met = finished <= r.deadline_at
            if deadline_met:
                attained += 1
                _SLO_ATTAINED.inc()
            else:
                missed += 1
                _SLO_MISSED.inc()
        r.future.set_result(ServeResponse(
            row=np.array(rows[i], copy=True),
            model=model,
            tenant=r.request.tenant,
            priority=r.priority,
            queue_ms=(started - r.enqueued_at) * 1e3,
            exec_ms=(finished - started) * 1e3,
            total_ms=(finished - r.enqueued_at) * 1e3,
            deadline_met=deadline_met,
            predicted_ms=r.meta.get("predicted_ms"),
        ))
    return attained, missed
