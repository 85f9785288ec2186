"""Load generation and throughput reporting for the serving tier.

:func:`run_load` is the one load generator for thread, process and
fleet serving: each :class:`TenantLoad` runs ``clients`` client threads
against any :class:`~repro.serve.FleetServer` (a single-model run is
``[TenantLoad(clients=32)]``), and every run returns one
:class:`LoadReport`.

- **closed loop** (default) — each client sends its next request when
  the previous one completes; concurrency equals the client count.
  This is how the CI benchmark measures peak sustainable throughput.
- **open loop** (``arrival_rate_ips``) — clients send on a fixed
  schedule at an aggregate rate regardless of completions, which
  surfaces queueing and backpressure.  Each request is timed from when
  it was *due*, not from when it was sent, so a sender that falls
  behind charges its stall to the requests behind it;
  ``lag_ms_p99``/``lag_ms_max`` report how late the senders ran.

Both loops await every accepted request before reporting:
``served + expired + errors`` equals the requests the server accepted.

:func:`serial_baseline` times :meth:`InferencePlan.run` single-image
with no server — the reference for the >= 2x serving throughput ratio.
"""

from __future__ import annotations

import dataclasses
import queue
import threading
import time
from collections import Counter
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np

from repro.deploy.plan import InferencePlan
from repro.serve.batcher import DeadlineExceeded, ServeRequest, ServerOverloaded
from repro.serve.fleet import FleetServer

__all__ = [
    "LoadReport",
    "TenantLoad",
    "run_load",
    "serial_baseline",
]


def _percentile(latencies: list[float], q: float) -> float:
    if not latencies:
        return float("nan")
    return float(np.percentile(np.asarray(latencies), q))


def _input(shape: tuple, seed: int, image: np.ndarray | None) -> np.ndarray:
    """``image``, or a seeded random image of ``shape``."""
    if image is not None:
        return image
    return np.random.default_rng(seed).standard_normal(shape).astype(np.float32)


@dataclass(frozen=True)
class TenantLoad:
    """One tenant's traffic profile for :func:`run_load`.

    Every field except ``name``/``clients`` maps onto the
    :class:`~repro.serve.ServeRequest` the tenant's clients submit:
    a wall-clock SLO (``deadline_ms``), a device-predicted routing
    budget (``budget_ms`` against ``device``), an accuracy floor, an
    explicit priority class, or a pinned ``model`` hint.  ``clients`` is
    the number of client threads sending the tenant's requests.
    """

    name: str = "default"
    clients: int = 4
    deadline_ms: float | None = None
    budget_ms: float | None = None
    accuracy_floor: float = 0.0
    priority: int | None = None
    device: str | None = None
    model: str | None = None


@dataclass
class LoadReport:
    """Aggregate outcome of one load-generation run."""

    duration_s: float
    clients: int
    served: int
    rejected: int
    errors: int
    throughput_ips: float
    latency_ms_mean: float
    latency_ms_p50: float
    latency_ms_p99: float
    #: Mean effective batch size observed by the server's workers
    #: (served images / executed batches); 0 when untracked.
    mean_batch_size: float = 0.0
    #: Accepted requests whose wall-clock deadline passed before they ran.
    expired: int = 0
    slo_attained: int = 0
    slo_missed: int = 0
    #: attained / (attained + missed + expired) over SLO-carrying
    #: requests; 1.0 when no request declared a deadline.
    slo_attainment: float = 1.0
    #: Every routed request's predicted latency fit its declared budget.
    all_routes_fit_budget: bool = True
    #: How late the open-loop senders ran behind their schedule (0 in
    #: the closed loop, which has no schedule).
    lag_ms_p99: float = 0.0
    lag_ms_max: float = 0.0
    #: Per-tenant counts, latency percentiles and SLO attainment.
    per_tenant: dict = field(default_factory=dict)
    #: Served requests per model.
    per_model: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """JSON-ready payload (what ``serve-bench --json`` emits)."""
        return {k: round(v, 4) if isinstance(v, float) else v
                for k, v in dataclasses.asdict(self).items()}

    def render(self) -> str:
        """Human-readable summary table."""
        lines = [
            f"load run: {self.duration_s:.2f}s, {self.clients} client(s)",
            f"  served      {self.served}  ({self.throughput_ips:.1f} images/sec)",
            f"  rejected    {self.rejected}   expired {self.expired}   "
            f"errors {self.errors}",
            f"  latency ms  mean {self.latency_ms_mean:.2f}  "
            f"p50 {self.latency_ms_p50:.2f}  p99 {self.latency_ms_p99:.2f}",
            f"  mean batch  {self.mean_batch_size:.2f}",
            f"  send lag ms p99 {self.lag_ms_p99:.2f}  max {self.lag_ms_max:.2f}",
            f"  SLO         {self.slo_attained} attained / {self.slo_missed} missed "
            f"({100 * self.slo_attainment:.1f}% attainment)",
            f"  budgets     {'all routes fit' if self.all_routes_fit_budget else 'BUDGET MISSES'}",
        ]
        for tenant, stats in sorted(self.per_tenant.items()):
            lines.append(
                f"  tenant {tenant:<12} served {stats['served']:<6} "
                f"rejected {stats['rejected']:<5} expired {stats['expired']:<5} "
                f"p99 {stats['latency_ms_p99']:.2f} ms"
            )
        for model, count in sorted(self.per_model.items()):
            lines.append(f"  model  {model:<12} routed {count}")
        return "\n".join(lines)


@dataclass
class _Client:
    """What one client thread saw; :func:`_summary` aggregates them."""

    tenant: TenantLoad
    latencies_ms: list[float] = field(default_factory=list)
    lag_ms: list[float] = field(default_factory=list)
    rejected: int = 0
    expired: int = 0
    errors: int = 0
    slo_attained: int = 0
    slo_missed: int = 0
    routed: Counter = field(default_factory=Counter)
    fits_budget: bool = True
    failure: Exception | None = None

    def settle(self, future: Future, due: float, finished: float) -> None:
        """Account one completed request, timed from ``due``."""
        exc = future.exception()
        if isinstance(exc, DeadlineExceeded):
            self.expired += 1
            return
        if exc is not None:
            self.errors += 1
            return
        resp = future.result()
        self.latencies_ms.append(1e3 * (finished - due))
        self.routed[resp.model] += 1
        if resp.deadline_met is True:
            self.slo_attained += 1
        elif resp.deadline_met is False:
            self.slo_missed += 1
        tenant = self.tenant
        budget = tenant.budget_ms if tenant.budget_ms is not None else tenant.deadline_ms
        if budget is not None and resp.predicted_ms is not None and resp.predicted_ms > budget:
            self.fits_budget = False

    def run(self, server: FleetServer, x: np.ndarray, due: float,
            period: float, stop: float) -> None:
        """Send requests until ``stop``, then await every accepted one.

        ``period == 0`` is the closed loop, timed from each send; otherwise
        one request is due every ``period`` seconds from ``due``.
        """
        tenant = self.tenant
        done: queue.SimpleQueue = queue.SimpleQueue()
        outstanding = 0
        try:
            while True:
                now = time.monotonic()
                if now >= stop:
                    break
                if period:
                    if now < due:
                        time.sleep(min(due - now, stop - now))
                        continue
                    self.lag_ms.append(1e3 * (now - due))
                else:
                    due = now
                sent_for, due = due, due + period
                try:
                    fut = server.submit(ServeRequest(
                        image=x,
                        tenant=tenant.name,
                        priority=tenant.priority,
                        deadline_ms=tenant.deadline_ms,
                        budget_ms=tenant.budget_ms,
                        model=tenant.model,
                        device=tenant.device,
                        accuracy_floor=tenant.accuracy_floor,
                    ))
                except ServerOverloaded:
                    self.rejected += 1
                    time.sleep(min(0.001, stop - now))
                    continue
                if period:
                    fut.add_done_callback(
                        lambda f, t=sent_for: done.put((f, t, time.monotonic())))
                    outstanding += 1
                else:
                    fut.exception()  # wait for the reply; settle reads it
                    self.settle(fut, sent_for, time.monotonic())
            for _ in range(outstanding):
                self.settle(*done.get())
        except Exception as exc:  # noqa: BLE001 - re-raised by run_load
            self.failure = exc


def _summary(clients: list[_Client]) -> dict:
    """Counts, latency percentiles and SLO attainment over some clients."""
    latencies = [v for c in clients for v in c.latencies_ms]
    attained = sum(c.slo_attained for c in clients)
    missed = sum(c.slo_missed for c in clients)
    expired = sum(c.expired for c in clients)
    judged = attained + missed + expired
    return {
        "served": len(latencies),
        "rejected": sum(c.rejected for c in clients),
        "expired": expired,
        "errors": sum(c.errors for c in clients),
        "slo_attained": attained,
        "slo_missed": missed,
        "slo_attainment": attained / judged if judged else 1.0,
        "latency_ms_mean": float(np.mean(latencies)) if latencies else float("nan"),
        "latency_ms_p50": _percentile(latencies, 50),
        "latency_ms_p99": _percentile(latencies, 99),
    }


def run_load(
    server: FleetServer,
    tenants: list[TenantLoad],
    duration_s: float = 2.0,
    seed: int = 0,
    image: np.ndarray | None = None,
    arrival_rate_ips: float | None = None,
) -> LoadReport:
    """Drive a server with every tenant's clients and measure the outcome.

    Parameters
    ----------
    server:
        A running :class:`~repro.serve.FleetServer` or
        :class:`~repro.serve.PlanServer` (left open on return).
    tenants:
        Traffic profiles; each runs ``tenant.clients`` client threads.
    duration_s:
        Sending window in seconds; requests accepted inside it are
        awaited after it closes, and the reported duration includes
        that drain.
    seed:
        Seeds the per-client input images (distinct per client).
    image:
        Fixed input image to use instead of random per-client data.
    arrival_rate_ips:
        ``None`` for the closed loop; otherwise the *aggregate* open-loop
        arrival rate in images/sec, split evenly across all clients.
        Overload rejections are counted and backed off, not retried.
    """
    if not tenants or any(t.clients < 1 for t in tenants):
        raise ValueError("need at least one TenantLoad, each with clients >= 1")
    if duration_s <= 0:
        raise ValueError(f"duration_s must be > 0, got {duration_s}")
    shape = server.input_shape
    if shape is None:
        raise RuntimeError("server has no registered models")
    clients = [_Client(t) for t in tenants for _ in range(t.clients)]
    period = len(clients) / arrival_rate_ips if arrival_rate_ips else 0.0
    # The executed-batch delta gives the mean effective batch size.
    batches_before = server.stats()["batches_executed"]
    started = time.monotonic()
    # Open-loop clients start staggered, so the aggregate arrivals are
    # evenly spaced at 1 / arrival_rate_ips.
    threads = [
        threading.Thread(
            target=client.run,
            args=(server, _input(shape, seed + i, image),
                  started + i * period / len(clients), period, started + duration_s),
            name=f"repro-loadgen-{i}",
        )
        for i, client in enumerate(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.monotonic() - started
    for client in clients:
        if client.failure is not None:
            raise client.failure

    by_tenant: dict[str, list[_Client]] = {}
    per_model: Counter = Counter()
    for client in clients:
        by_tenant.setdefault(client.tenant.name, []).append(client)
        per_model.update(client.routed)
    totals = _summary(clients)
    lags = [v for c in clients for v in c.lag_ms]
    batches = server.stats()["batches_executed"] - batches_before
    return LoadReport(
        duration_s=elapsed,
        clients=len(clients),
        throughput_ips=totals["served"] / elapsed,
        mean_batch_size=totals["served"] / batches if batches else 0.0,
        all_routes_fit_budget=all(c.fits_budget for c in clients),
        lag_ms_p99=_percentile(lags, 99) if lags else 0.0,
        lag_ms_max=max(lags, default=0.0),
        per_tenant={name: _summary(group) for name, group in by_tenant.items()},
        per_model=dict(per_model),
        **totals,
    )


def serial_baseline(
    plan: InferencePlan,
    duration_s: float = 1.0,
    seed: int = 0,
    image: np.ndarray | None = None,
) -> LoadReport:
    """Single-stream, single-image reference: loop ``plan.run`` for a while."""
    x1 = _input(plan.input_shape, seed, image)[None]
    latencies_ms: list[float] = []
    deadline = time.monotonic() + duration_s
    started = time.monotonic()
    while time.monotonic() < deadline:
        t0 = time.monotonic()
        plan.run(x1)
        latencies_ms.append(1e3 * (time.monotonic() - t0))
    elapsed = time.monotonic() - started
    totals = _summary([_Client(TenantLoad(clients=1), latencies_ms=latencies_ms)])
    return LoadReport(
        duration_s=elapsed,
        clients=1,
        throughput_ips=totals["served"] / elapsed if elapsed > 0 else 0.0,
        mean_batch_size=1.0,
        **totals,
    )
