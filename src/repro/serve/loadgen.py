"""Load generation and throughput reporting for the serving tier.

Two modes over one :class:`~repro.serve.PlanServer` (any
:class:`~repro.serve.FleetServer` works; each plain request is routed):

- **closed loop** (default) — each client submits, waits for its result,
  and immediately submits again; concurrency equals the client count.
  This is how the CI benchmark measures peak sustainable throughput.
- **open loop** — clients pace submissions to an aggregate arrival rate
  (images/sec) regardless of completions, which surfaces queueing and
  backpressure behaviour (rejections past the high-water mark).

:func:`serial_baseline` measures the same model single-image,
single-stream through :meth:`InferencePlan.run` — the reference the
acceptance criterion's >= 2x throughput ratio is taken against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.deploy.plan import InferencePlan
from repro.parallel.executor import ThreadPoolExecutorBackend
from repro.serve.batcher import DeadlineExceeded, ServeRequest, ServerOverloaded
from repro.serve.fleet import FleetServer

__all__ = [
    "FleetLoadReport",
    "LoadReport",
    "TenantLoad",
    "run_fleet_load",
    "run_load",
    "serial_baseline",
]


def _percentile(latencies: list[float], q: float) -> float:
    if not latencies:
        return float("nan")
    return float(np.percentile(np.asarray(latencies), q))


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
    extra: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """JSON-ready payload (what ``serve-bench --json`` emits)."""
        return {
            "duration_s": round(self.duration_s, 4),
            "clients": self.clients,
            "served": self.served,
            "rejected": self.rejected,
            "errors": self.errors,
            "throughput_ips": round(self.throughput_ips, 2),
            "latency_ms_mean": round(self.latency_ms_mean, 3),
            "latency_ms_p50": round(self.latency_ms_p50, 3),
            "latency_ms_p99": round(self.latency_ms_p99, 3),
            "mean_batch_size": round(self.mean_batch_size, 2),
            **self.extra,
        }

    def render(self) -> str:
        """Human-readable summary table."""
        lines = [
            f"load run: {self.duration_s:.2f}s, {self.clients} client(s)",
            f"  served      {self.served}  ({self.throughput_ips:.1f} images/sec)",
            f"  rejected    {self.rejected}",
            f"  errors      {self.errors}",
            f"  latency ms  mean {self.latency_ms_mean:.2f}  "
            f"p50 {self.latency_ms_p50:.2f}  p99 {self.latency_ms_p99:.2f}",
        ]
        if self.mean_batch_size:
            lines.append(f"  mean batch  {self.mean_batch_size:.2f}")
        for key, value in self.extra.items():
            lines.append(f"  {key}  {value}")
        return "\n".join(lines)


def run_load(
    server: FleetServer,
    duration_s: float = 2.0,
    clients: int = 8,
    arrival_rate_ips: float | None = None,
    seed: int = 0,
    image: np.ndarray | None = None,
) -> LoadReport:
    """Drive a server with concurrent clients and measure the outcome.

    Parameters
    ----------
    server:
        A running :class:`~repro.serve.PlanServer` (left open on return);
        each client submits ``ServeRequest(image=x)``.
    duration_s:
        Wall-clock run length; in-flight requests at the deadline are
        still awaited (they count toward latency, not throughput).
    clients:
        Concurrent client threads (the closed-loop concurrency level).
    arrival_rate_ips:
        ``None`` for closed-loop; otherwise the *aggregate* open-loop
        arrival rate in images/sec, split evenly across clients.
        Overload rejections are counted and backed off, not retried.
    seed:
        Seeds the per-client input images (distinct per client).
    image:
        Fixed input image to use instead of random per-client data.
    """
    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")
    if duration_s <= 0:
        raise ValueError(f"duration_s must be > 0, got {duration_s}")
    shape = server.input_shape
    # Executed-batch delta gives the mean effective batch size; the
    # server counts batches directly in both worker modes (the plan
    # cache only sees thread-mode checkouts).
    batches_before = server.batches_executed

    def client(idx: int) -> tuple[list[float], int, int]:
        rng = np.random.default_rng(seed + idx)
        x = image if image is not None else rng.standard_normal(shape).astype(np.float32)
        period = clients / arrival_rate_ips if arrival_rate_ips else 0.0
        latencies: list[float] = []
        rejected = errors = 0
        deadline = time.monotonic() + duration_s
        next_send = time.monotonic()
        while True:
            now = time.monotonic()
            if now >= deadline:
                break
            if period:
                if now < next_send:
                    time.sleep(min(next_send - now, deadline - now))
                    continue
                next_send += period
            t0 = time.monotonic()
            try:
                fut = server.submit(ServeRequest(image=x))
            except ServerOverloaded:
                rejected += 1
                time.sleep(min(0.001, duration_s / 100))
                continue
            if period:
                # Open loop: detach — account the future on completion.
                fut.add_done_callback(
                    lambda f, t0=t0: latencies.append(time.monotonic() - t0)
                    if f.exception() is None
                    else None
                )
                continue
            try:
                fut.result()
                latencies.append(time.monotonic() - t0)
            except Exception:
                errors += 1
        return latencies, rejected, errors

    started = time.monotonic()
    with ThreadPoolExecutorBackend(workers=clients) as pool:
        outcomes = pool.map(client, list(range(clients)))
    # Let any detached open-loop futures settle before reading counters.
    if arrival_rate_ips:
        time.sleep(0.05)
    elapsed = time.monotonic() - started

    latencies = [lat for lats, _, _ in outcomes for lat in lats]
    rejected = sum(r for _, r, _ in outcomes)
    errors = sum(e for _, _, e in outcomes)
    served = len(latencies)
    batches = server.batches_executed - batches_before
    latencies_ms = [1e3 * v for v in latencies]
    return LoadReport(
        duration_s=elapsed,
        clients=clients,
        served=served,
        rejected=rejected,
        errors=errors,
        throughput_ips=served / elapsed if elapsed > 0 else 0.0,
        latency_ms_mean=float(np.mean(latencies_ms)) if latencies_ms else float("nan"),
        latency_ms_p50=_percentile(latencies_ms, 50),
        latency_ms_p99=_percentile(latencies_ms, 99),
        mean_batch_size=(served / batches) if batches else 0.0,
    )


def serial_baseline(
    plan: InferencePlan,
    duration_s: float = 1.0,
    seed: int = 0,
    image: np.ndarray | None = None,
) -> LoadReport:
    """Single-stream, single-image reference: loop ``plan.run`` for a while."""
    shape = plan.input_shape
    rng = np.random.default_rng(seed)
    x = image if image is not None else rng.standard_normal(shape).astype(np.float32)
    x1 = x[None]
    latencies: list[float] = []
    deadline = time.monotonic() + duration_s
    started = time.monotonic()
    while time.monotonic() < deadline:
        t0 = time.monotonic()
        plan.run(x1)
        latencies.append(time.monotonic() - t0)
    elapsed = time.monotonic() - started
    latencies_ms = [1e3 * v for v in latencies]
    return LoadReport(
        duration_s=elapsed,
        clients=1,
        served=len(latencies),
        rejected=0,
        errors=0,
        throughput_ips=len(latencies) / elapsed if elapsed > 0 else 0.0,
        latency_ms_mean=float(np.mean(latencies_ms)) if latencies_ms else float("nan"),
        latency_ms_p50=_percentile(latencies_ms, 50),
        latency_ms_p99=_percentile(latencies_ms, 99),
        mean_batch_size=1.0,
    )


# -- multi-tenant fleet load ---------------------------------------------------


@dataclass(frozen=True)
class TenantLoad:
    """One tenant's traffic profile for :func:`run_fleet_load`.

    Every field except ``name``/``clients`` maps onto the
    :class:`~repro.serve.ServeRequest` the tenant's clients submit:
    a wall-clock SLO (``deadline_ms``), a device-predicted routing
    budget (``budget_ms`` against ``device``), an accuracy floor, an
    explicit priority class, or a pinned ``model`` hint.  Each of the
    ``clients`` runs a closed loop: it waits for one response before
    sending its next request.
    """

    name: str
    clients: int = 4
    deadline_ms: float | None = None
    budget_ms: float | None = None
    accuracy_floor: float = 0.0
    priority: int | None = None
    device: str | None = None
    model: str | None = None


@dataclass
class FleetLoadReport:
    """Aggregate outcome of one multi-tenant fleet load run."""

    duration_s: float
    served: int
    rejected: int
    expired: int
    errors: int
    throughput_ips: float
    slo_attained: int
    slo_missed: int
    #: attained / (attained + missed + expired) over SLO-carrying
    #: requests; 1.0 when no request declared a deadline.
    slo_attainment: float
    #: Every routed request's predicted latency fit its declared budget.
    all_routes_fit_budget: bool
    per_tenant: dict = field(default_factory=dict)
    per_model: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """JSON-ready payload (what ``serve-bench --fleet --json`` emits)."""
        return {
            "duration_s": round(self.duration_s, 4),
            "served": self.served,
            "rejected": self.rejected,
            "expired": self.expired,
            "errors": self.errors,
            "throughput_ips": round(self.throughput_ips, 2),
            "slo_attained": self.slo_attained,
            "slo_missed": self.slo_missed,
            "slo_attainment": round(self.slo_attainment, 4),
            "all_routes_fit_budget": self.all_routes_fit_budget,
            "per_tenant": self.per_tenant,
            "per_model": self.per_model,
            **self.extra,
        }

    def render(self) -> str:
        """Human-readable summary table."""
        lines = [
            f"fleet load run: {self.duration_s:.2f}s",
            f"  served      {self.served}  ({self.throughput_ips:.1f} images/sec)",
            f"  rejected    {self.rejected}   expired {self.expired}   "
            f"errors {self.errors}",
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


def run_fleet_load(
    fleet: FleetServer,
    tenants: list[TenantLoad],
    duration_s: float = 2.0,
    seed: int = 0,
    image: np.ndarray | None = None,
) -> FleetLoadReport:
    """Drive a fleet with per-tenant client pools and measure the outcome.

    Each tenant runs ``tenant.clients`` closed-loop client threads
    submitting :class:`~repro.serve.ServeRequest` objects built from its
    profile, so a slower fleet sees a lower offered rate.
    Per-response telemetry is folded into per-tenant latency/SLO stats
    and per-model routing counts; admission/overload rejections and
    deadline expiries are counted, not retried.  The fleet is left open
    on return.
    """
    if not tenants:
        raise ValueError("need at least one TenantLoad")
    if duration_s <= 0:
        raise ValueError(f"duration_s must be > 0, got {duration_s}")
    shape = fleet.input_shape
    if shape is None:
        raise RuntimeError("fleet has no registered models")

    jobs = [(t, c) for t in tenants for c in range(t.clients)]

    def client(job_idx: int) -> dict:
        tenant, client_idx = jobs[job_idx]
        rng = np.random.default_rng(seed + 7919 * job_idx)
        x = image if image is not None else rng.standard_normal(shape).astype(np.float32)
        latencies: list[float] = []
        rejected = expired = errors = attained = missed = 0
        routed: dict[str, int] = {}
        fits = True
        deadline = time.monotonic() + duration_s
        while time.monotonic() < deadline:
            req = ServeRequest(
                image=x,
                tenant=tenant.name,
                priority=tenant.priority,
                deadline_ms=tenant.deadline_ms,
                budget_ms=tenant.budget_ms,
                model=tenant.model,
                device=tenant.device,
                accuracy_floor=tenant.accuracy_floor,
            )
            t0 = time.monotonic()
            try:
                fut = fleet.submit(req)
            except ServerOverloaded:
                rejected += 1
                time.sleep(min(0.001, duration_s / 100))
                continue
            try:
                resp = fut.result()
            except DeadlineExceeded:
                expired += 1
                continue
            except Exception:
                errors += 1
                continue
            latencies.append(time.monotonic() - t0)
            routed[resp.model] = routed.get(resp.model, 0) + 1
            if resp.deadline_met is True:
                attained += 1
            elif resp.deadline_met is False:
                missed += 1
            budget = tenant.budget_ms if tenant.budget_ms is not None else tenant.deadline_ms
            if (
                budget is not None
                and resp.predicted_ms is not None
                and resp.predicted_ms > budget
            ):
                fits = False
        return {
            "tenant": tenant.name,
            "latencies": latencies,
            "rejected": rejected,
            "expired": expired,
            "errors": errors,
            "attained": attained,
            "missed": missed,
            "routed": routed,
            "fits": fits,
        }

    started = time.monotonic()
    with ThreadPoolExecutorBackend(workers=len(jobs)) as pool:
        outcomes = pool.map(client, list(range(len(jobs))))
    elapsed = time.monotonic() - started

    per_tenant: dict[str, dict] = {}
    per_model: dict[str, int] = {}
    total_lat: list[float] = []
    rejected = expired = errors = attained = missed = 0
    fits = True
    for out in outcomes:
        name = out["tenant"]
        stats = per_tenant.setdefault(name, {
            "served": 0, "rejected": 0, "expired": 0, "errors": 0,
            "slo_attained": 0, "slo_missed": 0, "_lat": [],
        })
        stats["served"] += len(out["latencies"])
        stats["rejected"] += out["rejected"]
        stats["expired"] += out["expired"]
        stats["errors"] += out["errors"]
        stats["slo_attained"] += out["attained"]
        stats["slo_missed"] += out["missed"]
        stats["_lat"].extend(out["latencies"])
        for model, count in out["routed"].items():
            per_model[model] = per_model.get(model, 0) + count
        total_lat.extend(out["latencies"])
        rejected += out["rejected"]
        expired += out["expired"]
        errors += out["errors"]
        attained += out["attained"]
        missed += out["missed"]
        fits = fits and out["fits"]
    for stats in per_tenant.values():
        lat_ms = [1e3 * v for v in stats.pop("_lat")]
        stats["latency_ms_mean"] = (
            float(np.mean(lat_ms)) if lat_ms else float("nan")
        )
        stats["latency_ms_p50"] = _percentile(lat_ms, 50)
        stats["latency_ms_p99"] = _percentile(lat_ms, 99)
        slo_total = stats["slo_attained"] + stats["slo_missed"] + stats["expired"]
        stats["slo_attainment"] = (
            stats["slo_attained"] / slo_total if slo_total else 1.0
        )
    served = len(total_lat)
    slo_total = attained + missed + expired
    return FleetLoadReport(
        duration_s=elapsed,
        served=served,
        rejected=rejected,
        expired=expired,
        errors=errors,
        throughput_ips=served / elapsed if elapsed > 0 else 0.0,
        slo_attained=attained,
        slo_missed=missed,
        slo_attainment=attained / slo_total if slo_total else 1.0,
        all_routes_fit_budget=fits,
        per_tenant=per_tenant,
        per_model=per_model,
    )
