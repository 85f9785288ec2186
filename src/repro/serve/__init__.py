"""Throughput-oriented serving over compiled inference plans.

The paper's end goal is *deployment* of the Pareto-optimal models on
resource-limited devices; this package is the request path for that —
the layer that turns one-shot :meth:`InferencePlan.run` calls into a
server that batches, parallelizes, routes, and sheds load:

- :class:`ServeRequest` / :class:`ServeResponse` — the one
  request/response contract: image plus tenant, priority, wall-clock
  SLO deadline, device/latency budget, model hint, and accuracy floor
  in; logits row plus served model and queue/exec timings out;
- :class:`MicroBatcher` — dynamic micro-batching with priority classes,
  deadline flush, fail-fast SLO expiry (:class:`DeadlineExceeded`),
  bounded-queue backpressure (:class:`ServerOverloaded`), graceful
  drain;
- :class:`AdmissionPolicy` / :class:`AdmissionController` — per-tenant
  token buckets and priority defaults (:class:`TenantOverloaded` when a
  bucket runs dry), shared fleet-wide;
- :class:`PlanCache` — warm plan replicas + pinned input buffers keyed
  by ``(model fingerprint, batch bucket)`` with power-of-two padding,
  so steady-state serving performs zero arena allocations;
- :class:`FleetServer` — the server: requests route to the cheapest
  registered model predicted (by the :mod:`repro.latency` device
  predictors) to meet their accuracy floor and latency budget; each
  model's worker threads run exclusive plan replicas over one shared
  cache (weights shared, arenas private), and a tick-driven autoscaler
  grows/retires replicas per model from queue-depth and p99 signals.
  With ``BatchPolicy(worker_mode="process")`` the (single) model's
  batches execute in a :class:`WorkerPool` of worker *processes* over
  shared-memory weight arenas (:mod:`repro.serve.shm`), escaping the
  GIL on multi-core machines with bitwise-identical results;
- :class:`PlanServer` — ``PlanServer(plan, config)``, a
  :class:`FleetServer` with one model registered;
- :class:`ServeConfig` — consolidated construction config
  (:class:`BatchPolicy` + warm + cpus + admission +
  :class:`AutoscalerConfig`);
- :func:`run_load` / :func:`serial_baseline` — one closed/open-loop
  load generator and :class:`LoadReport` for thread, process and fleet
  serving, plus the single-stream reference for throughput ratios.

Everything is instrumented through :mod:`repro.obs` (queue depth,
batch-size / queue-wait / end-to-end latency histograms, served /
rejected / expired counters, per-tenant admission counters, per-model
replica gauges and scale events, SLO attainment) — enable with
``repro.obs.configure()``.
"""

from repro.serve.admission import (
    AdmissionController,
    AdmissionPolicy,
    TenantOverloaded,
    TenantQuota,
    TokenBucket,
)
from repro.serve.batcher import (
    DeadlineExceeded,
    MicroBatcher,
    Request,
    ServeRequest,
    ServeResponse,
    ServerOverloaded,
)
from repro.serve.cache import CachedPlan, PlanCache
from repro.serve.config import AutoscalerConfig, ServeConfig
from repro.serve.fleet import FleetServer, ModelSpec
from repro.serve.loadgen import LoadReport, TenantLoad, run_load, serial_baseline
from repro.serve.policy import (
    BatchPolicy,
    bucket_for,
    clamp_replicas,
    plan_buckets,
    predicted_batch_ms,
    suggest_batch_policy,
    suggest_max_batch_size,
)
from repro.serve.server import PlanServer
from repro.serve.shm import (
    AttachedPlan,
    PlanSpec,
    SharedPlanWeights,
    attach_plan,
    publish_plan,
)
from repro.serve.workers import WorkerDied, WorkerPool, WorkerTaskError

__all__ = [
    "AdmissionController",
    "AdmissionPolicy",
    "AttachedPlan",
    "AutoscalerConfig",
    "BatchPolicy",
    "CachedPlan",
    "DeadlineExceeded",
    "FleetServer",
    "LoadReport",
    "MicroBatcher",
    "ModelSpec",
    "PlanCache",
    "PlanServer",
    "PlanSpec",
    "Request",
    "ServeConfig",
    "ServeRequest",
    "ServeResponse",
    "ServerOverloaded",
    "SharedPlanWeights",
    "TenantLoad",
    "TenantOverloaded",
    "TenantQuota",
    "TokenBucket",
    "WorkerDied",
    "WorkerPool",
    "WorkerTaskError",
    "attach_plan",
    "bucket_for",
    "clamp_replicas",
    "plan_buckets",
    "predicted_batch_ms",
    "publish_plan",
    "run_load",
    "serial_baseline",
    "suggest_batch_policy",
    "suggest_max_batch_size",
]
