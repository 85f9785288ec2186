"""The serving server: hardware-aware routing over one or many models.

:class:`FleetServer` is the deployment-time completion of the paper's
Pareto front.  The search produced *several* models traded off across
accuracy and per-device latency; the fleet registers all of them (plus
quantized variants) behind one endpoint and routes each
:class:`~repro.serve.ServeRequest` to the cheapest model predicted — by
the same nn-Meter-style :mod:`repro.latency` predictors that drove the
search — to satisfy that request's declared accuracy floor and latency
budget.  A single-model server is the one-point front:
:class:`repro.serve.PlanServer` is this class with one model registered.

.. code-block:: text

    submit(ServeRequest) ──► select_model(candidates, budget, floor,
                        │                 device, queue load)
                        │            (or the request's model hint)
            ┌───────────┼──────────────┐
       MicroBatcher  MicroBatcher  MicroBatcher    (one per model;
            │             │             │       shared admission ctrl)
        workers 0..t  workers 0..t  workers 0..t   (t = autoscaled)
            └───────────┼──────────────┘
                 shared PlanCache (all fingerprints, all buckets)
                 or the model's WorkerPool (process mode)
                        │  pad → run → slice
               future.set_result(ServeResponse)

Design points:

- **One substrate.**  All models live in a single shared
  :class:`~repro.serve.PlanCache`; per-model queues and worker threads
  multiplex over it, so weights exist once per model and replica
  arenas are pooled fleet-wide.
- **Routing** is :func:`repro.latency.select_model`: accuracy floors
  are hard (unsatisfiable → :class:`~repro.latency.NoFeasibleModel` at
  submit), budgets are soft (no model fits → fastest floor-satisfying
  model, counted in ``repro_serve_fleet_budget_missed_total``), and
  queue load inflates each model's effective cost so overflow traffic
  spills to the next-cheapest feasible model.
- **Admission** is fleet-wide: one
  :class:`~repro.serve.AdmissionController` shared by every per-model
  queue, so a tenant's token bucket spans the whole fleet.
- **Autoscaling** is tick-driven and observable: :meth:`scale_tick`
  reads queue depth and rolling p99 per model, adds a replica (cache
  ``warm()``-ed *before* the worker thread starts, off the hot path) or
  retires one (the worker drains its in-flight batch, then exits via
  the batcher's ``stop`` predicate + :meth:`MicroBatcher.kick`).
  Replica counts are exported on the
  ``repro_serve_fleet_replicas{model=...}`` gauge.
- **Process mode** (``policy.worker_mode="process"``): the model's
  batches execute in a :class:`~repro.serve.WorkerPool` of forked
  worker processes over shared-memory weights, bitwise-identical to
  thread mode for the same ``(image, bucket)``.  The pool forks before
  any dispatcher thread exists and has a fixed size, so a process-mode
  server serves exactly one model (a second :meth:`register` raises)
  and takes no autoscaler.
"""

from __future__ import annotations

import collections
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

import repro.obs as obs

from repro.deploy.plan import InferencePlan
from repro.graph.ir import Graph
from repro.latency.selection import (
    ModelCandidate,
    ModelSelection,
    NoFeasibleModel,
    latency_table,
)
from repro.latency.selection import select_model as _select_model
from repro.serve.admission import AdmissionController
from repro.serve.batcher import MicroBatcher, Request, ServeRequest, complete_batch
from repro.serve.cache import PlanCache
from repro.serve.config import AutoscalerConfig, ServeConfig
from repro.serve.policy import clamp_replicas
from repro.serve.workers import WorkerPool

__all__ = ["FleetServer", "ModelSpec"]

# Cached observability handles (no-ops until ``repro.obs.configure``).
_SERVED = obs.counter("repro_serve_requests_served_total")
_BATCHES = obs.counter("repro_serve_batches_total")
_BATCH_SIZE = obs.histogram("repro_serve_batch_size")
_QUEUE_WAIT = obs.histogram("repro_serve_queue_wait_seconds")
_E2E = obs.histogram("repro_serve_e2e_latency_seconds")
_BUDGET_MISSED = obs.counter("repro_serve_fleet_budget_missed_total")
_SCALE_UP = obs.counter("repro_serve_fleet_scale_up_total")
_SCALE_DOWN = obs.counter("repro_serve_fleet_scale_down_total")

#: Rolling per-model latency window the p99 trigger is computed over.
_P99_WINDOW = 256


@dataclass(frozen=True)
class ModelSpec:
    """One registered fleet model (immutable identity + routing data)."""

    name: str
    plan: InferencePlan
    candidate: ModelCandidate
    fingerprint: str


class _ModelUnit:
    """Mutable serving state for one registered model."""

    def __init__(self, spec: ModelSpec, batcher: MicroBatcher, target: int) -> None:
        self.spec = spec
        self.batcher = batcher
        self.target = target  # desired replica count (autoscaler-owned)
        self.pool: WorkerPool | None = None  # process mode: runs every batch
        self.lock = threading.Lock()
        self.workers: dict[int, threading.Thread] = {}
        self.idle_ticks = 0
        self.batches_executed = 0
        self._batches_at_last_tick = 0
        self.routed = 0
        self.budget_missed = 0
        self.slo_attained = 0
        self.slo_missed = 0
        self.latency_window: collections.deque[float] = collections.deque(
            maxlen=_P99_WINDOW
        )
        self.replicas_gauge = obs.gauge(
            "repro_serve_fleet_replicas", model=spec.name
        )
        self.queue_gauge = obs.gauge(
            "repro_serve_fleet_queue_depth", model=spec.name
        )
        self.routed_counter = obs.counter(
            "repro_serve_fleet_routed_total", model=spec.name
        )

    def rolling_p99_ms(self) -> float | None:
        with self.lock:
            if not self.latency_window:
                return None
            return float(np.percentile(np.asarray(self.latency_window), 99))


class FleetServer:
    """Multi-model, multi-tenant micro-batching server.

    Parameters
    ----------
    config:
        The consolidated :class:`~repro.serve.ServeConfig`.
        ``config.policy`` applies per model (batch size, queue depth,
        initial replicas, worker mode); ``config.admission`` is enforced
        fleet-wide; ``config.autoscaler`` bounds per-model replica
        counts (absent → replicas pinned at ``policy.replicas``).
        ``policy.replicas`` is clamped to the usable core count
        (``config.cpus`` overrides detection); the server stores the
        *effective* config as ``self.config``.
    clock:
        Injectable monotonic clock shared by every queue and token
        bucket (tests step it deterministically).

    Models are added with :meth:`register`; requests enter through
    :meth:`submit` and resolve to :class:`~repro.serve.ServeResponse`.
    ``input_shape`` is the one image shape every model serves (``None``
    until the first registration).  Use as a context manager or call
    :meth:`close` (graceful drain).
    """

    def __init__(
        self,
        config: ServeConfig | None = None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        config = config or ServeConfig()
        if config.policy.worker_mode == "process" and config.autoscaler is not None:
            raise ValueError(
                "worker_mode='process' runs a fixed-size WorkerPool; it takes "
                "no autoscaler"
            )
        # Oversubscription never adds throughput; clamp (with an obs
        # warning) rather than silently time-slicing cores.
        replicas = clamp_replicas(config.policy.replicas, cpus=config.cpus)
        if replicas != config.policy.replicas:
            config = config.with_overrides(
                policy=config.policy.with_overrides(replicas=replicas)
            )
        self.config = config
        self.policy = config.policy
        self.autoscaler: AutoscalerConfig | None = config.autoscaler
        self._clock = clock
        self.cache = PlanCache(max_batch_size=self.policy.max_batch_size)
        self.admission = (
            AdmissionController(config.admission, clock=clock)
            if config.admission is not None
            else None
        )
        self._units: dict[str, _ModelUnit] = {}
        self._registry_lock = threading.Lock()
        self.input_shape: tuple | None = None
        self._closed = False
        self._close_lock = threading.Lock()
        self.scale_events: list[dict] = []
        self._scale_thread: threading.Thread | None = None
        self._scale_stop = threading.Event()
        if self.autoscaler is not None and self.autoscaler.background:
            self._scale_thread = threading.Thread(
                target=self._scale_loop, name="repro-fleet-autoscaler", daemon=True
            )
            self._scale_thread.start()

    # -- registration ----------------------------------------------------------

    def _initial_replicas(self) -> int:
        n = self.policy.replicas
        if self.autoscaler is not None:
            n = min(max(n, self.autoscaler.min_replicas), self.autoscaler.max_replicas)
        return n

    def register(
        self,
        name: str,
        plan: InferencePlan,
        *,
        accuracy: float = 1.0,
        graph: Graph | None = None,
        latency_ms: Mapping[str, float] | None = None,
    ) -> ModelSpec:
        """Add one routable model to the fleet.

        ``latency_ms`` is the per-device predicted-latency table the
        router compares budgets against; pass ``graph`` instead to
        compute it with :func:`repro.latency.latency_table` (the usual
        path — the same predictors the search used).  With neither, the
        model predicts 0 ms everywhere, i.e. it fits any budget.
        ``accuracy`` is compared verbatim against request floors.

        Warms the shared cache for the model's initial replicas when
        ``config.warm`` (the default), then starts its worker threads.
        In process mode the model's :class:`~repro.serve.WorkerPool`
        forks first (its workers warm their own arenas; the shared
        cache stays cold), and only one model may be registered.
        """
        if latency_ms is not None:
            table = dict(latency_ms)
            if "mean" not in table:
                table["mean"] = sum(table.values()) / len(table)
        elif graph is not None:
            table = latency_table(graph)
        else:
            table = {"mean": 0.0}
        process = self.policy.worker_mode == "process"
        with self._registry_lock:
            if self._closed:
                raise RuntimeError("FleetServer is closed")
            if name in self._units:
                raise ValueError(f"model {name!r} already registered")
            if process and self._units:
                raise ValueError(
                    "worker_mode='process' serves one model per server; "
                    f"{sorted(self._units)} is already registered"
                )
            if self.input_shape is None:
                self.input_shape = plan.input_shape
            elif plan.input_shape != self.input_shape:
                raise ValueError(
                    f"model {name!r} input shape {plan.input_shape} differs from "
                    f"the fleet's {self.input_shape}; one fleet serves one "
                    f"input spec"
                )
            fingerprint = self.cache.register(plan)
            spec = ModelSpec(
                name=name,
                plan=plan,
                candidate=ModelCandidate(name=name, accuracy=accuracy, latency_ms=table),
                fingerprint=fingerprint,
            )
            batcher = MicroBatcher(
                max_batch_size=self.policy.max_batch_size,
                max_queue_delay_ms=self.policy.max_queue_delay_ms,
                max_queue_depth=self.policy.max_queue_depth,
                clock=self._clock,
                admission=self.admission,
            )
            unit = _ModelUnit(spec, batcher, target=self._initial_replicas())
            if process:
                # Fork before this model's dispatcher threads exist.
                unit.pool = WorkerPool(
                    plan, workers=unit.target, max_batch_size=self.policy.max_batch_size
                )
            self._units[name] = unit
        if self.config.warm and not process and unit.target > 0:
            self.cache.warm(fingerprint, replicas=unit.target)
        with unit.lock:
            self._ensure_workers_locked(unit)
        unit.replicas_gauge.set(unit.target)
        return spec

    @property
    def models(self) -> list[str]:
        with self._registry_lock:
            return sorted(self._units)

    # -- request path ----------------------------------------------------------

    def _validate_image(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        if x.ndim == 4 and x.shape[0] == 1:
            x = x[0]
        if self.input_shape is not None and x.shape != self.input_shape:
            raise ValueError(
                f"expected one image of shape {self.input_shape}, got {x.shape}"
            )
        return x

    def _queue_load(self) -> dict[str, float]:
        """Per-model congestion: queued requests per replica-batch of capacity."""
        load: dict[str, float] = {}
        for name, unit in self._units.items():
            capacity = max(1, unit.target) * self.policy.max_batch_size
            load[name] = unit.batcher.depth / capacity
        return load

    def route(self, request: ServeRequest) -> ModelSelection:
        """The routing decision for a request (no submission).

        A ``model`` hint pins the request (unknown hint → ``KeyError``);
        otherwise :func:`repro.latency.select_model` runs over the
        registered candidates with the request's budget (``budget_ms``,
        falling back to ``deadline_ms``), accuracy floor, device, and
        the fleet's current queue load.  Raises
        :class:`~repro.latency.NoFeasibleModel` when the floor is
        unsatisfiable.
        """
        with self._registry_lock:
            if not self._units:
                raise RuntimeError("no models registered")
            units = dict(self._units)
        if request.model is not None:
            try:
                unit = units[request.model]
            except KeyError:
                raise KeyError(
                    f"unknown model hint {request.model!r}; registered: "
                    f"{sorted(units)}"
                ) from None
            cand = unit.spec.candidate
            if cand.accuracy < request.accuracy_floor:
                raise NoFeasibleModel(
                    f"hinted model {request.model!r} (accuracy {cand.accuracy:g}) "
                    f"is below the request floor {request.accuracy_floor:g}"
                )
            predicted = cand.predicted_ms(request.device)
            budget = request.budget_ms if request.budget_ms is not None else request.deadline_ms
            fits = budget is None or predicted <= budget
            return ModelSelection(
                name=request.model, predicted_ms=predicted,
                effective_ms=predicted, fits_budget=fits,
            )
        budget = request.budget_ms if request.budget_ms is not None else request.deadline_ms
        return _select_model(
            (u.spec.candidate for u in units.values()),
            budget_ms=budget,
            accuracy_floor=request.accuracy_floor,
            device=request.device,
            load=self._queue_load(),
        )

    def submit(self, request: ServeRequest) -> Future:
        """Route and queue one request; the future resolves to a
        :class:`~repro.serve.ServeResponse`.

        The image may be ``(C, H, W)`` or ``(1, C, H, W)`` and must match
        ``input_shape`` (``ValueError`` otherwise).  Raises
        :class:`~repro.latency.NoFeasibleModel` (accuracy floor
        unsatisfiable), ``KeyError`` (unknown model hint),
        :class:`~repro.serve.TenantOverloaded` (admission),
        :class:`~repro.serve.ServerOverloaded` (queue depth), or
        ``RuntimeError`` once the server is closed.
        """
        request.image = self._validate_image(request.image)
        selection = self.route(request)
        unit = self._units[selection.name]
        future = unit.batcher.submit_request(
            request, meta={"predicted_ms": selection.predicted_ms}
        )
        # Count routing only after admission accepted the request.
        with unit.lock:
            unit.routed += 1
            if not selection.fits_budget:
                unit.budget_missed += 1
        unit.routed_counter.inc()
        if not selection.fits_budget:
            _BUDGET_MISSED.inc()
        return future

    def infer(self, request: ServeRequest):
        """Synchronous convenience: submit one request and wait."""
        return self.submit(request).result()

    # -- worker loop -----------------------------------------------------------

    def _ensure_workers_locked(self, unit: _ModelUnit) -> None:
        """Start worker threads for every slot below ``unit.target``."""
        for slot in range(unit.target):
            thread = unit.workers.get(slot)
            if thread is not None and thread.is_alive():
                continue
            thread = threading.Thread(
                target=self._worker_loop,
                args=(unit, slot),
                name=f"repro-fleet-{unit.spec.name}-{slot}",
                daemon=True,
            )
            unit.workers[slot] = thread
            thread.start()

    def _worker_loop(self, unit: _ModelUnit, slot: int) -> None:
        try:
            while True:
                batch = unit.batcher.next_batch(stop=lambda: slot >= unit.target)
                if batch is None:
                    return  # closed-and-drained, or retired by scale-down
                self._execute(unit, batch)
        finally:
            with unit.lock:
                if unit.workers.get(slot) is threading.current_thread():
                    del unit.workers[slot]

    def _execute(self, unit: _ModelUnit, batch: list[Request]) -> None:
        n = len(batch)
        started = time.monotonic()
        images = [r.request.image for r in batch]
        try:
            if unit.pool is not None:
                out = unit.pool.run_batch(images)
            else:
                entry = self.cache.acquire(unit.spec.fingerprint, self.cache.bucket_for(n))
                try:
                    out = entry.run_padded(images)
                finally:
                    self.cache.release(entry)
        except BaseException as exc:  # route the failure, don't kill the worker
            for r in batch:
                r.future.set_exception(exc)
            return
        done = time.monotonic()
        _BATCHES.inc()
        _SERVED.inc(n)
        _BATCH_SIZE.observe(n)
        for r in batch:
            _QUEUE_WAIT.observe(started - r.enqueued_at)
            _E2E.observe(done - r.enqueued_at)
        attained, missed = complete_batch(
            batch, out, model=unit.spec.name, started=started, finished=done
        )
        with unit.lock:
            unit.batches_executed += 1
            unit.slo_attained += attained
            unit.slo_missed += missed
            unit.latency_window.extend(
                (done - r.enqueued_at) * 1e3 for r in batch
            )

    # -- autoscaler ------------------------------------------------------------

    def scale_tick(self) -> list[dict]:
        """One deterministic autoscaling decision pass over every model.

        Per model: scale **up** one replica when queue depth exceeds the
        trigger (``scale_up_depth``, default twice the batch size) or
        the rolling p99 exceeds ``scale_up_p99_ms`` — the new replica's
        cache slots are :meth:`PlanCache.warm`-ed *before* its worker
        thread starts, so warm-up never runs on the request path.
        Scale **down** one replica after ``scale_down_idle_ticks``
        consecutive ticks with an empty queue and no batches executed;
        the retired worker finishes its in-flight batch, then exits via
        the ``stop`` predicate (woken by :meth:`MicroBatcher.kick`).

        Returns the scale events this tick (also appended to
        ``self.scale_events`` and counted on the
        ``repro_serve_fleet_scale_{up,down}_total`` obs counters).
        No-op without an :class:`~repro.serve.AutoscalerConfig`.
        """
        cfg = self.autoscaler
        if cfg is None or self._closed:
            return []
        up_depth = (
            cfg.scale_up_depth
            if cfg.scale_up_depth is not None
            else 2 * self.policy.max_batch_size
        )
        events: list[dict] = []
        with self._registry_lock:
            units = list(self._units.values())
        for unit in units:
            depth = unit.batcher.depth
            unit.queue_gauge.set(depth)
            with unit.lock:
                executed = unit.batches_executed - unit._batches_at_last_tick
                unit._batches_at_last_tick = unit.batches_executed
            p99 = unit.rolling_p99_ms() if cfg.scale_up_p99_ms is not None else None
            pressed = depth > up_depth or (
                p99 is not None and p99 > cfg.scale_up_p99_ms
            )
            busy = depth > 0 or executed > 0
            event: dict | None = None
            if pressed and unit.target < cfg.max_replicas:
                unit.idle_ticks = 0
                new_target = unit.target + 1
                if self.config.warm:
                    self.cache.warm(unit.spec.fingerprint, replicas=new_target)
                with unit.lock:
                    unit.target = new_target
                    self._ensure_workers_locked(unit)
                _SCALE_UP.inc()
                event = {"model": unit.spec.name, "action": "up",
                         "replicas": new_target, "queue_depth": depth,
                         "p99_ms": p99}
            elif not busy:
                unit.idle_ticks += 1
                if unit.idle_ticks >= cfg.scale_down_idle_ticks and (
                    unit.target > cfg.min_replicas
                ):
                    with unit.lock:
                        unit.target -= 1
                    unit.idle_ticks = 0
                    unit.batcher.kick()  # retiring worker re-checks its stop predicate
                    _SCALE_DOWN.inc()
                    event = {"model": unit.spec.name, "action": "down",
                             "replicas": unit.target, "queue_depth": depth,
                             "p99_ms": p99}
            else:
                unit.idle_ticks = 0
            unit.replicas_gauge.set(unit.target)
            if event is not None:
                events.append(event)
        self.scale_events.extend(events)
        return events

    def _scale_loop(self) -> None:
        assert self.autoscaler is not None
        while not self._scale_stop.wait(self.autoscaler.interval_s):
            self.scale_tick()

    def replicas(self, name: str) -> int:
        """Current replica target for a model."""
        return self._units[name].target

    # -- lifecycle -------------------------------------------------------------

    def close(self, timeout: float | None = 30.0) -> None:
        """Graceful drain: stop intake, serve every queue, join workers,
        then stop any worker processes."""
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        self._scale_stop.set()
        if self._scale_thread is not None:
            self._scale_thread.join(timeout=timeout)
        with self._registry_lock:
            units = list(self._units.values())
        for unit in units:
            unit.batcher.close()
        for unit in units:
            with unit.lock:
                threads = list(unit.workers.values())
            for t in threads:
                t.join(timeout=timeout)
            # Dispatchers are drained; no batch is in flight on the pool.
            if unit.pool is not None:
                unit.pool.close(timeout=timeout)

    def __enter__(self) -> "FleetServer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def stats(self) -> dict:
        """Fleet-wide totals at the top level, per-model detail below it.

        Top level: ``submitted``, ``rejected``, ``expired`` and
        ``batches_executed`` summed over models, ``worker_mode``, the
        shared :class:`~repro.serve.PlanCache` counters and, in process
        mode, the :class:`~repro.serve.WorkerPool` counters.  Below:
        ``models`` (per-model serving, routing, SLO and replica
        counters), ``scale_events`` and, with admission control,
        ``admission``.
        """
        with self._registry_lock:
            units = dict(self._units)
        per_model = {}
        for name, unit in units.items():
            with unit.lock:
                per_model[name] = {
                    "submitted": unit.batcher.submitted,
                    "rejected": unit.batcher.rejected,
                    "expired": unit.batcher.expired,
                    "batches_executed": unit.batches_executed,
                    "routed": unit.routed,
                    "budget_missed": unit.budget_missed,
                    "slo_attained": unit.slo_attained,
                    "slo_missed": unit.slo_missed,
                    "replicas": unit.target,
                    "accuracy": unit.spec.candidate.accuracy,
                    "predicted_mean_ms": unit.spec.candidate.latency_ms.get("mean"),
                }
        out = {
            **self.cache.stats(),
            **{key: sum(m[key] for m in per_model.values())
               for key in ("submitted", "rejected", "expired", "batches_executed")},
            "worker_mode": self.policy.worker_mode,
        }
        for unit in units.values():
            if unit.pool is not None:
                out.update(unit.pool.stats())
        # The per-model table replaces the cache's model count.
        out["models"] = per_model
        out["scale_events"] = list(self.scale_events)
        if self.admission is not None:
            out["admission"] = self.admission.stats()
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"FleetServer(models={self.models}, "
                f"max_batch={self.policy.max_batch_size}, closed={self._closed})")
