"""Batching policy: static knobs + latency-predictor-informed seeding.

The micro-batcher's behaviour is governed by three knobs bundled in
:class:`BatchPolicy`.  They can be set by hand, but the point of a
hardware-aware NAS repro is that we already *predict* batched device
latency (:func:`repro.latency.predictors.batch_latency_ms`, the paper's
nn-Meter-style predictors) — :func:`suggest_batch_policy` closes that
loop by picking the largest power-of-two batch whose predicted latency
still fits a target p99 budget, so the serving tier ships with a batch
size consistent with the same device model the search optimized against.
"""

from __future__ import annotations

import logging

from dataclasses import dataclass, replace

import repro.obs as obs

from repro.graph.ir import Graph
from repro.latency.devices import DEVICE_PROFILES, DeviceProfile
from repro.latency.predictors import batch_latency_ms
from repro.parallel.executor import available_cpus

__all__ = [
    "BatchPolicy",
    "bucket_for",
    "clamp_replicas",
    "plan_buckets",
    "predicted_batch_ms",
    "suggest_batch_policy",
    "suggest_max_batch_size",
]

_LOG = logging.getLogger(__name__)

#: Incremented whenever a replica request is clamped to the core count
#: (oversubscription would only add context switching, never throughput).
_CLAMPED = obs.counter("repro_serve_replicas_clamped_total")

#: Hard cap on the batch dimension a policy will ever suggest; beyond
#: this the im2col column matrices outgrow every profiled cache anyway.
MAX_BATCH_CAP = 64


@dataclass(frozen=True)
class BatchPolicy:
    """Knobs governing one :class:`~repro.serve.MicroBatcher`.

    Parameters
    ----------
    max_batch_size:
        Coalesce at most this many requests into one plan invocation.
    max_queue_delay_ms:
        How long the oldest queued request may wait for companions
        before the batcher flushes a partial batch.  This bounds the
        batching contribution to tail latency.
    max_queue_depth:
        Backpressure high-water mark: :meth:`MicroBatcher.submit_request`
        raises :class:`~repro.serve.ServerOverloaded` once this many
        requests are already queued, shedding load instead of growing
        an unbounded queue.
    replicas:
        Plan replicas (worker threads or processes) executing batches
        concurrently.  :class:`~repro.serve.FleetServer` clamps this to
        the usable core count at startup (see :func:`clamp_replicas`).
    worker_mode:
        ``"thread"`` (default) runs replicas as threads sharing weight
        arrays by reference; ``"process"`` runs them as worker
        processes over shared-memory weight arenas
        (:mod:`repro.serve.workers`), escaping the GIL on multi-core
        machines.  Results are bitwise-identical between the two modes
        for the same ``(image, bucket)`` inputs.
    """

    max_batch_size: int = 8
    max_queue_delay_ms: float = 2.0
    max_queue_depth: int = 128
    replicas: int = 1
    worker_mode: str = "thread"

    def __post_init__(self) -> None:
        if self.worker_mode not in ("thread", "process"):
            raise ValueError(
                f"worker_mode must be 'thread' or 'process', got {self.worker_mode!r}"
            )
        if self.max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {self.max_batch_size}")
        if self.max_queue_delay_ms < 0:
            raise ValueError(
                f"max_queue_delay_ms must be >= 0, got {self.max_queue_delay_ms}"
            )
        if self.max_queue_depth < self.max_batch_size:
            raise ValueError(
                f"max_queue_depth ({self.max_queue_depth}) must be >= "
                f"max_batch_size ({self.max_batch_size}) or full batches can "
                f"never form"
            )
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas}")

    def with_overrides(self, **kw) -> "BatchPolicy":
        """A copy with the given fields replaced (validation re-runs)."""
        return replace(self, **kw)

    def as_dict(self) -> dict:
        """JSON-ready view (benchmark payloads, ServeConfig.as_dict)."""
        return {
            "max_batch_size": self.max_batch_size,
            "max_queue_delay_ms": self.max_queue_delay_ms,
            "max_queue_depth": self.max_queue_depth,
            "replicas": self.replicas,
            "worker_mode": self.worker_mode,
        }


def clamp_replicas(replicas: int, cpus: int | None = None) -> int:
    """Clamp a replica request to the usable core count, warning loudly.

    More plan replicas than cores never adds throughput — thread
    replicas time-slice one GIL and process workers time-slice the
    cores — so oversubscription is clamped rather than honored.  The
    clamp is observable: a ``repro_serve_replicas_clamped_total``
    counter tick plus a log warning, never silent.

    ``cpus`` overrides the detected :func:`repro.parallel.available_cpus`
    (deterministic tests; capacity planning for a different box).
    """
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    limit = available_cpus() if cpus is None else max(1, int(cpus))
    if replicas <= limit:
        return replicas
    _CLAMPED.inc()
    _LOG.warning(
        "replicas=%d oversubscribes the %d usable core(s); clamping to %d",
        replicas, limit, limit,
    )
    return limit


def bucket_for(n: int, max_batch_size: int) -> int:
    """The power-of-two arena bucket a batch of ``n`` requests runs in.

    Partial batches are padded up to the bucket size so the warm plan
    cache sees a tiny, fixed set of batch shapes — without bucketing,
    every distinct partial-batch size would thrash the arenas with a
    fresh allocation pattern.  The bucket never exceeds
    ``max_batch_size`` (itself not required to be a power of two: a
    policy of 12 yields buckets 1, 2, 4, 8, 12).
    """
    if n < 1:
        raise ValueError(f"batch must be >= 1, got {n}")
    if n > max_batch_size:
        raise ValueError(f"batch {n} exceeds max_batch_size {max_batch_size}")
    bucket = 1
    while bucket < n:
        bucket *= 2
    return min(bucket, max_batch_size)


def plan_buckets(max_batch_size: int) -> list[int]:
    """All buckets :func:`bucket_for` can produce under a policy."""
    buckets: list[int] = []
    b = 1
    while b < max_batch_size:
        buckets.append(b)
        b *= 2
    buckets.append(max_batch_size)
    return buckets


def predicted_batch_ms(
    graph: Graph,
    batch: int,
    profiles: dict[str, DeviceProfile] | None = None,
) -> float:
    """Mean predicted batched latency across device profiles (ms).

    Uses the paper's 4-device aggregation (mean over
    :data:`~repro.latency.devices.DEVICE_PROFILES`) unless a specific
    profile subset is given.
    """
    profiles = DEVICE_PROFILES if profiles is None else profiles
    if not profiles:
        raise ValueError("need at least one device profile")
    return sum(batch_latency_ms(graph, batch, p) for p in profiles.values()) / len(profiles)


def suggest_max_batch_size(
    graph: Graph,
    target_p99_ms: float,
    profiles: dict[str, DeviceProfile] | None = None,
    cap: int = MAX_BATCH_CAP,
) -> int:
    """Largest power-of-two batch whose predicted latency fits the budget.

    Returns at least 1 even when a single image already misses the
    target (serving a request slowly beats not serving it at all; the
    caller can inspect :func:`predicted_batch_ms` to warn).
    """
    if target_p99_ms <= 0:
        raise ValueError(f"target_p99_ms must be > 0, got {target_p99_ms}")
    best = 1
    b = 2
    while b <= cap:
        if predicted_batch_ms(graph, b, profiles) > target_p99_ms:
            break
        best = b
        b *= 2
    return best


def suggest_batch_policy(
    graph: Graph,
    target_p99_ms: float,
    profiles: dict[str, DeviceProfile] | None = None,
    replicas: int | None = 1,
    cap: int = MAX_BATCH_CAP,
    cpus: int | None = None,
    worker_mode: str | None = None,
) -> BatchPolicy:
    """Seed a :class:`BatchPolicy` from the device latency predictors.

    - ``max_batch_size`` — :func:`suggest_max_batch_size` against the
      p99 budget;
    - ``max_queue_delay_ms`` — half the *headroom* left in the budget
      after the chosen batch's predicted execution time (clamped to
      [0.25 ms, target/2]), so queueing plus execution stays inside the
      target even when the batch fills slowly;
    - ``max_queue_depth`` — four full batches per replica, enough to
      keep workers fed through arrival jitter without letting queue
      wait dominate the p99;
    - ``replicas`` — clamped to the usable core count
      (:func:`clamp_replicas`); pass ``None`` to take one replica per
      usable core;
    - ``worker_mode`` — defaulted core-count-aware: ``"process"`` when
      more than one replica runs (the GIL would serialize thread
      replicas), ``"thread"`` for a single replica where process
      staging buys nothing.  ``cpus`` overrides detection for
      deterministic tests.
    """
    cores = available_cpus() if cpus is None else max(1, int(cpus))
    replicas = cores if replicas is None else replicas
    replicas = clamp_replicas(replicas, cpus=cores)
    if worker_mode is None:
        worker_mode = "process" if replicas > 1 else "thread"
    max_batch = suggest_max_batch_size(graph, target_p99_ms, profiles, cap=cap)
    headroom = target_p99_ms - predicted_batch_ms(graph, max_batch, profiles)
    delay = min(max(headroom / 2.0, 0.25), target_p99_ms / 2.0)
    depth = max(4 * max_batch * replicas, max_batch)
    return BatchPolicy(
        max_batch_size=max_batch,
        max_queue_delay_ms=delay,
        max_queue_depth=depth,
        replicas=replicas,
        worker_mode=worker_mode,
    )
