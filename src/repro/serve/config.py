"""Consolidated server construction config.

:class:`ServeConfig` is the one object that describes how a server is
put together — batching policy, cache warming, CPU budget, per-tenant
admission, and autoscaling.  :class:`repro.serve.FleetServer` takes it
as its ``config`` argument, and so does
:class:`repro.serve.PlanServer` (``PlanServer(plan, config)``), the
fleet's one-model case.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.serve.admission import AdmissionPolicy
from repro.serve.policy import BatchPolicy

__all__ = ["AutoscalerConfig", "ServeConfig"]


@dataclass(frozen=True)
class AutoscalerConfig:
    """Replica autoscaling bounds and triggers (thread mode only).

    The autoscaler is tick-driven (:meth:`repro.serve.FleetServer.scale_tick`),
    deciding per model from `repro.obs`-visible signals:

    - scale **up** by one replica when queue depth exceeds
      ``scale_up_depth`` (default ``2 * max_batch_size``) or the rolling
      p99 exceeds ``scale_up_p99_ms``;
    - scale **down** by one replica after ``scale_down_idle_ticks``
      consecutive ticks with no queued work and no batches executed.

    ``background=True`` runs ticks on a daemon thread every
    ``interval_s``; the default leaves ticking to the caller so tests
    and benchmarks stay deterministic.
    """

    min_replicas: int = 1
    max_replicas: int = 4
    scale_up_depth: int | None = None  # None -> 2 * policy.max_batch_size
    scale_up_p99_ms: float | None = None  # None -> depth trigger only
    scale_down_idle_ticks: int = 3
    interval_s: float = 0.25
    background: bool = False

    def __post_init__(self) -> None:
        if self.min_replicas < 0:
            raise ValueError(f"min_replicas must be >= 0, got {self.min_replicas}")
        if self.max_replicas < max(1, self.min_replicas):
            raise ValueError(
                f"max_replicas ({self.max_replicas}) must be >= "
                f"max(1, min_replicas) ({max(1, self.min_replicas)})"
            )
        if self.scale_down_idle_ticks < 1:
            raise ValueError(
                f"scale_down_idle_ticks must be >= 1, got {self.scale_down_idle_ticks}"
            )
        if self.interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {self.interval_s}")

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class ServeConfig:
    """Everything a server needs to construct itself.

    Parameters
    ----------
    policy:
        Batching/replica policy, applied per model.
    warm:
        Pre-build replicas and pre-touch arenas at startup so steady
        state allocates nothing (process-mode workers always warm their
        own).
    cpus:
        Logical-CPU budget for replica clamping; ``None`` = detect.
    admission:
        Per-tenant token buckets + priority classes; ``None`` disables
        admission control (global queue depth still applies).
    autoscaler:
        Per-model replica autoscaling; ``None`` pins
        ``policy.replicas``.  Rejected in process mode.
    """

    policy: BatchPolicy = field(default_factory=BatchPolicy)
    warm: bool = True
    cpus: int | None = None
    admission: AdmissionPolicy | None = None
    autoscaler: AutoscalerConfig | None = None

    def with_overrides(self, **kwargs) -> "ServeConfig":
        """A copy with the given fields replaced."""
        return dataclasses.replace(self, **kwargs)

    def as_dict(self) -> dict:
        """JSON-ready view (printed into benchmark ``extra_info``)."""
        return {
            "policy": self.policy.as_dict(),
            "warm": self.warm,
            "cpus": self.cpus,
            "admission": self.admission.as_dict() if self.admission else None,
            "autoscaler": self.autoscaler.as_dict() if self.autoscaler else None,
        }
