"""The distributed sweep fabric: lease-based worker nodes over one store.

Scales one NAS sweep across worker "nodes" (threads, each optionally
owning a private process pool) while keeping the results bitwise-equal
to a serial run — the property the chaos certification in
``tests/test_fabric.py`` proves under node kills, heartbeat loss,
SIGKILLed pool workers, a truncated store tail and a Ctrl-C resume.

The fabric writes the same :class:`~repro.nas.storage.TrialStore` file
a serial :class:`~repro.nas.experiment.Experiment` writes, so either
one can resume it and ``repro-nas pareto`` reads it.  Two layers:

- :mod:`~repro.nas.fabric.lease` — :class:`LeaseTable`: one FIFO queue
  of trials handed out as monotonic-clock leases with heartbeats,
  deadline reclaim and poison-trial quarantine, classified through the
  :mod:`repro.nas.retry` taxonomy.
- :mod:`~repro.nas.fabric.coordinator` — :class:`FabricSweep`: the
  claim/run/submit/heartbeat node loop, single-writer exactly-once
  commits, elastic membership and the self-execute fallback.
"""

from repro.nas.fabric.coordinator import (
    FabricResult,
    FabricSweep,
    NodeEvaluator,
    WorkerNode,
)
from repro.nas.fabric.lease import Lease, LeaseTable, TrialTask

__all__ = [
    "FabricResult",
    "FabricSweep",
    "Lease",
    "LeaseTable",
    "NodeEvaluator",
    "TrialTask",
    "WorkerNode",
]
