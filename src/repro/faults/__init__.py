"""Deterministic fault injection for sweeps, pools and stores.

Generalizes :mod:`repro.nas.failures` (the paper's 11-of-1,728 preset)
into a full chaos harness: typed exceptions, latency spikes, per-trial
hangs (for deadline tests), once-only kill latches, node kills and
heartbeat losses, and store-tail corruption, all driven by a seeded
schedule so every chaos test is exactly repeatable.

The harness *proves* the fault-tolerance layer: `tests/test_chaos_resume.py`
injects transients, a worker kill (through
:class:`~repro.nas.fabric.NodeEvaluator`) and a truncated store tail into
one serial sweep, and `tests/test_fabric.py` adds node kills, a
heartbeat-loss window and a Ctrl-C to a fabric sweep over the same kind
of store.  Both assert the resumed results are bitwise-equal to a
fault-free serial run.
"""

from repro.faults.harness import (
    Fault,
    FaultKind,
    FaultPlan,
    InjectedTransientError,
    KillSwitch,
    NodeFault,
    NodeFaultKind,
    NodeFaultPlan,
    corrupt_store_tail,
    interrupt_after,
)

__all__ = [
    "Fault",
    "FaultKind",
    "FaultPlan",
    "InjectedTransientError",
    "KillSwitch",
    "NodeFault",
    "NodeFaultKind",
    "NodeFaultPlan",
    "corrupt_store_tail",
    "interrupt_after",
]
