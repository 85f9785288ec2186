"""Parallel trial execution (the paper Discussion's multi-GPU NAS, as
multi-process CPU parallelism).

- :mod:`~repro.parallel.executor` — a uniform ``map``-style interface with
  serial and process-pool backends;
- :mod:`~repro.parallel.scheduler` — the work-stealing victim choice of the
  sweep fabric's idle nodes.
"""

from repro.parallel.executor import (
    Executor,
    MapItemResult,
    ProcessPoolExecutorBackend,
    SerialExecutor,
    ThreadPoolExecutorBackend,
    available_cpus,
    make_executor,
)
from repro.parallel.scheduler import pick_steal_victim

__all__ = [
    "Executor",
    "SerialExecutor",
    "ThreadPoolExecutorBackend",
    "ProcessPoolExecutorBackend",
    "MapItemResult",
    "available_cpus",
    "make_executor",
    "pick_steal_victim",
]
