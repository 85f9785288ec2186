"""Parallel trial execution (the paper Discussion's multi-GPU NAS, as
multi-process CPU parallelism).

:mod:`~repro.parallel.executor` is a uniform ``map``-style interface with
serial and process-pool backends.
"""

from repro.parallel.executor import (
    Executor,
    MapItemResult,
    ProcessPoolExecutorBackend,
    SerialExecutor,
    available_cpus,
    make_executor,
)

__all__ = [
    "Executor",
    "SerialExecutor",
    "ProcessPoolExecutorBackend",
    "MapItemResult",
    "available_cpus",
    "make_executor",
]
