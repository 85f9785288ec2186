"""Execution backends for embarrassingly parallel trial workloads.

The experiment runner maps an evaluation function over many independent
configurations — the structure the paper's Discussion proposes scaling
across GPUs.  Here the same interface runs serially (default on one core)
or over a process pool; tasks must be picklable top-level callables.

Two failure models are supported:

- :meth:`Executor.map` — fail-fast: the first task exception propagates
  (the pre-existing contract).  The process backend now additionally
  survives a dead pool: after ``BrokenProcessPool`` the broken pool is
  discarded so the *next* map respawns workers instead of failing
  forever.
- :meth:`Executor.map_resilient` — per-item isolation: every item yields
  a :class:`MapItemResult` (ok/value or error), one poisoned task cannot
  sink the whole map, killed workers are respawned and their in-flight
  items requeued, and after ``max_pool_deaths`` consecutive pool deaths
  the backend degrades to serial execution for the remainder.

Neither map retries a task that raised: trial retries belong to
:func:`repro.nas.retry.run_with_retry` and its
:class:`~repro.nas.retry.RetryPolicy`.
"""

from __future__ import annotations

import concurrent.futures
import os
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Sequence, TypeVar

from repro.obs import config as _obs

__all__ = [
    "Executor",
    "SerialExecutor",
    "ThreadPoolExecutorBackend",
    "ProcessPoolExecutorBackend",
    "MapItemResult",
    "available_cpus",
    "make_executor",
]

T = TypeVar("T")
R = TypeVar("R")

#: Errors that must never be swallowed by resilient maps.
_FATAL = (KeyboardInterrupt, SystemExit, GeneratorExit, MemoryError)

# Cached observability handles (no-ops until ``repro.obs.configure``).
_QUEUE_DEPTH = _obs.gauge("repro_executor_queue_depth")
_POOL_DEATHS = _obs.counter("repro_executor_pool_deaths_total")
_REQUEUED = _obs.counter("repro_executor_requeued_items_total")
_DEGRADED = _obs.counter("repro_executor_degraded_total")


@dataclass
class MapItemResult:
    """Outcome of one item of a resilient map.

    ``requeues`` counts times the item was in flight when a worker pool
    died and had to be resubmitted.
    """

    index: int
    ok: bool
    value: Any = None
    error: str = ""
    error_type: str = ""
    requeues: int = 0

    def unwrap(self) -> Any:
        """The value, or raise ``RuntimeError`` if the item failed."""
        if not self.ok:
            raise RuntimeError(f"item {self.index} failed: {self.error_type}: {self.error}")
        return self.value


def _run_item_serial(fn: Callable[[T], R], index: int, item: T) -> MapItemResult:
    """Run one item in-process, capturing non-fatal exceptions."""
    try:
        return MapItemResult(index=index, ok=True, value=fn(item))
    except _FATAL:
        raise
    except BaseException as exc:  # noqa: BLE001 - captured per item
        return MapItemResult(index=index, ok=False, error=str(exc),
                             error_type=type(exc).__name__)


class Executor:
    """Interface: ordered map over independent tasks.

    Lifecycle: an executor is open from construction until the single
    permitted :meth:`close` (called directly or by ``with``-block exit).
    Mapping on a closed executor, or closing twice, raises a clear
    ``RuntimeError`` instead of surfacing a raw pool error — create a
    fresh executor via :func:`make_executor` instead of reusing one.
    """

    _closed = False

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                f"{type(self).__name__} is closed; executors are single-use — "
                f"create a new one with make_executor() instead of reusing it"
            )

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        """Apply ``fn`` to every item, preserving input order."""
        raise NotImplementedError

    def map_resilient(self, fn: Callable[[T], R], items: Sequence[T]) -> list[MapItemResult]:
        """Per-item fault-isolated map: one result per item, input order.

        Task exceptions are captured into :class:`MapItemResult` instead
        of propagating (fatal errors — ``KeyboardInterrupt``,
        ``MemoryError`` — still raise).
        """
        self._ensure_open()
        return [_run_item_serial(fn, i, item) for i, item in enumerate(items)]

    def _release(self) -> None:
        """Free backend resources (hook for subclasses)."""

    def close(self) -> None:
        """Release resources.  A second close raises ``RuntimeError``."""
        if self._closed:
            raise RuntimeError(
                f"{type(self).__name__}.close() called twice — executors close "
                f"exactly once (the context manager already closes on exit)"
            )
        self._closed = True
        self._release()

    def __enter__(self) -> "Executor":
        self._ensure_open()
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class SerialExecutor(Executor):
    """In-process sequential execution (deterministic, zero overhead)."""

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        self._ensure_open()
        return [fn(item) for item in items]


class ThreadPoolExecutorBackend(Executor):
    """Multi-thread execution via :mod:`concurrent.futures`.

    Threads share the process heap — no pickling, no spawn cost — which
    makes this the right backend for I/O- or wait-bound tasks (e.g. the
    serving load generator's closed-loop clients, which spend their time
    blocked on inference futures) and for GIL-releasing NumPy work.
    CPU-bound pure-Python tasks should keep using the process backend.
    """

    def __init__(self, workers: int | None = None) -> None:
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers or max(os.cpu_count() or 1, 1)
        self._pool: concurrent.futures.ThreadPoolExecutor | None = None

    def _ensure_pool(self) -> concurrent.futures.ThreadPoolExecutor:
        if self._pool is None:
            self._pool = concurrent.futures.ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-thread"
            )
        return self._pool

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        self._ensure_open()
        items = list(items)
        if not items:
            return []
        _QUEUE_DEPTH.set(len(items))
        try:
            return list(self._ensure_pool().map(fn, items))
        finally:
            _QUEUE_DEPTH.set(0)

    def _release(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


class ProcessPoolExecutorBackend(Executor):
    """Multi-process execution via :mod:`concurrent.futures`.

    Tasks ship to workers one at a time; results are returned in input
    order regardless of completion order.
    """

    def __init__(
        self,
        workers: int | None = None,
        max_pool_deaths: int = 3,
        max_requeues: int = 2,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_pool_deaths < 1:
            raise ValueError(f"max_pool_deaths must be >= 1, got {max_pool_deaths}")
        if max_requeues < 0:
            raise ValueError(f"max_requeues must be >= 0, got {max_requeues}")
        self.workers = workers or max(os.cpu_count() or 1, 1)
        #: Consecutive ``BrokenProcessPool`` deaths tolerated by
        #: :meth:`map_resilient` before degrading to serial execution.
        self.max_pool_deaths = max_pool_deaths
        #: Times one item may be requeued after pool deaths before it is
        #: recorded as failed (guards against a deterministic worker
        #: killer respawning pools forever).
        self.max_requeues = max_requeues
        self._pool: concurrent.futures.ProcessPoolExecutor | None = None
        #: Lifetime resilience counters (see :attr:`stats`).
        self.pool_deaths = 0
        self.requeued_items = 0
        self.degraded = False
        self._consecutive_deaths = 0

    @property
    def stats(self) -> dict[str, int | bool]:
        """Resilience counters: pool deaths, requeues, degraded flag."""
        return {
            "pool_deaths": self.pool_deaths,
            "requeued_items": self.requeued_items,
            "degraded": self.degraded,
        }

    def _ensure_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        if self._pool is None:
            self._pool = concurrent.futures.ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def _discard_pool(self) -> None:
        """Drop a (possibly broken) pool so the next map respawns workers."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def _record_pool_death(self) -> None:
        self.pool_deaths += 1
        self._consecutive_deaths += 1
        _POOL_DEATHS.inc()
        self._discard_pool()
        if self._consecutive_deaths >= self.max_pool_deaths:
            if not self.degraded:
                _DEGRADED.inc()
            self.degraded = True

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        self._ensure_open()
        if not items:
            return []  # avoid spinning up workers for an empty sweep
        if self.degraded:  # too many pool deaths: honest serial fallback
            return [fn(item) for item in items]
        pool = self._ensure_pool()
        _QUEUE_DEPTH.set(len(items))
        try:
            results = list(pool.map(fn, items))
        except BrokenProcessPool:
            # A dead worker poisons the whole pool object.  Discard it so
            # subsequent maps respawn instead of failing forever, then
            # re-raise: plain map is fail-fast by contract.
            self._record_pool_death()
            raise
        finally:
            _QUEUE_DEPTH.set(0)
        self._consecutive_deaths = 0
        return results

    def map_resilient(self, fn: Callable[[T], R], items: Sequence[T]) -> list[MapItemResult]:
        """Fault-isolated map over a (respawnable) process pool.

        - a task exception fails only its own item;
        - ``BrokenProcessPool`` respawns the pool and requeues every item
          that was still in flight (each at most :attr:`max_requeues`
          times — a deterministic worker killer cannot loop forever);
        - after :attr:`max_pool_deaths` *consecutive* pool deaths the
          remaining items run serially in this process (degraded mode,
          reported via :attr:`stats`).
        """
        self._ensure_open()
        if not items:
            return []
        results: dict[int, MapItemResult] = {}
        pending: list[int] = list(range(len(items)))
        requeues = {i: 0 for i in pending}
        while pending:
            _QUEUE_DEPTH.set(len(pending))
            if self.degraded:
                for i in pending:
                    result = _run_item_serial(fn, i, items[i])
                    result.requeues = requeues[i]
                    results[i] = result
                pending = []
                break
            pool = self._ensure_pool()
            futures = {pool.submit(fn, items[i]): i for i in pending}
            broken = False
            still_pending: list[int] = []
            for future in concurrent.futures.as_completed(futures):
                i = futures[future]
                try:
                    value = future.result()
                except _FATAL:
                    raise
                except BrokenProcessPool:
                    # This item was in flight (or queued) when a worker
                    # died; decide between requeue and giving up.
                    broken = True
                    requeues[i] += 1
                    if requeues[i] > self.max_requeues:
                        results[i] = MapItemResult(
                            index=i,
                            ok=False,
                            error=(
                                f"worker pool died {requeues[i]} times while this item "
                                "was in flight; giving up on it"
                            ),
                            error_type="BrokenProcessPool",
                            requeues=requeues[i],
                        )
                    else:
                        still_pending.append(i)
                except BaseException as exc:  # noqa: BLE001 - per-item capture
                    results[i] = MapItemResult(
                        index=i,
                        ok=False,
                        error=str(exc),
                        error_type=type(exc).__name__,
                        requeues=requeues[i],
                    )
                else:
                    results[i] = MapItemResult(index=i, ok=True, value=value, requeues=requeues[i])
            if broken:
                self._record_pool_death()
                self.requeued_items += len(still_pending)
                _REQUEUED.inc(len(still_pending))
            else:
                self._consecutive_deaths = 0
            pending = sorted(still_pending)
        _QUEUE_DEPTH.set(0)
        return [results[i] for i in range(len(items))]

    def _release(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def available_cpus() -> int:
    """CPUs actually usable by this process (affinity-aware, >= 1).

    ``os.cpu_count()`` reports the machine; under cgroup/affinity limits
    (CI runners, containers) ``sched_getaffinity`` is the honest number.
    Sizing worker pools past this only adds context-switch overhead —
    the serving policy clamps replicas against it (see
    :func:`repro.serve.clamp_replicas`).
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # non-Linux / restricted platforms
        return max(1, os.cpu_count() or 1)


def make_executor(kind: str = "serial", workers: int | None = None) -> Executor:
    """Factory: ``"serial"``, ``"thread"``, or ``"process"``.

    Parameters
    ----------
    kind:
        Backend name.
    workers:
        Worker count for the ``"thread"``/``"process"`` backends
        (default: CPU count).
    """
    if kind == "serial":
        return SerialExecutor()
    if kind == "thread":
        return ThreadPoolExecutorBackend(workers=workers)
    if kind == "process":
        return ProcessPoolExecutorBackend(workers=workers)
    raise ValueError(
        f"unknown executor kind {kind!r}; use 'serial', 'thread', or 'process'"
    )
