"""Process worker pool: plan replicas in workers over shared weights.

The execution backend behind ``BatchPolicy(worker_mode="process")``.
Each worker process attaches the segment published by
:func:`repro.serve.shm.publish_plan`, rebinds a private plan replica
onto zero-copy weight views, pre-runs every batch bucket (warm arenas),
and then serves batches shipped through a per-worker **staging ring**:
one pinned shared-memory (input, output) slab per
:func:`~repro.serve.plan_buckets` bucket, so a batch round trip moves
only a tiny ``("run", bucket, n, seq)`` control message over the pipe —
images and logits travel through shared memory, never pickle.

Fault handling follows the :mod:`repro.nas.retry` taxonomy, mirroring
``Executor.map_resilient``: a dead worker (EOF/broken pipe — classified
``TRANSIENT``) is respawned and its in-flight batch requeued onto a
healthy worker; after ``max_deaths`` total deaths the pool *degrades*
to in-process execution (a local :class:`~repro.serve.PlanCache`), so
serving keeps answering even when forking is broken.  Exceptions
*raised inside* a healthy worker's plan are routed back to the caller,
not treated as deaths.

BLAS oversubscription: each worker pins its BLAS pool to
``blas_threads`` (default 1) — N workers x M BLAS threads would
otherwise thrash a machine with N*M runnable threads.  Env vars cover
spawn-started workers; a ctypes call to the loaded OpenBLAS's
thread-count setter (``openblas_set_num_threads`` or, in NumPy's
bundled scipy-openblas, ``scipy_openblas_set_num_threads64_``) covers
fork-started ones, where the already-loaded BLAS ignores the
environment.

Observability stitches across pids with the PR 4 machinery: the pool
captures :func:`repro.obs.propagated_context` at startup and every
worker batch runs under :func:`repro.obs.adopt_context`, so worker
spans join the parent trace and fork-inherited counters are zeroed
before the worker's first own count (per-pid snapshot sums stay exact).
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import queue
import threading
import time
from multiprocessing import shared_memory

import numpy as np

import repro.obs as obs

from repro.deploy.plan import InferencePlan
from repro.nas.retry import ErrorKind, classify_error
from repro.serve.cache import PlanCache
from repro.serve.policy import bucket_for, plan_buckets
from repro.serve.shm import (
    PlanSpec,
    attach_plan,
    publish_plan,
    quiet_close,
    untrack_attached,
)

__all__ = ["WorkerDied", "WorkerPool", "WorkerTaskError"]

# Cached observability handles (no-ops until ``repro.obs.configure``).
_DEATHS = obs.counter("repro_serve_worker_deaths_total")
_RESPAWNS = obs.counter("repro_serve_worker_respawns_total")
_DEGRADED = obs.counter("repro_serve_worker_degraded_total")
_W_BATCHES = obs.counter("repro_serve_worker_batches_total")

_BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: OpenBLAS thread-count setters: the reference names, the ILP64 build's
#: and the prefixed names of the scipy-openblas library NumPy wheels
#: bundle.
_OPENBLAS_SET_THREADS = (
    "openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "scipy_openblas_set_num_threads64_",
)

_ALIGN = 64


def _aligned(n: int) -> int:
    return (n + _ALIGN - 1) & ~(_ALIGN - 1)


class WorkerDied(RuntimeError):
    """The worker process died mid-protocol (transient; pool respawns)."""


class WorkerTaskError(RuntimeError):
    """A worker's plan raised; carries the remote type and message."""

    def __init__(self, error_type: str, message: str) -> None:
        super().__init__(f"{error_type}: {message}")
        self.error_type = error_type


@contextlib.contextmanager
def _blas_env(threads: int):
    """Pin BLAS thread env vars around a child start; restore after.

    Spawn-started children read these at import; the parent's own
    (already initialized) BLAS is unaffected either way.
    """
    saved = {var: os.environ.get(var) for var in _BLAS_ENV}
    for var in _BLAS_ENV:
        os.environ[var] = str(threads)
    try:
        yield
    finally:
        for var, old in saved.items():
            if old is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = old


def _limit_loaded_blas(threads: int) -> None:
    """Best-effort cap on an *already-loaded* OpenBLAS (fork workers).

    Fork children inherit the parent's initialized BLAS thread pool, so
    env vars are too late; call its control symbol directly if we can
    find the mapped library.  Silently a no-op for other BLAS builds.
    """
    try:
        import ctypes

        seen: set[str] = set()
        with open("/proc/self/maps", "r", encoding="utf-8") as fh:
            for line in fh:
                path = line.rstrip("\n").partition("/")[2]
                if not path:
                    continue
                path = "/" + path
                if path in seen or "openblas" not in os.path.basename(path).lower():
                    continue
                seen.add(path)
                lib = ctypes.CDLL(path)
                for sym in _OPENBLAS_SET_THREADS:
                    fn = getattr(lib, sym, None)
                    if fn is not None:
                        fn.argtypes = [ctypes.c_int]
                        fn.restype = None
                        fn(int(threads))
                        break
    except Exception:  # noqa: BLE001 - strictly best-effort
        pass


def _staging_layout(
    buckets: list[int], input_shape: tuple[int, ...], out_shape: tuple[int, ...]
) -> tuple[dict[int, tuple[int, int]], int]:
    """Per-bucket (input_offset, output_offset) slabs and total bytes."""
    offsets: dict[int, tuple[int, int]] = {}
    offset = 0
    in_elems = int(np.prod(input_shape, dtype=np.int64))
    out_elems = int(np.prod(out_shape, dtype=np.int64))
    for b in buckets:
        in_off = _aligned(offset)
        out_off = _aligned(in_off + 4 * b * in_elems)
        offsets[b] = (in_off, out_off)
        offset = out_off + 4 * b * out_elems
    return offsets, max(_aligned(offset), 1)


def _staging_views(
    shm: shared_memory.SharedMemory,
    layout: dict[int, tuple[int, int]],
    input_shape: tuple[int, ...],
    out_shape: tuple[int, ...],
) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
    ins: dict[int, np.ndarray] = {}
    outs: dict[int, np.ndarray] = {}
    for b, (in_off, out_off) in layout.items():
        n_in = b * int(np.prod(input_shape, dtype=np.int64))
        n_out = b * int(np.prod(out_shape, dtype=np.int64))
        ins[b] = np.frombuffer(shm.buf, dtype=np.float32, count=n_in,
                               offset=in_off).reshape((b, *input_shape))
        outs[b] = np.frombuffer(shm.buf, dtype=np.float32, count=n_out,
                                offset=out_off).reshape((b, *out_shape))
    return ins, outs


def _worker_main(
    spec: PlanSpec,
    staging_name: str,
    layout: dict[int, tuple[int, int]],
    out_shape: tuple[int, ...],
    conn,
    ctx,  # obs SpanContext | None
    blas_threads: int,
    poison: bool,
) -> None:
    """Worker process entry point (top-level so spawn can import it)."""
    _limit_loaded_blas(blas_threads)
    attached = None
    staging = None
    try:
        attached = attach_plan(spec, poison=poison)
        plan = attached.plan
        staging = shared_memory.SharedMemory(name=staging_name)
        untrack_attached(staging, spec.tracker_pid)
        ins, outs = _staging_views(staging, layout, spec.input_shape, out_shape)
        # Warm every bucket before reporting ready: arenas allocate here,
        # once, so steady-state batches run allocation-free.
        for b in sorted(ins):
            outs[b][...] = plan.run(ins[b])
        warm_allocations = plan.arena.allocations
        conn.send((
            "ready",
            os.getpid(),
            {**attached.residency, "warm_allocations": warm_allocations},
        ))
        while True:
            msg = conn.recv()
            if msg[0] == "stop":
                break
            _tag, bucket, n, seq = msg
            try:
                with obs.adopt_context(ctx):
                    with obs.span("serve.worker.batch", bucket=bucket, n=n):
                        out = plan.run(ins[bucket])
                        outs[bucket][:n] = out[:n]
                        _W_BATCHES.inc()
                conn.send(("ok", seq))
            except BaseException as exc:  # noqa: BLE001 - routed to the caller
                conn.send(("err", seq, type(exc).__name__, str(exc)))
    except (EOFError, BrokenPipeError, ConnectionResetError, KeyboardInterrupt):
        pass  # parent went away / interrupted: exit quietly
    finally:
        if attached is not None:
            attached.close()
        if staging is not None:
            quiet_close(staging)
        with contextlib.suppress(Exception):
            conn.close()


class _WorkerHandle:
    """Parent-side endpoint of one worker: process, pipe, staging views."""

    def __init__(
        self,
        mp_ctx,
        spec: PlanSpec,
        buckets: list[int],
        input_shape: tuple[int, ...],
        out_shape: tuple[int, ...],
        obs_ctx,
        blas_threads: int,
        poison: bool,
        start_timeout_s: float,
    ) -> None:
        layout, total = _staging_layout(buckets, input_shape, out_shape)
        self.staging = shared_memory.SharedMemory(create=True, size=total)
        self.conn, child_conn = mp_ctx.Pipe(duplex=True)
        self.ins, self.outs = _staging_views(self.staging, layout,
                                             input_shape, out_shape)
        with _blas_env(blas_threads):
            self.proc = mp_ctx.Process(
                target=_worker_main,
                args=(spec, self.staging.name, layout, out_shape, child_conn,
                      obs_ctx, blas_threads, poison),
                daemon=True,
                name="repro-serve-worker",
            )
            self.proc.start()
        child_conn.close()
        self.seq = 0
        try:
            if not self.conn.poll(start_timeout_s):
                raise WorkerDied(
                    f"worker failed to become ready within {start_timeout_s}s")
            msg = self.conn.recv()
        except (EOFError, BrokenPipeError, ConnectionResetError, OSError) as exc:
            self.close(join_timeout_s=1.0)
            raise WorkerDied("worker died during startup") from exc
        except WorkerDied:
            self.close(join_timeout_s=1.0)
            raise
        if msg[0] != "ready":
            self.close(join_timeout_s=1.0)
            raise WorkerDied(f"unexpected startup message {msg[0]!r}")
        self.pid = msg[1]
        self.report: dict[str, int] = msg[2]

    def run(self, images, bucket: int, n: int) -> np.ndarray:
        """Ship one batch; returns a private copy of the first n rows."""
        staged = self.ins[bucket]
        for i in range(n):
            staged[i] = images[i]
        self.seq += 1
        try:
            self.conn.send(("run", bucket, n, self.seq))
            while True:
                msg = self.conn.recv()
                if msg[1] != self.seq:  # stale reply from a requeued batch
                    continue
                if msg[0] == "ok":
                    return self.outs[bucket][:n].copy()
                raise WorkerTaskError(msg[2], msg[3])
        except (EOFError, BrokenPipeError, ConnectionResetError, OSError) as exc:
            raise WorkerDied(f"worker pid {self.pid} died mid-batch") from exc

    def alive(self) -> bool:
        return self.proc.is_alive()

    def close(self, join_timeout_s: float = 5.0) -> None:
        with contextlib.suppress(Exception):
            if self.proc.is_alive():
                self.conn.send(("stop",))
        with contextlib.suppress(Exception):
            self.proc.join(timeout=join_timeout_s)
        if self.proc.is_alive():
            with contextlib.suppress(Exception):
                self.proc.terminate()
                self.proc.join(timeout=join_timeout_s)
        with contextlib.suppress(Exception):
            self.conn.close()
        # Staging views hold buffer exports; drop them before closing.
        self.ins = {}
        self.outs = {}
        with contextlib.suppress(FileNotFoundError):
            self.staging.unlink()
        quiet_close(self.staging)


class WorkerPool:
    """Checkout pool of process workers serving batches over shared memory.

    Parameters
    ----------
    plan:
        Compiled template; its weight table is published once
        (:func:`repro.serve.shm.publish_plan`) and shared by every
        worker, respawns included.
    workers:
        Worker process count (clamp against
        :func:`repro.parallel.available_cpus` before calling — the pool
        starts exactly what it is asked for).
    max_batch_size:
        Sizes the per-worker staging rings to the same
        :func:`~repro.serve.plan_buckets` set the :class:`PlanCache`
        uses, so any bucket the batcher forms has a pinned slab waiting.
    mp_context:
        ``"fork"``/``"spawn"``/``"forkserver"``; default is the
        platform default (fork on Linux — worker startup in
        milliseconds, weights shared page-for-page even before the
        explicit segment).
    blas_threads:
        Per-worker BLAS thread cap (default 1; see module docstring).
    max_deaths:
        Total worker deaths tolerated before the pool degrades to
        in-process execution.
    max_requeues:
        How many times one batch may be requeued onto a fresh worker
        before its failure propagates to the caller.
    """

    def __init__(
        self,
        plan: InferencePlan,
        workers: int,
        max_batch_size: int,
        *,
        mp_context: str | None = None,
        blas_threads: int = 1,
        max_deaths: int = 3,
        max_requeues: int = 2,
        start_timeout_s: float = 60.0,
        poison: bool = False,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._plan = plan
        self._buckets = plan_buckets(max_batch_size)
        self.max_batch_size = max_batch_size
        self._input_shape = tuple(plan.input_shape)
        self._out_shape = tuple(plan.shapes[plan.final_output])
        self._mp_ctx = multiprocessing.get_context(mp_context)
        self._blas_threads = blas_threads
        self._max_deaths = max_deaths
        self._max_requeues = max_requeues
        self._start_timeout_s = start_timeout_s
        self._poison = poison
        self._obs_ctx = obs.propagated_context()
        self._published = publish_plan(plan)
        self._idle: "queue.Queue[_WorkerHandle]" = queue.Queue()
        self._all: list[_WorkerHandle] = []
        self._lock = threading.Lock()
        self._closed = False
        self.deaths = 0
        self.respawns = 0
        self.degraded = False
        self._fallback: PlanCache | None = None
        try:
            for _ in range(workers):
                handle = self._spawn()
                self._all.append(handle)
                self._idle.put(handle)
        except BaseException:
            self.close()
            raise
        self.workers = workers

    # -- internals -------------------------------------------------------------

    def _spawn(self) -> _WorkerHandle:
        return _WorkerHandle(
            self._mp_ctx, self._published.spec, self._buckets,
            self._input_shape, self._out_shape, self._obs_ctx,
            self._blas_threads, self._poison, self._start_timeout_s,
        )

    def _note_death(self, handle: _WorkerHandle, exc: BaseException) -> None:
        kind = classify_error(exc)
        if kind is ErrorKind.FATAL:
            raise exc
        handle.close(join_timeout_s=1.0)
        with self._lock:
            self.deaths += 1
            deaths = self.deaths
            with contextlib.suppress(ValueError):
                self._all.remove(handle)
        _DEATHS.inc()
        if deaths > self._max_deaths:
            self._degrade()
            return
        # Respawn a replacement so capacity recovers; if the respawn
        # itself fails the pool degrades rather than looping forever.
        try:
            replacement = self._spawn()
        except (WorkerDied, OSError):
            self._degrade()
            return
        with self._lock:
            if self._closed:
                replacement.close(join_timeout_s=1.0)
                return
            self._all.append(replacement)
        self._idle.put(replacement)
        self.respawns += 1
        _RESPAWNS.inc()

    def _degrade(self) -> None:
        with self._lock:
            if self.degraded:
                return
            self.degraded = True
            self._fallback = PlanCache(max_batch_size=self.max_batch_size)
            self._fallback.register(self._plan)
        _DEGRADED.inc()

    def _run_degraded(self, images, bucket: int) -> np.ndarray:
        cache = self._fallback
        assert cache is not None
        entry = cache.acquire(self._plan.fingerprint, bucket)
        try:
            return entry.run_padded(images).copy()
        finally:
            cache.release(entry)

    # -- request path ----------------------------------------------------------

    def run_batch(self, images) -> np.ndarray:
        """Run ``n <= max_batch_size`` images on some worker; returns rows.

        Thread-safe (callers are the server's dispatcher threads): each
        call checks a worker out exclusively, mirroring the
        :class:`PlanCache` checkout contract, so plan re-entrancy is
        structurally impossible.  Worker death here respawns and
        requeues; repeated deaths degrade to in-process execution.
        """
        n = len(images)
        bucket = bucket_for(n, self.max_batch_size)
        attempts = 0
        while True:
            if self.degraded:
                return self._run_degraded(images, bucket)
            if self._closed:
                raise RuntimeError("WorkerPool is closed")
            try:
                handle = self._idle.get(timeout=1.0)
            except queue.Empty:
                continue  # re-check degraded/closed, then keep waiting
            try:
                out = handle.run(images, bucket, n)
            except WorkerDied as exc:
                attempts += 1
                self._note_death(handle, exc)
                if attempts > self._max_requeues and not self.degraded:
                    raise
                continue  # requeue the same batch on another worker
            except BaseException:
                # Worker is healthy; the *plan* raised. Return the
                # worker before routing the failure to the caller.
                self._idle.put(handle)
                raise
            self._idle.put(handle)
            return out

    # -- lifecycle / stats -----------------------------------------------------

    def stats(self) -> dict:
        """Counters for reports: deaths/respawns/degraded + weight bytes."""
        with self._lock:
            handles = list(self._all)
        reports = [h.report for h in handles if hasattr(h, "report")]
        return {
            "workers": len(handles),
            "worker_pids": [h.pid for h in handles if hasattr(h, "pid")],
            "worker_deaths": self.deaths,
            "worker_respawns": self.respawns,
            "degraded": self.degraded,
            "shared_weight_bytes": self._published.nbytes,
            "worker_private_weight_bytes": sum(
                r.get("private_bytes", 0) for r in reports),
        }

    def close(self, timeout: float | None = 30.0) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            handles = list(self._all)
            self._all = []
        deadline = None if timeout is None else time.monotonic() + timeout
        for handle in handles:
            left = 5.0 if deadline is None else max(0.1, deadline - time.monotonic())
            handle.close(join_timeout_s=left)
        self._published.close()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"WorkerPool(workers={getattr(self, 'workers', 0)}, "
                f"deaths={self.deaths}, degraded={self.degraded})")
