"""Shared-memory weight arenas for multi-process serving.

Thread replicas share weights for free (:meth:`InferencePlan.replicate`
captures the same arrays by reference), but the GIL serializes their
Python glue.  Worker *processes* escape the GIL — at the price of a
private address space.  This module keeps the "weights exist once"
invariant across that boundary:

1. :func:`publish_plan` lays every bound weight array of a compiled
   plan (fp32 fused matrices, GEMM transposes, int8 code matrices +
   per-channel scales — whatever
   :func:`repro.deploy.plan_weight_arrays` yields) into **one**
   ``multiprocessing.shared_memory`` segment, 64-byte aligned, and
   returns a picklable :class:`PlanSpec` describing the blueprint minus
   its ndarrays.
2. :func:`attach_plan` runs in the worker: it maps the segment,
   reconstructs the :class:`~repro.deploy.passes.PlanNode` list with
   **read-only zero-copy views** into the mapping, and re-binds kernels
   through the existing :class:`~repro.deploy.plan._PlanBlueprint`
   rebind path.  The worker gets a private arena (activation scratch)
   over shared parameters — N processes cost N arenas, one weight set.

The attach report carries a :func:`~repro.deploy.weight_residency`
breakdown so callers (and tests) can assert ``private_bytes == 0``:
rebinding must not have copied a single parameter byte.

Lifecycle: the parent owns the segment — workers ``close()`` their
mapping (or just exit), the parent ``unlink()``s once serving stops.
On Python < 3.13 *attaching* also registers the segment with the
process's ``resource_tracker``, which would destroy it when the first
worker exits; :func:`attach_plan` therefore unregisters after mapping
(bpo-39959).
"""

from __future__ import annotations

import contextlib
import os

from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.deploy.passes import PlanNode
from repro.deploy.plan import InferencePlan, _PlanBlueprint
from repro.deploy.weights import plan_weight_arrays, weight_residency

__all__ = [
    "AttachedPlan",
    "PlanSpec",
    "SharedPlanWeights",
    "WeightRef",
    "attach_plan",
    "publish_plan",
    "quiet_close",
    "untrack_attached",
]

#: Segment offsets are aligned so every view starts on a cache line
#: (also satisfies any dtype's alignment requirement).
_ALIGN = 64


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


def _tracker_pid() -> int | None:
    """Pid of this process's resource-tracker helper (None if unknown)."""
    rt = getattr(resource_tracker, "_resource_tracker", None)
    return getattr(rt, "_pid", None)


def untrack_attached(shm: shared_memory.SharedMemory,
                     creator_tracker_pid: int | None) -> None:
    """Undo the attach-time resource-tracker registration when unsafe.

    On Python < 3.13 *attaching* a segment registers it (bpo-39959).
    The tracker's bookkeeping is a set, not a refcount, so the right
    move depends on which tracker got the registration:

    - **own tracker** (spawn-started worker, unrelated process): the
      registration must be removed, or this process's tracker unlinks
      the segment when the process exits — destroying it for everyone;
    - **creator's tracker** (fork-started worker, same process): the
      re-registration was a set no-op; unregistering here would erase
      the *creator's* registration and break its unlink accounting.
    """
    pid = _tracker_pid()
    if pid is not None and pid == creator_tracker_pid:
        return
    try:
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # noqa: BLE001 - tracker internals vary across versions
        pass


def quiet_close(shm: shared_memory.SharedMemory) -> None:
    """Close a mapping; if live views pin it, leak it deliberately.

    NumPy views into ``shm.buf`` hold buffer exports, so ``close()``
    raises :class:`BufferError` while a rebound plan is alive.  The
    mapping must outlive the views anyway — neuter the handle so the
    GC-time ``__del__`` retry doesn't spray "Exception ignored" noise;
    the OS reclaims the mapping at process exit.
    """
    try:
        shm.close()
    except BufferError:
        shm._buf = None
        shm._mmap = None
        fd = getattr(shm, "_fd", -1)
        if fd >= 0:
            with contextlib.suppress(OSError):
                os.close(fd)
            shm._fd = -1


@dataclass(frozen=True)
class WeightRef:
    """Where one weight array lives inside the shared segment."""

    node: str
    role: str
    offset: int
    shape: tuple[int, ...]
    dtype: str


@dataclass(frozen=True)
class NodeSpec:
    """A :class:`PlanNode` minus its ndarrays (picklable)."""

    name: str
    op_type: str
    inputs: tuple[str, ...]
    output: str
    attrs: dict
    fused: tuple[str, ...]
    relu: bool
    qconfig: dict


@dataclass
class PlanSpec:
    """Everything a worker needs to rebind the plan: blueprint + refs.

    Ships over a pipe/queue via pickle.  ``qweight`` records are *not*
    carried: after the template bind, every kernel-relevant derived
    form (codes matrix, scales, row sums, fp32 materialization) is
    already cached in the node weight dicts and therefore in the
    segment, so workers never re-derive from raw initializers.
    """

    segment: str
    nbytes: int
    name: str
    input_shape: tuple[int, ...]
    shapes: dict[str, tuple[int, ...]]
    release: list[list[str]]
    final_output: str
    naive_tensor_shapes: list[tuple[int, ...]]
    fingerprint: str
    forms: dict[str, str]
    variants: dict[str, str]
    nodes: list[NodeSpec] = field(default_factory=list)
    refs: list[WeightRef] = field(default_factory=list)
    #: Pid of the publisher's resource-tracker helper; attachers that
    #: share it (fork workers) must not unregister (see
    #: :func:`untrack_attached`).
    tracker_pid: int | None = None


class SharedPlanWeights:
    """Parent-side handle: the published segment plus its spec.

    The parent keeps the segment mapped while workers serve; call
    :meth:`close` (or use as a context manager) to unlink it once the
    pool is down.  Unlinking is idempotent.
    """

    def __init__(self, spec: PlanSpec, shm: shared_memory.SharedMemory) -> None:
        self.spec = spec
        self._shm: shared_memory.SharedMemory | None = shm

    @property
    def nbytes(self) -> int:
        return self.spec.nbytes

    @property
    def buf(self):
        if self._shm is None:
            raise ValueError("shared weight segment already closed")
        return self._shm.buf

    def close(self) -> None:
        shm, self._shm = self._shm, None
        if shm is None:
            return
        with contextlib.suppress(FileNotFoundError):
            shm.unlink()
        quiet_close(shm)

    def __enter__(self) -> "SharedPlanWeights":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"SharedPlanWeights(segment={self.spec.segment!r}, "
                f"nbytes={self.spec.nbytes}, arrays={len(self.spec.refs)})")


def publish_plan(plan: InferencePlan) -> SharedPlanWeights:
    """Publish a compiled plan's weight table into shared memory.

    One segment holds every array the plan's kernels capture; the
    returned handle's ``spec`` is the picklable rebind recipe for
    :func:`attach_plan`.  The plan itself is untouched (its closures
    keep their original arrays — only workers see the shared copies,
    which are byte-identical, so thread and process replicas compute
    bitwise-identical results).
    """
    bp = plan.blueprint
    if bp is None:
        raise ValueError(
            "plan has no blueprint and cannot be published; compile it via "
            "compile_plan()/OnnxliteRuntime.compile()"
        )
    arrays = [
        (node, role, np.ascontiguousarray(arr))
        for node, role, arr in plan_weight_arrays(bp.nodes)
    ]
    refs: list[WeightRef] = []
    offset = 0
    for node, role, arr in arrays:
        offset = _aligned(offset)
        refs.append(WeightRef(node=node, role=role, offset=offset,
                              shape=tuple(arr.shape), dtype=arr.dtype.str))
        offset += arr.nbytes
    total = max(offset, 1)  # zero-weight plans still need a valid segment
    shm = shared_memory.SharedMemory(create=True, size=total)
    try:
        for ref, (_, _, arr) in zip(refs, arrays):
            dst = np.frombuffer(shm.buf, dtype=arr.dtype, count=arr.size,
                                offset=ref.offset).reshape(arr.shape)
            dst[...] = arr
            del dst  # drop the buffer export before any close()
        spec = PlanSpec(
            segment=shm.name,
            nbytes=total,
            name=bp.name,
            input_shape=tuple(bp.input_shape),
            shapes=dict(bp.shapes),
            release=[list(names) for names in bp.release],
            final_output=bp.final_output,
            naive_tensor_shapes=list(bp.naive_tensor_shapes),
            fingerprint=bp.fingerprint,
            forms=dict(bp.forms),
            variants=dict(bp.variants),
            nodes=[
                NodeSpec(
                    name=n.name, op_type=n.op_type, inputs=tuple(n.inputs),
                    output=n.output, attrs=dict(n.attrs), fused=tuple(n.fused),
                    relu=n.relu, qconfig=dict(n.qconfig),
                )
                for n in bp.nodes
            ],
            refs=refs,
            tracker_pid=_tracker_pid(),
        )
    except BaseException:
        shm.close()
        shm.unlink()
        raise
    return SharedPlanWeights(spec, shm)


@dataclass
class AttachedPlan:
    """Worker-side result of :func:`attach_plan`.

    ``residency`` is the :func:`~repro.deploy.weight_residency` report
    over the rebound nodes — ``private_bytes`` must be 0 or the rebind
    silently copied parameters.  Keep the handle alive as long as the
    plan runs: it owns the mapping the weight views point into.
    """

    plan: InferencePlan
    residency: dict[str, int]
    _shm: shared_memory.SharedMemory | None = None

    def close(self) -> None:
        """Drop this process's mapping (the segment itself survives)."""
        shm, self._shm = self._shm, None
        if shm is not None:
            quiet_close(shm)


def attach_plan(spec: PlanSpec, *, poison: bool = False) -> AttachedPlan:
    """Map a published segment and rebind the plan onto zero-copy views.

    Runs in the worker process.  Views are marked read-only — kernels
    only ever *read* weights, and a stray in-place write would corrupt
    every sibling worker at once.
    """
    shm = shared_memory.SharedMemory(name=spec.segment)
    untrack_attached(shm, spec.tracker_pid)
    views: dict[str, dict[str, np.ndarray]] = {}
    for ref in spec.refs:
        dtype = np.dtype(ref.dtype)
        count = int(np.prod(ref.shape, dtype=np.int64)) if ref.shape else 1
        flat = np.frombuffer(shm.buf, dtype=dtype, count=count, offset=ref.offset)
        flat.flags.writeable = False
        views.setdefault(ref.node, {})[ref.role] = flat.reshape(ref.shape)
    nodes = [
        PlanNode(
            name=ns.name, op_type=ns.op_type, inputs=list(ns.inputs),
            output=ns.output, attrs=dict(ns.attrs), fused=list(ns.fused),
            relu=ns.relu, weights=views.get(ns.name, {}), qweight=None,
            qconfig=dict(ns.qconfig),
        )
        for ns in spec.nodes
    ]
    blueprint = _PlanBlueprint(
        name=spec.name,
        input_shape=tuple(spec.input_shape),
        nodes=nodes,
        shapes=spec.shapes,
        release=[list(names) for names in spec.release],
        final_output=spec.final_output,
        naive_tensor_shapes=spec.naive_tensor_shapes,
        fingerprint=spec.fingerprint,
        forms=dict(spec.forms),
        variants=dict(spec.variants),
    )
    plan = blueprint.bind(poison=poison)
    residency = weight_residency(nodes, shm.buf)
    return AttachedPlan(plan=plan, residency=residency, _shm=shm)
