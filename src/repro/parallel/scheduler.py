"""Load balancing for heterogeneous trial costs.

Trial cost varies by an order of magnitude across the search space (a
stride-1 f=64 model trains ~16x slower than a stride-2 f=32 one), so
round-robin assignment leaves workers idle.  :func:`pick_steal_victim`
is the work-stealing victim rule of the distributed sweep fabric
(:mod:`repro.nas.fabric`): an idle worker whose home queue drained
steals from the longest pending queue, the standard heuristic that
minimizes expected makespan when per-task costs are unknown.
"""

from __future__ import annotations

from typing import Container, Sequence

__all__ = ["pick_steal_victim"]


def pick_steal_victim(
    queue_sizes: Sequence[int], exclude: Container[int] = ()
) -> int | None:
    """Index of the longest non-empty queue, or ``None`` when all are empty.

    Ties break toward the lowest index, making victim selection fully
    deterministic for a given queue state.  ``exclude`` skips queues the
    caller must not steal from (typically the thief's own home queue,
    already known to be empty).
    """
    best: int | None = None
    best_size = 0
    for idx, size in enumerate(queue_sizes):
        if idx in exclude or size <= 0:
            continue
        if size > best_size:
            best, best_size = idx, size
    return best
