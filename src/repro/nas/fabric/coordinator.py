"""The sweep coordinator: worker nodes, lease pumping, exactly-once commits.

Execution model
---------------
**At-least-once execution, exactly-once commit.**  Worker nodes (one
thread each, optionally owning a private process pool — a "process
group") claim trial batches from the :class:`~repro.nas.fabric.LeaseTable`
and run them through a sibling :class:`~repro.nas.experiment.Experiment`.
Results are *submitted*, never written: the coordinator's main loop is
the only writer of the one :class:`~repro.nas.storage.TrialStore` file
a serial sweep would write.  It drains the commit queue, deduplicates
against the store (a reclaimed trial may be executed twice; it is
committed once), appends, and marks the trial done.  Trial records are pure
functions of ``(trial_id, config)`` — the latency jitter is keyed by the
config, the surrogate is seeded — so a duplicated execution produces a
byte-identical record and deduplication loses nothing.

Liveness is lease-based: a node that dies (``NodeKilledError``, a
SIGKILLed pool worker under ``on_worker_loss="die"``, a hardware fault)
simply stops heartbeating; the coordinator reclaims its lease after the
TTL and the trials are re-leased to a surviving node.  When *every* node
is gone the coordinator itself finishes the remaining work inline, so a
sweep always terminates.

Because commits — and therefore progress callbacks — happen in the
coordinator's thread, a ``KeyboardInterrupt`` raised by a progress hook
(:func:`repro.faults.interrupt_after`, or a user's Ctrl-C) propagates
from :meth:`FabricSweep.run` exactly like the serial runner's: committed
trials are durable, the in-flight ones are lost and re-run on resume.

Elasticity: :meth:`FabricSweep.add_node` may be called mid-run (e.g.
from a progress hook); the node is attached and started immediately and
starts claiming from the queue like any founding member.

Resume follows :class:`~repro.nas.experiment.Experiment`'s contract:
the caller loads the store, and ``resume=True`` verifies its run
manifest and skips the configurations it already holds.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import repro.obs as obs
from repro.nas.experiment import Experiment
from repro.nas.fabric.lease import Lease, LeaseTable, TrialTask
from repro.nas.retry import (
    ErrorKind,
    NodeKilledError,
    PermanentTrialError,
    RetryPolicy,
    WorkerLostError,
    classify_error,
)
from repro.nas.storage import TrialStore
from repro.nas.strategies import SearchStrategy
from repro.nas.trial import TrialRecord, TrialStatus
from repro.utils.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.nas.config import ModelConfig
    from repro.nas.evaluators import AccuracyEvaluator, EvalResult
    from repro.parallel.executor import Executor

__all__ = [
    "NodeEvaluator",
    "WorkerNode",
    "FabricSweep",
    "FabricResult",
]

_LOG = get_logger("nas.fabric.coordinator")

# Module-level instrument handles: cached once, no-ops while obs is disabled.
_COMMITS = obs.counter("repro_nas_fabric_commits_total")
_DUPES = obs.counter("repro_nas_fabric_duplicate_commits_total")
_NODE_DEATHS = obs.counter("repro_nas_fabric_node_deaths_total")
_NODES_ALIVE = obs.gauge("repro_nas_fabric_nodes_alive")


def _node_eval(
    task: "tuple[AccuracyEvaluator, ModelConfig, str | None]",
) -> "EvalResult":
    """Pool-side evaluation task: optionally die first, then evaluate.

    Top-level (picklable) on purpose; the latch makes a scheduled worker
    kill fire exactly once per path, even across pool respawns and sweep
    resumes.
    """
    evaluator, config, latch_path = task
    if latch_path is not None:
        from repro.faults.harness import KillSwitch  # lazy: avoids an import cycle

        KillSwitch(latch_path).fire_once()
    return evaluator.evaluate(config)


class NodeEvaluator:
    """Routes accuracy evaluation through a worker node's process pool.

    This is what makes a :class:`WorkerNode` a *process group*: every
    ``evaluate`` ships to the node's private
    :class:`~repro.parallel.ProcessPoolExecutorBackend` via
    ``map_resilient``, so a SIGKILLed pool worker surfaces as a
    structured item failure instead of sinking the node thread.

    Parameters
    ----------
    inner:
        The real (picklable) evaluator.
    executor:
        The node's executor.
    kill_config_ids:
        ``config_id()`` values whose evaluation must suffer one worker
        kill (``os._exit`` inside the pool, latched once-only under
        ``latch_dir`` — crash-safe across resumes).
    on_worker_loss:
        What an *unrecovered* pool death (``map_resilient`` gave the item
        up after ``max_requeues``) means:

        - ``"retry"`` — raise :class:`~repro.nas.retry.WorkerLostError`
          (transient): the node's retry policy re-runs the trial on the
          respawned pool.
        - ``"die"`` — raise :class:`~repro.nas.retry.NodeKilledError`:
          the kill took the whole node down.  The node thread unwinds
          without heartbeating again, the lease TTL-expires, and the
          coordinator re-leases the in-flight trials to another node.
    """

    def __init__(
        self,
        inner: "AccuracyEvaluator",
        executor: "Executor",
        kill_config_ids: "frozenset[str] | tuple" = (),
        latch_dir: str | Path | None = None,
        on_worker_loss: str = "retry",
    ) -> None:
        if on_worker_loss not in ("retry", "die"):
            raise ValueError(
                f"on_worker_loss must be 'retry' or 'die', got {on_worker_loss!r}"
            )
        self.inner = inner
        self.executor = executor
        self.kill_config_ids = frozenset(kill_config_ids)
        if self.kill_config_ids and latch_dir is None:
            raise ValueError("kill_config_ids requires latch_dir for the once-only latches")
        self.latch_dir = Path(latch_dir) if latch_dir is not None else None
        self.on_worker_loss = on_worker_loss
        #: Worker kills that actually fired through this node's pool.
        self.kills_fired = 0

    def evaluate(self, config: "ModelConfig") -> "EvalResult":
        cid = config.config_id()
        latch: str | None = None
        if cid in self.kill_config_ids:
            assert self.latch_dir is not None
            latch = str(self.latch_dir / f"kill-{cid}.latch")
        fired_before = latch is not None and Path(latch).exists()
        [result] = self.executor.map_resilient(_node_eval, [(self.inner, config, latch)])
        if latch is not None and not fired_before and Path(latch).exists():
            self.kills_fired += 1
        if result.ok:
            return result.value
        if result.error_type == "BrokenProcessPool":
            if self.on_worker_loss == "die":
                raise NodeKilledError(
                    f"pool worker died evaluating {cid} and took the node with it"
                )
            raise WorkerLostError(
                f"pool worker died evaluating {cid}: {result.error}"
            )
        raise PermanentTrialError(f"{result.error_type}: {result.error}")


class WorkerNode:
    """One sweep worker: a claim/run/submit/heartbeat loop in a thread.

    A node owns (optionally) a private process pool — its *process
    group* — and a sibling experiment sharing the coordinator's
    architecture-metrics cache.  It never touches the store: results go
    to the coordinator's commit queue.

    Parameters
    ----------
    node_id:
        Stable identity (lease bookkeeping, fault schedules).
    executor:
        Optional :class:`~repro.parallel.Executor`; when given, every
        evaluation routes through it via :class:`NodeEvaluator`.  The
        node closes an executor it was handed when it shuts down.
    kill_config_ids / latch_dir / on_worker_loss:
        Worker-kill chaos knobs, forwarded to :class:`NodeEvaluator`
        (require ``executor``).
    fault_plan:
        Optional :class:`~repro.faults.NodeFaultPlan` consulted before
        each trial (node kills) and after (heartbeat loss / stalls).
    """

    def __init__(
        self,
        node_id: str,
        executor: "Executor | None" = None,
        kill_config_ids: "tuple | frozenset" = (),
        latch_dir: str | Path | None = None,
        on_worker_loss: str = "retry",
        fault_plan: object | None = None,
        poll_s: float = 0.002,
    ) -> None:
        if kill_config_ids and executor is None:
            raise ValueError("kill_config_ids requires a process-pool executor to kill")
        self.node_id = node_id
        self.executor = executor
        self.fault_plan = fault_plan
        self.poll_s = poll_s
        self._kill_config_ids = kill_config_ids
        self._latch_dir = latch_dir
        self._on_worker_loss = on_worker_loss
        self._sweep: "FabricSweep | None" = None
        self._experiment: Experiment | None = None
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        #: Whether the node loop is (still) running.
        self.alive = False
        #: Why the node died, when it did ("" while healthy).
        self.death_reason = ""
        #: Trials this node finished executing (committed or not).
        self.trials_run = 0

    # -- wiring --------------------------------------------------------------

    def attach(self, sweep: "FabricSweep") -> None:
        """Bind to a sweep: build this node's evaluator and experiment."""
        self._sweep = sweep
        inner = sweep.evaluator
        if self.executor is not None:
            inner = NodeEvaluator(
                inner,
                executor=self.executor,
                kill_config_ids=self._kill_config_ids,
                latch_dir=self._latch_dir,
                on_worker_loss=self._on_worker_loss,
            )
        self._experiment = sweep.template.with_evaluator(inner)

    def start(self) -> None:
        if self._thread is not None:
            return
        self.alive = True
        self._thread = threading.Thread(
            target=self._loop, name=f"repro-node-{self.node_id}", daemon=True
        )
        self._thread.start()

    def request_stop(self) -> None:
        self._stop.set()

    def join(self, timeout: float | None = None) -> None:
        if self._thread is not None:
            self._thread.join(timeout)
        if self.executor is not None and not self.executor.closed:
            self.executor.close()

    # -- the node loop -------------------------------------------------------

    def _loop(self) -> None:
        sweep = self._sweep
        assert sweep is not None and sweep.table is not None
        try:
            while not self._stop.is_set() and sweep.accepting:
                lease = sweep.table.claim(self.node_id)
                if lease is None:
                    if sweep.table.finished:
                        break
                    time.sleep(self.poll_s)
                    continue
                if not self._run_lease(lease):
                    break
            self.death_reason = ""
        except NodeKilledError as exc:
            # Deliberately *no* release: a killed node cannot talk to the
            # coordinator.  Its lease TTL-expires and is reclaimed.
            self.death_reason = str(exc) or "node killed"
            _NODE_DEATHS.inc()
            _LOG.warning("node %r died: %s", self.node_id, self.death_reason)
        except BaseException as exc:  # noqa: BLE001 - reported to the coordinator
            self.death_reason = f"{type(exc).__name__}: {exc}"
            _NODE_DEATHS.inc()
            sweep.report_node_error(self, exc)
        finally:
            self.alive = False

    def _run_lease(self, lease: Lease) -> bool:
        """Run one lease's tasks; ``False`` means "stop the loop"."""
        sweep = self._sweep
        assert sweep is not None and sweep.table is not None
        for task in list(lease.tasks):
            if self._stop.is_set() or not sweep.accepting:
                sweep.table.release(lease.lease_id)
                return False
            if self.fault_plan is not None:
                # May raise NodeKilledError: the node dies mid-lease.
                self.fault_plan.before_trial(self.node_id, self.trials_run)
            assert self._experiment is not None
            record = self._experiment.run_trial(task.trial_id, task.config)
            self.trials_run += 1
            if self.fault_plan is not None:
                stall = self.fault_plan.stall_s(self.node_id, self.trials_run)
                if stall > 0:  # slow network: result still in flight at TTL
                    time.sleep(stall)
            sweep.submit(lease, task, record)
            if self.fault_plan is not None and self.fault_plan.heartbeat_suppressed(
                self.node_id, self.trials_run
            ):
                continue
            if not sweep.table.heartbeat(lease.lease_id):
                # The lease was reclaimed (we were presumed dead): abandon
                # the batch; anything we already submitted deduplicates.
                return True
        return True


@dataclass
class FabricResult:
    """Outcome of a distributed fabric sweep."""

    store: TrialStore
    launched: int
    succeeded: int
    failed: int
    duration_s: float
    skipped: int = 0  # resumed trials served from the store
    poisoned: int = 0  # trials quarantined after exhausting max_leases
    duplicates: int = 0  # stale submissions dropped by commit dedupe
    self_executed: int = 0  # trials the coordinator ran after losing all nodes
    claims: int = 0
    reclaims: int = 0
    node_trials: dict[str, int] = field(default_factory=dict)
    node_deaths: dict[str, str] = field(default_factory=dict)

    @property
    def valid_outcomes(self) -> int:
        """Successful trial count (the paper's '1,717 valid outcomes')."""
        return self.succeeded


class FabricSweep:
    """Coordinates worker nodes over one trial store and a lease table.

    Single-sweep, single-use: construct, :meth:`add_node` some workers,
    :meth:`run`.  See the module docstring for the execution model; see
    :class:`~repro.nas.experiment.Experiment` for the meaning of the
    shared knobs (they are forwarded to the template experiment every
    node derives from, so fabric records match serial records exactly).

    Parameters
    ----------
    evaluator / strategy / failure_injector / input_hw / profiles /
    latency_jitter / jitter_seed / retry_policy:
        Exactly as :class:`~repro.nas.experiment.Experiment`.
    store:
        The trial store (the coordinator is its only writer).
    batch_size / lease_ttl_s / max_leases:
        Lease-table knobs (:class:`~repro.nas.fabric.LeaseTable`).
    resume:
        Exactly as ``Experiment(skip_existing=True)``: verify the run
        manifest of the store the caller loaded
        (:class:`~repro.nas.storage.ResumeMismatchError` on a mismatch)
        and skip the configurations it holds.
    progress:
        Progress consumer (listener or legacy callable), invoked in the
        coordinator thread at commit time — a raised
        ``KeyboardInterrupt`` stops the sweep like Ctrl-C.
    """

    def __init__(
        self,
        evaluator: "AccuracyEvaluator",
        strategy: SearchStrategy,
        store: TrialStore,
        batch_size: int = 1,
        lease_ttl_s: float = 5.0,
        max_leases: int = 5,
        retry_policy: RetryPolicy | None = None,
        failure_injector: object | None = None,
        input_hw: tuple[int, int] = (100, 100),
        profiles: dict | None = None,
        latency_jitter: float = 0.006,
        jitter_seed: int = 0,
        resume: bool = False,
        progress: "Callable[[int, int, TrialRecord], None] | obs.ProgressListener | None" = None,
        poll_s: float = 0.002,
    ) -> None:
        self.evaluator = evaluator
        self.store = store
        self.batch_size = batch_size
        self.lease_ttl_s = lease_ttl_s
        self.max_leases = max_leases
        self.progress = progress
        self.poll_s = poll_s
        #: The reference experiment nodes derive theirs from (shared
        #: architecture-metrics cache; also the self-execute runner and
        #: the resume gate over ``store``).
        self.template = Experiment(
            evaluator,
            strategy,
            store=store,
            skip_existing=resume,
            failure_injector=failure_injector,
            input_hw=input_hw,
            profiles=profiles,
            latency_jitter=latency_jitter,
            jitter_seed=jitter_seed,
            retry_policy=retry_policy,
        )
        self.table: LeaseTable | None = None
        self.accepting = False
        self._running = False
        self._nodes: list[WorkerNode] = []
        self._commits: "queue.Queue[tuple[int, TrialTask, TrialRecord]]" = queue.Queue()
        self._node_errors: "queue.Queue[tuple[WorkerNode, BaseException]]" = queue.Queue()
        # Per-run counters (reset by run()).
        self._launched = self._succeeded = self._failed = 0
        self._duplicates = self._poison_cursor = self._self_executed = 0
        self._total = 0

    # -- membership ----------------------------------------------------------

    @property
    def nodes(self) -> list[WorkerNode]:
        return list(self._nodes)

    def add_node(self, node: WorkerNode) -> WorkerNode:
        """Attach (and, mid-run, immediately start) a worker node."""
        node.attach(self)
        self._nodes.append(node)
        if self._running:
            node.start()
            _LOG.info("node %r joined the sweep mid-run", node.node_id)
        return node

    def alive_nodes(self) -> int:
        return sum(1 for node in self._nodes if node.alive)

    # -- node -> coordinator channel ----------------------------------------

    def submit(self, lease: Lease, task: TrialTask, record: TrialRecord) -> None:
        """Queue one executed trial for commit (called from node threads)."""
        self._commits.put((lease.lease_id, task, record))

    def report_node_error(self, node: WorkerNode, exc: BaseException) -> None:
        """Surface a node-loop crash to the coordinator."""
        self._node_errors.put((node, exc))

    # -- the run -------------------------------------------------------------

    def run(self, budget: int) -> FabricResult:
        """Run the sweep to completion (or first fatal error)."""
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        with obs.span("fabric.run", budget=budget, nodes=len(self._nodes)):
            return self._run_inner(budget)

    def _plan_tasks(self, budget: int) -> tuple[list[TrialTask], int]:
        self.template.check_manifest()
        tasks: list[TrialTask] = []
        skipped = 0
        for trial_id, config in self.template.propose_trials(budget):
            if self.template.skip_recorded(config):
                skipped += 1
            else:
                tasks.append(TrialTask(trial_id, config))
        return tasks, skipped

    def _run_inner(self, budget: int) -> FabricResult:
        started = time.perf_counter()
        listener = obs.ProgressFanout(
            [obs.as_listener(self.progress), obs.ObsProgressListener()]
        )
        tasks, skipped = self._plan_tasks(budget)
        self._launched = self._succeeded = self._failed = 0
        self._duplicates = self._poison_cursor = self._self_executed = 0
        self._total = len(tasks)
        self.table = LeaseTable(
            tasks,
            batch_size=self.batch_size,
            ttl_s=self.lease_ttl_s,
            max_leases=self.max_leases,
        )
        self.accepting = True
        self._running = True
        try:
            for node in self._nodes:
                node.start()
            while not self.table.finished:
                progressed = self._drain_commits(listener)
                self.table.reclaim()
                self._commit_poisoned(listener)
                self._check_node_errors()
                _NODES_ALIVE.set(self.alive_nodes())
                if progressed:
                    continue
                if self.alive_nodes() == 0 and self.table.outstanding > 0:
                    self._self_execute_step()
                else:
                    time.sleep(self.poll_s)
            self._drain_commits(listener)  # late duplicates from stale workers
        finally:
            self.accepting = False
            self._running = False
            for node in self._nodes:
                node.request_stop()
            for node in self._nodes:
                node.join(timeout=10.0)
            self.store.flush()
            _NODES_ALIVE.set(0)
        stats = self.table.stats
        result = FabricResult(
            store=self.store,
            launched=self._launched,
            succeeded=self._succeeded,
            failed=self._failed,
            duration_s=time.perf_counter() - started,
            skipped=skipped,
            poisoned=stats.poisoned,
            duplicates=self._duplicates,
            self_executed=self._self_executed,
            claims=stats.claims,
            reclaims=stats.reclaims,
            node_trials={n.node_id: n.trials_run for n in self._nodes},
            node_deaths={
                n.node_id: n.death_reason for n in self._nodes if n.death_reason
            },
        )
        listener.on_run_end(result)
        return result

    # -- commit path (coordinator thread only) -------------------------------

    def _drain_commits(self, listener: "obs.ProgressFanout") -> int:
        assert self.table is not None
        progressed = 0
        while True:
            try:
                lease_id, task, record = self._commits.get_nowait()
            except queue.Empty:
                return progressed
            progressed += 1
            if self.store.find(task.config) is not None:
                # A reclaimed trial executed twice (or a stale worker
                # reported after its lease died): records are pure
                # functions of (trial_id, config), so dropping the copy
                # loses nothing.
                self._duplicates += 1
                _DUPES.inc()
                self.table.mark_done(task.trial_id)
                continue
            listener.on_trial_start(task.trial_id, task.config)
            self.store.add(record)
            self.table.mark_done(task.trial_id)
            self._launched += 1
            _COMMITS.inc()
            if record.ok:
                self._succeeded += 1
                self.template.strategy.observe_record(task.config, record)
            else:
                self._failed += 1
            # May raise (interrupt_after / Ctrl-C): by design this
            # happens in the coordinator thread, after the commit.
            listener.on_trial_end(self._launched, self._total, record)

    def _commit_poisoned(self, listener: "obs.ProgressFanout") -> None:
        """Turn newly poisoned tasks into durable failed records."""
        assert self.table is not None
        poisoned = self.table.poisoned
        while self._poison_cursor < len(poisoned):
            task = poisoned[self._poison_cursor]
            self._poison_cursor += 1
            if self.store.find(task.config) is not None:
                continue
            record = TrialRecord(
                trial_id=task.trial_id,
                config=task.config,
                status=TrialStatus.FAILED,
                error=(
                    f"poison trial: lost its worker {task.lease_count} time(s) "
                    f"(max_leases={self.table.max_leases})"
                ),
                error_kind="poison",
            )
            listener.on_trial_start(task.trial_id, task.config)
            self.store.add(record)
            self._launched += 1
            self._failed += 1
            _COMMITS.inc()
            listener.on_trial_end(self._launched, self._total, record)

    def _check_node_errors(self) -> None:
        """Re-raise fatal node crashes; log and absorb the rest."""
        while True:
            try:
                node, exc = self._node_errors.get_nowait()
            except queue.Empty:
                return
            if classify_error(exc) is ErrorKind.FATAL:
                raise exc
            _LOG.warning(
                "node %r crashed (%s: %s); its lease will be reclaimed",
                node.node_id, type(exc).__name__, exc,
            )

    def _self_execute_step(self) -> None:
        """All nodes are dead: claim one batch and run it inline."""
        assert self.table is not None
        lease = self.table.claim("coordinator")
        if lease is None:
            # Remaining work is still leased to dead nodes; wait for the
            # reclaim pump to expire those leases.
            time.sleep(self.poll_s)
            return
        for task in list(lease.tasks):
            record = self.template.run_trial(task.trial_id, task.config)
            self._self_executed += 1
            self.submit(lease, task, record)
            self.table.heartbeat(lease.lease_id)

