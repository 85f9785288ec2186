"""Distributed sweep fabric: lease table, coordinator, one trial file.

Headline acceptance (the chaos certification): a 4-node sweep suffering
SIGKILLed pool workers, an injected node death, a heartbeat-loss window,
a Ctrl-C and a truncated store tail resumes the same file to analysis
records bitwise-equal to a fault-free serial run.
"""

from __future__ import annotations

import json
import os
import shutil
import time

import pytest

import repro.obs as obs
from repro.faults import (
    NodeFault,
    NodeFaultKind,
    NodeFaultPlan,
    corrupt_store_tail,
    interrupt_after,
)
from repro.nas import (
    Deadline,
    Experiment,
    FabricSweep,
    GridSearch,
    LeaseTable,
    SurrogateEvaluator,
    TrialStore,
    WorkerNode,
)
from repro.nas.fabric.lease import TrialTask
from repro.nas.retry import NodeKilledError, WorkerLostError, classify_error
from repro.nas.searchspace import SearchSpace
from repro.parallel import ProcessPoolExecutorBackend

SPACE = SearchSpace(
    kernel_size=(3,), stride=(2,), padding=(1,), pool_choice=(0, 1),
    kernel_size_pool=(3,), stride_pool=(2,), initial_output_feature=(16, 32),
    channels=(5,), batches=(8, 16),
)
BUDGET = SPACE.total_configurations()  # 8
HW = (48, 48)


def _experiment(**overrides):
    kwargs = dict(
        evaluator=SurrogateEvaluator(seed=0),
        strategy=GridSearch(SPACE),
        input_hw=HW,
        latency_jitter=0.006,
        jitter_seed=0,
    )
    kwargs.update(overrides)
    return Experiment(**kwargs)


def _sweep(store, **overrides):
    kwargs = dict(
        evaluator=SurrogateEvaluator(seed=0),
        strategy=GridSearch(SPACE),
        store=store,
        input_hw=HW,
        latency_jitter=0.006,
        jitter_seed=0,
        lease_ttl_s=1.0,
        poll_s=0.001,
    )
    kwargs.update(overrides)
    return FabricSweep(**kwargs)


def _sorted_analysis(store):
    return sorted(store.analysis_records(), key=lambda r: r["trial_id"])


@pytest.fixture(scope="module")
def proposals():
    return list(GridSearch(SPACE).propose(BUDGET))


@pytest.fixture(scope="module")
def reference_records():
    """Fault-free serial run: the bitwise ground truth."""
    exp = _experiment(store=TrialStore())
    result = exp.run(BUDGET)
    assert result.failed == 0
    records = list(exp.store.records())
    return records


@pytest.fixture(scope="module")
def reference_analysis(reference_records):
    store = TrialStore()
    for record in reference_records:
        store.add(record)
    return _sorted_analysis(store)


# ---------------------------------------------------------------------------
# Monotonic timing (satellite: NTP-step immunity)
# ---------------------------------------------------------------------------


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


class TestMonotonicTiming:
    def test_all_timing_primitives_default_to_monotonic(self):
        """Wall-clock regression guard: lease expiry and deadlines must be
        immune to NTP steps."""
        assert Deadline(1.0)._clock is time.monotonic
        assert LeaseTable()._clock is time.monotonic


# ---------------------------------------------------------------------------
# The lease table
# ---------------------------------------------------------------------------


def _tasks(proposals):
    return [TrialTask(tid, config) for tid, config in enumerate(proposals)]


class TestLeaseTable:
    def test_claim_heartbeat_reclaim_exactly_once(self, proposals):
        clock = FakeClock()
        table = LeaseTable(
            _tasks(proposals), batch_size=2, ttl_s=5.0, max_leases=3, clock=clock,
        )
        lease = table.claim("w0")
        assert lease is not None and len(lease.tasks) == 2
        assert all(t.lease_count == 1 for t in lease.tasks)
        clock.now = 4.0
        assert table.heartbeat(lease.lease_id)  # pushes expiry to 9.0
        clock.now = 8.0
        assert table.reclaim() == []  # heartbeat kept it alive
        clock.now = 9.5
        (reclaimed,) = table.reclaim()
        assert reclaimed.lease_id == lease.lease_id
        assert table.reclaim() == []  # exactly once
        assert table.stats.reclaims == 1
        # The reclaimed tasks are re-leasable, in their original order.
        again = table.claim("w1")
        assert [t.trial_id for t in again.tasks] == [t.trial_id for t in lease.tasks]
        assert all(t.lease_count == 2 for t in again.tasks)
        # The presumed-dead worker learns it lost the lease.
        assert not table.heartbeat(lease.lease_id)

    def test_worker_loss_is_transient_by_taxonomy(self):
        assert classify_error(WorkerLostError("gone")).value == "transient"
        assert isinstance(NodeKilledError("down"), SystemExit)

    def test_poison_after_max_leases(self, proposals):
        clock = FakeClock()
        table = LeaseTable(
            _tasks(proposals)[:1], batch_size=1, ttl_s=1.0, max_leases=2, clock=clock,
        )
        for _ in range(2):
            lease = table.claim("w0")
            assert lease is not None
            clock.now += 2.0
            table.reclaim()
        assert [t.trial_id for t in table.poisoned] == [0]
        assert table.claim("w0") is None  # quarantined, not re-leased
        assert table.finished

    def test_stale_commit_wins_over_requeued_copy(self, proposals):
        clock = FakeClock()
        table = LeaseTable(_tasks(proposals)[:1], batch_size=1, ttl_s=1.0, clock=clock)
        lease = table.claim("w0")
        clock.now = 2.0
        table.reclaim()  # task re-queued
        table.mark_done(lease.tasks[0].trial_id if lease.tasks else 0)
        # The stale worker's commit landed: the requeued copy is obsolete.
        assert table.claim("w1") is None
        assert table.finished

    def test_elastic_add_task_mid_sweep(self, proposals):
        table = LeaseTable(batch_size=4)
        assert table.claim("w0") is None
        for task in _tasks(proposals):
            table.add_task(task)
        assert table.pending == BUDGET
        assert table.claim("w0") is not None


# ---------------------------------------------------------------------------
# Fabric vs serial, worker loss, elasticity
# ---------------------------------------------------------------------------


class TestFabricSweep:
    def test_two_nodes_match_serial_bitwise(self, tmp_path, reference_analysis):
        path = tmp_path / "f.jsonl"
        store = TrialStore(path)
        sweep = _sweep(store)
        sweep.add_node(WorkerNode("n0"))
        sweep.add_node(WorkerNode("n1"))
        result = sweep.run(BUDGET)
        assert result.launched == BUDGET and result.failed == 0
        assert result.claims >= 2 and result.poisoned == 0
        assert sum(result.node_trials.values()) == BUDGET
        assert _sorted_analysis(store) == reference_analysis
        store.close()
        # The file on disk is the one a serial sweep writes.
        reloaded = TrialStore(path)
        assert reloaded.load(strict=True) == BUDGET
        assert _sorted_analysis(reloaded) == reference_analysis

    def test_zero_nodes_self_executes(self, tmp_path, reference_analysis):
        store = TrialStore(tmp_path / "f.jsonl")
        result = _sweep(store).run(BUDGET)
        assert result.launched == BUDGET and result.self_executed == BUDGET
        assert _sorted_analysis(store) == reference_analysis
        store.close()

    def test_sigkilled_worker_releases_in_flight_exactly_once(
        self, tmp_path, proposals, reference_analysis
    ):
        """A worker SIGKILLed mid-lease has its in-flight trials re-leased
        exactly once (to an elastically joined node), the reclaim counter
        increments, and the store holds no duplicate record."""
        obs.configure(reset_metrics=True)
        try:
            # n0's single lease holds the whole queue in proposal order:
            # it commits the first trial, then a pool worker is SIGKILLed
            # on the second and the node dies with the rest in flight.
            kill_cid = proposals[1].config_id()
            path = tmp_path / "f.jsonl"
            store = TrialStore(path)
            sweep = _sweep(store, batch_size=BUDGET, lease_ttl_s=1.0)
            executor = ProcessPoolExecutorBackend(workers=1, max_requeues=0)
            sweep.add_node(WorkerNode(
                "n0", executor=executor, kill_config_ids={kill_cid},
                latch_dir=tmp_path, on_worker_loss="die",
            ))
            joined = []

            def _join_late(done, total, record):
                if not joined:  # first commit: n0 holds everything else
                    joined.append(sweep.add_node(WorkerNode("n1")))

            sweep.progress = _join_late
            result = sweep.run(BUDGET)
            n0, n1 = sweep.nodes
            assert (tmp_path / f"kill-{kill_cid}.latch").exists()
            assert "pool worker died" in n0.death_reason
            assert n0.trials_run == 1  # committed one, died on the second
            assert result.reclaims == 1  # the in-flight batch, exactly once
            assert result.poisoned == 0
            assert n1.trials_run == BUDGET - 1
            assert obs.registry().counter_value(
                "repro_nas_lease_reclaims_total") == 1
            store.close()
            # No duplicate records: every line is a unique trial.
            seen = [json.loads(line)["trial_id"] for line in path.read_text().splitlines()]
            assert sorted(seen) == list(range(BUDGET))
            assert _sorted_analysis(store) == reference_analysis
        finally:
            obs.shutdown()

    def test_resume_skips_completed_trials(self, tmp_path, reference_analysis):
        path = tmp_path / "f.jsonl"
        store = TrialStore(path)
        sweep = _sweep(store, progress=interrupt_after(BUDGET - 3))
        sweep.add_node(WorkerNode("n0"))
        with pytest.raises(KeyboardInterrupt):
            sweep.run(BUDGET)
        store.close()
        store2 = TrialStore(path)
        store2.load()
        sweep2 = _sweep(store2, resume=True)
        sweep2.add_node(WorkerNode("n0"))
        result = sweep2.run(BUDGET)
        assert result.skipped == BUDGET - 3
        assert result.launched == 3
        assert _sorted_analysis(store2) == reference_analysis
        store2.close()


# ---------------------------------------------------------------------------
# The headline chaos certification
# ---------------------------------------------------------------------------


class TestChaosCertification:
    def test_four_process_group_chaos_resumes_bitwise_equal(
        self, tmp_path, proposals, reference_analysis
    ):
        """Kills + heartbeat loss + Ctrl-C + a truncated store tail, then a
        resume of the same file: the final analysis records equal the
        fault-free serial run's, byte for byte."""
        path = tmp_path / "sweep.jsonl"
        latches = tmp_path / "latches"
        latches.mkdir()
        obs_log = tmp_path / "fabric_obs.jsonl"
        obs.configure(jsonl_path=obs_log, reset_metrics=True)
        try:
            # Which trial a node claims first is not known in advance, so
            # both process-group nodes arm every config: each suffers a
            # pool-worker kill on the first trial it claims (n0 dies with
            # it, n3 recovers).  The latches are per config, so a
            # re-leased trial is not killed twice.
            every_cid = {config.config_id() for config in proposals}
            store1 = TrialStore(path)
            sweep1 = _sweep(
                store1, lease_ttl_s=0.75,
                progress=interrupt_after(BUDGET - 2),
            )
            sweep1.add_node(WorkerNode(
                "n0", latch_dir=latches, on_worker_loss="die",
                executor=ProcessPoolExecutorBackend(workers=1, max_requeues=0),
                kill_config_ids=every_cid,
            ))
            sweep1.add_node(WorkerNode(
                "n1",
                fault_plan=NodeFaultPlan(
                    [NodeFault(NodeFaultKind.NODE_KILL, "n1", after_trials=1)],
                    latch_dir=latches,
                ),
            ))
            sweep1.add_node(WorkerNode(
                "n2",
                fault_plan=NodeFaultPlan(
                    [NodeFault(NodeFaultKind.HEARTBEAT_LOSS, "n2",
                               after_trials=0, duration_trials=2, stall_s=1.2)],
                    latch_dir=latches,
                ),
            ))
            sweep1.add_node(WorkerNode(
                "n3", latch_dir=latches, on_worker_loss="retry",
                executor=ProcessPoolExecutorBackend(workers=1, max_requeues=2),
                kill_config_ids=every_cid,
            ))
            with pytest.raises(KeyboardInterrupt):
                sweep1.run(BUDGET)
            store1.close()
            # The hard kill fired and took its node down.
            assert "pool worker died" in sweep1.nodes[0].death_reason
            assert len(list(latches.glob("kill-*.latch"))) >= 2
            assert len(path.read_text().splitlines()) == BUDGET - 2  # Ctrl-C after 6

            # Crash artifact: the writer died mid-append.
            corrupt_store_tail(path, mode="truncate", seed=0)

            store2 = TrialStore(path)
            assert store2.load() == BUDGET - 3
            assert len(store2.quarantined) == 1
            sweep2 = _sweep(store2, resume=True)
            sweep2.add_node(WorkerNode("r0"))
            sweep2.add_node(WorkerNode("r1"))
            result = sweep2.run(BUDGET)
            assert result.skipped == BUDGET - 3  # torn record re-run
            assert result.launched == 3 and result.failed == 0
            store2.close()

            final = TrialStore(path)
            assert final.load(strict=True) == BUDGET
            assert all(r.ok for r in final.records())
            got = _sorted_analysis(final)
            assert got == reference_analysis  # the certification
        finally:
            obs.shutdown()
        artifact_dir = os.environ.get("REPRO_FABRIC_ARTIFACT_DIR", "")
        if artifact_dir:  # CI uploads the chaos sweep's evidence
            os.makedirs(artifact_dir, exist_ok=True)
            shutil.copyfile(obs_log, os.path.join(artifact_dir, "fabric_obs.jsonl"))
            with open(os.path.join(artifact_dir, "analysis_records.json"), "w") as fh:
                json.dump(got, fh, indent=1, sort_keys=True)


# ---------------------------------------------------------------------------
# CLI: one trial file for serial and fabric sweeps
# ---------------------------------------------------------------------------


class TestFabricCli:
    def test_sweep_nodes_resume_and_pareto_on_one_file(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "f.jsonl"
        args = ["sweep", "--out", str(out), "--budget", "8", "--nodes", "2"]
        assert main(args) == 0
        assert "claims=" in capsys.readouterr().out
        assert main(args + ["--resume"]) == 0
        assert "skipped=8" in capsys.readouterr().out
        assert main(["pareto", str(out)]) == 0
        assert " of 8)" in capsys.readouterr().out

    def test_serial_resume_skips_completed_trials(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "f.jsonl"
        args = ["sweep", "--out", str(out), "--budget", "8"]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args + ["--resume"]) == 0
        assert "launched=0 valid=0 failed=0 skipped=8" in capsys.readouterr().out
        assert len(out.read_text().splitlines()) == 8

    def test_one_file_resumes_across_modes(self, tmp_path, capsys):
        """Serial to 8 trials, the fabric to 16, serial again to 24: the
        file then holds the records one serial 24-trial sweep writes."""
        from repro.cli import main

        mixed, serial = str(tmp_path / "mixed.jsonl"), str(tmp_path / "serial.jsonl")
        assert main(["sweep", "--out", mixed, "--budget", "8"]) == 0
        assert main(["sweep", "--out", mixed, "--budget", "16", "--nodes", "2",
                     "--resume"]) == 0
        assert main(["sweep", "--out", mixed, "--budget", "24", "--resume"]) == 0
        assert main(["sweep", "--out", serial, "--budget", "24"]) == 0
        capsys.readouterr()
        assert main(["pareto", mixed]) == 0
        assert "(3 of 24)" in capsys.readouterr().out
        stores = [TrialStore(p) for p in (mixed, serial)]
        assert [s.load(strict=True) for s in stores] == [24, 24]
        assert _sorted_analysis(stores[0]) == _sorted_analysis(stores[1])
