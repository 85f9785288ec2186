"""Distributed sweep fabric: sharded store, lease table, coordinator.

Headline acceptance (the ISSUE's chaos certification): a 4-process-group
sweep suffering a SIGKILLed pool worker, an injected node death, a
heartbeat-loss window, a Ctrl-C and a truncated shard tail resumes —
under a *different* shard count — to analysis records bitwise-equal to a
fault-free serial run.
"""

from __future__ import annotations

import json
import os
import shutil
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.obs as obs
from repro.faults import (
    NodeFault,
    NodeFaultKind,
    NodeFaultPlan,
    corrupt_shard_tail,
    corrupt_store_tail,
    interrupt_after,
)
from repro.nas import (
    Deadline,
    Experiment,
    FabricSweep,
    GridSearch,
    LeaseTable,
    ResumeMismatchError,
    SurrogateEvaluator,
    TrialStore,
    WorkerNode,
)
from repro.nas.fabric import (
    ShardedTrialStore,
    record_fingerprint,
    shard_filename,
    shard_index,
)
from repro.nas.fabric.lease import TrialTask
from repro.nas.retry import NodeKilledError, WorkerLostError, classify_error
from repro.nas.searchspace import SearchSpace
from repro.parallel import ProcessPoolExecutorBackend, pick_steal_victim

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
# Shard routing + the sharded store
# ---------------------------------------------------------------------------


class TestShardRouting:
    @settings(max_examples=30, deadline=None)
    @given(n_shards=st.integers(min_value=1, max_value=64))
    def test_routing_is_a_pure_function_of_the_fingerprint(self, n_shards):
        configs = list(GridSearch(SPACE).propose(BUDGET))
        for config in configs:
            idx = shard_index(config, n_shards)
            assert 0 <= idx < n_shards
            # Purity: same config, same answer, every time; and the route
            # is exactly fingerprint mod n_shards — no hidden state.
            assert idx == shard_index(config, n_shards)
            assert idx == record_fingerprint(config) % n_shards

    def test_shard_filename_layout(self):
        assert shard_filename(2, 8) == "shard-00002-of-00008.jsonl"
        with pytest.raises(ValueError):
            shard_filename(8, 8)
        with pytest.raises(ValueError):
            shard_index(None, 0)


class TestShardedStore:
    def test_records_land_in_their_routed_shards(self, tmp_path, reference_records):
        store = ShardedTrialStore(tmp_path / "s", n_shards=4)
        for record in reference_records:
            store.add(record)
        store.close()
        for record in reference_records:
            idx = shard_index(record.config, 4)
            shard = TrialStore(tmp_path / "s" / shard_filename(idx, 4))
            shard.load()
            assert shard.find(record.config) is not None

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n_write=st.integers(min_value=1, max_value=6),
           n_read=st.integers(min_value=1, max_value=6))
    def test_reshard_roundtrip_yields_identical_record_sets(
        self, tmp_path_factory, reference_records, n_write, n_read
    ):
        """Satellite: records written under N shards re-read under M
        shards (N != M included) merge to the identical ordered
        sequence."""
        root = tmp_path_factory.mktemp("reshard")
        writer = ShardedTrialStore(root, n_shards=n_write)
        for record in reference_records:
            writer.add(record)
        writer.close()
        reader = ShardedTrialStore(root, n_shards=n_read)
        assert reader.load() == len(reference_records)
        expected = sorted(
            (record_fingerprint(r.config), r.trial_id) for r in reference_records
        )
        got = [(record_fingerprint(r.config), r.trial_id) for r in reader.records()]
        assert got == expected  # deterministic merged order, any layout
        assert [r.to_dict() for r in reader.records()] == [
            r.to_dict()
            for _, r in sorted(
                ((record_fingerprint(r.config), r.trial_id), r)
                for r in reference_records
            )
        ]
        reader.close()

    def test_merged_order_independent_of_append_order(self, tmp_path, reference_records):
        a = ShardedTrialStore(tmp_path / "a", n_shards=3)
        b = ShardedTrialStore(tmp_path / "b", n_shards=3)
        for record in reference_records:
            a.add(record)
        for record in reversed(reference_records):
            b.add(record)
        assert [r.trial_id for r in a] == [r.trial_id for r in b]
        a.close(), b.close()

    def test_manifest_resume_gate_covers_every_shard(self, tmp_path, reference_records):
        store = ShardedTrialStore(tmp_path / "s", n_shards=2)
        manifest = _experiment().run_manifest()
        store.write_manifest(manifest)
        for record in reference_records:
            store.add(record)
        store.verify_or_write_manifest(manifest)  # same sweep: fine
        other = _experiment(jitter_seed=99).run_manifest()
        with pytest.raises(ResumeMismatchError):
            store.verify_or_write_manifest(other)
        store.close()


class TestQuarantineAndCompaction:
    def _seeded_store(self, root, n_shards, records):
        store = ShardedTrialStore(root, n_shards=n_shards)
        for record in records:
            store.add(record)
        store.close()
        return store

    def test_deferred_compaction_runs_on_next_append(
        self, tmp_path, reference_records
    ):
        root = tmp_path / "s"
        self._seeded_store(root, 2, reference_records[:-1])
        info = corrupt_shard_tail(root, mode="truncate", seed=0)
        store = ShardedTrialStore(root, n_shards=2)
        loaded = store.load(compact="defer")
        assert loaded == len(reference_records) - 2  # torn record quarantined
        assert list(store.quarantined) == [info["shard"]]
        assert store.compaction_pending
        # The damaged file still holds its torn tail until someone must
        # append to it — then compaction is forced first.
        last = reference_records[-1]
        store.add(last)
        victim_idx = int(info["shard"].split("-")[1])
        if shard_index(last.config, 2) == victim_idx:
            assert not store.compaction_pending
        store.compact_all()
        assert not store.compaction_pending
        store.close()
        reloaded = ShardedTrialStore(root, n_shards=2)
        assert reloaded.load(strict=True) == len(reference_records) - 1
        reloaded.close()

    def test_background_compaction_rewrites_damaged_shards(
        self, tmp_path, reference_records
    ):
        root = tmp_path / "s"
        self._seeded_store(root, 3, reference_records)
        info = corrupt_shard_tail(root, mode="garbage", seed=1)
        store = ShardedTrialStore(root, n_shards=3)
        store.load(compact="background")
        store.wait_for_compaction()
        assert not store.compaction_pending
        sidecars = list(root.glob("*.quarantine"))
        assert sidecars, "quarantined line must be preserved in a sidecar"
        store.close()
        clean = ShardedTrialStore(root, n_shards=3)
        assert clean.load(strict=True) == len(reference_records) - 1
        assert info["shard"] not in clean.quarantined
        clean.close()

    def test_quarantine_rewrite_honors_fsync_durability(
        self, tmp_path, reference_records, monkeypatch
    ):
        """Satellite fix: the atomic quarantine rewrite used to skip the
        fsync the store's durability knob promises."""
        for durability, expect_fsync in (("fsync", True), ("flush", False)):
            path = tmp_path / f"{durability}.jsonl"
            store = TrialStore(path, durability=durability)
            for record in reference_records[:3]:
                store.add(record)
            store.close()
            corrupt_store_tail(path, mode="truncate", seed=0)
            calls: list[int] = []
            real_fsync = os.fsync
            monkeypatch.setattr(
                os, "fsync", lambda fd: (calls.append(fd), real_fsync(fd))[1]
            )
            damaged = TrialStore(path, durability=durability)
            assert damaged.load() == 2
            monkeypatch.undo()
            damaged.close()
            if expect_fsync:
                # Sidecar, rewritten file, and its directory entry.
                assert len(calls) >= 3
            else:
                assert calls == []


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


def _tasks(proposals, n_shards=2):
    return [
        TrialTask(tid, config, shard=shard_index(config, n_shards))
        for tid, config in enumerate(proposals)
    ]


class TestLeaseTable:
    def test_claim_heartbeat_reclaim_exactly_once(self, proposals):
        clock = FakeClock()
        table = LeaseTable(
            _tasks(proposals), n_queues=2, batch_size=2, ttl_s=5.0,
            max_leases=3, clock=clock,
        )
        lease = table.claim("w0", home=0)
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
        again = table.claim("w1", home=0)
        assert [t.trial_id for t in again.tasks] == [t.trial_id for t in lease.tasks]
        assert all(t.lease_count == 2 for t in again.tasks)
        # The presumed-dead worker learns it lost the lease.
        assert not table.heartbeat(lease.lease_id)

    def test_worker_loss_is_transient_by_taxonomy(self):
        assert classify_error(WorkerLostError("gone")).value == "transient"
        assert isinstance(NodeKilledError("down"), SystemExit)

    def test_steal_prefers_longest_queue(self, proposals):
        assert pick_steal_victim([0, 3, 2]) == 1
        assert pick_steal_victim([4, 3, 2], exclude={0}) == 1
        assert pick_steal_victim([0, 0, 0]) is None
        table = LeaseTable(_tasks(proposals, n_shards=2), n_queues=2, batch_size=1)
        sizes = table.queue_sizes()
        empty_home = sizes.index(min(sizes))  # drain it first
        for _ in range(min(sizes)):
            assert table.claim("w0", home=empty_home) is not None
        before = table.stats.steals
        lease = table.claim("w0", home=empty_home)  # home dry: must steal
        assert lease is not None
        assert table.stats.steals == before + 1

    def test_poison_after_max_leases(self, proposals):
        clock = FakeClock()
        table = LeaseTable(
            _tasks(proposals)[:1], n_queues=1, batch_size=1, ttl_s=1.0,
            max_leases=2, clock=clock,
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
        table = LeaseTable(
            _tasks(proposals)[:1], n_queues=1, batch_size=1, ttl_s=1.0, clock=clock
        )
        lease = table.claim("w0")
        clock.now = 2.0
        table.reclaim()  # task re-queued
        table.mark_done(lease.tasks[0].trial_id if lease.tasks else 0)
        # The stale worker's commit landed: the requeued copy is obsolete.
        assert table.claim("w1") is None
        assert table.finished

    def test_elastic_add_task_mid_sweep(self, proposals):
        table = LeaseTable(n_queues=2, batch_size=4)
        assert table.claim("w0") is None
        for task in _tasks(proposals, n_shards=2):
            table.add_task(task)
        assert table.pending == BUDGET
        assert table.claim("w0", home=0) is not None


# ---------------------------------------------------------------------------
# Fabric vs serial, worker loss, elasticity
# ---------------------------------------------------------------------------


class TestFabricSweep:
    def test_two_nodes_match_serial_bitwise(self, tmp_path, reference_analysis):
        store = ShardedTrialStore(tmp_path / "s", n_shards=3)
        sweep = _sweep(store)
        sweep.add_node(WorkerNode("n0"))
        sweep.add_node(WorkerNode("n1"))
        result = sweep.run(BUDGET)
        assert result.launched == BUDGET and result.failed == 0
        assert result.claims >= 2 and result.poisoned == 0
        assert sum(result.node_trials.values()) == BUDGET
        assert _sorted_analysis(store) == reference_analysis
        store.close()

    def test_zero_nodes_self_executes(self, tmp_path, reference_analysis):
        store = ShardedTrialStore(tmp_path / "s", n_shards=2)
        result = _sweep(store).run(BUDGET)
        assert result.launched == BUDGET and result.self_executed == BUDGET
        assert _sorted_analysis(store) == reference_analysis
        store.close()

    def test_sigkilled_worker_releases_in_flight_exactly_once(
        self, tmp_path, proposals, reference_analysis
    ):
        """Satellite: a worker SIGKILLed mid-lease has its in-flight
        trials re-leased exactly once (to an elastically joined node),
        the reclaim counter increments, and no shard holds a duplicate
        record."""
        obs.configure(reset_metrics=True)
        try:
            queue0 = [
                (tid, c) for tid, c in enumerate(proposals)
                if shard_index(c, 2) == 0
            ]
            # n0 claims its whole home queue in one lease, commits the
            # first trial, then a pool worker is SIGKILLed on the second:
            # the node dies holding the rest of the batch in flight.
            kill_cid = queue0[1][1].config_id()
            store = ShardedTrialStore(tmp_path / "s", n_shards=2)
            sweep = _sweep(store, batch_size=BUDGET, lease_ttl_s=1.0)
            executor = ProcessPoolExecutorBackend(workers=1, max_requeues=0)
            sweep.add_node(WorkerNode(
                "n0", executor=executor, kill_config_ids={kill_cid},
                latch_dir=tmp_path, on_worker_loss="die", home_queue=0,
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
            # No duplicate records in any shard: every line a unique config.
            seen = []
            for shard_path in store.shard_paths():
                for line in shard_path.read_text().splitlines():
                    seen.append(json.loads(line)["trial_id"])
            assert sorted(seen) == list(range(BUDGET))
            assert _sorted_analysis(store) == reference_analysis
            store.close()
        finally:
            obs.shutdown()

    def test_resume_skips_completed_trials(self, tmp_path, reference_analysis):
        store = ShardedTrialStore(tmp_path / "s", n_shards=2)
        sweep = _sweep(store, progress=interrupt_after(BUDGET - 3))
        sweep.add_node(WorkerNode("n0"))
        with pytest.raises(KeyboardInterrupt):
            sweep.run(BUDGET)
        store.close()
        store2 = ShardedTrialStore(tmp_path / "s", n_shards=2)
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
        """Kills + heartbeat loss + Ctrl-C + truncated shard tail, then a
        resume under a *different* shard count: the final analysis
        records equal the fault-free serial run's, byte for byte."""
        root = tmp_path / "sweep"
        latches = tmp_path / "latches"
        latches.mkdir()
        obs_log = tmp_path / "fabric_obs.jsonl"
        obs.configure(jsonl_path=obs_log, reset_metrics=True)
        try:
            by_queue = {
                q: [(tid, c) for tid, c in enumerate(proposals)
                    if shard_index(c, 4) == q]
                for q in range(4)
            }
            assert all(by_queue.values())  # every node starts on home work
            # n0's first home trial dies with its pool worker (SIGKILL).
            kill_cid = by_queue[0][0][1].config_id()
            # n3's first home trial suffers a recoverable worker kill.
            soft_kill_cid = by_queue[3][0][1].config_id()

            store1 = ShardedTrialStore(root, n_shards=4)
            sweep1 = _sweep(
                store1, lease_ttl_s=0.75,
                progress=interrupt_after(BUDGET - 2),
            )
            sweep1.add_node(WorkerNode(
                "n0", home_queue=0, latch_dir=latches, on_worker_loss="die",
                executor=ProcessPoolExecutorBackend(workers=1, max_requeues=0),
                kill_config_ids={kill_cid},
            ))
            sweep1.add_node(WorkerNode(
                "n1", home_queue=1,
                fault_plan=NodeFaultPlan(
                    [NodeFault(NodeFaultKind.NODE_KILL, "n1", after_trials=1)],
                    latch_dir=latches,
                ),
            ))
            sweep1.add_node(WorkerNode(
                "n2", home_queue=2,
                fault_plan=NodeFaultPlan(
                    [NodeFault(NodeFaultKind.HEARTBEAT_LOSS, "n2",
                               after_trials=0, duration_trials=2, stall_s=1.2)],
                    latch_dir=latches,
                ),
            ))
            sweep1.add_node(WorkerNode(
                "n3", home_queue=3, latch_dir=latches, on_worker_loss="retry",
                executor=ProcessPoolExecutorBackend(workers=1, max_requeues=2),
                kill_config_ids={soft_kill_cid},
            ))
            with pytest.raises(KeyboardInterrupt):
                sweep1.run(BUDGET)
            store1.close()
            # The hard kill fired and took its node down.
            assert (latches / f"kill-{kill_cid}.latch").exists()
            assert "pool worker died" in sweep1.nodes[0].death_reason
            committed = sum(
                len(p.read_text().splitlines()) for p in store1.shard_paths()
            )
            assert committed == BUDGET - 2  # Ctrl-C after 6 commits

            # Crash artifact: one shard's writer died mid-append.
            info = corrupt_shard_tail(root, mode="truncate", seed=0)

            # Resume under a DIFFERENT shard count (4 -> 3): the merged
            # view is layout-independent, so nothing else changes.
            store2 = ShardedTrialStore(root, n_shards=3)
            sweep2 = _sweep(store2, resume=True)
            sweep2.add_node(WorkerNode("r0"))
            sweep2.add_node(WorkerNode("r1"))
            result = sweep2.run(BUDGET)
            assert list(store2.quarantined) == [info["shard"]]
            assert result.skipped == BUDGET - 3  # torn record re-run
            assert result.launched == 3 and result.failed == 0

            final = ShardedTrialStore(root, n_shards=3)
            assert final.load() == BUDGET
            assert all(r.ok for r in final.records())
            got = _sorted_analysis(final)
            assert got == reference_analysis  # the certification
            store2.close()
            final.close()
        finally:
            obs.shutdown()
        artifact_dir = os.environ.get("REPRO_FABRIC_ARTIFACT_DIR", "")
        if artifact_dir:  # CI uploads the chaos sweep's evidence
            os.makedirs(artifact_dir, exist_ok=True)
            shutil.copyfile(obs_log, os.path.join(artifact_dir, "fabric_obs.jsonl"))
            with open(os.path.join(artifact_dir, "merged_store.json"), "w") as fh:
                json.dump(got, fh, indent=1, sort_keys=True)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestFabricCli:
    def test_sweep_shards_nodes_and_resume(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "shards"
        args = ["sweep", "--out", str(out), "--budget", "8",
                "--shards", "2", "--nodes", "2"]
        assert main(args) == 0
        assert sorted(p.name for p in out.glob("shard-*.jsonl")) == [
            shard_filename(0, 2), shard_filename(1, 2),
        ]
        assert "claims=" in capsys.readouterr().out
        assert main(args + ["--resume"]) == 0
        assert "skipped=8" in capsys.readouterr().out

    def test_resume_requires_distributed_flags(self, tmp_path):
        from repro.cli import main

        assert main(["sweep", "--out", str(tmp_path / "x"), "--resume"]) == 2
