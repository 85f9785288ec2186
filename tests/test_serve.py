"""Serving layer: micro-batching, plan replicas, bucketed cache, policy.

Covers the four contracts the serving tier rests on:

1. **Correctness** — per-request results routed through padded batch
   buckets are *bucket-deterministic* (a pure function of the image and
   the bucket size, bitwise independent of co-batched content and row
   position) and agree with the interpreted reference runtime within
   the compiled-path tolerance (rtol=1e-3 / atol=1e-4 — the two
   implementations share no kernel code, so bitwise equality across
   them is not a meaningful target; see ``tests/test_deploy_plan.py``).
2. **Safety** — concurrent execution uses exclusive replicas; direct
   concurrent misuse of one plan raises
   :class:`~repro.deploy.ConcurrentPlanError`; NaN-poisoned arenas
   under a concurrent load find any buffer-sharing bug.
3. **Liveness/ordering** — deadline flush, overload rejection, and
   FIFO drain of the micro-batcher.
4. **Performance invariants** — warm buckets mean zero new arena
   allocations in steady state (the mechanism behind the serving
   benchmark's zero-allocation assertion).
5. **Process mode** — shared-memory weight publication/attachment is
   zero-copy (``private_bytes == 0``), worker processes compute
   bitwise-identically to thread replicas for the same (image, bucket),
   dead workers respawn (and the pool degrades to in-process execution
   after repeated deaths), fork inherits neither warm cache entries
   nor the template plan's run guard, and forked workers pin the
   already-loaded BLAS to one thread.
"""

import concurrent.futures
import ctypes
import multiprocessing
import os
import pickle
import signal
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.deploy import (
    ConcurrentPlanError,
    compile_plan,
    load_runtime,
    plan_weight_arrays,
)
from repro.deploy.plan import Arena
from repro.graph.trace import trace_model
from repro.nn import SearchableResNet18
from repro.onnxlite.export import export_model
from repro.onnxlite.reader import proto_from_bytes
from repro.parallel import make_executor
from repro.quant.calibrate import calibrate_activations
from repro.quant.export import export_quantized_model
from repro.serve import (
    BatchPolicy,
    CachedPlan,
    MicroBatcher,
    PlanCache,
    PlanServer,
    ServeConfig,
    ServeRequest,
    ServerOverloaded,
    TenantLoad,
    WorkerPool,
    attach_plan,
    bucket_for,
    clamp_replicas,
    plan_buckets,
    predicted_batch_ms,
    publish_plan,
    run_load,
    serial_baseline,
    suggest_batch_policy,
    suggest_max_batch_size,
)
from repro.serve.workers import _limit_loaded_blas

ATOL = 1e-4
RTOL = 1e-3
HW = 24  # deployment tile used throughout (fast, merged-GEMM regime)


def _model(seed: int = 3) -> SearchableResNet18:
    return SearchableResNet18(in_channels=5, kernel_size=3, stride=2, padding=1,
                              pool_choice=0, initial_output_feature=32, seed=seed)


@pytest.fixture(scope="module")
def runtime():
    return load_runtime(export_model(_model(), input_hw=(HW, HW)))


@pytest.fixture(scope="module")
def plan(runtime):
    return runtime.compile(poison=True)


def _images(n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, 5, HW, HW)).astype(np.float32)


def _submit(batcher: MicroBatcher, image):
    return batcher.submit_request(ServeRequest(image=image))


def _row(server: PlanServer, image) -> np.ndarray:
    """Serve one image and wait for its logits row."""
    return server.infer(ServeRequest(image=image)).row


# --------------------------------------------------------------------------
# micro-batcher
# --------------------------------------------------------------------------


class TestMicroBatcher:
    def test_full_batch_released_immediately(self):
        b = MicroBatcher(max_batch_size=4, max_queue_delay_ms=10_000, max_queue_depth=16)
        futs = [_submit(b, i) for i in range(4)]
        t0 = time.monotonic()
        batch = b.next_batch()
        assert time.monotonic() - t0 < 1.0  # did not wait for the deadline
        assert [r.request.image for r in batch] == [0, 1, 2, 3]
        assert all(not f.done() for f in futs)

    def test_deadline_flushes_partial_batch(self):
        b = MicroBatcher(max_batch_size=8, max_queue_delay_ms=30, max_queue_depth=16)
        for i in range(3):
            _submit(b, i)
        t0 = time.monotonic()
        batch = b.next_batch()
        waited = time.monotonic() - t0
        assert [r.request.image for r in batch] == [0, 1, 2]
        assert waited >= 0.02  # held for (close to) the deadline...
        assert waited < 5.0    # ...but not forever

    def test_overload_rejection_and_counters(self):
        b = MicroBatcher(max_batch_size=2, max_queue_delay_ms=1000, max_queue_depth=3)
        for i in range(3):
            _submit(b, i)
        with pytest.raises(ServerOverloaded):
            _submit(b, 99)
        assert b.submitted == 3
        assert b.rejected == 1
        assert b.depth == 3
        # Consuming a batch frees capacity again.
        b.next_batch()
        _submit(b, 100)
        assert b.submitted == 4

    def test_drain_ordering_and_close_semantics(self):
        b = MicroBatcher(max_batch_size=4, max_queue_delay_ms=10_000, max_queue_depth=64)
        for i in range(10):
            _submit(b, i)
        b.close()
        with pytest.raises(RuntimeError, match="closed"):
            _submit(b, 11)
        drained = []
        sizes = []
        while (batch := b.next_batch()) is not None:
            drained.extend(r.request.image for r in batch)
            sizes.append(len(batch))
        # FIFO across batches, full batches first, remainder flushed last.
        assert drained == list(range(10))
        assert sizes == [4, 4, 2]
        assert b.next_batch() is None  # stays terminal

    def test_consumer_wakes_on_late_submit(self):
        b = MicroBatcher(max_batch_size=1, max_queue_delay_ms=0, max_queue_depth=4)
        out = []
        t = threading.Thread(target=lambda: out.append(b.next_batch()))
        t.start()
        time.sleep(0.05)
        _submit(b, "x")
        t.join(timeout=5)
        assert not t.is_alive()
        assert [r.request.image for r in out[0]] == ["x"]


# --------------------------------------------------------------------------
# policy
# --------------------------------------------------------------------------


class TestBatchPolicy:
    def test_bucket_for_powers_of_two(self):
        assert [bucket_for(n, 16) for n in (1, 2, 3, 4, 5, 8, 9, 16)] == \
            [1, 2, 4, 4, 8, 8, 16, 16]
        # Non-pow2 cap clamps the top bucket.
        assert bucket_for(9, 12) == 12
        assert plan_buckets(12) == [1, 2, 4, 8, 12]
        assert plan_buckets(16) == [1, 2, 4, 8, 16]
        with pytest.raises(ValueError):
            bucket_for(0, 8)
        with pytest.raises(ValueError):
            bucket_for(9, 8)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            BatchPolicy(max_batch_size=0)
        with pytest.raises(ValueError):
            BatchPolicy(max_batch_size=8, max_queue_depth=4)
        with pytest.raises(ValueError):
            BatchPolicy(replicas=0)
        p = BatchPolicy(max_batch_size=4).with_overrides(max_batch_size=2)
        assert p.max_batch_size == 2

    def test_suggest_max_batch_monotone_in_budget(self):
        graph = trace_model(_model(), input_hw=(HW, HW))
        sizes = [suggest_max_batch_size(graph, t) for t in (1.0, 10.0, 100.0, 1000.0)]
        assert sizes == sorted(sizes)
        assert sizes[0] >= 1
        assert all(s & (s - 1) == 0 for s in sizes)  # powers of two
        # Predicted latency grows with batch, so the chosen batch fits.
        for target, size in zip((10.0, 100.0, 1000.0), sizes[1:]):
            assert predicted_batch_ms(graph, size) <= target

    def test_suggest_batch_policy_respects_budget(self):
        graph = trace_model(_model(), input_hw=(HW, HW))
        # cpus injected: the 1-core CI box would otherwise clamp replicas.
        policy = suggest_batch_policy(graph, target_p99_ms=100.0, replicas=2,
                                      cpus=8)
        assert policy.replicas == 2
        assert policy.max_queue_depth >= policy.max_batch_size
        assert 0 < policy.max_queue_delay_ms <= 50.0
        with pytest.raises(ValueError):
            suggest_max_batch_size(graph, 0.0)

    def test_clamp_replicas_caps_to_core_count(self):
        assert clamp_replicas(2, cpus=8) == 2
        assert clamp_replicas(16, cpus=4) == 4
        assert clamp_replicas(3, cpus=3) == 3
        assert clamp_replicas(1) == 1  # never clamped below one replica
        with pytest.raises(ValueError):
            clamp_replicas(0)

    def test_suggest_batch_policy_core_aware_defaults(self):
        graph = trace_model(_model(), input_hw=(HW, HW))
        # Multi-replica defaults to process mode (threads share one GIL).
        p = suggest_batch_policy(graph, 100.0, replicas=4, cpus=8)
        assert p.worker_mode == "process" and p.replicas == 4
        # Single replica stays in-thread (process staging buys nothing).
        assert suggest_batch_policy(graph, 100.0, replicas=1,
                                    cpus=8).worker_mode == "thread"
        # replicas=None takes one per usable core; explicit mode wins.
        pn = suggest_batch_policy(graph, 100.0, replicas=None, cpus=6,
                                  worker_mode="thread")
        assert pn.replicas == 6 and pn.worker_mode == "thread"
        # Oversubscription is clamped, not honored.
        assert suggest_batch_policy(graph, 100.0, replicas=9,
                                    cpus=2).replicas == 2
        with pytest.raises(ValueError):
            BatchPolicy(worker_mode="fiber")


# --------------------------------------------------------------------------
# fingerprint / replicas / re-entrancy
# --------------------------------------------------------------------------


class TestPlanReplication:
    def test_fingerprint_stable_and_weight_sensitive(self):
        blob = export_model(_model(), input_hw=(HW, HW))
        fp_a = load_runtime(blob).fingerprint
        fp_b = load_runtime(blob).fingerprint
        fp_other = load_runtime(export_model(_model(seed=4), input_hw=(HW, HW))).fingerprint
        assert fp_a == fp_b
        assert fp_a != fp_other
        assert len(fp_a) == 64

    def test_replica_shares_fingerprint_not_arena(self, plan):
        replica = plan.replicate()
        assert replica.fingerprint == plan.fingerprint
        assert replica.arena is not plan.arena
        assert replica.arena.poison  # inherits the source plan's setting
        x = _images(2)
        np.testing.assert_array_equal(replica.run(x), plan.replicate().run(x))

    def test_replicas_share_weight_memory(self, plan):
        """N replicas must not multiply parameter storage."""
        a, b = plan.replicate(), plan.replicate()
        shared = 0
        for step_a, step_b in zip(a.steps, b.steps):
            cells_a = step_a.run.__closure__ or ()
            cells_b = step_b.run.__closure__ or ()
            for ca, cb in zip(cells_a, cells_b):
                va, vb = ca.cell_contents, cb.cell_contents
                if isinstance(va, np.ndarray) and isinstance(vb, np.ndarray):
                    assert va is vb, f"step {step_a.name} copied a weight array"
                    shared += 1
        assert shared > 0  # the check actually saw weight arrays

    def test_concurrent_run_raises_instead_of_corrupting(self, plan):
        replica = plan.replicate()
        x = _images(1)
        release = threading.Event()
        entered = threading.Event()
        original = replica.steps[0].run

        def stalled(env):
            entered.set()
            assert release.wait(timeout=10)
            return original(env)

        replica.steps[0].run = stalled
        try:
            results = []
            t = threading.Thread(target=lambda: results.append(replica.run(x)))
            t.start()
            assert entered.wait(timeout=10)
            with pytest.raises(ConcurrentPlanError, match="replicate"):
                replica.run(x)
            release.set()
            t.join(timeout=10)
            assert len(results) == 1
        finally:
            replica.steps[0].run = original
        # The guard released cleanly: the plan still runs (and agrees).
        np.testing.assert_array_equal(replica.run(x), results[0])


# --------------------------------------------------------------------------
# bucketed plan cache
# --------------------------------------------------------------------------


class TestPlanCache:
    def test_checkout_is_exclusive(self, plan):
        cache = PlanCache(max_batch_size=8)
        fp = cache.register(plan)
        a = cache.acquire(fp, 4)
        b = cache.acquire(fp, 4)
        assert a.plan is not b.plan
        cache.release(a)
        c = cache.acquire(fp, 4)
        assert c.plan is a.plan  # warm reuse
        assert cache.stats()["hits"] == 1
        with pytest.raises(KeyError):
            cache.acquire("no-such-fingerprint", 4)

    def test_warm_then_zero_allocations(self, plan):
        cache = PlanCache(max_batch_size=8)
        fp = cache.register(plan)
        cache.warm(fp)
        before = cache.arena_allocations()
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(1, 9))
            entry = cache.acquire(fp, cache.bucket_for(n))
            entry.run_padded(_images(n, seed=int(rng.integers(1e6))))
            cache.release(entry)
        assert cache.arena_allocations() == before, \
            "steady-state serving must not allocate new arena buffers"
        assert cache.stats()["misses"] == len(plan_buckets(8))  # warmup only

    def test_run_padded_validates_size(self, plan):
        cache = PlanCache(max_batch_size=4)
        fp = cache.register(plan)
        entry = cache.acquire(fp, 2)
        with pytest.raises(ValueError):
            entry.run_padded(_images(3))
        cache.release(entry)


# --------------------------------------------------------------------------
# fuzzed per-request equivalence through padded buckets
# --------------------------------------------------------------------------


class TestBucketEquivalence:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(sizes=st.lists(st.integers(min_value=1, max_value=8), min_size=1,
                          max_size=5),
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_varying_batch_sequences_match_reference(self, runtime, plan, sizes, seed):
        """Fuzz: random batch-size sequences through one replica.

        Every request's row must be (a) bitwise-equal to the same image
        run at the same row of a differently-composed batch of the same
        bucket (content independence — co-batched neighbours and zero
        padding leak nothing; row *position* may differ by BLAS panel
        alignment at the +-1 ulp level, which is why the contract is
        per-(image, bucket, row)), and (b) within the compiled-path
        tolerance of the interpreted runtime.
        """
        cache = PlanCache(max_batch_size=8)
        fp = cache.register(plan)
        cache.warm(fp)
        rng = np.random.default_rng(seed)
        for n in sizes:
            images = rng.standard_normal((n, 5, HW, HW)).astype(np.float32)
            bucket = cache.bucket_for(n)
            entry = cache.acquire(fp, bucket)
            out = entry.run_padded(images)
            assert out.shape[0] == n
            assert np.isfinite(out).all()  # poison never leaked through
            # (a) content independence: rerun image 0 at the same row of
            # a full batch of unrelated images in the same bucket.
            decoy = rng.standard_normal((bucket, 5, HW, HW)).astype(np.float32)
            decoy[0] = images[0]
            out_decoy = entry.plan.run(decoy)
            np.testing.assert_array_equal(
                out[0], out_decoy[0],
                err_msg="per-request result must depend only on "
                        "(image, bucket, row) — neighbours/padding leaked")
            cache.release(entry)
            # (b) interpreted-reference agreement, per request.
            ref = runtime.run(images)
            np.testing.assert_allclose(out, ref, rtol=RTOL, atol=ATOL)


# --------------------------------------------------------------------------
# the server
# --------------------------------------------------------------------------


class TestPlanServer:
    def test_results_routed_exactly(self, runtime, plan):
        """N threads x M requests: every caller gets *its own* answer."""
        policy = BatchPolicy(max_batch_size=4, max_queue_delay_ms=2.0,
                             max_queue_depth=256, replicas=3)
        images = _images(48, seed=11)
        refs = runtime.run(images)
        with PlanServer(plan, ServeConfig(policy=policy)) as server:
            def one(i: int) -> np.ndarray:
                return _row(server, images[i])

            with concurrent.futures.ThreadPoolExecutor(max_workers=12) as pool:
                outs = list(pool.map(one, range(48)))
        outs = np.stack(outs)
        assert np.isfinite(outs).all()  # poisoned arenas stayed private
        np.testing.assert_allclose(outs, refs, rtol=RTOL, atol=ATOL)
        # Routing is exact: each output is closest to its own reference
        # and the references are distinct.
        d = np.abs(outs[:, None, :] - refs[None, :, :]).sum(axis=2)
        assert (d.argmin(axis=1) == np.arange(48)).all()

    def test_input_validation_and_shapes(self, plan):
        with PlanServer(plan, ServeConfig(warm=False)) as server:
            img = _images(1)[0]
            assert _row(server, img).shape == (2,)
            assert _row(server, img[None]).shape == (2,)  # (1, C, H, W) ok
            with pytest.raises(ValueError, match="one image"):
                server.submit(ServeRequest(image=_images(2)))

    def test_drain_serves_queued_requests_on_close(self, plan):
        policy = BatchPolicy(max_batch_size=4, max_queue_delay_ms=50.0,
                             max_queue_depth=64, replicas=1)
        server = PlanServer(plan, ServeConfig(policy=policy))
        futs = [server.submit(ServeRequest(image=img)) for img in _images(10, seed=5)]
        server.close()
        assert all(f.result(timeout=10).row.shape == (2,) for f in futs)
        with pytest.raises(RuntimeError, match="closed"):
            server.submit(ServeRequest(image=_images(1)[0]))
        server.close()  # idempotent

    def test_load_generator_round_trip(self, plan):
        policy = BatchPolicy(max_batch_size=8, max_queue_delay_ms=2.0,
                             max_queue_depth=64, replicas=1)
        with PlanServer(plan, ServeConfig(policy=policy)) as server:
            report = run_load(server, [TenantLoad(clients=8)], duration_s=0.4, seed=1)
        assert report.served > 0
        assert report.errors == 0
        assert report.throughput_ips > 0
        assert report.latency_ms_p50 <= report.latency_ms_p99
        payload = report.as_dict()
        assert set(payload) >= {"served", "rejected", "throughput_ips",
                                "latency_ms_p50", "latency_ms_p99"}
        assert "images/sec" in report.render()
        base = serial_baseline(plan.replicate(), duration_s=0.1)
        assert base.served > 0 and base.mean_batch_size == 1.0

    def test_open_loop_rate_limits_submissions(self, plan):
        policy = BatchPolicy(max_batch_size=4, max_queue_delay_ms=2.0,
                             max_queue_depth=32, replicas=1)
        with PlanServer(plan, ServeConfig(policy=policy)) as server:
            report = run_load(server, [TenantLoad(clients=2)], duration_s=0.5,
                              seed=2, arrival_rate_ips=40.0)
        # ~20 images in 0.5s at 40 ips; generous bounds for slow CI.
        assert 1 <= report.served <= 40

    def test_open_loop_awaits_every_accepted_request(self, plan):
        # Offered far above capacity with batch-1 execution, so the queue
        # is still full when the sending window closes.
        policy = BatchPolicy(max_batch_size=1, max_queue_delay_ms=1.0,
                             max_queue_depth=64, replicas=1)
        with PlanServer(plan, ServeConfig(policy=policy)) as server:
            report = run_load(server, [TenantLoad(clients=4)], duration_s=0.5,
                              arrival_rate_ips=3000.0)
            submitted = server.stats()["submitted"]
        assert report.rejected > 0
        assert report.served + report.expired + report.errors == submitted

    def test_open_loop_counts_failed_batches_as_errors(self, plan, monkeypatch):
        def broken(self, images):
            raise RuntimeError("injected batch failure")

        policy = BatchPolicy(max_batch_size=4, max_queue_delay_ms=2.0,
                             max_queue_depth=64, replicas=1)
        with PlanServer(plan, ServeConfig(policy=policy)) as server:
            monkeypatch.setattr(CachedPlan, "run_padded", broken)
            report = run_load(server, [TenantLoad(clients=2)], duration_s=0.3,
                              arrival_rate_ips=100.0)
            submitted = server.stats()["submitted"]
        assert submitted > 0
        assert report.served == 0
        assert report.errors == submitted

    def test_open_loop_times_requests_from_their_schedule(self, plan):
        class StallFirstSubmit:
            """The server, except that its first submit stalls 100 ms."""

            def __init__(self, server):
                self.server, self.stalled = server, False

            def __getattr__(self, name):
                return getattr(self.server, name)

            def submit(self, request):
                if not self.stalled:
                    self.stalled = True
                    time.sleep(0.1)
                return self.server.submit(request)

        policy = BatchPolicy(max_batch_size=8, max_queue_delay_ms=2.0,
                             max_queue_depth=64, replicas=1)
        with PlanServer(plan, ServeConfig(policy=policy)) as server:
            report = run_load(StallFirstSubmit(server), [TenantLoad(clients=1)],
                              duration_s=0.5, arrival_rate_ips=200.0)
        # Requests due during the stall were sent late; each is charged
        # the wait from when it was due.
        assert report.lag_ms_max >= 90.0
        assert report.latency_ms_p99 >= report.lag_ms_max


# --------------------------------------------------------------------------
# shared-memory weight arenas
# --------------------------------------------------------------------------


class TestSharedWeights:
    def test_publish_attach_round_trip_is_zero_copy(self, plan):
        shared = publish_plan(plan)
        try:
            attached = attach_plan(shared.spec, poison=True)
            try:
                x = _images(4, seed=21)
                # Rebinding onto the segment views must not change a bit.
                np.testing.assert_array_equal(attached.plan.run(x),
                                              plan.replicate().run(x))
                res = attached.residency
                assert res["private_bytes"] == 0, \
                    "rebind copied parameter bytes out of the segment"
                assert res["shared_bytes"] > 0
                assert res["arrays"] > 0
                assert res["shared_bytes"] <= shared.nbytes
            finally:
                attached.close()
        finally:
            shared.close()

    def test_spec_pickles_and_views_are_read_only(self, plan):
        shared = publish_plan(plan)
        try:
            # The spec must survive the pipe to a spawn-started worker.
            spec = pickle.loads(pickle.dumps(shared.spec))
            assert spec.fingerprint == plan.fingerprint
            attached = attach_plan(spec, poison=True)
            try:
                arrays = [arr for _, _, arr in
                          plan_weight_arrays(attached.plan.blueprint.nodes)]
                assert arrays
                assert all(not arr.flags.writeable for arr in arrays), \
                    "a writable view could corrupt every sibling worker"
                with pytest.raises((ValueError, RuntimeError)):
                    arrays[0][...] = 0.0
            finally:
                attached.close()
        finally:
            shared.close()

    def test_close_is_idempotent_and_guards_buf(self, plan):
        shared = publish_plan(plan)
        shared.close()
        shared.close()  # idempotent
        with pytest.raises(ValueError):
            shared.buf  # noqa: B018 - the access itself is the assertion


# --------------------------------------------------------------------------
# process worker pool: death, respawn, degrade
# --------------------------------------------------------------------------


def _kill_worker(pool: WorkerPool) -> int:
    """SIGKILL the pool's (only) worker and wait until it is reaped."""
    handle = pool._all[0]
    victim = handle.pid
    os.kill(victim, signal.SIGKILL)
    handle.proc.join(timeout=10)
    assert not handle.proc.is_alive()
    return victim


class TestWorkerPool:
    def test_worker_death_respawns_and_requeues(self, plan):
        with WorkerPool(plan, workers=1, max_batch_size=4, poison=True) as pool:
            x = _images(3, seed=31)
            ref = pool.run_batch(x)
            assert ref.shape == (3, 2)
            victim = _kill_worker(pool)
            # The dead worker is discovered at checkout; the batch is
            # requeued onto the respawned replacement transparently.
            out = pool.run_batch(x)
            np.testing.assert_array_equal(out, ref)
            s = pool.stats()
            assert s["worker_deaths"] == 1
            assert s["worker_respawns"] == 1
            assert not s["degraded"]
            assert s["worker_pids"] and s["worker_pids"][0] != victim

    def test_repeated_deaths_degrade_to_in_process(self, plan):
        with WorkerPool(plan, workers=1, max_batch_size=4, max_deaths=0,
                        poison=True) as pool:
            x = _images(2, seed=32)
            ref = pool.run_batch(x)  # process path, bucket 2
            _kill_worker(pool)
            out = pool.run_batch(x)  # death exceeds budget -> degraded path
            s = pool.stats()
            assert s["degraded"] and pool.degraded
            assert s["worker_deaths"] == 1
            assert s["worker_respawns"] == 0
            # Degraded (in-process PlanCache) execution honors the same
            # per-(image, bucket) identity contract as the workers.
            np.testing.assert_array_equal(out, ref)
            # Serving keeps answering in degraded mode.
            np.testing.assert_array_equal(pool.run_batch(x), ref)

    def test_pool_validates_worker_count(self, plan):
        with pytest.raises(ValueError):
            WorkerPool(plan, workers=0, max_batch_size=4)


# --------------------------------------------------------------------------
# process-mode server: cross-mode identity + routing
# --------------------------------------------------------------------------


class TestProcessServer:
    def test_process_mode_bitwise_matches_thread_mode(self, plan):
        """Same (image, bucket) => identical bits across worker modes."""
        kw = dict(max_batch_size=4, max_queue_delay_ms=2.0, max_queue_depth=64,
                  replicas=1)
        images = _images(8, seed=41)
        # Serial infer keeps every batch at bucket 1 in both modes.
        with PlanServer(plan, ServeConfig(policy=BatchPolicy(**kw), cpus=4)) as server:
            thread_rows = np.stack([_row(server, img) for img in images])
        policy = BatchPolicy(**kw, worker_mode="process")
        with PlanServer(plan, ServeConfig(policy=policy, cpus=4)) as server:
            proc_rows = np.stack([_row(server, img) for img in images])
            stats = server.stats()
        np.testing.assert_array_equal(proc_rows, thread_rows)
        assert stats["worker_mode"] == "process"
        assert stats["batches_executed"] >= len(images)
        assert stats["shared_weight_bytes"] > 0
        assert stats["worker_private_weight_bytes"] == 0
        assert stats["worker_deaths"] == 0 and not stats["degraded"]

    @pytest.mark.parametrize("variants", [{"conv1": "conv.im2col.f32", "fc": "gemm.f32"}, None],
                             ids=["mixed", "all-int8"])
    def test_process_mode_shares_int8_weights(self, variants):
        """An int8 plan's integer weights (packed codes and epilogue
        vectors, or the NumPy kernels' code matrices) ride the shared
        segment: workers copy no weight bytes and serve the thread-mode
        rows bit for bit.  The mixed plan runs the stem and ``fc`` in
        fp32 and the rest int8, so fp32 and int8 weights share one
        segment; the default plan is int8 on every layer."""
        proto = proto_from_bytes(export_quantized_model(_model(), input_hw=(HW, HW)))
        calibrate_activations(proto, _images(12, seed=43))
        int8_plan = compile_plan(proto, variants=variants, poison=True)
        bound = set(int8_plan.kernel_variants().values())
        if variants:
            assert {"conv.im2col.f32", "gemm.f32", "conv.im2col.int8"} <= bound
        else:
            assert all(v.endswith((".int8", ".u8")) for v in bound)
        kw = dict(max_batch_size=4, max_queue_delay_ms=2.0, max_queue_depth=64, replicas=1)
        images = _images(6, seed=44)
        with PlanServer(int8_plan, ServeConfig(policy=BatchPolicy(**kw), cpus=2)) as server:
            thread_rows = np.stack([_row(server, img) for img in images])
        policy = BatchPolicy(**kw, worker_mode="process")
        with PlanServer(int8_plan, ServeConfig(policy=policy, cpus=2)) as server:
            proc_rows = np.stack([_row(server, img) for img in images])
            stats = server.stats()
        np.testing.assert_array_equal(proc_rows, thread_rows)
        assert stats["shared_weight_bytes"] > 0
        assert stats["worker_private_weight_bytes"] == 0
        assert stats["worker_deaths"] == 0 and not stats["degraded"]

    def test_process_mode_results_routed_exactly(self, runtime, plan):
        policy = BatchPolicy(max_batch_size=4, max_queue_delay_ms=2.0,
                             max_queue_depth=256, replicas=2,
                             worker_mode="process")
        images = _images(24, seed=42)
        refs = runtime.run(images)
        with PlanServer(plan, ServeConfig(policy=policy, cpus=2)) as server:
            with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
                outs = list(pool.map(lambda i: _row(server, images[i]), range(24)))
        outs = np.stack(outs)
        assert np.isfinite(outs).all()
        np.testing.assert_allclose(outs, refs, rtol=RTOL, atol=ATOL)
        d = np.abs(outs[:, None, :] - refs[None, :, :]).sum(axis=2)
        assert (d.argmin(axis=1) == np.arange(24)).all()

    def test_server_clamps_oversubscribed_replicas(self, plan):
        policy = BatchPolicy(max_batch_size=2, max_queue_depth=64, replicas=64)
        with PlanServer(plan, ServeConfig(policy=policy, cpus=2, warm=False)) as server:
            assert server.policy.replicas == 2  # clamped before any threads


# --------------------------------------------------------------------------
# fork safety
# --------------------------------------------------------------------------


def _openblas_thread_getter():
    """The mapped OpenBLAS's thread-count getter via ctypes, or ``None``."""
    if not os.path.exists("/proc/self/maps"):
        return None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {"/" + line.rstrip("\n").partition("/")[2] for line in fh}
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p).lower()):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn
    return None


class TestForkSafety:
    def test_workers_inherit_no_warm_cache_entries(self, plan):
        """Workers warm their *own* arenas; the parent cache stays cold.

        A busy parent (warm PlanCache) must not leak pooled entries or
        hit/miss counts across the fork: the process-mode server never
        touches its local cache unless the pool degrades.
        """
        parent_cache = PlanCache(max_batch_size=4)
        parent_cache.warm(parent_cache.register(plan))
        assert parent_cache.stats()["pooled_entries"] > 0
        policy = BatchPolicy(max_batch_size=4, max_queue_delay_ms=1.0,
                             max_queue_depth=16, replicas=1,
                             worker_mode="process")
        with PlanServer(plan, ServeConfig(policy=policy, cpus=1)) as server:
            assert _row(server, _images(1, seed=51)[0]).shape == (2,)
            stats = server.stats()
        assert stats["pooled_entries"] == 0
        assert stats["hits"] == 0 and stats["misses"] == 0
        # ...while each worker did warm its own arenas before serving.
        assert stats["worker_private_weight_bytes"] == 0

    def test_fork_child_pins_loaded_openblas(self):
        """A forked worker inherits the parent's initialised BLAS pool, so
        only the ctypes call can cap it; read the cap back through the
        library's own getter."""
        get_threads = _openblas_thread_getter()
        if get_threads is None:
            pytest.skip("no OpenBLAS mapped into this process")
        ctx = multiprocessing.get_context("fork")
        reader, writer = ctx.Pipe(duplex=False)

        def pin_and_report() -> None:
            _limit_loaded_blas(1)
            writer.send(get_threads())

        child = ctx.Process(target=pin_and_report)
        child.start()
        try:
            assert reader.poll(30), "forked child never reported"
            assert reader.recv() == 1
        finally:
            child.join(timeout=10)
        assert not child.is_alive()

    def test_worker_warms_own_arenas_before_ready(self, plan):
        with WorkerPool(plan, workers=1, max_batch_size=4, poison=True) as pool:
            report = pool._all[0].report
            assert report["warm_allocations"] > 0
            assert report["private_bytes"] == 0

    def test_run_guard_is_per_process(self, plan):
        """The template plan's run guard must not gate worker processes."""
        with WorkerPool(plan, workers=1, max_batch_size=4, poison=True) as pool:
            x = _images(2, seed=52)
            ref = pool.run_batch(x)
            assert plan._run_guard.acquire(blocking=False)
            try:
                # Worker replicas rebind with fresh guards: holding the
                # parent's lock cannot deadlock or poison their runs.
                out = pool.run_batch(x)
            finally:
                plan._run_guard.release()
            np.testing.assert_array_equal(out, ref)


# --------------------------------------------------------------------------
# sorted arena free list (satellite)
# --------------------------------------------------------------------------


class TestArenaSmallestFit:
    def test_smallest_fit_and_counters(self):
        arena = Arena()
        views = [arena.acquire((n,)) for n in (64, 8, 32, 16)]
        assert arena.allocations == 4
        for v in views:
            arena.release(v)
        assert arena._free_sizes == sorted(arena._free_sizes)
        # Smallest fit: a request of 10 must take the 16-slot, not 64.
        # (Pool capacities are tracked in bytes: 16 float32 = 64 bytes.)
        v = arena.acquire((10,))
        assert arena._live[id(v)].size == 16 * 4
        assert arena.reuses == 1
        # Oversized request allocates fresh instead of misusing the pool.
        big = arena.acquire((100,))
        assert arena.allocations == 5
        arena.release(v)
        arena.release(big)
        assert arena._free_sizes == sorted(arena._free_sizes)

    def test_release_foreign_buffer_raises(self):
        arena = Arena()
        with pytest.raises(KeyError):
            arena.release(np.zeros(4, dtype=np.float32))


# --------------------------------------------------------------------------
# executor factory: serial and process backends only
# --------------------------------------------------------------------------


class TestThreadExecutor:
    def test_factory_rejects_unknown_kind(self):
        for kind in ("fiber", "thread"):
            with pytest.raises(ValueError, match="unknown executor kind"):
                make_executor(kind)


# --------------------------------------------------------------------------
# runtime compiled= convenience (satellite)
# --------------------------------------------------------------------------


class TestRuntimeCompiledFlag:
    def test_compiled_flag_matches_interpreter_and_caches_plan(self):
        runtime = load_runtime(export_model(_model(), input_hw=(HW, HW)))
        x = _images(3, seed=9)
        ref = runtime.run(x)
        fast = runtime.run(x, compiled=True)
        np.testing.assert_allclose(fast, ref, rtol=RTOL, atol=ATOL)
        assert runtime._plan is not None
        plan_first = runtime._plan
        runtime.run(x, compiled=True)
        assert runtime._plan is plan_first  # compiled once, reused
