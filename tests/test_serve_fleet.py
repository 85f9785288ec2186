"""Fleet serving: routing, admission control, SLO expiry, autoscaling.

Covers the multi-tenant serving fleet acceptance criteria:

- the routing rule (`repro.latency.select_model`): cheapest model
  meeting the accuracy floor and device budget, load spill, hard-floor
  failure, soft-budget fallback;
- admission-control properties: token-bucket fairness under two
  competing tenants, priority preemption ordering, deadline-expired
  requests rejected *without executing*, and bitwise-identical outputs
  for admitted requests vs a no-admission `PlanServer` run;
- the process-mode limits: one model per server, no autoscaler;
- the autoscaler scaling up under a load step and back down after
  drain, asserted through `repro.obs` gauges;
- the `ServeConfig` consolidation (effective config after replica
  clamping) and the `MicroBatcher` condition-wakeup fix (no
  busy-polling while idle).
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

import repro.obs as obs
from repro.deploy import load_runtime
from repro.latency import (
    ModelCandidate,
    NoFeasibleModel,
    select_model,
)
from repro.nn import SearchableResNet18
from repro.obs import registry
from repro.onnxlite.export import export_model
from repro.serve import (
    AdmissionController,
    AdmissionPolicy,
    AutoscalerConfig,
    BatchPolicy,
    DeadlineExceeded,
    FleetServer,
    MicroBatcher,
    PlanServer,
    ServeConfig,
    ServeRequest,
    ServeResponse,
    TenantLoad,
    TenantOverloaded,
    TenantQuota,
    TokenBucket,
    run_fleet_load,
)

HW = 24  # deployment tile (fast, merged-GEMM regime)


def _model(width: int = 32, seed: int = 3) -> SearchableResNet18:
    return SearchableResNet18(in_channels=5, kernel_size=3, stride=2, padding=1,
                              pool_choice=0, initial_output_feature=width, seed=seed)


@pytest.fixture(scope="module")
def plan_s():
    return load_runtime(export_model(_model(32, seed=1), input_hw=(HW, HW))).compile()


@pytest.fixture(scope="module")
def plan_m():
    return load_runtime(export_model(_model(48, seed=2), input_hw=(HW, HW))).compile()


def _images(n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, 5, HW, HW)).astype(np.float32)


class FakeClock:
    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


# --------------------------------------------------------------------------
# routing rule (pure)
# --------------------------------------------------------------------------


CANDS = [
    ModelCandidate("small", accuracy=90.0, latency_ms={"mean": 3.0, "cpu": 5.0}),
    ModelCandidate("mid", accuracy=94.0, latency_ms={"mean": 6.0, "cpu": 11.0}),
    ModelCandidate("large", accuracy=96.0, latency_ms={"mean": 11.0, "cpu": 22.0}),
]


class TestSelectModel:
    def test_cheapest_fitting_model_wins(self):
        sel = select_model(CANDS, budget_ms=7.0)
        assert sel.name == "small"
        assert sel.fits_budget
        assert sel.predicted_ms == 3.0

    def test_accuracy_floor_excludes_cheap_models(self):
        sel = select_model(CANDS, budget_ms=7.0, accuracy_floor=93.0)
        assert sel.name == "mid"
        assert sel.fits_budget

    def test_unsatisfiable_floor_raises(self):
        with pytest.raises(NoFeasibleModel):
            select_model(CANDS, accuracy_floor=99.0)

    def test_budget_unmeetable_serves_fastest_and_flags(self):
        sel = select_model(CANDS, budget_ms=1.0)
        assert sel.name == "small"  # fastest floor-satisfying model
        assert not sel.fits_budget

    def test_device_column_used_for_budget(self):
        # 8 ms on "cpu" admits only the small model's 5 ms.
        sel = select_model(CANDS, budget_ms=8.0, device="cpu")
        assert sel.name == "small"
        assert sel.predicted_ms == 5.0

    def test_queue_load_spills_to_next_feasible_model(self):
        # Both fit a 12 ms budget; heavy load on "small" inflates its
        # effective cost past "mid" (3 * 3 > 6 * 1).
        sel = select_model(CANDS, budget_ms=12.0, load={"small": 2.0})
        assert sel.name == "mid"
        # predicted_ms stays the raw prediction, not the inflated cost.
        assert sel.predicted_ms == 6.0
        assert sel.effective_ms == 6.0

    def test_unknown_device_is_loud(self):
        with pytest.raises(KeyError):
            select_model(CANDS, budget_ms=5.0, device="tpu")


# --------------------------------------------------------------------------
# admission control
# --------------------------------------------------------------------------


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate_per_s=10.0, burst=3, clock=clock)
        assert [bucket.try_take() for _ in range(4)] == [True, True, True, False]
        clock.advance(0.1)  # one token refilled
        assert bucket.try_take()
        assert not bucket.try_take()

    def test_unlimited_rate_always_admits(self):
        bucket = TokenBucket(rate_per_s=None, burst=1, clock=FakeClock())
        assert all(bucket.try_take() for _ in range(1000))

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate_per_s=100.0, burst=2, clock=clock)
        clock.advance(60.0)
        assert [bucket.try_take() for _ in range(3)] == [True, True, False]


class TestAdmissionFairness:
    def test_flooding_tenant_does_not_starve_the_other(self):
        clock = FakeClock()
        policy = AdmissionPolicy(tenants={
            "flood": TenantQuota(rate_per_s=100.0, burst=5),
            "calm": TenantQuota(rate_per_s=100.0, burst=5),
        })
        ctrl = AdmissionController(policy, clock=clock)
        flood_rejections = 0
        for _ in range(50):
            try:
                ctrl.admit("flood")
            except TenantOverloaded:
                flood_rejections += 1
        assert flood_rejections == 45  # burst of 5 admitted, rest shed
        # The calm tenant's bucket is untouched by the flood.
        for _ in range(5):
            ctrl.admit("calm")
        stats = ctrl.stats()
        assert stats["admitted"] == {"flood": 5, "calm": 5}
        assert stats["rejected"] == {"flood": 45, "calm": 0}

    def test_default_quota_applies_to_unknown_tenants(self):
        ctrl = AdmissionController(
            AdmissionPolicy(default=TenantQuota(rate_per_s=1.0, burst=1)),
            clock=FakeClock(),
        )
        ctrl.admit("anyone")
        with pytest.raises(TenantOverloaded):
            ctrl.admit("anyone")

    def test_batcher_enforces_admission_and_tenant_priority(self):
        clock = FakeClock()
        ctrl = AdmissionController(AdmissionPolicy(tenants={
            "vip": TenantQuota(rate_per_s=100.0, burst=2, priority=7),
        }), clock=clock)
        b = MicroBatcher(max_batch_size=8, max_queue_delay_ms=1000,
                         max_queue_depth=16, clock=clock, admission=ctrl)
        b.submit_request(ServeRequest(image=0, tenant="vip"))
        b.submit_request(ServeRequest(image=1, tenant="vip"))
        with pytest.raises(TenantOverloaded):
            b.submit_request(ServeRequest(image=2, tenant="vip"))
        b.close()
        batch = b.next_batch()
        # Priority defaulted from the tenant quota, not explicit.
        assert [r.priority for r in batch] == [7, 7]


class TestPriorityPreemption:
    def test_higher_class_pops_first_fifo_within_class(self):
        b = MicroBatcher(max_batch_size=2, max_queue_delay_ms=1000, max_queue_depth=16)
        for i in range(4):
            b.submit_request(ServeRequest(image=("low", i), priority=0))
        for i in range(2):
            b.submit_request(ServeRequest(image=("high", i), priority=1))
        b.close()  # drain mode: batches release immediately
        order = []
        while (batch := b.next_batch()) is not None:
            order.append([r.request.image for r in batch])
        assert order == [
            [("high", 0), ("high", 1)],
            [("low", 0), ("low", 1)],
            [("low", 2), ("low", 3)],
        ]

    def test_default_class_preserves_pure_fifo(self):
        b = MicroBatcher(max_batch_size=3, max_queue_delay_ms=1000, max_queue_depth=16)
        for i in range(6):
            b.submit_request(ServeRequest(image=i))
        b.close()
        assert [r.request.image for r in b.next_batch()] == [0, 1, 2]
        assert [r.request.image for r in b.next_batch()] == [3, 4, 5]


class TestDeadlineExpiry:
    def test_expired_request_fails_fast_without_executing(self):
        clock = FakeClock()
        b = MicroBatcher(max_batch_size=1, max_queue_delay_ms=0,
                         max_queue_depth=16, clock=clock)
        doomed = b.submit_request(ServeRequest(image="doomed", deadline_ms=10.0))
        alive = b.submit_request(ServeRequest(image="alive", deadline_ms=10_000.0))
        clock.advance(0.05)  # 50 ms >> the 10 ms SLO
        batch = b.next_batch()
        # The expired request never reaches a worker; the live one does.
        assert [r.request.image for r in batch] == ["alive"]
        assert b.expired == 1
        with pytest.raises(DeadlineExceeded):
            doomed.result(timeout=1)
        assert not alive.done()

    def test_dead_on_arrival_is_rejected_at_submit(self):
        b = MicroBatcher(max_batch_size=4, max_queue_delay_ms=1000, max_queue_depth=16)
        fut = b.submit_request(ServeRequest(image=0, deadline_ms=0.0))
        with pytest.raises(DeadlineExceeded):
            fut.result(timeout=1)
        assert b.depth == 0
        assert b.expired == 1

    def test_met_deadline_reported_on_response(self, plan_s):
        with FleetServer(ServeConfig(warm=False)) as fleet:
            fleet.register("only", plan_s)
            resp = fleet.infer(ServeRequest(image=_images(1)[0], deadline_ms=30_000.0))
        assert isinstance(resp, ServeResponse)
        assert resp.deadline_met is True
        assert resp.total_ms > 0
        assert resp.queue_ms >= 0
        assert resp.exec_ms > 0


# --------------------------------------------------------------------------
# fleet routing + bitwise identity
# --------------------------------------------------------------------------


def _two_model_fleet(plan_s, plan_m, **config_kw) -> FleetServer:
    fleet = FleetServer(ServeConfig(
        policy=BatchPolicy(max_batch_size=4, max_queue_delay_ms=1.0,
                           max_queue_depth=64),
        warm=False,
        **config_kw,
    ))
    fleet.register("small", plan_s, accuracy=90.0,
                   latency_ms={"mean": 3.0, "cpu": 5.0})
    fleet.register("mid", plan_m, accuracy=94.0,
                   latency_ms={"mean": 6.0, "cpu": 11.0})
    return fleet


class TestFleetRouting:
    def test_requests_route_within_their_budgets(self, plan_s, plan_m):
        x = _images(1)[0]
        with _two_model_fleet(plan_s, plan_m) as fleet:
            tight = fleet.infer(ServeRequest(image=x, budget_ms=4.0))
            floor = fleet.infer(ServeRequest(image=x, accuracy_floor=92.0,
                                             budget_ms=20.0))
            pinned = fleet.infer(ServeRequest(image=x, model="mid"))
            stats = fleet.stats()
        assert tight.model == "small" and tight.predicted_ms <= 4.0
        assert floor.model == "mid" and floor.predicted_ms <= 20.0
        assert pinned.model == "mid"
        # Fleet-wide totals sit at the top level, per-model detail below.
        assert stats["submitted"] == 3
        assert stats["batches_executed"] == fleet.batches_executed == 3
        assert stats["worker_mode"] == "thread"
        assert {m: s["routed"] for m, s in stats["models"].items()} == {
            "small": 1, "mid": 2}
        assert stats["hits"] + stats["misses"] == 3

    def test_unsatisfiable_floor_raises_at_submit(self, plan_s, plan_m):
        with _two_model_fleet(plan_s, plan_m) as fleet:
            with pytest.raises(NoFeasibleModel):
                fleet.submit(ServeRequest(image=_images(1)[0], accuracy_floor=99.9))

    def test_unknown_model_hint_raises(self, plan_s, plan_m):
        with _two_model_fleet(plan_s, plan_m) as fleet:
            with pytest.raises(KeyError):
                fleet.submit(ServeRequest(image=_images(1)[0], model="nonesuch"))

    def test_mismatched_input_shape_rejected_at_register(self, plan_s):
        other = load_runtime(
            export_model(_model(32, seed=9), input_hw=(HW * 2, HW * 2))
        ).compile()
        with FleetServer(ServeConfig(warm=False)) as fleet:
            fleet.register("a", plan_s)
            with pytest.raises(ValueError, match="input shape"):
                fleet.register("b", other)

    def test_process_mode_serves_one_model(self, plan_s, plan_m):
        config = ServeConfig(policy=BatchPolicy(worker_mode="process"), cpus=1)
        with FleetServer(config) as fleet:
            fleet.register("small", plan_s)
            with pytest.raises(ValueError, match="one model"):
                fleet.register("mid", plan_m)
            assert fleet.models == ["small"]
            resp = fleet.infer(ServeRequest(image=_images(1)[0]))
        assert resp.model == "small"

    def test_process_mode_rejects_an_autoscaler(self):
        with pytest.raises(ValueError, match="autoscaler"):
            FleetServer(ServeConfig(policy=BatchPolicy(worker_mode="process"),
                                    autoscaler=AutoscalerConfig()))

    def test_mixed_tenant_load_routes_and_attains_slo(self, plan_s, plan_m):
        with _two_model_fleet(plan_s, plan_m, admission=AdmissionPolicy(tenants={
            "interactive": TenantQuota(rate_per_s=4000, burst=256, priority=1),
            "analytics": TenantQuota(rate_per_s=4000, burst=256),
        })) as fleet:
            report = run_fleet_load(
                fleet,
                [
                    TenantLoad(name="interactive", clients=3, budget_ms=6.0,
                               device="cpu", deadline_ms=1000.0),
                    TenantLoad(name="analytics", clients=2, model="mid",
                               deadline_ms=2000.0),
                ],
                duration_s=0.8,
            )
        assert report.served > 0
        assert report.errors == 0
        # Every routed request fit its declared budget...
        assert report.all_routes_fit_budget
        assert report.per_model.get("small", 0) > 0
        assert report.per_model.get("mid", 0) > 0
        # ...and the wall-clock SLOs (sized generously) held.
        assert report.slo_attainment >= 0.95

    def test_admitted_outputs_bitwise_identical_to_plan_server(self, plan_s, plan_m):
        # Same images through (a) the fleet with admission control active
        # and (b) a bare single-model PlanServer with no admission.
        # max_batch_size=1 pins both paths to the bucket-1 replica shape.
        images = _images(6, seed=42)
        admission = AdmissionPolicy(
            default=TenantQuota(rate_per_s=10_000.0, burst=64)
        )
        policy = BatchPolicy(max_batch_size=1, max_queue_delay_ms=0.5,
                             max_queue_depth=64)
        with FleetServer(ServeConfig(policy=policy, warm=False,
                                     admission=admission)) as fleet:
            fleet.register("small", plan_s, accuracy=90.0,
                           latency_ms={"mean": 3.0})
            fleet.register("mid", plan_m, accuracy=94.0,
                           latency_ms={"mean": 6.0})
            fleet_rows = [
                fleet.infer(ServeRequest(image=x, budget_ms=4.0)).row
                for x in images
            ]
        with PlanServer(plan_s.replicate(),
                        config=ServeConfig(policy=policy, warm=False)) as server:
            serial_rows = [server.infer(ServeRequest(image=x)).row for x in images]
        for got, want in zip(fleet_rows, serial_rows):
            np.testing.assert_array_equal(got, want)


# --------------------------------------------------------------------------
# autoscaler
# --------------------------------------------------------------------------


class TestAutoscaler:
    def test_scales_up_under_load_step_and_down_after_drain(self, plan_s):
        obs.configure(reset_metrics=True)
        try:
            fleet = FleetServer(ServeConfig(
                policy=BatchPolicy(max_batch_size=2, max_queue_delay_ms=0.5,
                                   max_queue_depth=256),
                warm=False,
                autoscaler=AutoscalerConfig(
                    min_replicas=0, max_replicas=2,
                    scale_up_depth=3, scale_down_idle_ticks=2,
                ),
            ))
            fleet.register("only", plan_s)

            def gauge() -> float:
                for inst in registry().find("repro_serve_fleet_replicas"):
                    if inst.labels.get("model") == "only":
                        return inst.value
                return -1.0

            assert fleet.replicas("only") == 1
            assert gauge() == 1.0

            # Idle ticks retire the last replica (min_replicas=0).
            assert fleet.scale_tick() == []
            events = fleet.scale_tick()
            assert [e["action"] for e in events] == ["down"]
            assert fleet.replicas("only") == 0
            assert gauge() == 0.0
            deadline = time.monotonic() + 5
            while any(
                t.is_alive() for t in fleet._units["only"].workers.values()
            ) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not fleet._units["only"].workers

            # Load step: with no workers the queue builds past the trigger.
            futures = [
                fleet.submit(ServeRequest(image=x)) for x in _images(8, seed=7)
            ]
            assert fleet._units["only"].batcher.depth == 8
            events = fleet.scale_tick()
            assert [e["action"] for e in events] == ["up"]
            assert fleet.replicas("only") == 1
            assert gauge() == 1.0
            if fleet._units["only"].batcher.depth > 3:
                # Still pressed on the next tick: second replica.
                events = fleet.scale_tick()
                if events:
                    assert events[0]["action"] == "up"
                    assert gauge() == 2.0
            rows = [f.result(timeout=30) for f in futures]
            assert all(r.row.shape == rows[0].row.shape for r in rows)

            # Drain: consecutive idle ticks scale back down to zero.
            deadline = time.monotonic() + 5
            while fleet.replicas("only") > 0 and time.monotonic() < deadline:
                fleet.scale_tick()
                time.sleep(0.01)
            assert fleet.replicas("only") == 0
            assert gauge() == 0.0
            actions = [e["action"] for e in fleet.scale_events]
            assert "up" in actions and "down" in actions
            assert registry().counter_value("repro_serve_fleet_scale_up_total") >= 1
            assert registry().counter_value("repro_serve_fleet_scale_down_total") >= 2
            fleet.close()
        finally:
            obs.shutdown()

    def test_scale_up_warms_cache_off_hot_path(self, plan_s):
        fleet = FleetServer(ServeConfig(
            policy=BatchPolicy(max_batch_size=2, max_queue_delay_ms=0.5,
                               max_queue_depth=256),
            warm=True,
            autoscaler=AutoscalerConfig(min_replicas=1, max_replicas=2,
                                        scale_up_depth=1),
        ))
        try:
            fleet.register("only", plan_s)
            warmed = fleet.cache.stats()["pooled_entries"]
            # Park the queue over the trigger, then tick: the new
            # replica's entries appear in the pool before its worker
            # ever runs a batch.
            futures = [fleet.submit(ServeRequest(image=x)) for x in _images(6)]
            fleet.scale_tick()
            assert fleet.replicas("only") == 2
            assert fleet.cache.stats()["pooled_entries"] > warmed
            for f in futures:
                f.result(timeout=30)
        finally:
            fleet.close()


# --------------------------------------------------------------------------
# ServeConfig consolidation + idle-CPU fix
# --------------------------------------------------------------------------


class TestServeConfig:
    def test_effective_config_reflects_replica_clamp(self, plan_s):
        server = PlanServer(
            plan_s.replicate(),
            config=ServeConfig(policy=BatchPolicy(replicas=64), warm=False,
                               cpus=2),
        )
        try:
            assert server.config.policy.replicas == 2
            assert server.policy.replicas == 2
        finally:
            server.close()

    def test_as_dict_round_trips_to_json(self):
        import json

        cfg = ServeConfig(
            policy=BatchPolicy(max_batch_size=4),
            admission=AdmissionPolicy(tenants={"t": TenantQuota(rate_per_s=10)}),
            autoscaler=AutoscalerConfig(),
        )
        payload = json.loads(json.dumps(cfg.as_dict()))
        assert payload["policy"]["max_batch_size"] == 4
        assert payload["admission"]["tenants"]["t"]["rate_per_s"] == 10
        assert payload["autoscaler"]["max_replicas"] == 4


class TestIdleCpu:
    def test_idle_server_burns_no_cpu(self, plan_s):
        # The old next_batch(poll_s=0.05) woke every worker 20x/s on an
        # empty queue.  With the condition-variable wait an idle server
        # never wakes: zero idle wakeups and ~zero process CPU time.
        with PlanServer(plan_s.replicate(),
                        config=ServeConfig(
                            policy=BatchPolicy(replicas=2),
                            warm=False, cpus=2)) as server:
            time.sleep(0.2)  # let workers reach their waits
            cpu0 = time.process_time()
            t0 = time.monotonic()
            time.sleep(0.5)
            cpu_used = time.process_time() - cpu0
            elapsed = time.monotonic() - t0
            [unit] = server._units.values()
            assert unit.batcher.idle_wakeups == 0
            assert cpu_used < 0.2 * elapsed

    def test_consumer_still_wakes_on_submit_after_idle(self):
        b = MicroBatcher(max_batch_size=1, max_queue_delay_ms=0, max_queue_depth=4)
        got: list = []

        def consume():
            batch = b.next_batch()
            got.append([r.request.image for r in batch])

        t = threading.Thread(target=consume, daemon=True)
        t.start()
        time.sleep(0.1)  # consumer parks on the untimed wait
        b.submit_request(ServeRequest(image=123))
        t.join(timeout=5)
        assert got == [[123]]

    def test_kick_wakes_stopped_consumer(self):
        b = MicroBatcher(max_batch_size=4, max_queue_delay_ms=1000, max_queue_depth=16)
        stop = threading.Event()
        out: list = []

        def consume():
            out.append(b.next_batch(stop=stop.is_set))

        t = threading.Thread(target=consume, daemon=True)
        t.start()
        time.sleep(0.1)
        stop.set()
        b.kick()
        t.join(timeout=5)
        assert out == [None]
