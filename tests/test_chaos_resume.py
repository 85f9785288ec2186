"""Acceptance: a chaos sweep (transients + worker kill + interrupt + store
corruption) resumes to results bitwise-identical to a fault-free serial run.

Also covers the sweep-survival satellites: unexpected exceptions are
captured instead of aborting the sweep, hangs are bounded by the trial
deadline, one broken device predictor degrades gracefully, and telemetry
accounts for all of it.
"""

from __future__ import annotations

import pytest

import repro.obs as obs
from repro.faults import (
    Fault,
    FaultKind,
    FaultPlan,
    corrupt_store_tail,
    interrupt_after,
)
from repro.latency.devices import DEVICE_PROFILES
from repro.nas import (
    Experiment,
    GridSearch,
    RetryPolicy,
    SurrogateEvaluator,
    TrialStore,
)
from repro.nas.config import ModelConfig
from repro.nas.experiment import measure_architecture
from repro.nas.fabric import NodeEvaluator
from repro.nas.retry import PermanentTrialError
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


def _sorted_analysis(store):
    return sorted(store.analysis_records(), key=lambda r: r["trial_id"])


class _ExplodingEvaluator:
    """Raises an *unexpected* exception type for one configuration."""

    def __init__(self, inner, bad_config_id):
        self.inner = inner
        self.bad_config_id = bad_config_id

    def evaluate(self, config: ModelConfig):
        if config.config_id() == self.bad_config_id:
            raise FloatingPointError("overflow in fold 3")
        return self.inner.evaluate(config)


class TestChaosResumeAcceptance:
    def test_chaos_run_resumes_bitwise_equal(self, tmp_path):
        """The headline scenario: 2 transients, 1 worker kill, a Ctrl-C
        after BUDGET-2 trials and a truncated store tail — after resume,
        every non-injected trial succeeded and the analysis records are
        exactly those of a fault-free serial run."""
        # --- reference: fault-free, serial, in-memory --------------------
        reference = _experiment(store=TrialStore())
        ref_result = reference.run(BUDGET)
        assert ref_result.failed == 0
        ref_records = _sorted_analysis(reference.store)
        assert len(ref_records) == BUDGET

        # --- chaos leg 1: transients + worker kill + interrupt -----------
        plan = FaultPlan.chaos(total=BUDGET, transients=2, seed=3)
        transient_ids = plan.trials_with(FaultKind.TRANSIENT)
        assert len(transient_ids) == 2
        proposals = list(GridSearch(SPACE).propose(BUDGET))
        kill_tid = min(t for t in range(BUDGET) if t not in transient_ids)
        kill_cid = proposals[kill_tid].config_id()

        path = tmp_path / "sweep.jsonl"
        executor1 = ProcessPoolExecutorBackend(workers=2)
        evaluator1 = NodeEvaluator(
            SurrogateEvaluator(seed=0), executor1, kill_config_ids={kill_cid},
            latch_dir=tmp_path,
        )
        store1 = TrialStore(path)
        exp1 = _experiment(
            evaluator=evaluator1, store=store1, failure_injector=plan,
            retry_policy=RetryPolicy(max_attempts=3, base_delay_s=0.0),
            progress=interrupt_after(BUDGET - 2),
        )
        with pytest.raises(KeyboardInterrupt):
            exp1.run(BUDGET)
        executor1.close()
        store1.close()
        assert evaluator1.kills_fired == 1
        assert executor1.pool_deaths == 1  # the kill broke (and respawned) the pool
        assert len(store1) == BUDGET - 2

        # --- crash artifact: writer killed mid-append --------------------
        corrupt_store_tail(path, mode="truncate", seed=0)

        # --- chaos leg 2: quarantining reload + verified resume ----------
        store2 = TrialStore(path)
        assert store2.load() == BUDGET - 3  # the torn record is quarantined
        assert len(store2.quarantined) == 1

        plan2 = FaultPlan.chaos(total=BUDGET, transients=2, seed=3)
        executor2 = ProcessPoolExecutorBackend(workers=2)
        evaluator2 = NodeEvaluator(
            SurrogateEvaluator(seed=0), executor2, kill_config_ids={kill_cid},
            latch_dir=tmp_path,
        )
        exp2 = _experiment(
            evaluator=evaluator2, store=store2, failure_injector=plan2,
            retry_policy=RetryPolicy(max_attempts=3, base_delay_s=0.0),
            skip_existing=True,
        )
        result = exp2.run(BUDGET)
        executor2.close()
        store2.close()

        # Completion accounting: quarantined + never-run trials were
        # re-evaluated, the rest served from the store.
        assert result.skipped == BUDGET - 3
        assert result.launched == 3
        assert result.failed == 0

        # The kill latch survived the resume: no second kill fired.
        assert evaluator2.kills_fired == 0
        assert executor2.pool_deaths == 0

        # Every non-injected trial succeeded (this plan injects no
        # permanent losses, so that is *every* trial) ...
        final = TrialStore(path)
        assert final.load() == BUDGET
        assert all(r.ok for r in final.records())
        # ... and any transient trial that ran under chaos was retried.
        retried_ids = {r.trial_id for r in final.records() if r.attempts > 1}
        assert retried_ids <= set(transient_ids) and retried_ids

        # Bitwise acceptance: resumed analysis records == fault-free run.
        assert _sorted_analysis(final) == ref_records

    def test_paper_mode_plan_accounting(self):
        """FaultPlan.paper_mode drives the 1,717/1,728 accounting like the
        legacy injector (sampled here on a tiny sweep via TRIAL_FAILURE)."""
        plan = FaultPlan(
            [Fault(FaultKind.TRIAL_FAILURE, 2)], seed=0
        )
        exp = _experiment(store=TrialStore(), failure_injector=plan)
        result = exp.run(4)
        assert result.failed == 1 and result.succeeded == 3
        failed = [r for r in exp.store.records() if not r.ok]
        assert failed[0].trial_id == 2 and failed[0].error_kind == "injected"


class TestSweepSurvivesUnexpectedErrors:
    def test_unexpected_exception_is_captured_not_fatal(self):
        """Satellite fix: run_trial used to catch only (ValueError,
        KeyError) — a FloatingPointError aborted the whole sweep."""
        proposals = list(GridSearch(SPACE).propose(BUDGET))
        bad_cid = proposals[1].config_id()
        exp = _experiment(
            evaluator=_ExplodingEvaluator(SurrogateEvaluator(seed=0), bad_cid),
            store=TrialStore(),
            retry_policy=RetryPolicy.none(),
        )
        result = exp.run(BUDGET)  # must not raise
        assert result.launched == BUDGET
        assert result.failed == 1 and result.succeeded == BUDGET - 1
        (bad,) = [r for r in exp.store.records() if not r.ok]
        assert bad.trial_id == 1
        assert bad.error_kind == "permanent"
        assert "FloatingPointError" in bad.error
        assert "FloatingPointError" in bad.traceback  # full traceback captured
        assert bad.attempts == 1  # permanent errors are not retried

    def test_transient_recovery_is_accounted(self):
        plan = FaultPlan([Fault(FaultKind.TRANSIENT, 0, attempts=1)])
        exp = _experiment(
            store=TrialStore(), failure_injector=plan,
            retry_policy=RetryPolicy(max_attempts=3, base_delay_s=0.0),
        )
        result = exp.run(3)
        assert result.failed == 0
        assert result.retried == 1 and result.total_retries == 1
        record = exp.store.records()[0]
        assert record.ok and record.attempts == 2 and record.retried

    def test_hang_is_bounded_by_trial_deadline(self):
        plan = FaultPlan([Fault(FaultKind.HANG, 1, delay_s=30.0)])
        exp = _experiment(
            store=TrialStore(), failure_injector=plan,
            retry_policy=RetryPolicy(max_attempts=2, base_delay_s=0.0, deadline_s=0.05),
        )
        result = exp.run(3)
        assert result.deadline_exceeded == 1
        record = exp.store.records()[1]
        assert not record.ok and record.error_kind == "deadline"
        assert record.duration_s < 5.0  # the 30 s hang did not run its course
        assert result.succeeded == 2

    def test_exhausted_transient_fails_with_kind(self):
        plan = FaultPlan([Fault(FaultKind.TRANSIENT, 0, attempts=10)])
        exp = _experiment(
            store=TrialStore(), failure_injector=plan,
            retry_policy=RetryPolicy(max_attempts=2, base_delay_s=0.0),
        )
        result = exp.run(2)
        record = exp.store.records()[0]
        assert not record.ok and record.error_kind == "transient"
        assert record.attempts == 2
        assert result.retried == 1


class TestDeviceDegradation:
    CONFIG = ModelConfig(
        channels=5, batch=8, kernel_size=3, stride=2, padding=1,
        pool_choice=1, kernel_size_pool=3, stride_pool=2,
        initial_output_feature=16,
    )

    def test_one_broken_predictor_is_skipped(self):
        good = dict(list(DEVICE_PROFILES.items())[:2])
        broken = {**good, "broken-device": None}  # None -> AttributeError inside
        degraded = measure_architecture(self.CONFIG, input_hw=HW, profiles=broken)
        assert degraded.skipped_devices == ("broken-device",)
        assert set(degraded.per_device_ms) == set(good)
        # Survivor aggregation matches a run that never saw the broken one.
        clean = measure_architecture(self.CONFIG, input_hw=HW, profiles=good)
        assert degraded.latency_ms == clean.latency_ms
        assert degraded.lat_std == clean.lat_std

    def test_all_broken_predictors_raise_permanent(self):
        with pytest.raises(PermanentTrialError, match="all device predictors"):
            measure_architecture(
                self.CONFIG, input_hw=HW, profiles={"b1": None, "b2": None}
            )

    def test_experiment_records_skipped_devices(self):
        profiles = {**dict(list(DEVICE_PROFILES.items())[:2]), "broken-device": None}
        exp = _experiment(store=TrialStore(), profiles=profiles)
        result = exp.run(2)
        assert result.failed == 0
        for record in exp.store.records():
            assert record.ok
            assert record.skipped_devices == ("broken-device",)


class TestTelemetryCounters:
    def test_fault_counters_on_registry(self):
        """One transient retry and one injected failure, each counted once
        in the process registry."""
        plan = FaultPlan([
            Fault(FaultKind.TRANSIENT, 0, attempts=1),
            Fault(FaultKind.TRIAL_FAILURE, 2),
        ])
        reg = obs.configure(sinks=[obs.InMemorySink()], reset_metrics=True)
        try:
            exp = _experiment(
                store=TrialStore(), failure_injector=plan,
                retry_policy=RetryPolicy(max_attempts=3, base_delay_s=0.0),
            )
            exp.run(4)
            assert reg.counter_value("repro_trials_retried_total") == 1
            assert reg.counter_value("repro_trial_retries_total") == 1
            assert reg.counter_value("repro_trials_recovered_total") == 1
            assert reg.counter_value("repro_trials_total", status="failed") == 1
            assert reg.counter_value("repro_trials_failed_total", kind="injected") == 1
        finally:
            obs.shutdown(final_snapshot=False)
            reg.reset()
