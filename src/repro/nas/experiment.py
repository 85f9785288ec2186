"""The NAS experiment runner (NNI's experiment loop).

For every proposed configuration the runner measures all three paper
objectives:

1. **accuracy** via the configured :class:`~repro.nas.evaluators.AccuracyEvaluator`;
2. **latency** via the four device predictors of :mod:`repro.latency`
   (mean and std across predictors, as the paper aggregates);
3. **memory** via the onnxlite serialized size.

Latency and memory depend only on the architecture, so the expensive part
is computed once per unique ``architecture_key``; a small per-*trial*
multiplicative jitter is then applied to the latency, reproducing the
measurement noise visible in the paper's own Table 4, where the same
architecture appears with 8.23 ms and 8.13 ms in different trials.
Failure injection (paper mode: 11 of 1,728) marks trials failed before
evaluation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable

import numpy as np

import repro.obs as obs
from repro.graph.flops import count_graph_flops
from repro.graph.trace import trace_model
from repro.latency.devices import DEVICE_PROFILES, DeviceProfile, kernel_latency_ms
from repro.latency.kernels import extract_kernels
from repro.nas.config import ModelConfig
from repro.nas.evaluators import AccuracyEvaluator
from repro.nas.failures import FailureInjector
from repro.nas.retry import ErrorKind, PermanentTrialError, RetryPolicy, run_with_retry
from repro.nas.storage import RunManifest, TrialStore
from repro.nas.strategies import SearchStrategy
from repro.nas.trial import TrialRecord, TrialStatus
from repro.nn.init import skip_init
from repro.nn.resnet import build_model
from repro.onnxlite.export import build_model_proto, serialized_size
from repro.onnxlite.export import export_model  # noqa: F401 - bench/tracer.py wraps this name
from repro.utils.logging import get_logger
from repro.utils.rng import stable_hash

__all__ = ["Experiment", "ExperimentResult", "ArchitectureMetrics", "measure_architecture"]

_LOG = get_logger("nas.experiment")


@dataclass(frozen=True)
class ArchitectureMetrics:
    """Architecture-dependent (accuracy-independent) measurements.

    ``skipped_devices`` names device predictors that raised during
    measurement and were excluded from the latency aggregation
    (graceful degradation: one broken predictor must not lose a trial).
    """

    per_device_ms: dict[str, float]
    latency_ms: float
    lat_std: float
    memory_mb: float
    param_count: int
    flops: int
    skipped_devices: tuple[str, ...] = ()


def measure_architecture(
    config: ModelConfig,
    input_hw: tuple[int, int] = (100, 100),
    profiles: dict[str, DeviceProfile] | None = None,
) -> ArchitectureMetrics:
    """Latency (4 devices), memory, params and FLOPs for one architecture.

    All four depend only on the architecture's shapes, so the model is
    built under :func:`~repro.nn.init.skip_init` (no weights drawn),
    traced once, and the memory objective is the onnxlite container's
    :func:`~repro.onnxlite.export.serialized_size` (nothing serialized).

    Device predictors degrade gracefully: a predictor that raises is
    skipped (recorded in ``skipped_devices``, warning logged) and the
    latency mean/std aggregate over the survivors — matching
    :func:`~repro.latency.predictors.predict_all_devices` bit for bit
    when nothing fails.  Only when *every* predictor fails does the
    measurement raise (:class:`~repro.nas.retry.PermanentTrialError`).
    """
    with skip_init():
        model = build_model(config, seed=0)
    graph = trace_model(model, input_hw=input_hw)
    profiles = DEVICE_PROFILES if profiles is None else profiles
    kernels = extract_kernels(graph)
    per_device: dict[str, float] = {}
    skipped: list[str] = []
    errors: list[str] = []
    for name, profile in profiles.items():
        try:
            per_device[name] = float(sum(kernel_latency_ms(k, profile) for k in kernels))
        except (KeyboardInterrupt, SystemExit, MemoryError):
            raise
        except Exception as exc:  # noqa: BLE001 - one device must not lose the trial
            skipped.append(name)
            errors.append(f"{name}: {type(exc).__name__}: {exc}")
            _LOG.warning("device predictor %r failed (%s: %s); aggregating without it",
                         name, type(exc).__name__, exc)
    if not per_device:
        raise PermanentTrialError(
            "all device predictors failed for this architecture: " + "; ".join(errors)
        )
    memory_mb = serialized_size(build_model_proto(model, graph)) / 1e6
    values = list(per_device.values())
    return ArchitectureMetrics(
        per_device_ms=per_device,
        latency_ms=float(np.mean(values)),
        lat_std=float(np.std(values)),
        memory_mb=memory_mb,
        param_count=sum(p.size for p in model.parameters()),
        flops=count_graph_flops(graph),
        skipped_devices=tuple(skipped),
    )


@dataclass
class ExperimentResult:
    """Outcome of an experiment run."""

    store: TrialStore
    launched: int
    succeeded: int
    failed: int
    duration_s: float
    skipped: int = 0  # resumed trials served from the store
    retried: int = 0  # trials that needed more than one attempt
    total_retries: int = 0  # extra attempts summed over all trials
    deadline_exceeded: int = 0  # trials failed by their wall-clock budget

    @property
    def valid_outcomes(self) -> int:
        """Successful trial count (the paper's '1,717 valid outcomes')."""
        return self.succeeded


class Experiment:
    """Runs a search strategy against an accuracy evaluator.

    Parameters
    ----------
    evaluator:
        Accuracy backend (training or surrogate).
    strategy:
        Configuration proposer (grid for the paper's protocol).
    store:
        Trial database; a fresh in-memory store by default.
    failure_injector:
        Deterministic trial-failure model; default injects none.
    input_hw:
        Input patch size used for latency/memory measurement.
    profiles:
        Device profiles (defaults to the calibrated four).
    latency_jitter:
        Relative std of the per-trial latency measurement noise (the
        paper's Table-4 twin rows differ by ~1.2% for one architecture);
        0 disables it.
    jitter_seed:
        Seed of the jitter stream.
    skip_existing:
        Skip configurations already present in ``store`` (resume support:
        load a JSONL store from an interrupted sweep and re-run with the
        same strategy; completed trials are not re-evaluated).  When the
        store is file-backed, resume first verifies the store's run
        manifest (strategy, seeds, search-space hash) and refuses to mix
        records from a different sweep
        (:class:`~repro.nas.storage.ResumeMismatchError`).
    retry_policy:
        Transient-failure retry/deadline policy
        (:class:`~repro.nas.retry.RetryPolicy`); the default retries
        transients up to 3 attempts with seeded backoff and no deadline.
        Unexpected exceptions no longer abort the sweep: they are
        classified by :func:`~repro.nas.retry.classify_error` and
        captured (with traceback) into the trial record — only fatal
        errors (Ctrl-C, ``MemoryError``) propagate.
    progress:
        Optional progress consumer.  Accepts either a
        :class:`~repro.obs.ProgressListener` (full ``on_trial_start`` /
        ``on_trial_end`` / ``on_run_end`` hooks) or a legacy callable
        ``(done, total, record)``; anything accepted by
        :func:`repro.obs.as_listener` works.  An
        :class:`~repro.obs.ObsProgressListener` is always installed
        alongside it, so trial counters flow into the metrics registry
        whenever observability is enabled (and cost nothing otherwise).
    """

    def __init__(
        self,
        evaluator: AccuracyEvaluator,
        strategy: SearchStrategy,
        store: TrialStore | None = None,
        failure_injector: FailureInjector | None = None,
        input_hw: tuple[int, int] = (100, 100),
        profiles: dict[str, DeviceProfile] | None = None,
        latency_jitter: float = 0.006,
        jitter_seed: int = 0,
        skip_existing: bool = False,
        retry_policy: RetryPolicy | None = None,
        progress: "Callable[[int, int, TrialRecord], None] | obs.ProgressListener | None" = None,
    ) -> None:
        if latency_jitter < 0:
            raise ValueError(f"latency_jitter must be non-negative, got {latency_jitter}")
        self.evaluator = evaluator
        self.strategy = strategy
        self.store = store if store is not None else TrialStore()
        self.failure_injector = failure_injector or FailureInjector.none()
        self.input_hw = input_hw
        self.profiles = DEVICE_PROFILES if profiles is None else profiles
        self.latency_jitter = latency_jitter
        self.jitter_seed = jitter_seed
        self.skip_existing = skip_existing
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.progress = progress
        self._arch_cache: dict[tuple[int, ...], ArchitectureMetrics] = {}

    def _jittered(self, metrics: ArchitectureMetrics, config: ModelConfig) -> ArchitectureMetrics:
        """Apply per-trial measurement noise to the latency figures."""
        if self.latency_jitter == 0:
            return metrics
        rng = np.random.default_rng(stable_hash(self.jitter_seed, "lat-jitter", config.to_dict()))
        scale = float(np.clip(1.0 + rng.normal(0.0, self.latency_jitter), 0.97, 1.03))
        return replace(
            metrics,
            per_device_ms={k: v * scale for k, v in metrics.per_device_ms.items()},
            latency_ms=metrics.latency_ms * scale,
            lat_std=metrics.lat_std * scale,
        )

    def _metrics_for(self, config: ModelConfig) -> ArchitectureMetrics:
        key = config.architecture_key()
        if key not in self._arch_cache:
            self._arch_cache[key] = measure_architecture(
                config, input_hw=self.input_hw, profiles=self.profiles
            )
        return self._arch_cache[key]

    def run_trial(self, trial_id: int, config: ModelConfig) -> TrialRecord:
        """Evaluate one configuration into a :class:`TrialRecord`.

        Never raises for trial-level problems: transient errors are
        retried under :attr:`retry_policy` (deterministic seeded
        backoff, optional per-trial wall-clock deadline), permanent and
        unexpected errors are captured — type, message, traceback,
        attempt count — into a failed record.  Only fatal errors
        (Ctrl-C, ``MemoryError``) propagate and stop the sweep.
        """
        with obs.span("trial", trial_id=trial_id, config=config.config_id()):
            return self._run_trial_inner(trial_id, config)

    def _run_trial_inner(self, trial_id: int, config: ModelConfig) -> TrialRecord:
        started = time.perf_counter()
        if self.failure_injector.fails(trial_id):
            return TrialRecord(
                trial_id=trial_id,
                config=config,
                status=TrialStatus.FAILED,
                error="injected trial failure (paper reports 1,717/1,728 valid outcomes)",
                error_kind="injected",
                duration_s=time.perf_counter() - started,
            )
        on_attempt = getattr(self.failure_injector, "on_attempt", None)

        def _attempt(attempt: int) -> tuple[ArchitectureMetrics, object]:
            if on_attempt is not None:  # chaos harness hook (repro.faults)
                on_attempt(trial_id, attempt)
            metrics = self._jittered(self._metrics_for(config), config)
            result = self.evaluator.evaluate(config)
            return metrics, result

        outcome = run_with_retry(
            _attempt, self.retry_policy, key=("trial", trial_id), logger=_LOG
        )
        if not outcome.ok:
            status = TrialStatus.FAILED
            return TrialRecord(
                trial_id=trial_id,
                config=config,
                status=status,
                error=outcome.error,
                error_kind=outcome.error_kind,
                traceback="" if outcome.error_kind == ErrorKind.DEADLINE.value
                else outcome.traceback,
                attempts=outcome.attempts,
                duration_s=time.perf_counter() - started,
            )
        metrics, result = outcome.value
        return TrialRecord(
            trial_id=trial_id,
            config=config,
            status=TrialStatus.OK,
            accuracy=result.accuracy,
            fold_accuracies=result.fold_accuracies,
            latency_ms=metrics.latency_ms,
            lat_std=metrics.lat_std,
            per_device_ms=metrics.per_device_ms,
            memory_mb=metrics.memory_mb,
            param_count=metrics.param_count,
            flops=metrics.flops,
            duration_s=time.perf_counter() - started,
            attempts=outcome.attempts,
            skipped_devices=metrics.skipped_devices,
        )

    def propose_trials(self, budget: int) -> list[tuple[int, "ModelConfig"]]:
        """The ``(trial_id, config)`` work list for a ``budget``-trial sweep.

        Factored out of :meth:`run` so distributed drivers
        (:mod:`repro.nas.fabric`) can enumerate the exact same trials
        the serial loop would execute — trial ids are the proposal
        order, which is deterministic for a given strategy.
        """
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        return list(enumerate(self.strategy.propose(budget)))

    def with_evaluator(self, evaluator: AccuracyEvaluator) -> "Experiment":
        """A sibling experiment differing only in its accuracy evaluator.

        Used by fabric worker nodes to wrap the shared evaluator (e.g.
        routing it through the node's process pool) while keeping every
        other knob — jitter, profiles, retry policy — identical, so the
        produced records stay bitwise-equal to the serial runner's.  The
        architecture-metrics cache is *shared* with the parent: latency
        and memory are accuracy-independent, so all nodes may reuse one
        measurement per unique architecture.
        """
        sibling = Experiment(
            evaluator=evaluator,
            strategy=self.strategy,
            store=TrialStore(),
            failure_injector=self.failure_injector,
            input_hw=self.input_hw,
            profiles=self.profiles,
            latency_jitter=self.latency_jitter,
            jitter_seed=self.jitter_seed,
            skip_existing=False,
            retry_policy=self.retry_policy,
        )
        sibling._arch_cache = self._arch_cache
        return sibling

    def run_manifest(self) -> RunManifest:
        """The identity manifest of this experiment's sweep.

        Captures everything that must match for a resumed run to
        reproduce the skipped trials: strategy class, search-space hash
        (when the strategy exposes ``.space``), evaluator class and
        seed, jitter settings, injector schedule and input size.
        """
        space = getattr(self.strategy, "space", None)
        seeds = {"jitter_seed": int(self.jitter_seed)}
        evaluator_seed = getattr(self.evaluator, "seed", None)
        if isinstance(evaluator_seed, (int, np.integer)):
            seeds["evaluator_seed"] = int(evaluator_seed)
        injector = self.failure_injector
        injector_desc = getattr(injector, "describe", None)
        if callable(injector_desc):
            injector_text = str(injector_desc())
        else:
            injector_text = (
                f"{type(injector).__name__}(total={getattr(injector, 'total', '?')}, "
                f"failed={sorted(getattr(injector, 'failed_indices', ()))})"
            )
        return RunManifest(
            strategy=type(self.strategy).__name__,
            space_hash=stable_hash("search-space", repr(space)) if space is not None else 0,
            seeds=seeds,
            input_hw=tuple(self.input_hw),
            latency_jitter=self.latency_jitter,
            injector=injector_text,
            evaluator=type(self.evaluator).__name__,
        )

    def run(self, budget: int) -> ExperimentResult:
        """Propose-and-evaluate up to ``budget`` trials."""
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        with obs.span("experiment.run", budget=budget,
                      strategy=type(self.strategy).__name__):
            return self._run_inner(budget)

    def _run_inner(self, budget: int) -> ExperimentResult:
        # Normalized at run time (not __init__) so callers may still
        # assign ``experiment.progress`` directly between runs.
        listener = obs.ProgressFanout(
            [obs.as_listener(self.progress), obs.ObsProgressListener()]
        )
        if self.store.path is not None:
            # Resume gate: refuse to skip trials recorded under different
            # sweep settings; first runs write the manifest for later
            # resumes.  (Verification is strict only when resuming.)
            manifest = self.run_manifest()
            if self.skip_existing:
                self.store.verify_or_write_manifest(manifest)
            elif self.store.read_manifest() is None:
                self.store.write_manifest(manifest)
        started = time.perf_counter()
        launched = succeeded = failed = 0
        skipped = retried = total_retries = deadline_exceeded = 0
        proposals: Iterable[ModelConfig] = self.strategy.propose(budget)
        for trial_id, config in enumerate(proposals):
            if self.skip_existing:
                existing = self.store.find(config)
                if existing is not None:
                    skipped += 1
                    if existing.ok:
                        self.strategy.observe_record(config, existing)
                    continue
            listener.on_trial_start(trial_id, config)
            record = self.run_trial(trial_id, config)
            self.store.add(record)
            launched += 1
            if record.attempts > 1:
                retried += 1
                total_retries += record.attempts - 1
            if record.error_kind == ErrorKind.DEADLINE.value:
                deadline_exceeded += 1
            if record.ok:
                succeeded += 1
                self.strategy.observe_record(config, record)
            else:
                failed += 1
                _LOG.debug("trial %d failed (%s after %d attempts): %s",
                           trial_id, record.error_kind or "failed", record.attempts,
                           record.error)
            listener.on_trial_end(launched, budget, record)
        result = ExperimentResult(
            store=self.store,
            launched=launched,
            succeeded=succeeded,
            failed=failed,
            duration_s=time.perf_counter() - started,
            skipped=skipped,
            retried=retried,
            total_retries=total_retries,
            deadline_exceeded=deadline_exceeded,
        )
        listener.on_run_end(result)
        return result
