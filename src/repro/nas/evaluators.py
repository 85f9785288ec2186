"""Trial accuracy evaluators.

Two backends share one interface:

- :class:`TrainingEvaluator` — the honest path: builds the configured
  model, trains it with SGD on the synthetic drainage dataset, and scores
  it with k-fold cross-validation (the paper's exact protocol, Section
  3.2).  Used by tests, examples, and the profiled mini-sweep bench.
- :class:`~repro.nas.surrogate.SurrogateEvaluator` — the calibrated
  analytic substitute used for the full 1,717-trial sweeps.

Batched evaluation is one entry point: ``evaluate(configs,
resilient=...)`` accepts either a single
:class:`~repro.nas.config.ModelConfig` (returning a bare
:class:`EvalResult`, the contract the Experiment runner uses) or a
sequence of them (returning a list of :class:`EvalOutcome` envelopes —
result-or-failure plus duration and the worker's span id).  A batch
runs each trial once; trial retries belong to
:func:`repro.nas.retry.run_with_retry`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Sequence

import repro.obs as obs
from repro.data.dataset import DrainageCrossingDataset
from repro.nas.config import ModelConfig
from repro.nas.crossval import TrainSettings, cross_validate_model
from repro.parallel.executor import Executor, MapItemResult, make_executor
from repro.utils.rng import stable_hash

__all__ = ["EvalResult", "EvalOutcome", "AccuracyEvaluator", "TrainingEvaluator"]


@dataclass(frozen=True)
class EvalResult:
    """Outcome of an accuracy evaluation: CV mean + per-fold values."""

    accuracy: float
    fold_accuracies: tuple[float, ...]


@dataclass(frozen=True)
class EvalOutcome:
    """Envelope around one batched evaluation: result *or* failure.

    Returned (one per input, in input order) by
    ``TrainingEvaluator.evaluate(configs, ...)`` when ``configs`` is a
    sequence.  ``result`` is ``None`` exactly when ``ok`` is false;
    ``error`` then carries ``"ErrorType: message"``.  ``duration_s``
    is the worker-side wall time of the evaluation, and ``span_id`` is
    the id of the worker's ``"evaluate"`` span (empty while
    observability is disabled) so a trace viewer can be joined back to
    the outcome.
    """

    config: ModelConfig
    ok: bool
    result: EvalResult | None = None
    error: str = ""
    duration_s: float = 0.0
    span_id: str = ""

    def unwrap(self) -> EvalResult:
        """The result, or raise ``RuntimeError`` if the trial failed."""
        if not self.ok or self.result is None:
            raise RuntimeError(f"evaluation failed for {self.config}: {self.error}")
        return self.result


class AccuracyEvaluator:
    """Interface every accuracy backend implements."""

    def evaluate(self, config: ModelConfig) -> EvalResult:
        """Score one configuration; returns percent accuracy."""
        raise NotImplementedError


class TrainingEvaluator(AccuracyEvaluator):
    """Real k-fold cross-validated training on the synthetic dataset.

    Parameters
    ----------
    samples_per_class:
        Per-region, per-class dataset size (small values keep CPU training
        tractable; the paper's full counts need ``None``).
    patch_size:
        Patch edge length (paper: 100; tests use 24-32).
    epochs:
        Training epochs per fold (the paper used 5).
    k:
        Cross-validation folds (the paper used 5).
    lr, momentum, weight_decay:
        SGD hyperparameters.
    regions:
        Region subset; ``None`` means all four.
    seed:
        Root seed for data, splits, init and shuffling.
    augment:
        Apply dihedral augmentation to training batches.
    workspaces:
        Pool conv/pool scratch buffers across training steps
        (:func:`repro.tensor.use_workspaces`); bitwise-identical
        results, substantially less allocation traffic.  Default on.
    executor, workers:
        Backend for the k independent folds (``"serial"`` or
        ``"process"``).  The process pool is created lazily, reused
        across :meth:`evaluate` calls and released by :meth:`close`;
        fold accuracies are bitwise-equal to the serial backend.
    """

    def __init__(
        self,
        samples_per_class: int = 8,
        patch_size: int = 32,
        epochs: int = 2,
        k: int = 5,
        lr: float = 0.01,
        momentum: float = 0.9,
        weight_decay: float = 1e-4,
        regions: list[str] | None = None,
        seed: int = 0,
        augment: bool = False,
        workspaces: bool = True,
        executor: str = "serial",
        workers: int | None = None,
    ) -> None:
        self.samples_per_class = samples_per_class
        self.patch_size = patch_size
        self.settings = TrainSettings(
            epochs=epochs, k=k, lr=lr, momentum=momentum, weight_decay=weight_decay,
            augment=augment, workspaces=workspaces, executor=executor, workers=workers,
        )
        self.regions = regions
        self.seed = seed
        self._datasets: dict[int, DrainageCrossingDataset] = {}
        self._executor: Executor | None = None

    def _fold_executor(self) -> Executor:
        """The lazily created, reused fold executor."""
        if self._executor is None:
            self._executor = make_executor(self.settings.executor, workers=self.settings.workers)
        return self._executor

    def close(self) -> None:
        """Release the fold executor (worker processes, if any)."""
        if self._executor is not None:
            self._executor.close()
            self._executor = None

    def __enter__(self) -> "TrainingEvaluator":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __getstate__(self) -> dict:
        # Live process pools are not picklable; workers rebuild lazily
        # (and `_evaluate_trial` forces serial folds anyway).
        state = self.__dict__.copy()
        state["_executor"] = None
        return state

    def _dataset(self, channels: int) -> DrainageCrossingDataset:
        if channels not in self._datasets:
            self._datasets[channels] = DrainageCrossingDataset(
                channels=channels,
                size=self.patch_size,
                samples_per_class=self.samples_per_class,
                regions=self.regions,
                seed=self.seed,
            )
        return self._datasets[channels]

    def evaluate(
        self,
        configs: "ModelConfig | Sequence[ModelConfig]",
        *,
        resilient: bool = False,
    ) -> "EvalResult | list[EvalOutcome]":
        """Train/evaluate one configuration or a batch of them.

        Single :class:`~repro.nas.config.ModelConfig`
            Runs k-fold CV through the evaluator's (reused) fold
            executor and returns a bare :class:`EvalResult` — the
            contract the Experiment runner relies on.
            ``resilient=True`` is rejected here: resilience is a
            property of batched maps.

        Sequence of configurations
            Parallelizes across *trials* (one task per configuration;
            folds run serially inside each worker so pools never nest)
            and returns one :class:`EvalOutcome` per input, in order.
            With ``resilient=False`` any trial error propagates (every
            outcome has ``ok=True``); with ``resilient=True`` a trial
            that raises — or whose pool worker dies — yields a failed
            outcome while the others still carry their results, with
            killed pools respawned and in-flight trials requeued
            (:meth:`repro.parallel.Executor.map_resilient`).

        Per-trial seeds are content-derived (``stable_hash(seed,
        "trial", config)``), so batched results are bitwise-identical
        to ``[self.evaluate(c) for c in configs]`` on every backend.
        When observability is enabled, each trial runs under an
        ``"evaluate"`` span stitched to the caller's active span even
        across process boundaries.
        """
        if isinstance(configs, ModelConfig):
            if resilient:
                raise TypeError(
                    "resilient=True applies to batched evaluation; "
                    "pass a sequence of configs (e.g. [config])"
                )
            return self._evaluate_single(configs)
        config_list = list(configs)
        items = self._map_trials(config_list, resilient=resilient)
        return [_outcome_from_item(item, config_list[item.index]) for item in items]

    def _evaluate_single(self, config: ModelConfig) -> EvalResult:
        dataset = self._dataset(config.channels)
        fold_accs = cross_validate_model(
            config,
            dataset,
            settings=self.settings,
            seed=stable_hash(self.seed, "trial", config.to_dict(), bits=32),
            executor=self._fold_executor(),
        )
        mean = float(sum(fold_accs) / len(fold_accs))
        return EvalResult(accuracy=mean, fold_accuracies=tuple(fold_accs))

    def _map_trials(
        self, configs: list[ModelConfig], resilient: bool
    ) -> list["MapItemResult"]:
        """Run the batch through a fresh trial executor; returns raw items."""
        ctx = obs.propagated_context()
        tasks = [(self, config, ctx) for config in configs]
        with make_executor(self.settings.executor, workers=self.settings.workers) as executor:
            if resilient:
                return executor.map_resilient(_evaluate_trial, tasks)
            return [
                MapItemResult(index=i, ok=True, value=value)
                for i, value in enumerate(executor.map(_evaluate_trial, tasks))
            ]


def _outcome_from_item(item: "MapItemResult", config: ModelConfig) -> EvalOutcome:
    """Fold a resilient-map item and its worker envelope into one outcome."""
    if item.ok:
        return item.value
    return EvalOutcome(
        config=config,
        ok=False,
        result=None,
        error=f"{item.error_type}: {item.error}" if item.error_type else item.error,
    )


def _evaluate_trial(
    task: "tuple[TrainingEvaluator, ModelConfig, obs.SpanContext | None]",
) -> EvalOutcome:
    """One trial of a batched :meth:`TrainingEvaluator.evaluate` (picklable).

    Adopts the caller's propagated span context so the worker's
    ``"evaluate"`` (and nested ``"fold"``) spans stitch into the parent
    trace even when this runs in a pool worker process.
    """
    evaluator, config, ctx = task
    with obs.adopt_context(ctx):
        started = time.perf_counter()
        with obs.span("evaluate", config=config.config_id()) as sp:
            dataset = evaluator._dataset(config.channels)
            fold_accs = cross_validate_model(
                config,
                dataset,
                settings=replace(evaluator.settings, executor="serial"),
                seed=stable_hash(evaluator.seed, "trial", config.to_dict(), bits=32),
            )
        mean = float(sum(fold_accs) / len(fold_accs))
        return EvalOutcome(
            config=config,
            ok=True,
            result=EvalResult(accuracy=mean, fold_accuracies=tuple(fold_accs)),
            duration_s=time.perf_counter() - started,
            span_id=getattr(sp, "span_id", "") or "",
        )
