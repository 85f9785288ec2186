"""K-fold cross-validated training of one configuration.

Implements the paper's evaluation protocol: split the dataset into k
folds; for each fold train a freshly initialized model on the remaining
k-1 folds and measure accuracy on the held-out fold; report all fold
accuracies (their mean is the NNI objective).

Folds are independent by construction — every fold derives its init,
shuffle and augmentation streams from :class:`SeedSequenceFactory` keys,
never from shared mutable RNG state — so :func:`cross_validate_model`
can route them through any :class:`repro.parallel.Executor`.  The
process-pool backend returns **bitwise-identical** fold accuracies to
the serial one (``tests/test_nas_training.py`` enforces this), because
serial and parallel execution run the exact same per-fold closure.

Each fold also trains inside a :func:`repro.tensor.use_workspaces`
context (when ``TrainSettings.workspaces`` is set, the default), which
recycles conv im2col/col2im scratch buffers across steps instead of
reallocating them — the training-side analogue of the deploy arena.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass

import numpy as np

import repro.obs as obs
from repro.data.augment import augment_batch
from repro.data.dataset import DrainageCrossingDataset
from repro.data.sampler import BatchSampler
from repro.data.splits import kfold_indices
from repro.nas.config import ModelConfig
from repro.nn.loss import CrossEntropyLoss
from repro.nn.optim import SGD
from repro.nn.resnet import build_model
from repro.parallel.executor import Executor, make_executor
from repro.tensor.tensor import Tensor, no_grad
from repro.tensor.workspace import WorkspacePool, use_workspaces
from repro.utils.rng import SeedSequenceFactory

__all__ = [
    "TrainSettings",
    "train_one_model",
    "evaluate_accuracy",
    "cross_validate_model",
    "clear_fold_workspaces",
]


@dataclass(frozen=True)
class TrainSettings:
    """Hyperparameters of one training run (paper defaults: 5 epochs, k=5).

    ``recalibrate_bn`` replaces the batch-norm running statistics with
    exact training-set statistics after training (the ``update_bn`` trick).
    At the paper's scale (~1,200 updates/epoch) the EMA converges on its
    own; at this library's CPU-test scale (a handful of updates) stale
    running stats would otherwise wreck eval-mode accuracy.

    The performance-substrate knobs:

    - ``workspaces`` — run each fold inside
      :func:`repro.tensor.use_workspaces`, pooling conv/pool scratch
      buffers across training steps (bitwise-identical results; on by
      default).
    - ``executor`` / ``workers`` — backend for
      :func:`cross_validate_model`'s independent folds: ``"serial"``
      (default) or ``"process"`` with ``workers`` processes.  Fold
      seeding is key-derived, so the parallel backend reproduces the
      serial fold accuracies exactly.
    """

    epochs: int = 5
    k: int = 5
    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 1e-4
    augment: bool = False
    eval_batch: int = 32
    recalibrate_bn: bool = True
    workspaces: bool = True
    executor: str = "serial"
    workers: int | None = None
    #: Fault isolation for the fold map: route folds through
    #: :meth:`repro.parallel.Executor.map_resilient` so one crashed or
    #: poisoned fold degrades the CV estimate (surviving folds are
    #: aggregated, the failure is logged) instead of sinking the trial.
    resilient: bool = False
    #: Minimum surviving folds ``resilient`` mode accepts before the
    #: trial is failed outright (a 1-fold "CV" is not an estimate).
    min_folds: int = 1


def recalibrate_batchnorm(
    model,
    dataset: DrainageCrossingDataset,
    indices: np.ndarray,
    batch_size: int,
) -> None:
    """Recompute BN running statistics from the training data.

    Runs forward passes in training mode with per-batch momentum ``1/i``,
    which makes the running buffers the cumulative average of the batch
    statistics — the exact-calibration scheme of
    ``torch.optim.swa_utils.update_bn``.
    """
    from repro.nn.layers import BatchNorm2d

    bn_layers = [m for m in model.modules() if isinstance(m, BatchNorm2d)]
    if not bn_layers:
        return
    for bn in bn_layers:
        bn.running_mean[:] = 0.0
        bn.running_var[:] = 0.0
    model.train()
    with no_grad():
        for i, start in enumerate(range(0, indices.size, batch_size), start=1):
            chunk = indices[start : start + batch_size]
            if chunk.size < 2:  # variance of a single sample is degenerate
                continue
            for bn in bn_layers:
                bn.momentum = 1.0 / i
            x, _ = dataset.batch(chunk)
            model(Tensor(x))
    for bn in bn_layers:
        bn.momentum = 0.1


def train_one_model(
    model,
    dataset: DrainageCrossingDataset,
    train_indices: np.ndarray,
    batch_size: int,
    settings: TrainSettings,
    rng_seed: int,
) -> float:
    """Train ``model`` in place; returns the final epoch's mean loss."""
    seeds = SeedSequenceFactory(rng_seed)
    sampler = BatchSampler(
        dataset, batch_size=batch_size, indices=train_indices, shuffle=True, rng=seeds.rng("shuffle")
    )
    loss_fn = CrossEntropyLoss()
    optimizer = SGD(model.parameters(), lr=settings.lr, momentum=settings.momentum,
                    weight_decay=settings.weight_decay)
    augment_rng = seeds.rng("augment")
    model.train()
    last_epoch_loss = 0.0
    for _epoch in range(settings.epochs):
        losses = []
        for x, y in sampler:
            if settings.augment:
                x = augment_batch(x, rng=augment_rng)
            optimizer.zero_grad()
            loss = loss_fn(model(Tensor(x)), y)
            loss.backward()
            optimizer.step()
            losses.append(loss.item())
        last_epoch_loss = float(np.mean(losses)) if losses else 0.0
    if settings.recalibrate_bn:
        recalibrate_batchnorm(model, dataset, train_indices, batch_size)
    return last_epoch_loss


def evaluate_accuracy(model, dataset: DrainageCrossingDataset, indices: np.ndarray, batch: int = 32) -> float:
    """Accuracy (percent) of ``model`` on the given samples."""
    model.eval()
    correct = 0
    with no_grad():
        for start in range(0, indices.size, batch):
            chunk = indices[start : start + batch]
            x, y = dataset.batch(chunk)
            logits = model(Tensor(x))
            correct += int((logits.data.argmax(axis=1) == y).sum())
    return 100.0 * correct / indices.size


@dataclass(frozen=True)
class _FoldTask:
    """One self-contained fold: everything a pool worker needs, pickled.

    ``obs_ctx`` is the parent's span context
    (:func:`repro.obs.propagated_context`): the worker adopts it so its
    fold span stitches into the trial span across the process boundary.
    """

    config: ModelConfig
    dataset: DrainageCrossingDataset
    settings: TrainSettings
    train_idx: np.ndarray
    val_idx: np.ndarray
    init_seed: int
    train_seed: int
    fold: int = 0
    obs_ctx: "obs.SpanContext | None" = None


#: Process-local workspace pool shared by every fold this process runs.
#: Folds of one sweep repeat the same conv geometries, so reusing the
#: pool across folds (and trials) turns each fold's initial allocation
#: burst — hundreds of MB of first-touch page faults — into hits.
#: Shape-keyed reuse is bitwise-safe; see :mod:`repro.tensor.workspace`.
_FOLD_POOL: "WorkspacePool | None" = None


def _fold_workspace_pool() -> "WorkspacePool":
    global _FOLD_POOL
    if _FOLD_POOL is None:
        _FOLD_POOL = WorkspacePool()
        # Snapshot-time gauges (hits/misses/pooled bytes) for the obs
        # layer; the acquire/release hot path is untouched.
        _FOLD_POOL.publish_metrics(pool_name="fold")
    return _FOLD_POOL


def clear_fold_workspaces() -> None:
    """Drop the process-local fold pool (frees its pooled scratch)."""
    global _FOLD_POOL
    if _FOLD_POOL is not None:
        _FOLD_POOL.clear()
        _FOLD_POOL = None


#: Fold wall-time histogram (no-op until ``repro.obs.configure``).
_FOLD_SECONDS = obs.histogram("repro_train_fold_seconds")


def _run_fold(task: _FoldTask) -> float:
    """Train and score one fold (top-level so process pools can pickle it).

    When the task carries a propagated span context, the fold runs under
    an adopted ``fold`` span — in a pool worker this re-opens the
    parent's JSONL sink, parents the span to the parent process's trial
    span, and ships the worker's cumulative metrics snapshot home on
    exit.
    """
    context = (
        use_workspaces(_fold_workspace_pool())
        if task.settings.workspaces
        else contextlib.nullcontext()
    )
    with obs.adopt_context(task.obs_ctx):
        with obs.span("fold", fold=task.fold, k=task.settings.k,
                      epochs=task.settings.epochs):
            started = time.perf_counter()
            with context:
                model = build_model(task.config, seed=task.init_seed)
                train_one_model(
                    model,
                    task.dataset,
                    task.train_idx,
                    batch_size=task.config.batch,
                    settings=task.settings,
                    rng_seed=task.train_seed,
                )
                accuracy = evaluate_accuracy(
                    model, task.dataset, task.val_idx, batch=task.settings.eval_batch
                )
            _FOLD_SECONDS.observe(time.perf_counter() - started)
            return accuracy


def cross_validate_model(
    config: ModelConfig,
    dataset: DrainageCrossingDataset,
    settings: TrainSettings,
    seed: int = 0,
    executor: Executor | None = None,
) -> list[float]:
    """The paper's k-fold CV: k independent train/validate runs.

    Parameters
    ----------
    executor:
        Backend for the independent folds.  ``None`` builds one from
        ``settings.executor`` / ``settings.workers`` (and closes it
        afterwards); pass a live :class:`~repro.parallel.Executor` to
        amortize process-pool startup across many trials.  Fold seeds
        are derived per key before dispatch, so every backend returns
        the same accuracies bit for bit.

    Returns the k fold accuracies in percent.  With
    ``settings.resilient`` the map is fault-isolated: folds that raise
    (or whose pool worker dies) are skipped with a warning and the
    surviving accuracies are returned, unless fewer than
    ``settings.min_folds`` survive — then a
    :class:`~repro.nas.retry.PermanentTrialError` reports every fold
    failure.
    """
    if dataset.channels != config.channels:
        raise ValueError(
            f"dataset has {dataset.channels} channels but config expects {config.channels}"
        )
    seeds = SeedSequenceFactory(seed)
    folds = kfold_indices(len(dataset), k=settings.k, seed=seeds.seed_for("folds") % (2**31))
    obs_ctx = obs.propagated_context()  # stitch worker fold spans to the trial span
    tasks = [
        _FoldTask(
            config=config,
            dataset=dataset,
            settings=settings,
            train_idx=train_idx,
            val_idx=val_idx,
            init_seed=seeds.seed_for("init", fold_idx) % (2**31),
            train_seed=seeds.seed_for("train", fold_idx),
            fold=fold_idx,
            obs_ctx=obs_ctx,
        )
        for fold_idx, (train_idx, val_idx) in enumerate(folds)
    ]
    if executor is not None:
        return _map_folds(executor, tasks, settings)
    with make_executor(settings.executor, workers=settings.workers) as owned:
        return _map_folds(owned, tasks, settings)


def _map_folds(executor: Executor, tasks: list[_FoldTask], settings: TrainSettings) -> list[float]:
    """Dispatch the fold tasks, honoring ``settings.resilient``."""
    if not settings.resilient:
        return list(executor.map(_run_fold, tasks))
    from repro.nas.retry import PermanentTrialError
    from repro.utils.logging import get_logger

    results = executor.map_resilient(_run_fold, tasks)
    survivors = [r.value for r in results if r.ok]
    failed = [r for r in results if not r.ok]
    if failed:
        log = get_logger("nas.crossval")
        for r in failed:
            log.warning("fold %d failed (%s): %s — aggregating surviving folds",
                        r.index, r.error_type, r.error)
    if len(survivors) < max(settings.min_folds, 1):
        details = "; ".join(f"fold {r.index}: {r.error_type}: {r.error}" for r in failed)
        raise PermanentTrialError(
            f"only {len(survivors)}/{len(tasks)} folds survived "
            f"(min_folds={settings.min_folds}): {details}"
        )
    return survivors
