"""Neural architecture search (NNI-Retiarii substitute, paper Section 3.2).

The paper drives a grid search over a 288-configuration architectural
space for each of six input combinations (2 channel counts x 3 batch
sizes), evaluating each trial with 5-fold cross-validation on an A100.
This subpackage reproduces that machinery:

- :mod:`~repro.nas.config` / :mod:`~repro.nas.searchspace` — the Figure-2
  search space, enumeration and cardinality accounting;
- :mod:`~repro.nas.evaluators` — trial evaluation backends: real NumPy
  training with k-fold CV, and the calibrated analytic surrogate
  (:mod:`~repro.nas.surrogate`) that substitutes for the paper's 38-hour
  GPU budget (see DESIGN.md Section 2);
- :mod:`~repro.nas.strategies` — grid / random / regularized-evolution
  search strategies;
- :mod:`~repro.nas.experiment` — the trial runner: scheduling, failure
  injection, latency/memory measurement, result storage;
- :mod:`~repro.nas.retry` — trial error taxonomy, seeded retry/backoff
  policy and cooperative per-trial deadlines;
- :mod:`~repro.nas.storage` — JSONL-backed trial database with
  crash-safe reload (tail quarantine) and a resume-verified run
  manifest;
- :mod:`~repro.nas.fabric` — the distributed sweep fabric: worker nodes
  claiming leased trials from one queue and committing into the same
  trial store a serial run writes, with chaos-certified resume
  (bitwise-equal to a serial run).

The deterministic chaos harness that exercises this stack lives in
:mod:`repro.faults`.
"""

from repro.nas.config import ModelConfig, CHANNEL_CHOICES, BATCH_CHOICES
from repro.nas.searchspace import SearchSpace, DEFAULT_SPACE, enumerate_input_combinations
from repro.nas.trial import TrialRecord, TrialStatus
from repro.nas.evaluators import AccuracyEvaluator, EvalOutcome, EvalResult, TrainingEvaluator
from repro.nas.surrogate import SurrogateEvaluator, SurrogateCoefficients, fit_surrogate
from repro.nas.strategies import GridSearch, RandomSearch, RegularizedEvolution, SearchStrategy
from repro.nas.moo import NSGAEvolution
from repro.nas.multifidelity import (
    FidelityEvaluator,
    FidelitySurrogate,
    FidelityTrainer,
    HalvingResult,
    successive_halving,
)
from repro.nas.experiment import Experiment, ExperimentResult
from repro.nas.retry import (
    Deadline,
    ErrorKind,
    NodeKilledError,
    PermanentTrialError,
    RetryPolicy,
    TransientTrialError,
    TrialDeadlineExceeded,
    WorkerLostError,
    classify_error,
)
from repro.nas.storage import ResumeMismatchError, RunManifest, StoreCorruptionError, TrialStore
from repro.nas.failures import FailureInjector
from repro.nas.crossval import cross_validate_model, TrainSettings
from repro.nas.fabric import FabricResult, FabricSweep, LeaseTable, WorkerNode

__all__ = [
    "ModelConfig",
    "CHANNEL_CHOICES",
    "BATCH_CHOICES",
    "SearchSpace",
    "DEFAULT_SPACE",
    "enumerate_input_combinations",
    "TrialRecord",
    "TrialStatus",
    "AccuracyEvaluator",
    "TrainingEvaluator",
    "EvalResult",
    "EvalOutcome",
    "SurrogateEvaluator",
    "SurrogateCoefficients",
    "fit_surrogate",
    "GridSearch",
    "RandomSearch",
    "RegularizedEvolution",
    "SearchStrategy",
    "NSGAEvolution",
    "FidelityEvaluator",
    "FidelitySurrogate",
    "FidelityTrainer",
    "HalvingResult",
    "successive_halving",
    "Experiment",
    "ExperimentResult",
    "TrialStore",
    "RunManifest",
    "ResumeMismatchError",
    "StoreCorruptionError",
    "FailureInjector",
    "RetryPolicy",
    "ErrorKind",
    "Deadline",
    "TransientTrialError",
    "WorkerLostError",
    "NodeKilledError",
    "PermanentTrialError",
    "TrialDeadlineExceeded",
    "classify_error",
    "cross_validate_model",
    "TrainSettings",
    "FabricResult",
    "FabricSweep",
    "LeaseTable",
    "WorkerNode",
]
