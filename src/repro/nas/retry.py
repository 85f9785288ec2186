"""Trial error taxonomy, per-trial deadlines and the seeded retry policy.

Long device-aware NAS sweeps (the paper loses 11 of 1,728 launched trials
to run-time failures; DPP-Net-scale searches run thousands) must treat a
trial failure as data, not as a reason to abort the run.  This module is
the policy layer the :class:`~repro.nas.experiment.Experiment` runner uses
to decide *what kind* of failure it just saw and *what to do about it*:

- :class:`ErrorKind` — the taxonomy.  **Transient** errors (flaky IO,
  broken worker pools, injected chaos) are retried with deterministic
  seeded backoff; **permanent** errors (bad configuration, numerical
  blow-ups) fail the trial immediately but keep the sweep alive;
  **fatal** errors (``KeyboardInterrupt``, ``MemoryError``) propagate and
  stop the sweep — retrying them would be dishonest.  **Deadline** marks
  trials that exceeded their wall-clock budget.
- :class:`RetryPolicy` — attempt counts, seeded exponential backoff
  (same seed + trial key -> identical delay schedule in any process) and
  the per-trial deadline.
- :class:`Deadline` — a cooperative wall-clock budget.  Instrumented
  code (the fault harness's hang injection, long-running loops) calls
  :func:`current_deadline` and raises :class:`TrialDeadlineExceeded`
  when the budget is spent; plain Python cannot preempt a compute-bound
  trial, so enforcement is cooperative by design (documented in
  DEVELOPMENT.md "Fault tolerance").
- :func:`run_with_retry` — the attempt loop itself, returning a
  :class:`RetryOutcome` that records every attempt's error so the trial
  record can carry the full story.
"""

from __future__ import annotations

import enum
import threading
import time
import traceback as _traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

import repro.obs as obs
from repro.utils.rng import stable_hash

__all__ = [
    "ErrorKind",
    "TransientTrialError",
    "WorkerLostError",
    "NodeKilledError",
    "PermanentTrialError",
    "TrialDeadlineExceeded",
    "FATAL_ERRORS",
    "TRANSIENT_ERRORS",
    "classify_error",
    "Deadline",
    "current_deadline",
    "deadline_scope",
    "RetryPolicy",
    "RetryOutcome",
    "run_with_retry",
]


class ErrorKind(str, enum.Enum):
    """What a trial failure means for the sweep."""

    TRANSIENT = "transient"  # retry with backoff; environment flake
    PERMANENT = "permanent"  # fail the trial, keep the sweep
    FATAL = "fatal"  # propagate; the sweep itself must stop
    DEADLINE = "deadline"  # per-trial wall-clock budget exceeded


class TransientTrialError(RuntimeError):
    """Base class for errors worth retrying (environment flakes, chaos)."""


class WorkerLostError(TransientTrialError):
    """A sweep worker died or missed its heartbeat while holding work.

    Transient by taxonomy: the *work* is presumed fine, the *worker* is
    gone, so the fabric coordinator re-leases the in-flight trials to a
    surviving node (see :mod:`repro.nas.fabric`).  A trial that keeps
    losing its workers is eventually quarantined as poison by the lease
    table's ``max_leases`` cap rather than retried forever.
    """


class NodeKilledError(SystemExit):
    """A sweep node is dying right now (injected kill or fatal worker loss).

    Deliberately a ``SystemExit`` subclass: it is **fatal to the node**
    — :func:`run_with_retry` must propagate it instead of retrying, and
    the node loop unwinds without committing — but **transient to the
    sweep**: the node stops heartbeating, its lease expires, and the
    coordinator re-leases the in-flight trials elsewhere.
    """


class PermanentTrialError(RuntimeError):
    """Base class for errors that will recur on retry (bad trial)."""


class TrialDeadlineExceeded(PermanentTrialError):
    """The trial's wall-clock budget ran out (never retried)."""


#: Errors that must stop the whole sweep.  ``MemoryError`` is fatal
#: because a retry under memory pressure poisons later trials too.
FATAL_ERRORS: tuple[type[BaseException], ...] = (
    KeyboardInterrupt,
    SystemExit,
    GeneratorExit,
    MemoryError,
)

#: Errors presumed transient: IO/worker flakes and explicit markers.
TRANSIENT_ERRORS: tuple[type[BaseException], ...] = (
    TransientTrialError,
    TimeoutError,
    ConnectionError,
    InterruptedError,
    BrokenPipeError,
    EOFError,  # a killed pool worker surfaces as EOF on its pipe
)


def classify_error(exc: BaseException) -> ErrorKind:
    """Map an exception to its :class:`ErrorKind`.

    Explicit markers win: anything deriving from
    :class:`TrialDeadlineExceeded` is ``DEADLINE``, then
    :class:`TransientTrialError`/:data:`TRANSIENT_ERRORS` are
    ``TRANSIENT``, :data:`FATAL_ERRORS` are ``FATAL``, and everything
    else — including :class:`PermanentTrialError`, ``FloatingPointError``
    and pickling errors — is ``PERMANENT`` (recorded, never re-raised).
    """
    try:
        from concurrent.futures.process import BrokenProcessPool
    except ImportError:  # pragma: no cover - stdlib always has it
        BrokenProcessPool = ()  # type: ignore[assignment]
    if isinstance(exc, TrialDeadlineExceeded):
        return ErrorKind.DEADLINE
    if isinstance(exc, TRANSIENT_ERRORS) or (
        BrokenProcessPool and isinstance(exc, BrokenProcessPool)
    ):
        return ErrorKind.TRANSIENT
    if isinstance(exc, FATAL_ERRORS):
        return ErrorKind.FATAL
    return ErrorKind.PERMANENT


# ---------------------------------------------------------------------------
# Deadlines
# ---------------------------------------------------------------------------


class Deadline:
    """A cooperative wall-clock budget for one trial.

    ``limit_s=None`` means unlimited.  Instrumented code calls
    :meth:`check` at safe points; the fault harness's latency/hang
    injections honor the active deadline via :func:`current_deadline`.
    """

    def __init__(self, limit_s: float | None, clock: Callable[[], float] = time.monotonic) -> None:
        if limit_s is not None and limit_s <= 0:
            raise ValueError(f"deadline limit_s must be positive or None, got {limit_s}")
        self.limit_s = limit_s
        self._clock = clock
        self._started = clock()

    def elapsed(self) -> float:
        """Seconds since the deadline started."""
        return self._clock() - self._started

    def remaining(self) -> float:
        """Seconds left (``inf`` when unlimited; clamped at 0)."""
        if self.limit_s is None:
            return float("inf")
        return max(self.limit_s - self.elapsed(), 0.0)

    @property
    def expired(self) -> bool:
        """Whether the budget is spent."""
        return self.limit_s is not None and self.elapsed() >= self.limit_s

    def check(self, context: str = "") -> None:
        """Raise :class:`TrialDeadlineExceeded` if the budget is spent."""
        if self.expired:
            where = f" during {context}" if context else ""
            raise TrialDeadlineExceeded(
                f"trial exceeded its {self.limit_s:.3g}s deadline{where} "
                f"(elapsed {self.elapsed():.3g}s)"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deadline(limit_s={self.limit_s}, elapsed={self.elapsed():.3g})"


_DEADLINE_STACK = threading.local()


def current_deadline() -> Deadline | None:
    """The innermost active :class:`Deadline`, if any (thread-local)."""
    stack = getattr(_DEADLINE_STACK, "stack", None)
    return stack[-1] if stack else None


@contextmanager
def deadline_scope(deadline: Deadline | None) -> Iterator[Deadline | None]:
    """Make ``deadline`` visible to instrumented code via :func:`current_deadline`."""
    if deadline is None:
        yield None
        return
    stack = getattr(_DEADLINE_STACK, "stack", None)
    if stack is None:
        stack = _DEADLINE_STACK.stack = []
    stack.append(deadline)
    try:
        yield deadline
    finally:
        stack.pop()


# ---------------------------------------------------------------------------
# Retry policy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """How transient trial failures are retried.

    Parameters
    ----------
    max_attempts:
        Total attempts per trial (1 disables retries).
    base_delay_s / backoff:
        Exponential backoff: attempt ``k`` (1-based) sleeps
        ``base_delay_s * backoff**(k-1)`` before retrying.
    jitter:
        Relative +-jitter on each delay, drawn from a stream seeded by
        ``(seed, key, attempt)`` — the same trial retries with the same
        delays in every process and on every resume.
    deadline_s:
        Per-trial wall-clock budget (``None`` = unlimited).  No retry
        starts after the deadline, and cooperative checks inside the
        attempt raise :class:`TrialDeadlineExceeded`.
    seed:
        Root seed of the jitter stream.
    sleep:
        Injectable sleep (tests pass a recorder to avoid real waiting).
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    backoff: float = 2.0
    jitter: float = 0.1
    deadline_s: float | None = None
    seed: int = 0
    sleep: Callable[[float], None] = field(default=time.sleep, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay_s < 0:
            raise ValueError(f"base_delay_s must be non-negative, got {self.base_delay_s}")
        if self.backoff < 1.0:
            raise ValueError(f"backoff must be >= 1, got {self.backoff}")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(f"deadline_s must be positive or None, got {self.deadline_s}")

    @classmethod
    def none(cls, deadline_s: float | None = None) -> "RetryPolicy":
        """A policy that never retries (still supports deadlines)."""
        return cls(max_attempts=1, base_delay_s=0.0, deadline_s=deadline_s)

    def delay_for(self, key: object, attempt: int) -> float:
        """Deterministic backoff delay after failed attempt ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        base = self.base_delay_s * self.backoff ** (attempt - 1)
        if base == 0.0:
            return 0.0
        if self.jitter == 0.0:
            return base
        rng = np.random.default_rng(stable_hash(self.seed, "retry-jitter", key, attempt))
        return float(base * (1.0 + self.jitter * rng.uniform(-1.0, 1.0)))

    def new_deadline(self) -> Deadline | None:
        """A fresh per-trial :class:`Deadline` (or ``None`` if unlimited)."""
        return Deadline(self.deadline_s) if self.deadline_s is not None else None


@dataclass
class RetryOutcome:
    """Everything one retried call produced."""

    ok: bool
    value: Any = None
    attempts: int = 1
    error: str = ""  # last error, "Type: message" form
    error_kind: str = ""  # ErrorKind value of the last error
    traceback: str = ""  # full traceback of the last error
    attempt_errors: list[str] = field(default_factory=list)  # one per failed attempt


def _format_error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


# Module-level instrument handles: cached once, no-ops while obs is disabled.
_ATTEMPTS = obs.counter("repro_trial_attempts_total")
_DEADLINE_HITS = obs.counter("repro_trial_deadline_hits_total")


def run_with_retry(
    fn: Callable[[int], Any],
    policy: RetryPolicy,
    key: object = "",
    logger: Any = None,
) -> RetryOutcome:
    """Call ``fn(attempt)`` under ``policy``; never raises non-fatal errors.

    - transient errors retry (seeded backoff) while attempts and the
      deadline allow, then fail the outcome as ``transient``;
    - permanent/unexpected errors fail the outcome immediately, with the
      traceback captured;
    - deadline expiry fails the outcome as ``deadline``;
    - fatal errors (:data:`FATAL_ERRORS`) propagate to the caller.

    The per-trial deadline is installed via :func:`deadline_scope` so
    instrumented code inside ``fn`` can honor it cooperatively.
    """
    deadline = policy.new_deadline()
    outcome = RetryOutcome(ok=False)
    with deadline_scope(deadline):
        for attempt in range(1, policy.max_attempts + 1):
            outcome.attempts = attempt
            _ATTEMPTS.inc()
            try:
                if deadline is not None:
                    deadline.check("attempt start")
                outcome.value = fn(attempt)
                outcome.ok = True
                outcome.error = outcome.error_kind = outcome.traceback = ""
                return outcome
            except FATAL_ERRORS:
                raise
            except BaseException as exc:  # noqa: BLE001 - taxonomy decides
                kind = classify_error(exc)
                if kind is ErrorKind.FATAL:  # pragma: no cover - covered above
                    raise
                outcome.error = _format_error(exc)
                outcome.error_kind = kind.value
                outcome.traceback = _traceback.format_exc()
                outcome.attempt_errors.append(outcome.error)
                if kind is ErrorKind.DEADLINE:
                    _DEADLINE_HITS.inc()
                if logger is not None:
                    logger.debug("attempt %d for %r failed (%s): %s", attempt, key, kind.value, exc)
                if kind is not ErrorKind.TRANSIENT or attempt >= policy.max_attempts:
                    return outcome
                delay = policy.delay_for(key, attempt)
                if deadline is not None and deadline.remaining() <= delay:
                    # Retrying past the deadline would be pointless.
                    outcome.error_kind = ErrorKind.DEADLINE.value
                    outcome.error = (
                        f"TrialDeadlineExceeded: no budget left to retry after {outcome.error}"
                    )
                    _DEADLINE_HITS.inc()
                    return outcome
                if delay > 0:
                    policy.sleep(delay)
    return outcome
