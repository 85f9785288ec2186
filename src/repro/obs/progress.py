"""The progress-listener protocol shared by sweeps and the obs layer.

Before this module, :class:`repro.nas.experiment.Experiment` took an
ad-hoc ``progress`` callable ``(done, total, record)`` and every
consumer (the chaos harness's ``interrupt_after``, user lambdas) had
to match that exact shape.  The protocol here replaces
it with three well-named hooks while keeping every old callable working
through :func:`as_listener`:

- :meth:`ProgressListener.on_trial_start` — before a trial is evaluated;
- :meth:`ProgressListener.on_trial_end` — after its record exists (the
  old callable convention maps onto this hook);
- :meth:`ProgressListener.on_run_end` — once, with the final result.

:class:`ProgressFanout` composes any number of listeners;
:class:`ObsProgressListener` is the observability implementation that
mirrors trial outcomes into the process-wide metrics registry (and is
installed automatically by ``Experiment``, costing nothing while
observability is disabled).

The module deliberately has no ``repro.nas`` imports — record objects
are duck-typed (``ok``, ``attempts``, ``error_kind``, ``duration_s``,
``skipped_devices``) — so the obs layer stays dependency-free.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.obs import config as _config

__all__ = [
    "ProgressListener",
    "LegacyCallableListener",
    "ProgressFanout",
    "ObsProgressListener",
    "as_listener",
]


class ProgressListener:
    """Base protocol: subclass and override the hooks you care about.

    All hooks default to no-ops, so partial listeners stay small.  The
    ``record`` argument is a :class:`repro.nas.trial.TrialRecord` (duck-
    typed here); ``result`` is an
    :class:`repro.nas.experiment.ExperimentResult`.
    """

    def on_trial_start(self, trial_id: int, config: Any) -> None:
        """Called before a trial is evaluated."""

    def on_trial_end(self, done: int, total: int, record: Any) -> None:
        """Called after each trial's record exists (old ``progress`` shape)."""

    def on_run_end(self, result: Any) -> None:
        """Called once when the sweep finishes."""


class LegacyCallableListener(ProgressListener):
    """Adapts the old ``(done, total, record)`` callable convention."""

    def __init__(self, fn: Callable[[int, int, Any], None]) -> None:
        self.fn = fn

    def on_trial_end(self, done: int, total: int, record: Any) -> None:
        self.fn(done, total, record)


class ProgressFanout(ProgressListener):
    """Composes several listeners; every hook fans out in order.

    Exceptions propagate (the chaos harness's ``interrupt_after`` relies
    on raising from a progress hook to simulate Ctrl-C), so listeners
    that must not disturb the sweep should catch their own errors.
    """

    def __init__(self, listeners: Iterable[ProgressListener | Callable[..., None]]) -> None:
        self.listeners: list[ProgressListener] = [as_listener(l) for l in listeners]

    def add(self, listener: "ProgressListener | Callable[..., None]") -> None:
        """Append another listener."""
        self.listeners.append(as_listener(listener))

    def on_trial_start(self, trial_id: int, config: Any) -> None:
        for listener in self.listeners:
            listener.on_trial_start(trial_id, config)

    def on_trial_end(self, done: int, total: int, record: Any) -> None:
        for listener in self.listeners:
            listener.on_trial_end(done, total, record)

    def on_run_end(self, result: Any) -> None:
        for listener in self.listeners:
            listener.on_run_end(result)


class ObsProgressListener(ProgressListener):
    """Mirrors trial lifecycle into the process-wide metrics registry.

    Counters (all no-ops while observability is disabled):

    - ``repro_trials_total{status=ok|failed}``
    - ``repro_trials_failed_total{kind=...}`` per error kind
    - ``repro_trial_retries_total`` (extra attempts summed)
    - ``repro_trials_retried_total`` / ``repro_trials_recovered_total``
    - ``repro_device_predictions_skipped_total``
    - histogram ``repro_trial_duration_seconds``
    """

    def __init__(self) -> None:
        reg = _config.registry()
        self._ok = reg.counter("repro_trials_total", status="ok")
        self._failed = reg.counter("repro_trials_total", status="failed")
        self._retries = reg.counter("repro_trial_retries_total")
        self._retried = reg.counter("repro_trials_retried_total")
        self._recovered = reg.counter("repro_trials_recovered_total")
        self._skipped_devices = reg.counter("repro_device_predictions_skipped_total")
        self._duration = reg.histogram("repro_trial_duration_seconds")

    def on_trial_end(self, done: int, total: int, record: Any) -> None:
        ok = bool(getattr(record, "ok", False))
        (self._ok if ok else self._failed).inc()
        if not ok:
            kind = getattr(record, "error_kind", "") or "failed"
            _config.registry().counter("repro_trials_failed_total", kind=kind).inc()
        attempts = int(getattr(record, "attempts", 1) or 1)
        if attempts > 1:
            self._retried.inc()
            self._retries.inc(attempts - 1)
            if ok:
                self._recovered.inc()
        skipped = getattr(record, "skipped_devices", ()) or ()
        if skipped:
            self._skipped_devices.inc(len(skipped))
        self._duration.observe(float(getattr(record, "duration_s", 0.0) or 0.0))

    def on_run_end(self, result: Any) -> None:
        # Final snapshot so the JSONL log is self-contained for reports.
        _config.flush()


def as_listener(obj: "ProgressListener | Callable[..., None] | None") -> ProgressListener:
    """Normalize ``None`` / listener / legacy callable to a listener.

    Objects that implement any of the protocol hooks are used as-is
    (duck typing — no subclassing required); bare callables get the
    legacy ``(done, total, record)`` treatment; ``None`` becomes a
    no-op listener.
    """
    if obj is None:
        return ProgressListener()
    if isinstance(obj, ProgressListener):
        return obj
    if any(callable(getattr(obj, hook, None))
           for hook in ("on_trial_start", "on_trial_end", "on_run_end")):
        return _DuckListener(obj)
    if callable(obj):
        return LegacyCallableListener(obj)
    raise TypeError(
        f"progress must be a ProgressListener, a (done, total, record) callable, "
        f"or None; got {type(obj).__name__}"
    )


class _DuckListener(ProgressListener):
    """Wraps any object exposing a subset of the protocol hooks."""

    def __init__(self, obj: Any) -> None:
        self.obj = obj

    def on_trial_start(self, trial_id: int, config: Any) -> None:
        hook = getattr(self.obj, "on_trial_start", None)
        if callable(hook):
            hook(trial_id, config)

    def on_trial_end(self, done: int, total: int, record: Any) -> None:
        hook = getattr(self.obj, "on_trial_end", None)
        if callable(hook):
            hook(done, total, record)

    def on_run_end(self, result: Any) -> None:
        hook = getattr(self.obj, "on_run_end", None)
        if callable(hook):
            hook(result)
