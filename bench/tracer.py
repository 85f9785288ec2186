"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public functions of the program at the module where
they are called (``repro.nas.experiment.build_model``, a class method
such as ``repro.deploy.plan.InferencePlan.run``), so the program itself
carries no benchmark code.  Each call made while the tracer is active
becomes a span (id, name, start, end, parent, phase, thread); spans stay
in memory and are written as JSONL when the run ends.  A layer's busy
time is the sum of its spans' self time: duration minus the part of the
interval its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

#: (span name, module path, attribute path) of every wrapped call site.
#: One name may wrap several call sites of the same function.
TRACE_POINTS: tuple[tuple[str, str, str], ...] = (
    ("nas.measure_architecture", "repro.nas.experiment", "measure_architecture"),
    ("nn.build_model", "repro.nas.experiment", "build_model"),
    ("nn.build_model", "repro.nas.crossval", "build_model"),
    ("nn.build_model", "repro.nn.resnet", "build_model"),
    ("graph.trace_model", "repro.nas.experiment", "trace_model"),
    ("graph.trace_model", "repro.graph.trace", "trace_model"),
    ("latency.kernel_latency_ms", "repro.nas.experiment", "kernel_latency_ms"),
    ("onnxlite.export_model", "repro.nas.experiment", "export_model"),
    ("onnxlite.export_model", "repro.onnxlite.export", "export_model"),
    ("nas.surrogate", "repro.nas.surrogate", "SurrogateEvaluator.evaluate"),
    ("nas.store_add", "repro.nas.storage", "TrialStore.add"),
    ("pareto.run", "repro.pareto.analysis", "ParetoAnalysis.run"),
    ("data.generate_patch", "repro.data.dataset", "generate_patch"),
    ("nas.cross_validate_model", "repro.nas.evaluators", "cross_validate_model"),
    ("tensor.conv2d", "repro.tensor.conv_ops", "conv2d"),
    ("tensor.backward", "repro.tensor.tensor", "Tensor.backward"),
    ("optim.step", "repro.nn.optim", "SGD.step"),
    ("deploy.compile", "repro.deploy.plan", "compile_plan"),
    ("deploy.compile", "repro.deploy", "compile_plan"),
    ("quant.calibrate", "repro.quant.calibrate", "calibrate_activations"),
    ("deploy.autotune", "repro.deploy", "autotune_variants"),
    ("deploy.plan_run", "repro.deploy.plan", "InferencePlan.run"),
    ("fleet.route", "repro.serve.fleet", "FleetServer.route"),
)

#: Spans whose return value's ``len()`` is recorded (serialized bytes).
SIZED = frozenset({"onnxlite.export_model"})


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int  # 0 = root
    phase: str
    thread: int
    workload: str
    size: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans from wrapped call sites while :attr:`active`."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.phase = "setup"
        self.active = False
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        sized = name in SIZED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._local.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(
                    span_id, name, start, end, parent, self.phase,
                    threading.get_ident(), self.workload,
                    len(result) if sized and result is not None else None,
                ))

        return traced

    def install(self, points: Iterable[tuple[str, str, str]] = TRACE_POINTS) -> None:
        """Replace every call site in ``points`` with a tracing wrapper."""
        for name, module_name, attr_path in points:
            owner = importlib.import_module(module_name)
            *owners, attr = attr_path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            setattr(owner, attr, self.wrap(name, original))
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent:
            children[span.parent].append(span)
    out: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.id] = span.duration - covered
    return out


def layer_stats(spans: Sequence[Span]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``busy_s`` (summed self time), ``bytes``."""
    own = self_times(spans)
    stats: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "bytes": 0})
    for span in spans:
        entry = stats[span.name]
        entry["calls"] += 1
        entry["busy_s"] += own[span.id]
        entry["bytes"] += span.size or 0
    return dict(stats)
