"""Compile-time kernel autotuning: micro-benchmark variants per layer.

Different layer geometries favor different kernels: Winograd's 2.25x
multiply reduction wins on wide stride-1 3x3 convs but loses its
transform overhead on tiny channel counts; the int8 path trades GEMM
throughput against quantize/requantize epilogues.  Rather than hardcode
crossover heuristics, :func:`autotune_variants` *measures*: for every
layer with more than one eligible kernel variant it binds each candidate
closure against a throwaway arena, feeds synthetic inputs of the exact
shape and carrier form the compiled plan would supply, times a few
rounds, and keeps the fastest.

Decisions are cached as JSON keyed by ``fingerprint:batch:int8``
(:meth:`~repro.onnxlite.schema.ModelProto.fingerprint` covers weights,
topology, *and* the calibration metadata; ``int8`` is
:func:`repro.deploy.native.implementation`, because the native and the
NumPy int8 kernels time very differently), so a tuned model re-loads its
variant map without re-benchmarking — and two processes sharing a cache
file compile byte-identical plans, which is what makes autotuned serving
deterministic across workers.  The full decision table (per-variant
timings, not just the winners, and which int8 kernels were timed) is
preserved for the benchmark artifact the CI serving scenario publishes
next to ``BENCH_serving.json``.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.deploy import native
from repro.deploy.passes import (
    PlanNode,
    build_plan_nodes,
    fuse_operators,
    infer_shapes,
    plan_quantization,
    toposort_nodes,
)
from repro.deploy.plan import (
    Arena,
    _bind_conv,
    _bind_gemm,
    _bind_qconv,
    _bind_qgemm,
    channels_last,
)
from repro.deploy.weights import LazyWeightTable
from repro.deploy.winograd import WINOGRAD_VARIANT, bind_winograd_conv, winograd_eligible
from repro.latency.fusion import KERNEL_VARIANTS
from repro.onnxlite.schema import ModelProto

__all__ = ["AutotuneResult", "autotune_variants"]


@dataclass
class AutotuneResult:
    """Outcome of one autotuning run (or cache hit).

    ``variants`` feeds straight into ``compile_plan(..., variants=...)``;
    ``table`` is the full decision record (chosen variant + per-variant
    best timings in microseconds, per tuned layer, and ``int8_impl`` —
    ``"native"`` or ``"numpy"`` — on rows that timed an int8 kernel)
    for reports and the CI artifact.
    """

    fingerprint: str
    batch: int
    variants: dict[str, str] = field(default_factory=dict)
    table: dict[str, dict] = field(default_factory=dict)
    #: Whether the decisions came from the JSON cache (no benchmarking ran).
    cached: bool = False

    def to_json(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "batch": self.batch,
            "variants": self.variants,
            "table": self.table,
        }


def _candidates(node: PlanNode) -> list[str]:
    """Eligible kernel variants for one fused node, default first."""
    if node.op_type == "Conv":
        names = ["conv.im2col.f32"]
        if winograd_eligible(node.attrs):
            names.append(WINOGRAD_VARIANT)
        if node.qconfig:
            names.insert(0, "conv.im2col.int8")
        return names
    if node.op_type == "Gemm":
        return ["gemm.int8", "gemm.f32"] if node.qconfig else ["gemm.f32"]
    # Every other op has exactly one eligible kernel per planning
    # outcome (its integer form when the carrier chain is u8, fp32
    # otherwise) — nothing to tune.
    return []


def _bind_candidate(node: PlanNode, variant: str, shapes, arena: Arena, in_form: str):
    in_shape = shapes[node.inputs[0]]
    out_shape = shapes[node.output]
    if variant == "conv.im2col.int8":
        return _bind_qconv(node, in_shape, out_shape, arena, in_form)
    if variant == WINOGRAD_VARIANT:
        return bind_winograd_conv(node, in_shape, out_shape, arena)
    if variant == "conv.im2col.f32":
        return _bind_conv(node, in_shape, out_shape, arena)
    if variant == "gemm.int8":
        return _bind_qgemm(node, in_shape, out_shape, arena, in_form)
    if variant == "gemm.f32":
        return _bind_gemm(node, out_shape, arena)
    raise ValueError(f"no benchmarkable binding for variant {variant!r}")


def _synthetic_input(shape: tuple[int, ...], form: str, rng: np.random.Generator):
    """A random batch of logical ``shape``, laid out as the plan carries it."""
    if form == "u8":
        x = rng.integers(0, 256, size=shape, dtype=np.uint8)
    else:
        x = rng.standard_normal(shape, dtype=np.float32)
    return np.ascontiguousarray(channels_last(x))


def _bench(run, env: dict, arena: Arena, rounds: int) -> float:
    """Best-of-``rounds`` wall time of one bound kernel, in seconds."""
    out = run(env)  # warmup (also primes the arena pools)
    arena.release(out)
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        out = run(env)
        best = min(best, time.perf_counter() - t0)
        arena.release(out)
    return best


def _read_cache(cache_file: Path) -> dict:
    """Parse the decision cache; an unreadable file is just a miss."""
    try:
        store = json.loads(cache_file.read_text())
    except (OSError, json.JSONDecodeError):
        return {}
    return store if isinstance(store, dict) else {}


def autotune_variants(
    proto: ModelProto,
    batch: int = 1,
    rounds: int = 3,
    cache_path: "str | Path | None" = None,
) -> AutotuneResult:
    """Pick the fastest kernel variant per layer by measurement.

    Parameters
    ----------
    proto:
        The model to tune (calibrated + int8-quantized models expose the
        integer candidates; plain fp32 models tune im2col vs Winograd).
    batch:
        Batch size the decisions are specialized to — kernel crossovers
        move with batch (and with the int8 implementation), so the cache
        key is ``fingerprint:batch:int8``.
    rounds:
        Timed repetitions per candidate (best-of; one warmup extra).
    cache_path:
        Optional JSON decision cache.  On a hit the mapping is returned
        without any benchmarking (``result.cached``); on a miss the file
        is updated atomically, so concurrent workers never read a torn
        table.

    Returns an :class:`AutotuneResult`; pass ``result.variants`` to
    :func:`repro.deploy.plan.compile_plan`.
    """
    fingerprint = proto.fingerprint()
    int8_impl = native.implementation()
    key = f"{fingerprint}:{int(batch)}:{int8_impl}"
    cache_file = Path(cache_path) if cache_path is not None else None
    if cache_file is not None and cache_file.exists():
        store = _read_cache(cache_file)
        hit = store.get(key)
        if hit is not None:
            return AutotuneResult(
                fingerprint=fingerprint,
                batch=int(batch),
                variants=dict(hit["variants"]),
                table=dict(hit["table"]),
                cached=True,
            )

    # Re-run the compile pipeline up to quantization planning on a
    # private node list (binder weight caches land on these nodes and
    # are discarded with them).
    nodes = build_plan_nodes(proto, LazyWeightTable(proto))
    nodes = toposort_nodes(fuse_operators(nodes))
    shapes = infer_shapes(nodes, proto.input_shape)
    forms = plan_quantization(nodes, proto)

    rng = np.random.default_rng(0)
    variants: dict[str, str] = {}
    table: dict[str, dict] = {}
    for node in nodes:
        names = _candidates(node)
        if len(names) < 2:
            continue
        in_name = node.inputs[0]
        in_form = forms.get(in_name, "f32")
        timings: dict[str, float] = {}
        for variant in names:
            assert variant in KERNEL_VARIANTS.get(node.op_type, ()), variant
            # Feed the form this candidate would see in the real plan;
            # fp32 candidates inside a u8 carrier chain are benchmarked
            # on f32 inputs (forcing them f32 also re-forms the chain).
            feeds_u8 = in_form == "u8" and variant.endswith((".int8", ".u8"))
            form = "u8" if feeds_u8 else "f32"
            arena = Arena()
            x = _synthetic_input((int(batch), *shapes[in_name]), form, rng)
            run = _bind_candidate(node, variant, shapes, arena, form)
            timings[variant] = _bench(run, {in_name: x}, arena, rounds)
        chosen = min(timings, key=timings.get)
        variants[node.name] = chosen
        table[node.name] = {
            "op_type": node.op_type,
            "chosen": chosen,
            "timings_us": {v: round(t * 1e6, 2) for v, t in timings.items()},
        }
        if any(v.endswith(".int8") for v in timings):
            table[node.name]["int8_impl"] = int8_impl

    result = AutotuneResult(
        fingerprint=fingerprint, batch=int(batch), variants=variants, table=table
    )
    if cache_file is not None:
        store = _read_cache(cache_file) if cache_file.exists() else {}
        store[key] = {"variants": variants, "table": table}
        cache_file.parent.mkdir(parents=True, exist_ok=True)
        tmp = cache_file.with_suffix(cache_file.suffix + f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(store, indent=2, sort_keys=True))
        os.replace(tmp, cache_file)
    return result
