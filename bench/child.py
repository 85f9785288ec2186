"""Run one benchmark workload in this (fresh) process.

Spawned by ``run.py``; prints one JSON object as its last stdout line
and progress on stderr.  ``--setup-only`` stops after set-up, which is
how ``run.py`` samples set-up time several times per run.  With
``--trace 1`` the process runs the workload untraced, then set-up and
the timed phase again under the tracer, then the trace-only phases.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def import_program(src: Path) -> None:
    """Put ``src`` first on the path and make sure ``repro`` comes from it."""
    package = src / "repro" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"bench: no program source at {src} (expected {package})")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve() != package.resolve():
        raise SystemExit(f"bench: imported repro from {repro.__file__}, not {src}")


def span_metrics(spans) -> dict[str, float]:
    """``<layer>.calls`` / ``.busy_s`` over set-up and the timed phase, plus sizes.

    Fleet routing runs only in the trace-only fleet phase, so it is
    reported from that phase's spans, as a per-call latency.
    """
    from tracer import TRACE_POINTS, layer_stats

    stats = layer_stats([s for s in spans if s.phase in ("setup", "measure")])
    out: dict[str, float] = {}
    for name in sorted({name for name, _, _ in TRACE_POINTS} - {"fleet.route"}):
        entry = stats.get(name, {"calls": 0, "busy_s": 0.0, "bytes": 0})
        out[f"{name}.calls"] = entry["calls"]
        out[f"{name}.busy_s"] = entry["busy_s"]
    export = stats.get("onnxlite.export_model")
    out["onnxlite.export_model.mb"] = export["bytes"] / export["calls"] / 1e6 if export else 0.0
    routes = [s.duration for s in spans if s.name == "fleet.route"]
    out["fleet.route_us.p50"] = statistics.median(routes) * 1e6 if routes else 0.0
    out["trace.spans"] = len(spans)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="parent's time.monotonic() just before spawning this process")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=Path, help="span JSONL path (traced runs)")
    args = parser.parse_args(argv)

    import_program(args.src.resolve())
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    state = workload.setup(args.seed)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    result = workload.run(state, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # before the oracles run
    workload.check(state, result)
    out = {"setup_s": setup_s, "checks": dict(result.checks), "digest": result.digest}

    if args.trace:
        untraced = result
        del state
        tracer = Tracer(args.workload)
        tracer.install()
        try:
            tracer.active = True
            state = workload.setup(args.seed)
            tracer.phase = "measure"
            result = workload.run(state, args.seconds)
            tracer.active = False
            workload.check(state, result)
            tracer.phase, tracer.active = "extra", True
            extra_metrics, extra_checks = workload.extras(state, result, untraced)
        finally:
            tracer.active = False
            tracer.uninstall()
        if args.spans:
            tracer.write_jsonl(args.spans)
        metrics = {**span_metrics(tracer.spans), **result.layer, **extra_metrics,
                   "trace.overhead_frac": result.cost / untraced.cost - 1.0}
        out["checks"] = {**{f"untraced.{k}": v for k, v in untraced.checks.items()},
                         **result.checks, **extra_checks}
    else:
        metrics = {
            "throughput": result.throughput,
            "p50_ms": result.p50_ms,
            "peak_rss_mb": peak_rss_mb,
        }

    golden = json.loads((BENCH_DIR / "golden.json").read_text()).get(args.workload, {})
    if str(args.seed) in golden:
        out["checks"]["golden_digest"] = result.digest == golden[str(args.seed)]
    out.update(attempted=result.attempted, failed=result.failed, metrics=metrics)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
