"""Benchmark of the drainage-crossing NAS reproduction, end to end and per layer.

Run from the root of a checkout::

    python3 bench/run.py --workload paper_sweep --seed 0 --seconds 10 --trace 0
    python3 bench/run.py                       # every workload, untraced
    python3 bench/run.py --trace               # every workload, traced
    python3 bench/run.py compare PARENT CHILD  # paired runs of two trees
    python3 bench/run.py record                # write bench/records/<sha>.json
    python3 bench/run.py golden                # rewrite bench/golden.json

Each workload runs in fresh processes (``child.py``): set-up alone twice,
then set-up plus the timed phase, so ``setup_s`` is a median of three and
``peak_rss_mb`` belongs to one workload.  The last stdout line is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
``end_to_end`` metrics of BENCHMARK.json untraced, its ``per_layer``
metrics traced).  The exit code is 0 when every check passed, 1 when a
check failed and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SETUP_SAMPLES = 3
#: Wall-clock budget of one workload's run, child processes included.
RUN_BUDGET_S = 175.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def spawn_child(args: list[str], deadline: float) -> dict:
    """Run ``child.py`` in its own process group; returns its JSON line."""
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), *args,
           "--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload timed out: {' '.join(args)}") from None
    finally:
        # Take down anything the child left behind (pool workers included).
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process exited with {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 src: Path, spans: Path | None) -> dict:
    """One run of one workload -> the benchmark's result object."""
    deadline = time.monotonic() + RUN_BUDGET_S
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(trace)), "--src", str(src)]
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(spawn_child(base + ["--setup-only"], deadline)["setup_s"])
    child = spawn_child(base + (["--spans", str(spans)] if spans else []), deadline)
    setups.append(child["setup_s"])
    values = dict(child["metrics"])
    specs = SPEC["per_layer" if trace else "end_to_end"]
    declared = {m["name"] for m in specs}
    if trace:
        # A layer the workload never enters did no work: report zero.
        values = {m["name"]: values.get(m["name"], 0) for m in specs} | values
    else:
        values["setup_s"] = statistics.median(setups)
    unknown = sorted(set(values) - declared)
    missing = sorted(declared - set(values))
    if unknown or missing:
        raise BenchError(f"{name}: metrics not in BENCHMARK.json {unknown}, missing {missing}")
    return {
        "correct": all(child["checks"].values()),
        "attempted": int(child["attempted"]),
        "failed": int(child["failed"]),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs},
        "checks": child["checks"],
    }


def render(name: str, result: dict) -> str:
    lines = [f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
             f"correct {result['correct']}"]
    for metric, entry in result["metrics"].items():
        lines.append(f"  {metric:42s} {entry['value']:>14.6g} {entry['unit']}")
    lines += [f"  CHECK FAILED: {check}" for check, ok in result["checks"].items() if not ok]
    return "\n".join(lines)


def public(result: dict) -> dict:
    return {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in ("compare", "record", "golden"):
        import ledger

        return ledger.main(argv)
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all, one after another)")
    parser.add_argument("--seed", type=int, default=0, help="draws every input")
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]),
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="report per-layer metrics from a traced run")
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_out",
                        help="directory for span JSONL files (traced runs)")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="program source tree to measure")
    args = parser.parse_args(argv)

    names = [args.workload] if args.workload else WORKLOADS
    results = {}
    try:
        for name in names:
            spans = args.out / f"spans-{name}-seed{args.seed}.jsonl" if args.trace else None
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                         args.src.resolve(), spans)
            print(render(name, results[name]), flush=True)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.workload:
        summary = public(results[args.workload])
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
