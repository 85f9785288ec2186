"""The benchmark's record keeping: paired comparisons, baseline records, goldens.

``python3 bench/run.py compare PARENT CHILD``
    Runs both program trees with this benchmark, in interleaved pairs
    (pair ``i`` uses seed ``i`` on both sides and alternates which side
    runs first), and prints one row per (workload, metric): each side's
    median and quartiles, the child/parent ratio with its base, the pairs
    the child won, and a verdict.  PARENT and CHILD are directories
    holding ``src/`` or git revisions of this repository.
``python3 bench/run.py record``
    Runs every workload once untraced and once traced on this checkout's
    ``src/`` and writes ``bench/records/<git sha>.json`` with the
    environment the numbers were measured in.
``python3 bench/run.py golden``
    Rewrites ``bench/golden.json``: first-round output digests of the
    workloads that have them, for seeds 0 and 1.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import tarfile
import time
from pathlib import Path

from measure import quartiles, spread

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TREES = ROOT / ".bench_out" / "trees"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
CPU_FLAGS = ("avx2", "avx512f", "avx512_vnni", "avx512_bf16", "amx_tile", "amx_int8", "amx_bf16")
GOLDEN_WORKLOADS = ("paper_sweep", "train_eval")
GOLDEN_SEEDS = (0, 1)
#: Interleaved pairs per comparison: a gain needs 9 wins out of 10.
PAIRS = 10


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def source_tree(ref: str) -> Path:
    """A copy of the ``src`` of a checkout directory or git revision.

    Both sides of a comparison import from such a copy, so neither finds
    bytecode caches that the other lacks.
    """
    if Path(ref).is_dir():
        src = Path(ref).resolve() / "src"
        if not (src / "repro").is_dir():
            raise SystemExit(f"bench: {ref} has no src/repro")
        dest = TREES / f"dir-{hashlib.sha1(str(src).encode()).hexdigest()[:12]}"
        shutil.rmtree(dest, ignore_errors=True)
        shutil.copytree(src, dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
        return dest / "src"
    sha = git("rev-parse", "--verify", f"{ref}^{{commit}}")
    dest = TREES / sha
    if not (dest / "src" / "repro").is_dir():
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", sha, "src"],
                                 check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(dest, filter="data")
    return dest / "src"


def bench_run(workload: str, seed: int, seconds: float, trace: bool, src: Path) -> dict:
    """One ``run.py`` invocation -> its result object (raises if it failed to run)."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace)), "--src", str(src)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 2 or not lines:
        raise SystemExit(f"bench: {' '.join(cmd)} failed:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def verdict(parent: list[float], child: list[float], better: str, bound: float,
            parent_failed: int, child_failed: int) -> tuple[str, int]:
    """Classify one (workload, metric) row; returns ``(verdict, child wins)``.

    gain: the child wins >= 9/10 of pairs, the medians differ by more
    than the parent's interquartile range, and the child failed no more
    operations than the parent.  unresolved: either side's spread exceeds
    the bound, unless every child run reads better than every parent run.
    regression: the child's median is worse than the parent's by more
    than the bound.
    """
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, child) if sign * (c - p) > 0)
    p1, pmed, p3 = quartiles(parent)
    _, cmed, _ = quartiles(child)
    worse = sign * (pmed - cmed) / abs(pmed) if pmed else 0.0
    all_better = min(child) > max(parent) if sign > 0 else max(child) < min(parent)
    if (wins >= 0.9 * len(parent) and sign * (cmed - pmed) > p3 - p1
            and child_failed <= parent_failed):
        return "gain", wins
    if max(spread(parent), spread(child)) > bound and not all_better:
        return "unresolved", wins
    if worse > bound:
        return "regression", wins
    return "same", wins


def compare(args: argparse.Namespace) -> int:
    trees = {"parent": source_tree(args.parent), "child": source_tree(args.child)}
    workloads = [w["name"] for w in SPEC["workloads"]]
    values: dict[str, dict[str, dict[str, list[float]]]] = {
        side: {w: {} for w in workloads} for side in trees}
    failed = {side: {w: 0 for w in workloads} for side in trees}
    correct = True
    for pair in range(PAIRS):
        order = ["parent", "child"] if pair % 2 == 0 else ["child", "parent"]
        for workload in workloads:
            for side in order:
                result = bench_run(workload, pair, SPEC["run_seconds"], False, trees[side])
                correct &= result["correct"]
                failed[side][workload] += result["failed"]
                for name, entry in result["metrics"].items():
                    values[side][workload].setdefault(name, []).append(entry["value"])
                print(f"pair {pair} {workload} {side}: failed={result['failed']} "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                      file=sys.stderr, flush=True)
    rows = []
    print(f"{'workload':17s} {'metric':12s} {'parent median [q1, q3]':>30s} "
          f"{'child median [q1, q3]':>30s} {'child/parent':>12s} {'wins':>5s}  verdict")
    for workload in workloads:
        for spec in SPEC["end_to_end"]:
            name = spec["name"]
            parent, child = values["parent"][workload][name], values["child"][workload][name]
            kind, wins = verdict(parent, child, spec["better"], spec["bound"],
                                 failed["parent"][workload], failed["child"][workload])
            pq, cq = quartiles(parent), quartiles(child)
            ratio = cq[1] / pq[1] if pq[1] else float("nan")
            rows.append({"workload": workload, "metric": name, "unit": spec["unit"],
                         "parent": parent, "child": child, "ratio": ratio, "wins": wins,
                         "failed": {side: failed[side][workload] for side in trees},
                         "verdict": kind})
            print(f"{workload:17s} {name:12s} "
                  f"{pq[1]:>11.4g} [{pq[0]:.4g}, {pq[2]:.4g}] "
                  f"{cq[1]:>11.4g} [{cq[0]:.4g}, {cq[2]:.4g}] "
                  f"{ratio:>6.3f} of {pq[1]:.4g} {spec['unit']}  "
                  f"{wins:>2d}/{len(parent)}  {kind}")
    out = ROOT / ".bench_out" / "compare.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"parent": args.parent, "child": args.child, "pairs": PAIRS,
                               "seconds": SPEC["run_seconds"], "rows": rows}, indent=2) + "\n")
    print(f"raw values written to {out}")
    regressions = [r for r in rows if r["verdict"] in ("regression", "unresolved")]
    return 0 if correct and not regressions else 1


def environment() -> dict:
    """Where a record was measured: hardware, NumPy/BLAS build, thread settings."""
    import numpy

    cpu = {"model": None, "flags": {}}
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        text = ""
    for line in text.splitlines():
        key, _, value = line.partition(":")
        if key.strip() == "model name" and cpu["model"] is None:
            cpu["model"] = value.strip()
        if key.strip() == "flags":
            present = set(value.split())
            cpu["flags"] = {flag: flag in present for flag in CPU_FLAGS}
            break
    blas = {key: value for key, value in
            numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {}).items()
            if "directory" not in key}  # build-machine paths say nothing about this host
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "git_sha": git("rev-parse", "HEAD"),
        "src_dirty": bool(git("status", "--porcelain", "--", "src")),
    }


def record(args: argparse.Namespace) -> int:
    env = environment()
    results = {}
    for workload in (w["name"] for w in SPEC["workloads"]):
        results[workload] = {
            trace: bench_run(workload, 0, SPEC["run_seconds"], trace == "traced", ROOT / "src")
            for trace in ("untraced", "traced")
        }
        print(f"recorded {workload}", file=sys.stderr, flush=True)
    out = BENCH_DIR / "records" / f"{env['git_sha']}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "command": SPEC["command"], "seed": 0, "seconds": SPEC["run_seconds"],
        "environment": env, "results": results,
    }, indent=2) + "\n")
    print(f"wrote {out}")
    return 0 if all(r["correct"] for pair in results.values() for r in pair.values()) else 1


def golden(args: argparse.Namespace) -> int:
    digests: dict[str, dict[str, str]] = {}
    for workload in GOLDEN_WORKLOADS:
        for seed in GOLDEN_SEEDS:
            cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", "0", "--src", str(ROOT / "src"),
                   "--spawned-at", repr(time.monotonic())]
            out = json.loads(subprocess.run(cmd, check=True, capture_output=True,
                                            text=True).stdout.strip().splitlines()[-1])
            digests.setdefault(workload, {})[str(seed)] = out["digest"]
    (BENCH_DIR / "golden.json").write_text(json.dumps(digests, indent=2) + "\n")
    print(json.dumps(digests, indent=2))
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("compare", help="paired interleaved runs of two program trees")
    p.add_argument("parent")
    p.add_argument("child")
    p.set_defaults(func=compare)
    p = sub.add_parser("record", help="write bench/records/<sha>.json (seed 0)")
    p.set_defaults(func=record)
    p = sub.add_parser("golden", help="rewrite bench/golden.json")
    p.set_defaults(func=golden)
    args = parser.parse_args(argv)
    return args.func(args)
