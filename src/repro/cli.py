"""Command-line interface: ``repro-nas`` (or ``python -m repro``).

Subcommands
-----------
``space``
    Print the search-space structure and cardinality (Figure 2).
``sweep``
    Run a NAS sweep (surrogate accuracy) and write trials to JSONL;
    ``--nodes N`` runs it on N fabric worker nodes, ``--resume``
    continues the sweep already in the file.
``pareto``
    Read a trial JSONL and print the non-dominated solutions (Table 4).
``baseline``
    Evaluate the stock ResNet-18 on the six input variants (Table 5).
``latency``
    Predict one configuration's latency on all four device profiles.
``profile``
    Per-layer wall-time profile of one configuration (real forward pass).
``infer``
    One-shot deploy inference timing (compiled plan by default,
    ``--no-compiled`` for the interpreted reference, ``--quantized``
    for the int8 path with the per-kernel variant/energy table).
``serve-bench``
    Load-generator benchmark of the :mod:`repro.serve` micro-batching
    server: throughput, p50/p99 latency, speedup vs the serial
    single-image baseline; ``--json`` for a CI artifact, ``--obs-log``
    for the metrics JSONL, ``--quantized`` for the int8 scenario,
    ``--fleet N`` for the multi-tenant Pareto-ladder fleet (same load
    and report).
``obs``
    Render or export an observability JSONL log (``repro obs report`` /
    ``repro obs export``); logs are produced by ``sweep --obs-log`` or
    any :func:`repro.obs.configure` call with a ``jsonl_path``.
"""

from __future__ import annotations

import argparse
import sys

from repro.utils.logging import configure, get_logger
from repro.utils.tables import render_table

_LOG = get_logger("cli")


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--channels", type=int, default=5, choices=(5, 7))
    parser.add_argument("--batch", type=int, default=16)
    parser.add_argument("--kernel-size", type=int, default=3)
    parser.add_argument("--stride", type=int, default=2)
    parser.add_argument("--padding", type=int, default=1)
    parser.add_argument("--pool-choice", type=int, default=0, choices=(0, 1))
    parser.add_argument("--kernel-size-pool", type=int, default=3)
    parser.add_argument("--stride-pool", type=int, default=2)
    parser.add_argument("--initial-output-feature", type=int, default=32)


def _config_from_args(args: argparse.Namespace):
    from repro.nas.config import ModelConfig

    return ModelConfig(
        channels=args.channels,
        batch=args.batch,
        kernel_size=args.kernel_size,
        stride=args.stride,
        padding=args.padding,
        pool_choice=args.pool_choice,
        kernel_size_pool=args.kernel_size_pool,
        stride_pool=args.stride_pool,
        initial_output_feature=args.initial_output_feature,
    )


def _cmd_space(args: argparse.Namespace) -> int:
    from repro.core.figures import searchspace_figure

    fig = searchspace_figure()
    for knob, choices in fig["knobs"].items():
        print(f"{knob:24s} {choices}")
    print(f"architectures/combination: {fig['architectures_per_combination']}")
    print(f"unique architectures:      {fig['unique_architectures_per_combination']}")
    print(f"total configurations:      {fig['total_configurations']}")
    return 0


def _reject_directory(path: str) -> bool:
    """Explain and return ``True`` when a trial-file argument is a directory."""
    from pathlib import Path

    if not Path(path).is_dir():
        return False
    print(f"{path} is a directory, not a trial file; to convert a shard "
          "directory from an older version, see \"Converting an old shard "
          "directory\" in DEVELOPMENT.md", file=sys.stderr)
    return True


def _cmd_sweep(args: argparse.Namespace) -> int:
    import repro.obs as obs
    from repro.nas import Experiment, FailureInjector, GridSearch, SurrogateEvaluator, TrialStore
    from repro.nas.searchspace import DEFAULT_SPACE

    if _reject_directory(args.out):
        return 2
    store = TrialStore(args.out)
    if not args.resume and store.path.exists() and store.path.stat().st_size > 0:
        # Appending a second run would record every trial twice.
        print(f"{args.out} already holds trials: add --resume to continue "
              "that sweep, or choose another --out")
        return 2
    if args.obs_log:
        obs.configure(jsonl_path=args.obs_log, reset_metrics=True)
    injector = FailureInjector.paper_mode(seed=args.seed) if args.paper_mode else FailureInjector.none()
    budget = args.budget or DEFAULT_SPACE.total_configurations()
    try:
        if args.resume:
            store.load()
        if args.nodes > 0:
            from repro.nas.fabric import FabricSweep, WorkerNode

            sweep = FabricSweep(
                SurrogateEvaluator(seed=args.seed),
                GridSearch(DEFAULT_SPACE),
                store,
                resume=args.resume,
                failure_injector=injector,
                batch_size=args.batch_size,
                lease_ttl_s=args.lease_ttl,
            )
            for i in range(args.nodes):
                sweep.add_node(WorkerNode(f"node-{i}"))
            result = sweep.run(budget)
        else:
            result = Experiment(
                evaluator=SurrogateEvaluator(seed=args.seed),
                strategy=GridSearch(DEFAULT_SPACE),
                store=store,
                failure_injector=injector,
                skip_existing=args.resume,
            ).run(budget=budget)
        print(f"launched={result.launched} valid={result.succeeded} "
              f"failed={result.failed} skipped={result.skipped}")
        if args.nodes > 0:
            print(f"claims={result.claims} reclaims={result.reclaims} "
                  f"poisoned={result.poisoned}")
        print(f"trials written to {args.out}")
    finally:
        store.close()
        if args.obs_log:
            obs.shutdown()
    if args.obs_log:
        print(f"observability log written to {args.obs_log} "
              f"(render with: repro-nas obs report {args.obs_log})")
    return 0


def _cmd_pareto(args: argparse.Namespace) -> int:
    from repro.nas import TrialStore
    from repro.pareto import ParetoAnalysis

    if _reject_directory(args.trials):
        return 2
    store = TrialStore(args.trials)
    count = store.load()
    if count == 0:
        _LOG.error("no trials found in %s", args.trials)
        return 1
    records = store.analysis_records()
    front = ParetoAnalysis().front_records(records)
    front = sorted(front, key=lambda r: -r["accuracy"])
    print(render_table(
        [{k: r[k] for k in ("channels", "batch", "accuracy", "latency_ms", "lat_std", "memory_mb",
                            "kernel_size", "stride", "padding", "pool_choice", "initial_output_feature")}
         for r in front],
        title=f"Non-dominated solutions ({len(front)} of {count})",
    ))
    if args.html:
        from repro.core.export_html import export_pareto_html
        from repro.pareto import ParetoAnalysis as _PA

        result = _PA().run(records)
        size = export_pareto_html(records, result.front_indices.tolist(), args.html)
        print(f"interactive scatter written to {args.html} ({size / 1e3:.1f} kB)")
    return 0


def _cmd_baseline(args: argparse.Namespace) -> int:
    from repro.core.pipeline import evaluate_baselines
    from repro.core.report import baseline_table

    rows = baseline_table(evaluate_baselines())
    print(render_table(rows, title="Stock ResNet-18 benchmark variants (Table 5)"))
    return 0


def _cmd_latency(args: argparse.Namespace) -> int:
    from repro.nas.experiment import measure_architecture

    metrics = measure_architecture(_config_from_args(args))
    rows = [{"device": name, "latency_ms": ms} for name, ms in metrics.per_device_ms.items()]
    rows.append({"device": "MEAN", "latency_ms": metrics.latency_ms})
    rows.append({"device": "STD", "latency_ms": metrics.lat_std})
    print(render_table(rows, title="Predicted inference latency"))
    print(f"memory: {metrics.memory_mb:.2f} MB, params: {metrics.param_count:,}, "
          f"flops: {metrics.flops/1e6:.1f} MF")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.core.markdown_report import write_sweep_report
    from repro.core.pipeline import run_paper_sweep

    print("running the full sweep and writing the markdown report (~10 s)...")
    result = run_paper_sweep(seed=args.seed)
    size = write_sweep_report(result, args.out, include_baseline=True)
    print(f"report written to {args.out} ({size / 1e3:.1f} kB)")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.core.validation import verify_reproduction

    print("running the full sweep and verifying every reproduction claim (~10 s)...")
    report = verify_reproduction(seed=args.seed)
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_energy(args: argparse.Namespace) -> int:
    from repro.graph.trace import trace_model
    from repro.latency.energy import ENERGY_MODELS, estimate_energy_mj
    from repro.nn.init import skip_init
    from repro.nn.resnet import build_model

    with skip_init():
        model = build_model(_config_from_args(args))
    graph = trace_model(model, input_hw=(100, 100))
    rows = [{"device": d, "energy_mj": round(estimate_energy_mj(graph, d), 3)} for d in ENERGY_MODELS]
    print(render_table(rows, title="Estimated single-inference energy (synthetic model, see docs)"))
    return 0


def _cmd_quantize(args: argparse.Namespace) -> int:
    from repro.nn import count_parameters
    from repro.nn.resnet import build_model
    from repro.onnxlite import model_size_mb
    from repro.quant import fake_quantize_model, quantized_size_mb

    model = build_model(_config_from_args(args))
    fp32 = model_size_mb(model)
    quantizers = fake_quantize_model(model, dtype=args.dtype)
    int_mb = quantized_size_mb(model, dtype=args.dtype)
    print(f"parameters: {count_parameters(model):,}")
    print(f"fp32 storage: {fp32:.2f} MB")
    print(f"{args.dtype} storage: {int_mb:.2f} MB ({fp32 / int_mb:.1f}x smaller)")
    print(f"quantized tensors: {len(quantizers)} (weights only; BN/bias stay fp32)")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.nn.resnet import build_model
    from repro.profiling import profile_model, profile_table

    model = build_model(_config_from_args(args))
    profiles = profile_model(model, batch=args.profile_batch, input_hw=(args.size, args.size))
    print(profile_table(profiles, title=f"Forward-pass profile ({args.size}x{args.size})"))
    return 0


def _build_quantized_plan(model, config, size: int, seed: int):
    """Quantized export -> calibration -> kernel choice -> compiled plan.

    Calibration runs on synthetic patches from a fixed-seed generator,
    so repeated invocations compile the same plan.
    """
    import numpy as np

    from repro.deploy import autotune_variants, compile_plan
    from repro.onnxlite.reader import proto_from_bytes
    from repro.quant import export_quantized_model
    from repro.quant.calibrate import calibrate_activations

    proto = proto_from_bytes(export_quantized_model(model, input_hw=(size, size)))
    rng = np.random.default_rng(seed)
    calib = rng.standard_normal((16, config.channels, size, size)).astype("float32")
    calibrate_activations(proto, calib)
    return compile_plan(proto, variants=autotune_variants(proto).variants)


def _int8_layers(plan) -> int:
    """Plan steps bound to an ``*.int8`` kernel."""
    return sum(v.endswith(".int8") for v in plan.kernel_variants().values())


def _print_variant_energy_table(model, size: int, plan, device: str = "cortexA76cpu") -> None:
    """Per-kernel variant + energy table for a compiled plan."""
    from repro.graph.trace import trace_model
    from repro.latency import energy_report

    graph = trace_model(model, input_hw=(size, size))
    rows = energy_report(graph, device, variants=plan.kernel_variants())
    print(render_table(
        [{"kernel": r["kernel"], "variant": r["variant"],
          "energy_uj": round(r["energy_mj"] * 1e3, 2)} for r in rows],
        title=f"Kernel variants & estimated energy ({device})",
    ))
    total = sum(r["energy_mj"] for r in rows)
    print(f"estimated dynamic energy/inference: {total:.3f} mJ on {device}")


def _cmd_infer(args: argparse.Namespace) -> int:
    import time

    import numpy as np

    from repro.deploy import load_runtime, native
    from repro.nn.resnet import build_model
    from repro.onnxlite.export import export_model

    config = _config_from_args(args)
    model = build_model(config)
    rng = np.random.default_rng(args.seed)
    x = rng.standard_normal((args.batch, config.channels, args.size, args.size)).astype("float32")
    if args.quantized:
        plan = _build_quantized_plan(model, config, args.size, seed=args.seed)
        run = plan.run
        mode = (f"compiled plan (int8 weights, {_int8_layers(plan)} int8 layers, "
                f"int8 kernels: {native.implementation()})")
    else:
        runtime = load_runtime(export_model(model, input_hw=(args.size, args.size)))
        compiled = args.compiled

        def run(batch):
            return runtime.run(batch, compiled=compiled)

        mode = "compiled plan" if compiled else "interpreted"
    run(x)  # warm (also compiles the plan once)
    timings = []
    for _ in range(args.runs):
        t0 = time.perf_counter()
        out = run(x)
        timings.append(time.perf_counter() - t0)
    best = min(timings)
    print(f"{mode}: batch {args.batch} @ {args.size}x{args.size}, best of {args.runs}: "
          f"{best * 1e3:.2f} ms ({args.batch / best:.1f} images/sec)")
    print(f"logits[0]: {np.array2string(out[0], precision=4)}")
    if args.quantized:
        _print_variant_energy_table(model, args.size, plan)
    return 0


#: The serve-bench fleet ladder: width rungs served side by side (the
#: Pareto front's latency axis — wider stem = more FLOPs per image).
_FLEET_WIDTHS = (32, 48, 64)
_FLEET_NAMES = ("pareto-s", "pareto-m", "pareto-l")


def _serve_bench_fleet(args: argparse.Namespace, policy):
    """The mixed-model multi-tenant fleet scenario behind ``--fleet N``:
    ``(fleet, tenants, JSON fields, None)``."""
    import dataclasses

    from repro.deploy import load_runtime
    from repro.graph.trace import trace_model
    from repro.latency import latency_table
    from repro.nas.surrogate import SurrogateEvaluator
    from repro.nn.resnet import build_model
    from repro.onnxlite.export import export_model
    from repro.serve import (
        AdmissionPolicy,
        AutoscalerConfig,
        FleetServer,
        ServeConfig,
        TenantLoad,
        TenantQuota,
    )

    n_models = min(args.fleet, len(_FLEET_WIDTHS))
    if n_models < args.fleet:
        _LOG.warning("--fleet %d clamped to the %d-rung width ladder",
                     args.fleet, n_models)
    base_config = _config_from_args(args)
    surrogate = SurrogateEvaluator()
    serve_config = ServeConfig(
        policy=policy,
        admission=AdmissionPolicy(tenants={
            "interactive": TenantQuota(rate_per_s=4000, burst=256, priority=1),
            "analytics": TenantQuota(rate_per_s=2000, burst=128, priority=0),
            "archive": TenantQuota(rate_per_s=1000, burst=64, priority=0),
        }),
        autoscaler=AutoscalerConfig(
            min_replicas=1,
            max_replicas=max(1, args.autoscale_max),
            background=True,
            interval_s=0.25,
        ),
    )

    models: dict[str, dict] = {}
    fleet = FleetServer(serve_config)
    for name, width in zip(_FLEET_NAMES[:n_models], _FLEET_WIDTHS[:n_models]):
        cfg = dataclasses.replace(base_config, initial_output_feature=width)
        model = build_model(cfg)
        plan = load_runtime(
            export_model(model, input_hw=(args.size, args.size))
        ).compile()
        table = latency_table(trace_model(model, input_hw=(args.size, args.size)))
        accuracy = surrogate.expected_accuracy(cfg)
        fleet.register(name, plan, accuracy=accuracy, latency_ms=table)
        models[name] = {
            "width": width,
            "accuracy_pct": round(accuracy, 2),
            "latency_ms": {k: round(v, 3) for k, v in sorted(table.items())},
        }
        print(f"registered {name}: f={width}, surrogate accuracy "
              f"{accuracy:.2f}%, predicted mean {table['mean']:.2f} ms "
              f"(cortexA76cpu {table['cortexA76cpu']:.2f} ms)")

    # Budgets are device predictions on the ladder's cortexA76cpu column:
    # interactive's budget admits only the small rung, analytics' admits
    # the mid rung under spill, archive pins the large rung by hint.
    small_ms = models[_FLEET_NAMES[0]]["latency_ms"]["cortexA76cpu"]
    interactive_budget = round(small_ms * 1.5, 2)
    analytics_budget = round(small_ms * 3.0, 2)
    tenants = [
        TenantLoad(name="interactive", clients=max(2, args.clients // 2),
                   budget_ms=interactive_budget, device="cortexA76cpu",
                   deadline_ms=400.0, priority=1),
        TenantLoad(name="analytics", clients=max(1, args.clients // 4),
                   budget_ms=analytics_budget, device="cortexA76cpu",
                   deadline_ms=800.0),
        TenantLoad(name="archive", clients=max(1, args.clients // 8),
                   model=_FLEET_NAMES[n_models - 1], deadline_ms=1500.0),
    ]
    return fleet, tenants, {"models": models}, None


def _serve_bench_model(args: argparse.Namespace, policy):
    """One compiled plan behind a :class:`~repro.serve.PlanServer`:
    ``(server, tenants, JSON fields, serial baseline)``, the baselines
    measured before the server starts.  ``--target-p99-ms`` replaces
    ``policy`` with one seeded from the latency predictors."""
    from repro.deploy import load_runtime, native
    from repro.graph.trace import trace_model
    from repro.nn.resnet import build_model
    from repro.onnxlite.export import export_model
    from repro.serve import (
        PlanServer,
        ServeConfig,
        TenantLoad,
        serial_baseline,
        suggest_batch_policy,
    )

    config = _config_from_args(args)
    model = build_model(config)
    runtime = load_runtime(export_model(model, input_hw=(args.size, args.size)))
    fp32_plan = runtime.compile()
    if args.quantized:
        plan = _build_quantized_plan(model, config, args.size, seed=args.seed)
        print(f"serving the quantized plan: {_int8_layers(plan)} int8 layers, "
              f"int8 kernels: {native.implementation()}")
    else:
        plan = fp32_plan
    if args.target_p99_ms > 0:
        policy = suggest_batch_policy(
            trace_model(model, input_hw=(args.size, args.size)),
            target_p99_ms=args.target_p99_ms,
            replicas=args.replicas,
            worker_mode=args.worker_mode,
        )
        print(f"policy seeded from latency predictors (target p99 {args.target_p99_ms} ms): "
              f"max_batch={policy.max_batch_size}, "
              f"max_delay={policy.max_queue_delay_ms:.2f} ms, "
              f"queue_depth={policy.max_queue_depth}")
    baseline = serial_baseline(plan.replicate(), duration_s=min(1.0, args.duration / 2))
    fields: dict = {"serial_baseline": baseline.as_dict()}
    if args.quantized:
        # Paired serial comparison on the same machine state: the served
        # quantized plan vs the fp32 default compilation.
        fp32_serial = serial_baseline(fp32_plan.replicate(),
                                      duration_s=min(1.0, args.duration / 2))
        ratio = (baseline.throughput_ips / fp32_serial.throughput_ips
                 if fp32_serial.throughput_ips else float("nan"))
        fields["quantized"] = {
            "int8_layers": _int8_layers(plan),
            "serial_fp32_ips": round(fp32_serial.throughput_ips, 1),
            "serial_quantized_ips": round(baseline.throughput_ips, 1),
            "quantized_vs_fp32": round(ratio, 3),
        }
        print(f"quantized vs fp32 serial: {baseline.throughput_ips:.1f} vs "
              f"{fp32_serial.throughput_ips:.1f} images/sec ({ratio:.2f}x)")

    server = PlanServer(plan, config=ServeConfig(policy=policy))
    return server, [TenantLoad(clients=args.clients)], fields, baseline


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    import dataclasses
    import json

    import repro.obs as obs
    from repro.parallel import available_cpus
    from repro.serve import BatchPolicy, run_load

    if args.fleet > 0:
        single_model_flags = [flag for flag, value in (
            ("--policy.worker-mode", args.worker_mode != "thread"),
            ("--quantized", args.quantized),
            ("--target-p99-ms", args.target_p99_ms),
        ) if value]
        if single_model_flags:
            _LOG.error("--fleet serves the thread-mode fp32 width ladder; drop %s",
                       ", ".join(single_model_flags))
            return 2
    policy = BatchPolicy(
        max_batch_size=args.max_batch,
        max_queue_delay_ms=args.max_delay_ms,
        max_queue_depth=args.queue_depth,
        replicas=args.replicas,
        worker_mode=args.worker_mode,
    )
    if args.obs_log:
        obs.configure(jsonl_path=args.obs_log, reset_metrics=True)
    try:
        scenario = _serve_bench_fleet if args.fleet > 0 else _serve_bench_model
        server, tenants, fields, baseline = scenario(args, policy)
        with server:
            report = run_load(
                server,
                tenants,
                duration_s=args.duration,
                seed=args.seed,
                arrival_rate_ips=args.rate or None,
            )
            stats = server.stats()
    finally:
        if args.obs_log:
            obs.shutdown()

    policy = server.policy  # replicas may have been clamped
    print(report.render())
    if baseline is not None:
        speedup = (report.throughput_ips / baseline.throughput_ips
                   if baseline.throughput_ips else float("nan"))
        fields["speedup_vs_serial"] = round(speedup, 3)
        print(f"  serial      {baseline.throughput_ips:.1f} images/sec  "
              f"(p50 {baseline.latency_ms_p50:.2f} ms)")
        print(f"  speedup     {speedup:.2f}x vs serial single-image")
    for event in stats["scale_events"]:
        print(f"  scale {event['action']:<4} {event['model']} -> "
              f"{event['replicas']} replica(s) (queue {event['queue_depth']})")
    print(f"  cache       hits {stats['hits']}  misses {stats['misses']}")
    print(f"  workers     mode {policy.worker_mode}  replicas {policy.replicas}  "
          f"cores {available_cpus()}")
    if policy.worker_mode == "process":
        print(f"  processes   pids {stats.get('worker_pids', [])}  "
              f"deaths {stats.get('worker_deaths', 0)}  "
              f"respawns {stats.get('worker_respawns', 0)}  "
              f"shared weights {stats.get('shared_weight_bytes', 0) / 1e6:.1f} MB "
              f"(private copies {stats.get('worker_private_weight_bytes', 0)} B)")
    if args.obs_log:
        print(f"observability log written to {args.obs_log} "
              f"(render with: repro-nas obs report {args.obs_log})")

    if args.json:
        def numeric(counters: dict) -> dict:
            return {k: v for k, v in counters.items() if isinstance(v, (int, float))}

        payload = {
            "serving": report.as_dict(),
            **fields,
            "tenants": [dataclasses.asdict(t) for t in tenants],
            "policy": policy.as_dict(),
            "counters": {
                **numeric(stats),
                "models": {name: numeric(m) for name, m in stats["models"].items()},
            },
            "scale_events": stats["scale_events"],
            "admission": stats.get("admission", {}),
            "extra_info": {
                "worker_mode": policy.worker_mode,
                "workers": policy.replicas,
                "cpu_count": available_cpus(),
                "degraded": stats.get("degraded", False),
                "shared_weight_bytes": stats.get("shared_weight_bytes", 0),
                "worker_private_weight_bytes": stats.get(
                    "worker_private_weight_bytes", 0),
                # The resolved (post-clamp) server construction config.
                "serve_config": server.config.as_dict(),
            },
            "input_hw": args.size,
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        print(f"JSON written to {args.json}")

    if args.assert_slo > 0:
        if report.slo_attainment < args.assert_slo or not report.all_routes_fit_budget:
            _LOG.error(
                "SLO assertion failed: attainment %.4f (need >= %.4f), "
                "all_routes_fit_budget=%s",
                report.slo_attainment, args.assert_slo,
                report.all_routes_fit_budget,
            )
            return 1
        print(f"SLO assertion passed: attainment "
              f"{100 * report.slo_attainment:.2f}% >= "
              f"{100 * args.assert_slo:.0f}%, all routes fit budget")
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs import export_chrome_trace, export_prometheus, read_events, render_report

    events = read_events(args.log)
    if not events:
        _LOG.error("no events found in %s", args.log)
        return 1
    if args.obs_command == "report":
        print(render_report(events, coverage_parent=args.parent))
        return 0
    # export
    if args.format == "chrome":
        size = export_chrome_trace(events, args.out)
        print(f"Chrome trace written to {args.out} ({size / 1e3:.1f} kB); "
              f"open chrome://tracing or https://ui.perfetto.dev")
    else:
        text = export_prometheus(events, args.out)
        print(f"Prometheus exposition written to {args.out} "
              f"({len(text.splitlines())} lines)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-nas`` argument parser."""
    parser = argparse.ArgumentParser(prog="repro-nas", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("space", help="print the search space (Figure 2)")

    sweep = sub.add_parser("sweep", help="run a NAS sweep to JSONL")
    sweep.add_argument("--out", default="trials.jsonl")
    sweep.add_argument("--budget", type=int, default=0, help="0 = full grid")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--paper-mode", action="store_true", help="inject the 11 paper failures")
    sweep.add_argument("--obs-log", default="", help="also write an observability JSONL log here")
    sweep.add_argument("--nodes", type=int, default=0,
                       help="distributed: run N worker nodes over the lease table "
                            "(0 = serial)")
    sweep.add_argument("--resume", action="store_true",
                       help="load --out, verify its manifest, skip completed trials")
    sweep.add_argument("--batch-size", type=int, default=1,
                       help="distributed: trials per lease claim")
    sweep.add_argument("--lease-ttl", type=float, default=30.0,
                       help="distributed: seconds without a heartbeat before a lease is reclaimed")

    pareto = sub.add_parser("pareto", help="Pareto front of a trial JSONL (Table 4)")
    pareto.add_argument("trials", help="path to a sweep JSONL file")
    pareto.add_argument("--html", default="", help="also write an interactive HTML scatter")

    sub.add_parser("baseline", help="evaluate stock ResNet-18 variants (Table 5)")

    verify = sub.add_parser("verify", help="run the sweep and verify every paper claim")
    verify.add_argument("--seed", type=int, default=0)

    report = sub.add_parser("report", help="write a markdown paper-vs-measured report")
    report.add_argument("--out", default="sweep_report.md")
    report.add_argument("--seed", type=int, default=0)

    latency = sub.add_parser("latency", help="predict latency of one config")
    _add_config_arguments(latency)

    energy = sub.add_parser("energy", help="estimate inference energy of one config")
    _add_config_arguments(energy)

    quantize = sub.add_parser("quantize", help="int8 post-training quantization what-if")
    _add_config_arguments(quantize)
    quantize.add_argument("--dtype", default="int8", choices=("int8", "uint8", "int16"))

    profile = sub.add_parser("profile", help="per-layer forward profile of one config")
    _add_config_arguments(profile)
    profile.add_argument("--size", type=int, default=64, help="input patch size")
    profile.add_argument("--profile-batch", type=int, default=4)

    infer = sub.add_parser("infer", help="run inference on one config (deploy runtime)")
    _add_config_arguments(infer)
    infer.add_argument("--size", type=int, default=24,
                       help="spatial input size (deployment tile)")
    infer.add_argument("--runs", type=int, default=5, help="timed repetitions")
    infer.add_argument("--seed", type=int, default=0)
    infer.add_argument("--compiled", action=argparse.BooleanOptionalAction, default=True,
                       help="execute through the compiled InferencePlan "
                            "(--no-compiled for the interpreted reference; "
                            "both paths agree within rtol=1e-3/atol=1e-4)")
    infer.add_argument("--quantized", action="store_true",
                       help="run the int8 path: quantized export + activation "
                            "calibration, int8 Conv/Gemm kernels where the "
                            "native ones load (fp32 otherwise); prints the "
                            "kernel-variant table with per-kernel energy "
                            "estimates")

    serve_bench = sub.add_parser(
        "serve-bench",
        help="closed/open-loop load benchmark of the micro-batching server")
    _add_config_arguments(serve_bench)
    serve_bench.add_argument("--size", type=int, default=24,
                             help="spatial input size (deployment tile)")
    serve_bench.add_argument("--duration", type=float, default=3.0,
                             help="load-generation length in seconds")
    serve_bench.add_argument("--clients", type=int, default=32,
                             help="concurrent client threads (with --fleet: "
                                  "split across the three tenants)")
    serve_bench.add_argument("--rate", type=float, default=0.0,
                             help="aggregate open-loop arrival rate in images/sec "
                                  "(0 = closed loop)")
    # Policy knobs use dotted --policy.* spellings mirroring the
    # BatchPolicy field names.
    serve_bench.add_argument("--policy.replicas",
                             dest="replicas", type=int, default=1,
                             help="plan replicas: worker threads, or worker "
                                  "processes with --policy.worker-mode process; "
                                  "clamped to the usable core count")
    serve_bench.add_argument("--policy.worker-mode",
                             dest="worker_mode",
                             choices=("thread", "process"), default="thread",
                             help="run plan replicas as threads (shared GIL) or "
                                  "as worker processes over shared-memory "
                                  "weight arenas")
    serve_bench.add_argument("--policy.max-batch-size",
                             dest="max_batch", type=int, default=16,
                             help="micro-batcher coalescing limit")
    serve_bench.add_argument("--policy.max-queue-delay-ms",
                             dest="max_delay_ms", type=float, default=5.0,
                             help="deadline before a partial batch is flushed")
    serve_bench.add_argument("--policy.max-queue-depth",
                             dest="queue_depth", type=int, default=64,
                             help="backpressure high-water mark")
    serve_bench.add_argument("--fleet", type=int, default=0,
                             help="serve a multi-model fleet of this many "
                                  "Pareto-ladder widths (max 3) under the "
                                  "mixed-tenant scenario instead of one model")
    serve_bench.add_argument("--assert-slo", type=float, default=0.0,
                             help="exit non-zero unless SLO attainment reaches "
                                  "this fraction (e.g. 0.95) and every routed "
                                  "request fit its budget; only the --fleet "
                                  "tenants declare deadlines and budgets")
    serve_bench.add_argument("--autoscale-max", type=int, default=2,
                             help="with --fleet: autoscaler per-model replica "
                                  "ceiling (min is 1)")
    serve_bench.add_argument("--target-p99-ms", type=float, default=0.0,
                             help="seed the batch policy from the device latency "
                                  "predictors against this p99 budget "
                                  "(overrides --policy.max-batch-size, "
                                  "--policy.max-queue-delay-ms and "
                                  "--policy.max-queue-depth)")
    serve_bench.add_argument("--seed", type=int, default=0)
    serve_bench.add_argument("--quantized", action="store_true",
                             help="serve the quantized plan instead of the fp32 "
                                  "default, and report the paired serial "
                                  "throughput ratio vs fp32")
    serve_bench.add_argument("--obs-log", default="",
                             help="write an observability JSONL log here")
    serve_bench.add_argument("--json", default="",
                             help="write the throughput/latency report as JSON here")

    obs_parser = sub.add_parser("obs", help="inspect an observability JSONL log")
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)
    obs_report = obs_sub.add_parser("report", help="render counters, histograms and span tree")
    obs_report.add_argument("log", help="path to an obs JSONL log")
    obs_report.add_argument("--parent", default="experiment.run",
                            help="span whose children define trace coverage")
    obs_export = obs_sub.add_parser("export", help="convert the log to another format")
    obs_export.add_argument("log", help="path to an obs JSONL log")
    obs_export.add_argument("--format", default="chrome", choices=("chrome", "prom"))
    obs_export.add_argument("--out", required=True, help="output file")

    return parser


_COMMANDS = {
    "space": _cmd_space,
    "sweep": _cmd_sweep,
    "pareto": _cmd_pareto,
    "baseline": _cmd_baseline,
    "verify": _cmd_verify,
    "report": _cmd_report,
    "latency": _cmd_latency,
    "energy": _cmd_energy,
    "quantize": _cmd_quantize,
    "profile": _cmd_profile,
    "infer": _cmd_infer,
    "serve-bench": _cmd_serve_bench,
    "obs": _cmd_obs,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    configure(level=10 if args.verbose else 20)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
