"""Substrate performance benchmarks (pytest-benchmark timings only).

These cover the hot paths the reproduction rests on: im2col convolution
forward/backward, full-model inference (training stack, interpreted
deploy runtime, and compiled inference plan), onnxlite export, 4-device
latency prediction, front extraction at scale, and dataset synthesis.

Per the repo convention, assertions capture the qualitative *shape* of
the result (orderings, ratios) with documented tolerances, never exact
wall-clock values.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from repro.deploy import load_runtime, native
from repro.graph.trace import trace_model
from repro.latency.predictors import predict_all_devices
from repro.nas.config import ModelConfig
from repro.nas.crossval import TrainSettings, cross_validate_model
from repro.nn.resnet import SearchableResNet18, build_model
from repro.onnxlite.export import export_model
from repro.pareto.dominance import non_dominated_mask, non_dominated_mask_kung
from repro.parallel import available_cpus
from repro.profiling import profile_training_step
from repro.serve import (
    BatchPolicy,
    PlanServer,
    ServeConfig,
    ServeRequest,
    TenantLoad,
    run_load,
    serial_baseline,
)
from repro.tensor import Tensor, WorkspacePool, conv2d, use_workspaces
from repro.tensor.tensor import no_grad


@pytest.fixture(scope="module")
def winner_model():
    return SearchableResNet18(in_channels=5, kernel_size=3, stride=2, padding=1,
                              pool_choice=0, initial_output_feature=32)


@pytest.fixture(scope="module")
def winner_runtime(winner_model):
    """Interpreted deploy runtime for the Pareto-winner architecture."""
    return load_runtime(export_model(winner_model, (100, 100)))


@pytest.fixture(scope="module")
def winner_plan(winner_runtime):
    """Compiled inference plan for the same model (shared arena)."""
    return winner_runtime.compile()


class TestConvPerformance:
    def test_conv2d_forward(self, benchmark):
        x = Tensor(np.random.default_rng(0).normal(size=(8, 32, 50, 50)).astype(np.float32))
        w = Tensor(np.random.default_rng(1).normal(size=(32, 32, 3, 3)).astype(np.float32) * 0.1)

        def forward():
            with no_grad():
                return conv2d(x, w, None, stride=1, padding=1)

        out = benchmark(forward)
        assert out.shape == (8, 32, 50, 50)

    def test_conv2d_backward(self, benchmark):
        x = Tensor(np.random.default_rng(0).normal(size=(4, 16, 32, 32)).astype(np.float32),
                   requires_grad=True)
        w = Tensor(np.random.default_rng(1).normal(size=(16, 16, 3, 3)).astype(np.float32) * 0.1,
                   requires_grad=True)

        def train_step():
            x.zero_grad()
            w.zero_grad()
            conv2d(x, w, None, stride=1, padding=1).sum().backward()
            return w.grad

        grad = benchmark(train_step)
        assert grad.shape == w.shape


class TestModelPerformance:
    def test_inference_single_image(self, benchmark, winner_model):
        winner_model.eval()
        x = Tensor(np.random.default_rng(0).normal(size=(1, 5, 100, 100)).astype(np.float32))

        def infer():
            with no_grad():
                return winner_model(x)

        out = benchmark(infer)
        assert out.shape == (1, 2)

    def test_trace_and_predict_four_devices(self, benchmark, winner_model):
        def run():
            graph = trace_model(winner_model, (100, 100))
            return predict_all_devices(graph)

        summary = benchmark(run)
        assert len(summary.per_device_ms) == 4

    def test_onnxlite_export(self, benchmark, winner_model):
        blob = benchmark(export_model, winner_model, (100, 100))
        assert len(blob) > 10_000_000  # ~11 MB of weights


class TestDeployRuntimePerformance:
    """Naive interpreter vs. compiled plan on single-image inference."""

    def test_interpreted_single_image(self, benchmark, winner_runtime):
        x = np.random.default_rng(0).normal(size=(1, 5, 100, 100)).astype(np.float32)
        out = benchmark(winner_runtime.run, x)
        assert out.shape == (1, 2)

    def test_compiled_single_image(self, benchmark, winner_plan):
        x = np.random.default_rng(0).normal(size=(1, 5, 100, 100)).astype(np.float32)
        out = benchmark(winner_plan.run, x)
        assert out.shape == (1, 2)

    def test_compiled_beats_interpreter(self, benchmark, winner_runtime, winner_plan):
        """Compiled <= 0.8x naive wall time on the Pareto-winner model.

        Tolerance rationale: BN folding alone removes one full-tensor
        pass per conv and fusion removes the ReLU pass, so anything
        short of a 1.25x speedup means the compile pipeline regressed;
        locally the plan runs ~1.8x faster, leaving headroom for noisy
        CI machines.  Median-of-repeats guards against scheduler blips.
        """
        x = np.random.default_rng(0).normal(size=(1, 5, 100, 100)).astype(np.float32)
        winner_runtime.run(x)  # warm caches
        winner_plan.run(x)     # populate the arena pool

        def median_seconds(fn, repeats=7):
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                fn(x)
                times.append(time.perf_counter() - t0)
            return sorted(times)[len(times) // 2]

        if getattr(benchmark, "disabled", False):
            compiled = median_seconds(winner_plan.run)
        else:
            benchmark(winner_plan.run, x)
            compiled = benchmark.stats.stats.median
        naive = median_seconds(winner_runtime.run)
        assert compiled <= 0.8 * naive, (
            f"compiled plan ({compiled * 1e3:.2f} ms) should run in <= 80% of "
            f"the interpreter ({naive * 1e3:.2f} ms)"
        )

    def test_planner_reduces_peak_intermediate_memory(self, benchmark, winner_runtime, winner_plan):
        """The arena's planned peak stays well under the interpreter's env.

        Qualitative shape assertion: the interpreter keeps *every*
        activation alive, the planner only the live set — for this
        architecture that is >4x less; we assert the conservative 2x.
        """
        x = np.random.default_rng(0).normal(size=(1, 5, 100, 100)).astype(np.float32)
        winner_runtime.run(x)
        measured_naive = winner_runtime.last_env_bytes
        benchmark(winner_plan.run, x)
        planned = winner_plan.planned_peak_bytes(batch=1)
        assert planned * 2 < measured_naive
        # Static accounting agrees with the measured environment
        # (both exclude weights; input tensor included in each).
        static_naive = winner_plan.naive_env_bytes(batch=1)
        assert measured_naive == static_naive
        # Steady state allocates nothing: every buffer is pool-served.
        stats_before = winner_plan.memory_stats()
        winner_plan.run(x)
        assert winner_plan.memory_stats()["allocations"] == stats_before["allocations"]


class TestParetoPerformance:
    @pytest.fixture(scope="class")
    def cloud(self):
        rng = np.random.default_rng(0)
        return rng.normal(size=(5000, 3))

    def test_naive_front(self, benchmark, cloud):
        mask = benchmark(non_dominated_mask, cloud)
        assert mask.any()

    def test_kung_front(self, benchmark, cloud):
        mask = benchmark(non_dominated_mask_kung, cloud)
        assert mask.any()


class TestTrainingThroughput:
    """The PR 2 substrate: hybrid-GEMM conv + workspace reuse + fold executors.

    Timings land in the CI benchmark JSON artifact next to the inference
    numbers; assertions stay qualitative (ratios, steady-state pool
    behaviour), never absolute wall clock.
    """

    @pytest.fixture(scope="class")
    def bench_config(self):
        """The paper's winning input combination at its 100x100 patch size."""
        return ModelConfig(channels=5, batch=8, kernel_size=3, stride=2, padding=1,
                           pool_choice=0, kernel_size_pool=3, stride_pool=2,
                           initial_output_feature=32)

    def test_training_step_throughput(self, benchmark, bench_config):
        """Images/s + steady-state workspace reuse of one SGD train step."""
        model = build_model(bench_config, seed=0)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(8, bench_config.channels, 64, 64)).astype(np.float32)
        y = rng.integers(0, 2, size=8)
        from repro.nn.loss import CrossEntropyLoss
        from repro.nn.optim import SGD

        loss_fn = CrossEntropyLoss()
        optimizer = SGD(model.parameters(), lr=0.01, momentum=0.9)
        model.train()
        pool = WorkspacePool()

        def step():
            with use_workspaces(pool):
                optimizer.zero_grad()
                loss = loss_fn(model(Tensor(x)), y)
                loss.backward()
                optimizer.step()
            return loss

        step()  # warm the pool so the benchmark sees the steady state
        misses_after_warmup = pool.stats()["misses"]
        benchmark(step)
        stats = pool.stats()
        # Steady state: every scratch acquisition is a recycled buffer.
        assert stats["misses"] == misses_after_warmup
        assert stats["hits"] > stats["misses"]
        assert stats["peak_bytes"] > 0

    def test_training_step_profile_reports_phases(self, bench_config):
        """The profiler's phase split and workspace counters are coherent."""
        model = build_model(bench_config, seed=0)
        profile = profile_training_step(model, batch=4, input_hw=(32, 32), steps=3)
        assert profile.images_per_s > 0
        assert profile.forward_s > 0 and profile.backward_s > 0
        # Misses stop growing after the first step; steps 2..3 are all hits.
        assert profile.workspace["hits"] > profile.workspace["misses"]

    def test_fold_parallel_matches_serial(self, benchmark, bench_config):
        """Process-pool CV reproduces serial fold accuracies bitwise.

        No wall-clock assertion: on a single-core runner the pool's
        spawn cost dwarfs the fold work, so only determinism — the
        property that makes fold parallelism safe to enable anywhere —
        is asserted, and both timings are reported in the artifact.
        """
        from repro.data.dataset import DrainageCrossingDataset

        dataset = DrainageCrossingDataset(channels=bench_config.channels, size=48,
                                          samples_per_class=4, regions=["california"], seed=0)
        settings = TrainSettings(epochs=1, k=2, recalibrate_bn=False)

        def run_serial():
            return cross_validate_model(bench_config, dataset, settings=settings, seed=7)

        serial_accs = benchmark(run_serial)
        t0 = time.perf_counter()
        parallel_accs = cross_validate_model(
            bench_config, dataset,
            settings=replace(settings, executor="process", workers=2), seed=7,
        )
        parallel_s = time.perf_counter() - t0
        print(f"\nfold-parallel CV: {parallel_s * 1e3:.0f} ms (process x2) "
              f"vs serial — accuracies {serial_accs}")
        assert parallel_accs == serial_accs  # bitwise, not approximately


class TestServingThroughput:
    """Micro-batching server vs serial single-image compiled inference.

    The serving layer's reason to exist is batched GEMM efficiency: at
    the 24x24 deployment tile each channels-last conv is one GEMM whose
    M dimension grows with the batch, turning many small matmuls into a
    few large ones, and the batcher is what actually delivers full
    batches to it under concurrent load.
    """

    HW = 24

    @pytest.fixture(scope="class")
    def serve_plan(self, winner_model):
        """Compiled plan for the winner architecture at the 24x24 tile.

        The module-scoped ``winner_plan`` is exported at the paper's
        100x100 patch; serving targets the deployment tile, where a conv
        has at most 144 output positions per image and batching is what
        fills its position-major GEMM, so this compiles its own.
        """
        return load_runtime(export_model(winner_model, (self.HW, self.HW))).compile()

    def test_server_throughput_vs_serial(self, benchmark, serve_plan):
        """The server sustains >= 2x serial single-image throughput.

        Tolerance rationale: at the 24x24 tile the channels-last conv
        kernel measures 2.9-3.3x raw single-image throughput at batch 8
        and 3.3-3.8x at batch 16 on a 2-core Xeon host; 2.0x leaves
        headroom for the full server (queueing, padding, result
        scatter) on noisy CI machines while still failing if
        micro-batching stops forming large batches or the batched
        convolution path regresses.
        Serial and served rounds are timed *paired and interleaved* and
        compared by the median per-round ratio, per the repo convention,
        so a global machine-speed drift cannot dominate the comparison.
        """
        policy = BatchPolicy(max_batch_size=16, max_queue_delay_ms=5.0,
                             max_queue_depth=64, replicas=1)
        rng = np.random.default_rng(0)
        x = rng.normal(size=serve_plan.input_shape).astype(np.float32)

        with PlanServer(serve_plan, ServeConfig(policy=policy)) as server:
            # Correctness spot-check: one served request matches the
            # serial compiled path on the same image.
            served_out = server.infer(ServeRequest(image=x)).row
            serial_out = serve_plan.replicate().run(x[None])[0]
            np.testing.assert_allclose(served_out, serial_out, rtol=1e-3, atol=1e-4)

            allocations_after_warm = server.cache.arena_allocations()
            rounds = []
            for _ in range(3):
                baseline = serial_baseline(serve_plan.replicate(), duration_s=0.5, seed=0)
                report = run_load(server, [TenantLoad(clients=32)], duration_s=1.0, seed=0)
                rounds.append((report.throughput_ips / baseline.throughput_ips,
                               baseline, report))
            rounds.sort(key=lambda r: r[0])
            speedup, baseline, report = rounds[len(rounds) // 2]
            # Steady state: warmup covered every (bucket, replica) pair,
            # so the load phase allocated nothing new in any arena.
            assert server.cache.arena_allocations() == allocations_after_warm

        assert report.errors == 0
        assert report.mean_batch_size >= 8.0, (
            f"micro-batcher should form large batches under 32 concurrent "
            f"clients: mean batch {report.mean_batch_size:.1f}"
        )
        assert speedup >= 2.0, (
            f"serving should be >= 2x serial single-image inference: "
            f"median paired round serial {baseline.throughput_ips:.0f} "
            f"images/s vs served {report.throughput_ips:.0f} images/s "
            f"({speedup:.2f}x)"
        )

        if not getattr(benchmark, "disabled", False):
            # Artifact timing of one served request under no load (the
            # assert above is drawn from the paired rounds, not this).
            with PlanServer(serve_plan, ServeConfig(policy=policy)) as artifact_server:
                benchmark(lambda: artifact_server.infer(ServeRequest(image=x)))
        benchmark.extra_info["serving_throughput_ips"] = round(report.throughput_ips, 1)
        benchmark.extra_info["serial_throughput_ips"] = round(baseline.throughput_ips, 1)
        benchmark.extra_info["speedup_vs_serial"] = round(speedup, 2)
        benchmark.extra_info["latency_ms_p50"] = round(report.latency_ms_p50, 3)
        benchmark.extra_info["latency_ms_p99"] = round(report.latency_ms_p99, 3)
        benchmark.extra_info["mean_batch_size"] = round(report.mean_batch_size, 2)

    def test_process_workers_beat_thread_replicas(self, benchmark, serve_plan):
        """Process workers >= 1.5x thread replicas on a >= 4-core machine.

        Thread replicas time-slice one GIL, so added replicas buy little
        on CPU-bound plans; process workers over the shared-memory
        weight arena actually use the cores.  Both modes run 4 replicas
        and identical load, timed *paired and interleaved* (thread round
        then process round, three pairs, median ratio) per the repo
        convention.  The 1.5x floor (not the naive 4x) leaves room for
        the BLAS inner loops that already release the GIL in thread
        mode and for staging/IPC overhead.  On fewer than 4 usable
        cores the ratio is recorded but not asserted — there is no
        parallelism for process mode to unlock.
        """
        workers = 4
        cores = available_cpus()
        rng = np.random.default_rng(0)
        x = rng.normal(size=serve_plan.input_shape).astype(np.float32)

        def config(mode: str) -> ServeConfig:
            return ServeConfig(
                policy=BatchPolicy(max_batch_size=16, max_queue_delay_ms=5.0,
                                   max_queue_depth=128, replicas=workers,
                                   worker_mode=mode),
                cpus=workers)

        rounds = []
        proc_stats = {}
        with PlanServer(serve_plan, config("thread")) as ts, \
                PlanServer(serve_plan, config("process")) as ps:
            # Cross-mode identity spot-check on a bucket-1 request.
            np.testing.assert_array_equal(ts.infer(ServeRequest(image=x)).row,
                                          ps.infer(ServeRequest(image=x)).row)
            for _ in range(3):
                thread_report = run_load(ts, [TenantLoad(clients=32)], duration_s=1.0, seed=0)
                proc_report = run_load(ps, [TenantLoad(clients=32)], duration_s=1.0, seed=0)
                rounds.append((proc_report.throughput_ips
                               / thread_report.throughput_ips,
                               thread_report, proc_report))
            proc_stats = ps.stats()
        rounds.sort(key=lambda r: r[0])
        ratio, thread_report, proc_report = rounds[len(rounds) // 2]

        assert thread_report.errors == 0 and proc_report.errors == 0
        assert proc_stats["worker_deaths"] == 0 and not proc_stats["degraded"]
        # Weights were shared, not copied, into the 4 workers.
        assert proc_stats["shared_weight_bytes"] > 0
        assert proc_stats["worker_private_weight_bytes"] == 0
        if cores >= workers:
            assert ratio >= 1.5, (
                f"{workers} process workers should beat {workers} thread "
                f"replicas on {cores} cores: thread "
                f"{thread_report.throughput_ips:.0f} images/s vs process "
                f"{proc_report.throughput_ips:.0f} images/s ({ratio:.2f}x)"
            )

        if not getattr(benchmark, "disabled", False):
            with PlanServer(serve_plan, config("process")) as artifact_server:
                benchmark(lambda: artifact_server.infer(ServeRequest(image=x)))
        benchmark.extra_info["worker_mode"] = "process"
        benchmark.extra_info["workers"] = workers
        benchmark.extra_info["cpu_count"] = cores
        benchmark.extra_info["process_vs_thread_x"] = round(ratio, 2)
        benchmark.extra_info["thread_throughput_ips"] = round(
            thread_report.throughput_ips, 1)
        benchmark.extra_info["process_throughput_ips"] = round(
            proc_report.throughput_ips, 1)
        benchmark.extra_info["shared_weight_mb"] = round(
            proc_stats["shared_weight_bytes"] / 1e6, 2)


class TestQuantizedServing:
    """Quantized compiled plan vs the fp32 default compilation.

    Which int8 kernels load decides the outcome.  On an AVX-512 VNNI host
    with a C compiler the native kernels (:mod:`repro.deploy.native`)
    load, int8 convs run 2-3x faster than fp32 BLAS, and
    ``autotune_variants`` keeps int8 on every calibrated layer.
    Elsewhere only the NumPy int8 kernels (an exact integer GEMM over a
    float32 carrier) exist; they lose to fp32 on every layer, so the rule
    forces every Conv and Gemm to fp32.  The deployable configuration is
    "quantized weights + the rule's kernels" in both cases.  Its floor is
    asserted; the pure-int8 ratio and the int8 implementation are
    published in the artifact.
    """

    HW = 24

    @pytest.fixture(scope="class")
    def quantized_setup(self, winner_model):
        from repro.deploy import autotune_variants, compile_plan
        from repro.onnxlite.reader import proto_from_bytes
        from repro.quant.calibrate import calibrate_activations
        from repro.quant.export import export_quantized_model

        proto = proto_from_bytes(export_quantized_model(winner_model, (self.HW, self.HW)))
        rng = np.random.default_rng(0)
        calibrate_activations(
            proto, rng.standard_normal((16, 5, self.HW, self.HW)).astype(np.float32))
        tune = autotune_variants(proto)
        fp32_plan = load_runtime(export_model(winner_model, (self.HW, self.HW))).compile()
        tuned_plan = compile_plan(proto, variants=tune.variants)
        int8_plan = compile_plan(proto)  # integer defaults on every eligible layer
        return fp32_plan, tuned_plan, int8_plan

    def test_autotuned_quantized_serving_matches_fp32(self, benchmark, quantized_setup):
        """Quantized plan >= 0.9x fp32 serial throughput at the tile.

        Tolerance rationale: the rule keeps int8 only where the native
        kernels load, and there the plan is well above 1x (locally
        1.7-2.5x); with the NumPy int8 kernels every Conv and Gemm runs
        fp32, so the plan tracks fp32.  0.9x catches a real regression —
        a rule that starts binding slow kernels, or an integer epilogue
        leaking into hot layers — while absorbing CI scheduler noise.  Rounds are paired and interleaved, compared by
        the median per-round ratio, per the repo convention.
        """
        from repro.serve import serial_baseline

        fp32_plan, tuned_plan, int8_plan = quantized_setup
        x = np.random.default_rng(0).normal(size=(1, 5, self.HW, self.HW)).astype(np.float32)
        for plan in (fp32_plan, tuned_plan, int8_plan):
            plan.run(x)  # warm arenas

        rounds = []
        for _ in range(3):
            fp32 = serial_baseline(fp32_plan.replicate(), duration_s=0.5, seed=0)
            tuned = serial_baseline(tuned_plan.replicate(), duration_s=0.5, seed=0)
            int8 = serial_baseline(int8_plan.replicate(), duration_s=0.5, seed=0)
            rounds.append((tuned.throughput_ips / fp32.throughput_ips,
                           int8.throughput_ips / fp32.throughput_ips,
                           fp32, tuned))
        rounds.sort(key=lambda r: r[0])
        tuned_ratio, int8_ratio, fp32, tuned = rounds[len(rounds) // 2]

        assert tuned_ratio >= 0.9, (
            f"quantized serving should hold >= 0.9x fp32: median "
            f"paired round fp32 {fp32.throughput_ips:.0f} images/s vs tuned "
            f"{tuned.throughput_ips:.0f} images/s ({tuned_ratio:.2f}x)"
        )

        if not getattr(benchmark, "disabled", False):
            benchmark(tuned_plan.run, x)
        benchmark.extra_info["int8_impl"] = native.implementation()
        benchmark.extra_info["tuned_vs_fp32_serial"] = round(tuned_ratio, 3)
        benchmark.extra_info["pure_int8_vs_fp32_serial"] = round(int8_ratio, 3)
        benchmark.extra_info["int8_layers"] = sum(
            v.endswith(".int8") for v in tuned_plan.kernel_variants().values())
        benchmark.extra_info["fp32_throughput_ips"] = round(fp32.throughput_ips, 1)
        benchmark.extra_info["tuned_throughput_ips"] = round(tuned.throughput_ips, 1)


class TestDataPerformance:
    def test_dataset_batch_generation(self, benchmark):
        from repro.data.dataset import DrainageCrossingDataset

        dataset = DrainageCrossingDataset(channels=7, size=100, samples_per_class=4,
                                          regions=["california"], seed=0, cache=False)
        indices = np.arange(8)
        x, y = benchmark(dataset.batch, indices)
        assert x.shape == (8, 7, 100, 100)
