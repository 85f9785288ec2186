"""Compiled inference plans: equivalence, fusion alignment, memory planning.

The compiled path must agree with BOTH independent implementations —
the interpreted onnxlite runtime and the repro.nn training stack — to
tight tolerance across fuzzed search-space configs (fp32 and quantized),
its kernel grouping must match what the latency predictors price, and
its static release schedule must never free a buffer that is still read
(guarded by NaN-poisoning released arena slots in debug mode).  Each conv
kernel (fp32 im2col, int8) is forced in turn at batch 1, 3 and 16, the
int8 conv's channels-last accumulator is checked against an int64
reference, and a plan on the native int8 kernels (AMX tiles or VNNI)
must give the NumPy int8 plan's output bits.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.deploy import (
    Arena,
    OnnxliteRuntime,
    compile_plan,
    load_runtime,
    native,
    plan_weight_arrays,
)
from repro.deploy.passes import PlanNode, build_plan_nodes, fuse_operators, toposort_nodes
from repro.deploy.plan import _bind_qconv, channels_last
from repro.graph.trace import trace_model
from repro.latency.fusion import FUSION_RULES, fuse_graph, fusion_rule
from repro.nas.config import ModelConfig
from repro.nn import SearchableResNet18, build_model
from repro.onnxlite.export import export_model
from repro.onnxlite.reader import proto_from_bytes
from repro.onnxlite.schema import TensorProto
from repro.quant.affine import AffineQuantizer
from repro.quant.calibrate import calibrate_activations
from repro.quant.export import export_quantized_model
from repro.quant.model import fake_quantize_model
from repro.tensor.tensor import Tensor, no_grad

ATOL = 1e-4
RTOL = 1e-3
#: Input sizes on both sides of 256 positions per image after the stem
#: (24 -> 12x12 = 144, 32 -> 256, 100 -> 2,500).
SIZES = (24, 32, 100)
BATCHES = (1, 3, 16)


def _model(**kw):
    defaults = dict(in_channels=5, kernel_size=3, stride=2, padding=1,
                    pool_choice=0, initial_output_feature=32, seed=3)
    defaults.update(kw)
    return SearchableResNet18(**defaults)


def _reference_logits(model, x):
    model.eval()
    with no_grad():
        return model(Tensor(x)).data


def _conv_variants(proto, variant):
    """Force ``variant`` onto every Conv of ``proto``."""
    return {op.name: variant for op in proto.operators if op.op_type == "Conv"}


def _batches(size, seed=0):
    """Batches of each size in BATCHES, each a prefix of one image pool."""
    pool = np.random.default_rng(seed).normal(size=(max(BATCHES), 5, size, size))
    return [pool[:n].astype(np.float32) for n in BATCHES]


def _config(channels, kernel, stride, pool, feature):
    padding = 1 if kernel == 3 else 3
    return ModelConfig(channels=channels, batch=8, kernel_size=kernel, stride=stride,
                       padding=padding, pool_choice=pool, kernel_size_pool=3,
                       stride_pool=2, initial_output_feature=feature)


class TestEquivalence:
    """compiled == interpreted == repro.nn on fuzzed search-space configs."""

    @settings(max_examples=16, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        channels=st.sampled_from((5, 7)),
        kernel=st.sampled_from((3, 7)),
        stride=st.sampled_from((1, 2)),
        pool=st.sampled_from((0, 1)),
        feature=st.sampled_from((32, 48)),
        seed=st.integers(min_value=0, max_value=3),
    )
    def test_fuzz_fp32_three_way_agreement(self, channels, kernel, stride, pool, feature, seed):
        config = _config(channels, kernel, stride, pool, feature)
        model = build_model(config, seed=seed)
        runtime = load_runtime(export_model(model, input_hw=(32, 32)))
        plan = runtime.compile(poison=True)  # poison: read-after-free -> NaN -> fail
        x = np.random.default_rng(seed).normal(size=(2, channels, 32, 32)).astype(np.float32)
        interpreted = runtime.run(x)
        compiled = plan.run(x)
        np.testing.assert_allclose(compiled, interpreted, rtol=RTOL, atol=ATOL)
        np.testing.assert_allclose(compiled, _reference_logits(model, x), rtol=RTOL, atol=ATOL)
        assert np.isfinite(compiled).all()

    @pytest.mark.parametrize("channels,kernel,stride,pool,feature,dtype", [
        (5, 3, 2, 0, 32, "int8"),
        (7, 3, 2, 0, 32, "int8"),
        (5, 7, 2, 1, 32, "int8"),
        (7, 7, 1, 1, 48, "int8"),
        (5, 3, 1, 0, 48, "int16"),
        (7, 3, 2, 1, 32, "int16"),
    ])
    def test_quantized_three_way_agreement(self, channels, kernel, stride, pool, feature, dtype):
        config = _config(channels, kernel, stride, pool, feature)
        model = build_model(config, seed=1)
        blob = export_quantized_model(model, input_hw=(32, 32), dtype=dtype)
        runtime = load_runtime(blob)
        plan = runtime.compile(poison=True)
        x = np.random.default_rng(7).normal(size=(2, channels, 32, 32)).astype(np.float32)
        interpreted = runtime.run(x)
        compiled = plan.run(x)
        np.testing.assert_allclose(compiled, interpreted, rtol=RTOL, atol=ATOL)
        # Reference: the same model with fake-quantized (round-tripped)
        # weights run through the training stack.
        fake_quantize_model(model, dtype=dtype)
        np.testing.assert_allclose(compiled, _reference_logits(model, x), rtol=RTOL, atol=ATOL)

    def test_batch_sizes_and_repeat_runs_are_stable(self):
        model = _model()
        plan = load_runtime(export_model(model, input_hw=(32, 32))).compile(poison=True)
        rng = np.random.default_rng(0)
        first = None
        for batch in (1, 3, 8, 1):
            x = rng.normal(size=(batch, 5, 32, 32)).astype(np.float32)
            out = plan.run(x)
            assert out.shape == (batch, 2)
            again = plan.run(x)
            np.testing.assert_array_equal(out, again)
            if first is None:
                first = (x[:1].copy(), out[:1].copy())
        # Re-running the very first sample after many arena recycles
        # still reproduces the original logits bit-for-bit.
        np.testing.assert_array_equal(plan.run(first[0]), first[1])

    def test_predictions_match_interpreter(self):
        runtime = load_runtime(export_model(_model(seed=9), input_hw=(32, 32)))
        plan = runtime.compile()
        x = np.random.default_rng(3).normal(size=(8, 5, 32, 32)).astype(np.float32)
        np.testing.assert_array_equal(plan.predict(x), runtime.predict(x))

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("variant", ["conv.im2col.f32"])
    def test_forced_fp32_conv_variant_at_every_batch_size(self, size, variant):
        runtime = load_runtime(export_model(_model(), input_hw=(size, size)))
        forced = _conv_variants(runtime.proto, variant)
        assert forced
        plan = runtime.compile(poison=True, variants=forced)
        assert all(plan.kernel_variants()[name] == variant for name in forced)
        for x in _batches(size):
            compiled = plan.run(x)
            assert np.isfinite(compiled).all()
            np.testing.assert_allclose(compiled, runtime.run(x), rtol=RTOL, atol=ATOL)

    @pytest.mark.parametrize("size", SIZES)
    def test_forced_int8_conv_at_every_batch_size(self, size):
        proto = proto_from_bytes(export_quantized_model(_model(), input_hw=(size, size)))
        calibrate_activations(proto, _batches(size, seed=1)[-1])
        runtime = OnnxliteRuntime(proto)
        forced = _conv_variants(proto, "conv.im2col.int8")
        plan = runtime.compile(poison=True, variants=forced)
        assert all(plan.kernel_variants()[name] == "conv.im2col.int8" for name in forced)
        batches = _batches(size)
        full = plan.run(batches[-1])
        for x in batches:
            compiled = plan.run(x)
            # Quantization tolerance (see tests/test_qkernels.py).
            assert np.abs(compiled - runtime.run(x)).max() <= 0.08
            # The integer path is exact, so a row never depends on the
            # batch it ran in: each batch reproduces its rows of batch 16.
            np.testing.assert_array_equal(compiled, full[: len(x)])

    @pytest.mark.parametrize("size", SIZES)
    def test_native_int8_plan_matches_numpy_int8_plan(self, size):
        """Every conv forced to int8: the native plan's outputs are the NumPy
        int8 plan's, bit for bit, at every batch size (100 is the paper
        winner's 100x100 patch), with the int8 GEMM on each engine this
        host runs: AMX tiles where granted, and VNNI (forced on an AMX host
        by patching the loader's decision)."""
        if native.load() is None:
            reason = f"native int8 kernels unavailable: {native.status()}"
            print(reason)
            pytest.skip(reason)
        proto = proto_from_bytes(export_quantized_model(_model(), input_hw=(size, size)))
        calibrate_activations(proto, _batches(size, seed=1)[-1])
        forced = _conv_variants(proto, "conv.im2col.int8")
        with mock.patch.object(native, "load", return_value=None):
            reference = compile_plan(proto, poison=True, variants=forced)
        for engine in ("amx", "vnni") if native.engine() == "amx" else ("vnni",):
            with mock.patch.object(native, "engine", return_value=engine):
                plan = compile_plan(proto, poison=True, variants=forced)
            assert plan.kernel_variants() == reference.kernel_variants()
            for x in _batches(size):
                np.testing.assert_array_equal(plan.run(x), reference.run(x))

    def test_int8_conv_accumulator_matches_int64_reference(self):
        """The channels-last int8 conv accumulates exactly.

        Unit scales, no bias and a float32 epilogue make the epilogue the
        identity, so the kernel's output *is* its zero-point-folded
        accumulator.  K = 9 * 64 = 576 spans two K-panels.
        """
        n, c_in, c_out, hw, stride, padding, zp = 3, 64, 8, 9, 2, 1, 7
        oh = (hw + 2 * padding - 3) // stride + 1
        rng = np.random.default_rng(0)
        codes = rng.integers(-128, 128, size=(c_out, c_in, 3, 3)).astype(np.int8)
        x = rng.integers(0, 256, size=(n, c_in, hw, hw)).astype(np.uint8)
        node = PlanNode(
            name="conv", op_type="Conv", inputs=["x"], output="y",
            attrs={"kernel": 3, "stride": stride, "padding": padding},
            qweight=TensorProto("conv.weight", codes, scale=1.0),
            qconfig={"input": AffineQuantizer(scale=1.0, zero_point=zp), "output": None},
        )
        run = _bind_qconv(node, (c_in, hw, hw), (c_out, oh, oh), Arena(poison=True), "u8")
        got = run({"x": np.ascontiguousarray(channels_last(x))})

        # Independent int64 reference in NCHW; padding at the zero point
        # contributes nothing once zp is subtracted.
        xp = np.pad(x.astype(np.int64) - zp, ((0, 0), (0, 0), (padding,) * 2, (padding,) * 2))
        ref = np.zeros((n, c_out, oh, oh), np.int64)
        for i in range(3):
            for j in range(3):
                window = xp[:, :, i : i + stride * oh : stride, j : j + stride * oh : stride]
                ref += np.einsum("nchw,oc->nohw", window, codes[:, :, i, j].astype(np.int64))
        assert np.abs(ref).max() < 2**24  # the float32 output carries it exactly
        np.testing.assert_array_equal(channels_last(got, inverse=True), ref)

    def test_input_is_never_mutated(self):
        plan = load_runtime(export_model(_model(), input_hw=(32, 32))).compile()
        x = np.random.default_rng(5).normal(size=(2, 5, 32, 32)).astype(np.float32)
        snapshot = x.copy()
        plan.run(x)
        np.testing.assert_array_equal(x, snapshot)


class TestFusionAlignment:
    """Executed kernels == the kernels the latency predictors price."""

    @pytest.mark.parametrize("pool", [0, 1])
    def test_compiled_chains_match_latency_fusion(self, pool):
        model = _model(pool_choice=pool, kernel_size_pool=3, stride_pool=2)
        graph = trace_model(model, input_hw=(64, 64))
        predicted = sorted(
            tuple(fusion_name(n.op) for n in fused.nodes) for fused in fuse_graph(graph)
        )
        plan = load_runtime(export_model(model, input_hw=(64, 64))).compile()
        executed = sorted(plan.kernel_chains())
        assert executed == predicted

    def test_rule_table_is_shared(self):
        # The deploy compiler consumes FUSION_RULES directly; the IR-side
        # helper must expose the identical chains.
        from repro.graph.ir import OpType

        assert fusion_rule(OpType.CONV) == (OpType.BATCH_NORM, OpType.RELU)
        assert fusion_rule("Conv") == (OpType.BATCH_NORM, OpType.RELU)
        assert fusion_rule(OpType.ADD) == (OpType.RELU,)
        assert fusion_rule(OpType.MAX_POOL) == ()
        assert set(FUSION_RULES) == {"Conv", "Add"}

    def test_every_batchnorm_is_folded(self):
        plan = load_runtime(export_model(_model(), input_hw=(32, 32))).compile()
        for chain in plan.kernel_chains():
            assert chain[0] != "BatchNormalization"
            if "BatchNormalization" in chain:
                assert chain[0] == "Conv"

    def test_fan_out_tensor_is_not_fused_away(self):
        # The block-input tensor feeds both conv1 and the residual add;
        # the pass pipeline must keep it materialized.
        proto = proto_from_bytes(export_model(_model(), input_hw=(32, 32)))
        weights = {t.name: t.dequantized() for t in proto.initializers}
        nodes = toposort_nodes(fuse_operators(build_plan_nodes(proto, weights)))
        produced = {n.output for n in nodes}
        adds = [n for n in nodes if n.op_type == "Add"]
        assert adds
        for add in adds:
            for name in add.inputs:
                assert name == "input" or name in produced


class TestMemoryPlanning:
    def test_planner_cuts_peak_live_memory(self):
        plan = load_runtime(export_model(_model(), input_hw=(64, 64))).compile()
        assert plan.planned_peak_bytes(1) < plan.naive_env_bytes(1) / 4

    def test_release_schedule_never_frees_a_live_tensor(self):
        plan = load_runtime(export_model(_model(), input_hw=(32, 32))).compile()
        released_at: dict[str, int] = {}
        for step_idx, step in enumerate(plan.steps):
            for name in step.inputs:
                assert released_at.get(name, step_idx) >= step_idx, (
                    f"step {step_idx} ({step.name}) reads {name!r} released "
                    f"at step {released_at[name]}"
                )
            for name in (*step.release, *step.drop):
                assert name not in released_at
                released_at[name] = step_idx
        # Every intermediate except the final output is eventually freed.
        outputs = {s.output for s in plan.steps} - {plan.final_output}
        assert outputs <= set(released_at)

    def test_arena_drains_after_each_run(self):
        plan = load_runtime(export_model(_model(), input_hw=(32, 32))).compile()
        x = np.zeros((2, 5, 32, 32), dtype=np.float32)
        plan.run(x)
        assert plan.arena.live_count == 0
        assert plan.arena.current_bytes == 0
        stats = plan.memory_stats()
        assert stats["allocations"] > 0
        plan.run(x)
        # Steady state: the pool satisfies every request, no new buffers.
        assert plan.memory_stats()["allocations"] == stats["allocations"]
        assert plan.memory_stats()["reuses"] > stats["reuses"]

    def test_poison_catches_a_premature_release(self):
        """Sabotage the schedule: poison mode must corrupt the output."""
        model = _model()
        runtime = load_runtime(export_model(model, input_hw=(32, 32)))
        good = runtime.compile(poison=True)
        x = np.random.default_rng(0).normal(size=(1, 5, 32, 32)).astype(np.float32)
        baseline = good.run(x)
        assert np.isfinite(baseline).all()

        bad = runtime.compile(poison=True)
        # Simulate a planner bug: return a tensor's buffer to the arena
        # the moment it is produced, while later kernels still read it.
        victim = None
        for i, step in enumerate(bad.steps):
            if any(step.output in s.inputs for s in bad.steps[i + 1 :]):
                victim = (i, step.output)
                break
        assert victim is not None
        i, name = victim
        for step in bad.steps:  # avoid a double-free masking the bug
            if name in step.release:
                step.release.remove(name)
        victim_step = bad.steps[i]
        orig_run = victim_step.run

        def sabotaged(env):
            out = orig_run(env)
            bad.arena.release(out)  # freed-while-live: poison fills it with NaN
            return out

        victim_step.run = sabotaged
        corrupted = bad.run(x)
        assert (not np.isfinite(corrupted).all()) or not np.allclose(
            corrupted, baseline, rtol=1e-3, atol=1e-4
        )

    def test_fp32_plan_keeps_one_copy_of_each_weight(self, winner_config):
        """Bound weights stay within one fp32 copy of each folded weight
        (plus the Gemm transpose): a conv keeping both its OIHW weight and
        its channels-last GEMM copy would fail this."""
        runtime = load_runtime(export_model(build_model(winner_config, seed=0), input_hw=(24, 24)))
        plan = runtime.compile()
        budget = 0
        for op in runtime.proto.operators:
            if op.op_type in ("Conv", "Gemm"):
                weight = runtime.proto.initializer(f"{op.name}.weight").data
                copies = 2 if op.op_type == "Gemm" else 1
                budget += 4 * (copies * weight.size + weight.shape[0])  # + bias
        held = sum(arr.nbytes for _, _, arr in plan_weight_arrays(plan.blueprint.nodes))
        assert 0 < held <= budget

    def test_arena_rejects_foreign_buffers(self):
        arena = Arena()
        with pytest.raises(KeyError):
            arena.release(np.zeros(4, dtype=np.float32))

    def test_arena_reuses_and_poisons(self):
        arena = Arena(poison=True)
        a = arena.acquire((2, 3))
        a[:] = 1.0
        arena.release(a)
        assert np.isnan(a).all()  # poisoned on release
        b = arena.acquire((3, 2))  # same size -> same base buffer
        assert arena.allocations == 1 and arena.reuses == 1


class TestPlanValidation:
    def test_wrong_spatial_size_rejected(self):
        plan = load_runtime(export_model(_model(), input_hw=(32, 32))).compile()
        with pytest.raises(ValueError, match="compiled for input"):
            plan.run(np.zeros((1, 5, 48, 48), dtype=np.float32))
        with pytest.raises(ValueError):
            plan.run(np.zeros((1, 7, 32, 32), dtype=np.float32))

    def test_empty_model_rejected(self):
        from repro.onnxlite.schema import ModelProto

        with pytest.raises(ValueError, match="no operators"):
            compile_plan(ModelProto("m", (1, 8, 8), (1,)))

    def test_describe_and_repr(self):
        plan = load_runtime(export_model(_model(), input_hw=(32, 32))).compile()
        text = plan.describe()
        assert "Conv+BatchNormalization+Relu" in text
        assert "InferencePlan" in repr(plan)
        assert plan.num_kernels < len(plan.shapes)


def fusion_name(op) -> str:
    """IR OpType -> onnxlite operator-type string (test-local helper)."""
    from repro.latency.fusion import _IR_TO_ONNX

    full = dict(_IR_TO_ONNX)
    from repro.graph.ir import OpType

    full.setdefault(OpType.MAX_POOL, "MaxPool")
    full.setdefault(OpType.GLOBAL_AVG_POOL, "GlobalAveragePool")
    full.setdefault(OpType.FLATTEN, "Flatten")
    full.setdefault(OpType.FC, "Gemm")
    return full[op]
