"""SearchableResNet18: structure, shapes, parameter counts, config build."""

import hashlib
import threading

import numpy as np
import pytest

from repro.nas.config import ModelConfig
from repro.nn import (
    BasicBlock,
    Conv2d,
    Linear,
    SearchableResNet18,
    build_baseline_resnet18,
    build_model,
    count_parameters,
)
from repro.nn.init import skip_init
from repro.tensor.tensor import Tensor


def _x(n, c, s, seed=0):
    return Tensor(np.random.default_rng(seed).normal(size=(n, c, s, s)).astype(np.float32))


#: The Pareto winner (f=32, k=3, s=2, p=1, no pool) at 5 channels.
WINNER = ModelConfig(channels=5, batch=16, kernel_size=3, stride=2, padding=1,
                     pool_choice=0, kernel_size_pool=3, stride_pool=2,
                     initial_output_feature=32)
#: sha256 over sorted (name, bytes) of ``build_model(WINNER, seed=0).state_dict()``.
#: The benchmark's golden digests for training and patch inference rest on
#: these seeded weights, so any change to weight init must fail here.
WINNER_STATE_SHA256 = "4b56a1ed1f53f826a127cdfeb975bd87128ee71e334b87ffa9638b15a65b32e0"


def _state_sha256(model) -> str:
    state = model.state_dict()
    h = hashlib.sha256()
    for name in sorted(state):
        h.update(name.encode())
        h.update(state[name].tobytes())
    return h.hexdigest()


class TestBasicBlock:
    def test_identity_skip_when_shapes_match(self):
        from repro.nn.layers import Identity

        block = BasicBlock(16, 16, stride=1)
        assert isinstance(block.downsample, Identity)

    def test_projection_skip_on_stride_or_width_change(self):
        from repro.nn.module import Sequential

        assert isinstance(BasicBlock(16, 32, stride=2).downsample, Sequential)
        assert isinstance(BasicBlock(16, 32, stride=1).downsample, Sequential)

    def test_forward_shape(self):
        block = BasicBlock(8, 16, stride=2)
        out = block(_x(2, 8, 16))
        assert out.shape == (2, 16, 8, 8)


class TestParameterCounts:
    def test_baseline_matches_paper_memory_math(self):
        # Paper Table 5: 44.71 MB at 5 channels -> ~11.18M params.
        count = count_parameters(build_baseline_resnet18(in_channels=5))
        assert count == pytest.approx(11.18e6, rel=0.005)

    def test_winner_is_quarter_size(self):
        small = count_parameters(
            SearchableResNet18(in_channels=7, kernel_size=3, padding=1, pool_choice=0,
                               initial_output_feature=32)
        )
        big = count_parameters(build_baseline_resnet18(in_channels=7))
        assert big / small == pytest.approx(4.0, rel=0.01)

    def test_width_scaling_is_quadratic(self):
        f32 = count_parameters(SearchableResNet18(initial_output_feature=32, kernel_size=3, padding=1))
        f64 = count_parameters(SearchableResNet18(initial_output_feature=64, kernel_size=3, padding=1))
        assert f64 / f32 == pytest.approx(4.0, rel=0.02)


class TestForward:
    @pytest.mark.parametrize("channels", [5, 7])
    def test_output_is_binary_logits(self, channels):
        model = SearchableResNet18(in_channels=channels, kernel_size=3, padding=1,
                                   pool_choice=0, initial_output_feature=32)
        out = model(_x(2, channels, 32))
        assert out.shape == (2, 2)

    def test_pooling_path(self):
        model = SearchableResNet18(in_channels=5, kernel_size=3, stride=2, padding=1,
                                   pool_choice=1, kernel_size_pool=2, stride_pool=2,
                                   initial_output_feature=32)
        assert model(_x(1, 5, 64)).shape == (1, 2)

    def test_channel_mismatch_rejected(self):
        model = SearchableResNet18(in_channels=5, kernel_size=3, padding=1)
        with pytest.raises(ValueError):
            model(_x(1, 7, 32))

    def test_predict_returns_classes(self):
        model = SearchableResNet18(in_channels=5, kernel_size=3, padding=1,
                                   pool_choice=0, initial_output_feature=32)
        preds = model.predict(_x(4, 5, 32))
        assert preds.shape == (4,)
        assert set(np.unique(preds)).issubset({0, 1})

    def test_deterministic_init_by_seed(self):
        a = SearchableResNet18(seed=11, kernel_size=3, padding=1)
        b = SearchableResNet18(seed=11, kernel_size=3, padding=1)
        np.testing.assert_array_equal(a.conv1.weight.data, b.conv1.weight.data)
        c = SearchableResNet18(seed=12, kernel_size=3, padding=1)
        assert not np.allclose(a.conv1.weight.data, c.conv1.weight.data)


class TestSkipInit:
    def test_same_structure_and_zero_drawn_weights(self):
        seeded = build_model(WINNER)
        with skip_init():
            skipped = build_model(WINNER)
        for named in ("named_parameters", "named_buffers"):
            shapes = [[(n, np.shape(v)) for n, v in getattr(m, named)()] for m in (skipped, seeded)]
            assert shapes[0] == shapes[1]
        drawn = {f"{name}.{attr}" for name, module in skipped.named_modules()
                 if isinstance(module, (Conv2d, Linear))
                 for attr in ("weight", "bias") if getattr(module, attr) is not None}
        assert "conv1.weight" in drawn and "fc.bias" in drawn
        ref, state = seeded.state_dict(), skipped.state_dict()
        for name, value in state.items():
            if name in drawn:
                assert ref[name].any() and not value.any(), name
            else:  # batch-norm constants draw nothing and are unchanged
                np.testing.assert_array_equal(value, ref[name])

    def test_resets_when_the_block_raises(self):
        with pytest.raises(RuntimeError):
            with skip_init():
                raise RuntimeError("inside")
        assert _state_sha256(build_model(WINNER)) == WINNER_STATE_SHA256

    def test_other_threads_draw_seeded_weights(self):
        inside, release = threading.Event(), threading.Event()

        def hold():
            with skip_init():
                inside.set()
                release.wait(30)

        digests = []
        holder = threading.Thread(target=hold)
        holder.start()
        try:
            assert inside.wait(30)
            worker = threading.Thread(target=lambda: digests.append(_state_sha256(build_model(WINNER))))
            worker.start()
            worker.join(30)
            assert not worker.is_alive()
        finally:
            release.set()
            holder.join(30)
        assert not holder.is_alive()
        assert digests == [WINNER_STATE_SHA256]

    def test_seeded_build_is_pinned(self):
        assert _state_sha256(build_model(WINNER, seed=0)) == WINNER_STATE_SHA256


class TestValidation:
    def test_bad_args_rejected(self):
        with pytest.raises(ValueError):
            SearchableResNet18(in_channels=0)
        with pytest.raises(ValueError):
            SearchableResNet18(num_classes=1)
        with pytest.raises(ValueError):
            SearchableResNet18(pool_choice=2)
        with pytest.raises(ValueError):
            SearchableResNet18(initial_output_feature=0)


class TestBuildModel:
    def test_from_mapping_and_object(self, winner_config):
        from_map = build_model(winner_config.to_dict())
        from_obj = build_model(winner_config)
        assert count_parameters(from_map) == count_parameters(from_obj)
        assert from_obj.in_channels == 7

    def test_config_recorded(self, winner_config):
        model = build_model(winner_config)
        assert model.config["initial_output_feature"] == 32
        assert model.config["pool_choice"] == 0
