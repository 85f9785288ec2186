"""The layer profiler and the training-step profiler."""

import numpy as np
import pytest

from repro.graph.trace import trace_model
from repro.nn import SearchableResNet18
from repro.profiling import LayerProfiler, profile_model, profile_table


def _winner():
    return SearchableResNet18(in_channels=5, kernel_size=3, stride=2, padding=1,
                              pool_choice=0, initial_output_feature=32)


class TestProfiler:
    def test_stages_and_positive_times(self):
        profiles = profile_model(_winner(), batch=2, input_hw=(32, 32), repeats=1)
        names = [p.name for p in profiles]
        assert names == ["stem", "layer1", "layer2", "layer3", "layer4", "head"]
        assert all(p.seconds > 0 for p in profiles)

    def test_flops_attributed_to_stages(self):
        from repro.graph.flops import count_graph_flops

        model = _winner()
        profiles = profile_model(model, batch=2, input_hw=(32, 32), repeats=1)
        graph_total = count_graph_flops(trace_model(model, (32, 32)))
        assert sum(p.flops for p in profiles) == pytest.approx(2 * graph_total, rel=1e-6)

    def test_repeats_validation(self):
        with pytest.raises(ValueError):
            LayerProfiler(_winner()).run(np.zeros((1, 5, 32, 32), dtype=np.float32), repeats=0)

    def test_table_renders(self):
        profiles = profile_model(_winner(), batch=1, input_hw=(32, 32), repeats=1)
        text = profile_table(profiles)
        assert "stem" in text and "GFLOP/s" in text


class TestTrainingStepProfiler:
    def test_phase_split_and_workspace_counters(self):
        from repro.profiling import profile_training_step

        profile = profile_training_step(_winner(), batch=2, input_hw=(32, 32), steps=2)
        assert profile.forward_s > 0 and profile.backward_s > 0 and profile.optimizer_s > 0
        assert profile.total_s == pytest.approx(
            profile.forward_s + profile.backward_s + profile.optimizer_s
        )
        assert profile.images_per_s > 0
        # Step 2 repeats step 1's shapes: the pool recycles rather than grows.
        assert profile.workspace["hits"] > 0
        assert profile.workspace["misses"] > 0

    def test_workspaces_off_reports_zero_counters(self):
        from repro.profiling import profile_training_step

        profile = profile_training_step(_winner(), batch=2, input_hw=(32, 32),
                                        steps=1, workspaces=False)
        assert profile.workspace["hits"] == 0 and profile.workspace["misses"] == 0

    def test_steps_validation(self):
        from repro.profiling import profile_training_step

        with pytest.raises(ValueError):
            profile_training_step(_winner(), steps=0)
