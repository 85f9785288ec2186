"""Sweep comparison."""

import pytest


class TestSweepCompare:
    def test_identical_sweeps_compare_perfectly(self):
        from repro.core import HwNasPipeline
        from repro.core.sweep_compare import compare_sweeps
        from repro.nas import GridSearch, SurrogateEvaluator
        from repro.nas.searchspace import SearchSpace

        space = SearchSpace(kernel_size=(3,), stride=(2,), padding=(1,), pool_choice=(0, 1),
                            kernel_size_pool=(3,), stride_pool=(2,),
                            initial_output_feature=(32, 64), channels=(5,), batches=(8, 16))
        def run(seed):
            return HwNasPipeline(SurrogateEvaluator(seed=seed), space, GridSearch(space),
                                 input_hw=(48, 48)).run()

        same = compare_sweeps(run(0), run(0))
        assert same.accuracy_spearman == pytest.approx(1.0)
        assert same.mean_abs_accuracy_delta == 0.0
        assert same.best_architecture_matches
        assert same.front_architecture_jaccard == 1.0

        different = compare_sweeps(run(0), run(5))
        assert different.mean_abs_accuracy_delta > 0.0
        assert "Spearman" in different.summary()
