"""Markdown sweep report generation."""

import pytest

from repro.core import HwNasPipeline
from repro.core.markdown_report import _md_table, sweep_markdown, write_sweep_report
from repro.nas import GridSearch, SurrogateEvaluator
from repro.nas.searchspace import SearchSpace


@pytest.fixture(scope="module")
def small_result():
    space = SearchSpace(kernel_size=(3,), stride=(2,), padding=(1,), pool_choice=(0, 1),
                        kernel_size_pool=(3,), stride_pool=(2,),
                        initial_output_feature=(32,), channels=(5, 7), batches=(16,))
    return HwNasPipeline(SurrogateEvaluator(), space, GridSearch(space), input_hw=(48, 48)).run()


class TestMdTable:
    def test_formats_rows(self):
        text = _md_table([{"a": 1, "b": 2.5}], ["a", "b"])
        assert "| a | b |" in text
        assert "| 1 | 2.50 |" in text

    def test_empty(self):
        assert "empty" in _md_table([])

    def test_missing_cells_blank(self):
        text = _md_table([{"a": 1}], ["a", "b"])
        assert "| 1 |  |" in text


class TestSweepMarkdown:
    def test_contains_all_sections(self, small_result):
        text = sweep_markdown(small_result, include_baseline=False)
        for heading in ("Trial accounting", "Objective ranges", "Non-dominated solutions",
                        "Per-input-combination fronts"):
            assert heading in text
        assert "channels=5, batch=16" in text
        assert "1728" in text  # paper trial count for comparison

    def test_fault_tolerance_section(self, small_result):
        text = sweep_markdown(small_result, include_baseline=False)
        assert "## Fault tolerance" in text
        for quantity in ("trials retried", "recovered by retry", "deadline exceeded",
                         "device predictions skipped", "store lines quarantined"):
            assert quantity in text

    def test_kernel_energy_section(self, small_result):
        text = sweep_markdown(small_result, include_baseline=False)
        assert "## Kernel variants & energy" in text
        for scenario in ("fp32 im2col", "int8 integer path"):
            assert scenario in text
        # int8 should price below the fp32 baseline (bytes + pJ/MAC factors).
        int8_row = next(line for line in text.splitlines() if "int8 integer path" in line)
        assert "0." in int8_row.split("|")[3]

    def test_baseline_section_optional(self, small_result):
        with_baseline = sweep_markdown(small_result, include_baseline=True)
        without = sweep_markdown(small_result, include_baseline=False)
        assert "Stock ResNet-18" in with_baseline
        assert "Stock ResNet-18" not in without

    def test_write_report(self, small_result, tmp_path):
        path = tmp_path / "report.md"
        size = write_sweep_report(small_result, path, include_baseline=False)
        assert size == path.stat().st_size
        assert path.read_text().startswith("# Sweep report")
