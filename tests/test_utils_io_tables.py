"""Tests for structured IO and table rendering."""

import json

import numpy as np
import pytest

from repro.utils.io import (
    atomic_write_text,
    iter_jsonl,
    read_json,
    read_jsonl,
    write_csv,
    write_json,
    write_jsonl,
)
from repro.utils.tables import format_cell, render_table
from repro.utils.timing import format_duration


class TestJsonIO:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "x.json"
        write_json(path, {"a": [1, 2], "b": "s"})
        assert read_json(path) == {"a": [1, 2], "b": "s"}

    def test_numpy_types_serialized(self, tmp_path):
        path = tmp_path / "np.json"
        write_json(path, {"i": np.int64(3), "f": np.float32(0.5), "arr": np.arange(3), "b": np.bool_(True)})
        data = read_json(path)
        assert data == {"i": 3, "f": 0.5, "arr": [0, 1, 2], "b": True}

    def test_atomic_write_replaces(self, tmp_path):
        path = tmp_path / "f.txt"
        atomic_write_text(path, "one")
        atomic_write_text(path, "two")
        assert path.read_text() == "two"
        assert list(tmp_path.iterdir()) == [path]  # no temp leftovers


class TestJsonl:
    def test_roundtrip_and_append(self, tmp_path):
        path = tmp_path / "t.jsonl"
        assert write_jsonl(path, [{"x": 1}, {"x": 2}]) == 2
        assert write_jsonl(path, [{"x": 3}], append=True) == 1
        assert [r["x"] for r in read_jsonl(path)] == [1, 2, 3]

    def test_iter_skips_blank_lines(self, tmp_path):
        path = tmp_path / "b.jsonl"
        path.write_text('{"a": 1}\n\n{"a": 2}\n')
        assert len(list(iter_jsonl(path))) == 2


class TestCsv:
    def test_fieldnames_inferred_in_order(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, [{"b": 1, "a": 2}, {"a": 3, "c": 4}])
        header = path.read_text().splitlines()[0]
        assert header == "b,a,c"

    def test_missing_fields_blank(self, tmp_path):
        path = tmp_path / "m.csv"
        write_csv(path, [{"a": 1}, {"b": 2}], fieldnames=["a", "b"])
        lines = path.read_text().splitlines()
        assert lines[1] == "1,"
        assert lines[2] == ",2"


class TestTables:
    def test_dict_rows(self):
        out = render_table([{"a": 1, "b": 2.5}], title="T")
        assert "T" in out and "a" in out and "2.50" in out

    def test_positional_rows_need_headers(self):
        with pytest.raises(ValueError):
            render_table([[1, 2]])

    def test_alignment_width(self):
        out = render_table([{"name": "x", "v": 100}, {"name": "longer", "v": 1}])
        lines = out.splitlines()
        assert len(lines[2]) >= len("longer")

    def test_format_cell_bool_not_float(self):
        assert format_cell(True) == "True"
        assert format_cell(1.234) == "1.23"


class TestTiming:
    def test_format_duration_units(self):
        assert format_duration(5e-7).endswith("us")
        assert format_duration(0.005).endswith("ms")
        assert format_duration(2.0) == "2.00s"
        assert "m" in format_duration(90)
        assert "h" in format_duration(7200)
        assert format_duration(-2.0).startswith("-")
        # The unit is chosen after rounding, so no field shows a carry.
        assert format_duration(119.97) == "2m00.0s"
        assert format_duration(3599.99) == "1h0m"
        assert format_duration(59.999) == "1m00.0s"
        assert format_duration(0.999999) == "1.00s"
        assert format_duration(0.00099999) == "1.00ms"
