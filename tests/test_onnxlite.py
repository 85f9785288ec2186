"""onnxlite export/read roundtrips and the memory objective."""

import numpy as np
import pytest

from repro.graph.trace import trace_model
from repro.nn import SearchableResNet18, build_baseline_resnet18, count_parameters
from repro.onnxlite import export_model, load_model, model_size_mb
from repro.onnxlite.export import build_model_proto, export_graph, proto_to_bytes, serialized_size
from repro.onnxlite.reader import proto_from_bytes
from repro.onnxlite.schema import ModelProto, OperatorProto, TensorProto


def _small_model(**kwargs):
    defaults = dict(in_channels=5, kernel_size=3, padding=1, pool_choice=0, initial_output_feature=32)
    defaults.update(kwargs)
    return SearchableResNet18(**defaults)


class TestSchema:
    def test_tensor_proto_coerces_to_float32(self):
        t = TensorProto("w", np.arange(4, dtype=np.float64))
        assert t.data.dtype == np.float32
        assert t.nbytes == 16

    def test_initializer_lookup(self):
        proto = ModelProto("m", (1,), (1,), initializers=[TensorProto("a", np.zeros(2))])
        assert proto.initializer("a").data.shape == (2,)
        with pytest.raises(KeyError):
            proto.initializer("missing")


class TestRoundtrip:
    def test_full_roundtrip(self):
        model = _small_model()
        blob = export_model(model, input_hw=(64, 64))
        proto = proto_from_bytes(blob)
        assert proto.input_shape == (5, 64, 64)
        assert proto.output_shape == (2,)
        # Parameters + BN buffers all present, bytes identical.
        state = model.state_dict()
        for name, value in state.items():
            np.testing.assert_array_equal(proto.initializer(name).data, np.asarray(value, np.float32))

    def test_operator_topology_preserved(self):
        model = _small_model()
        graph = trace_model(model, (64, 64))
        proto = build_model_proto(model, graph)
        op_types = {op.op_type for op in proto.operators}
        assert {"Conv", "BatchNormalization", "Relu", "Add", "Gemm", "GlobalAveragePool"} <= op_types
        # No MaxPool in the no-pool variant.
        assert "MaxPool" not in op_types

    def test_file_io(self, tmp_path):
        model = _small_model()
        path = tmp_path / "model.onxl"
        blob = export_model(model, input_hw=(64, 64), path=path)
        assert path.read_bytes() == blob
        proto = load_model(path)
        assert proto.parameter_count() > 0

    def test_bad_magic_and_version(self):
        with pytest.raises(ValueError):
            proto_from_bytes(b"XXXX" + b"\x00" * 20)
        good = proto_to_bytes(ModelProto("m", (1,), (1,)))
        tampered = good[:4] + (99).to_bytes(4, "little") + good[8:]
        with pytest.raises(ValueError):
            proto_from_bytes(tampered)


class TestMemoryObjective:
    def test_baseline_memory_matches_paper(self):
        mb = model_size_mb(build_baseline_resnet18(in_channels=5))
        assert mb == pytest.approx(44.71, rel=0.01)  # paper Table 5

    def test_winner_memory_matches_paper(self):
        mb = model_size_mb(_small_model(in_channels=7))
        assert mb == pytest.approx(11.18, rel=0.01)  # paper Table 4

    def test_size_dominated_by_parameters(self):
        model = _small_model()
        blob_bytes = len(export_model(model, input_hw=(64, 64)))
        param_bytes = 4 * count_parameters(model)
        assert blob_bytes > param_bytes
        assert blob_bytes < 1.02 * param_bytes  # graph text is tiny
        proto = build_model_proto(model, trace_model(model, input_hw=(64, 64)))
        assert serialized_size(proto) == len(proto_to_bytes(proto)) == blob_bytes

    def test_channels_shift_memory_slightly(self):
        mb5 = model_size_mb(_small_model(in_channels=5))
        mb7 = model_size_mb(_small_model(in_channels=7))
        assert mb7 > mb5
        assert mb7 - mb5 < 0.01
