"""Quantized onnxlite export and deployment."""

import numpy as np
import pytest

from repro.deploy import load_runtime
from repro.nn import SearchableResNet18
from repro.onnxlite import export_model
from repro.onnxlite.export import proto_to_bytes, serialized_size
from repro.onnxlite.reader import proto_from_bytes
from repro.onnxlite.schema import TensorProto
from repro.quant import export_quantized_model, quantized_model_size_mb
from repro.tensor.tensor import Tensor, no_grad


def _model(seed=0):
    return SearchableResNet18(in_channels=5, kernel_size=3, stride=2, padding=1,
                              pool_choice=0, initial_output_feature=32, seed=seed)


class TestQuantizedTensorProto:
    def test_quantized_tensor_roundtrips_through_dequantize(self):
        codes = np.array([-128, 0, 127], dtype=np.int8)
        tensor = TensorProto("w", codes, scale=0.01, zero_point=0)
        assert tensor.quantized
        np.testing.assert_allclose(tensor.dequantized(), [-1.28, 0.0, 1.27], rtol=1e-6)

    def test_integer_data_requires_scale(self):
        with pytest.raises(ValueError):
            TensorProto("w", np.zeros(3, dtype=np.int8))

    def test_float_tensor_not_quantized(self):
        tensor = TensorProto("w", np.zeros(3))
        assert not tensor.quantized
        assert tensor.dequantized() is tensor.data


class TestQuantizedExport:
    def test_file_is_about_4x_smaller(self):
        model = _model()
        fp32 = len(export_model(model, input_hw=(64, 64)))
        per_channel = export_quantized_model(model, input_hw=(64, 64))
        int8 = len(per_channel)
        assert 3.5 < fp32 / int8 < 4.3
        assert quantized_model_size_mb(model, (64, 64)) == pytest.approx(int8 / 1e6)
        per_tensor = export_quantized_model(model, input_hw=(64, 64), per_channel=False)
        for blob in (per_channel, per_tensor):
            proto = proto_from_bytes(blob)
            assert serialized_size(proto) == len(proto_to_bytes(proto)) == len(blob)

    def test_container_roundtrip_preserves_quantization(self):
        blob = export_quantized_model(_model(), input_hw=(64, 64))
        proto = proto_from_bytes(blob)
        assert proto.metadata["quantization"] == "int8"
        conv = proto.initializer("conv1.weight")
        assert conv.quantized and conv.dtype == "int8"
        bn = proto.initializer("bn1.weight")
        assert not bn.quantized and bn.dtype == "float32"

    def test_int16_export_in_between(self):
        model = _model()
        int8 = len(export_quantized_model(model, input_hw=(64, 64), dtype="int8"))
        blob16 = export_quantized_model(model, input_hw=(64, 64), dtype="int16")
        int16 = len(blob16)
        fp32 = len(export_model(model, input_hw=(64, 64)))
        assert int8 < int16 < fp32
        proto = proto_from_bytes(blob16)
        assert serialized_size(proto) == len(proto_to_bytes(proto)) == int16


class TestQuantizedDeployment:
    def test_runtime_runs_quantized_model_close_to_fp32(self):
        model = _model(seed=4)
        model.eval()
        x = np.random.default_rng(0).normal(size=(3, 5, 32, 32)).astype(np.float32)
        with no_grad():
            reference = model(Tensor(x)).data
        runtime = load_runtime(export_quantized_model(model, input_hw=(32, 32)))
        quantized_out = runtime.run(x)
        # int8 weight error perturbs logits slightly but not wildly.
        assert np.abs(quantized_out - reference).max() < 0.35 * (np.abs(reference).max() + 1.0)
        agreement = (quantized_out.argmax(axis=1) == reference.argmax(axis=1)).mean()
        assert agreement >= 2 / 3

    def test_quantized_file_roundtrip_via_disk(self, tmp_path):
        model = _model()
        path = tmp_path / "model_int8.onxl"
        export_quantized_model(model, input_hw=(32, 32), path=path)
        runtime = load_runtime(path)
        out = runtime.run(np.zeros((1, 5, 32, 32), dtype=np.float32))
        assert out.shape == (1, 2)
        assert np.isfinite(out).all()
