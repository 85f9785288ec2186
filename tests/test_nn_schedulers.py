"""The Dropout layer."""

import numpy as np
import pytest

from repro.nn import Dropout
from repro.tensor.tensor import Tensor


class TestDropoutLayer:
    def test_train_mode_zeroes_and_rescales(self):
        layer = Dropout(p=0.5, rng=0)
        layer.train()
        x = Tensor(np.ones((100, 100), dtype=np.float32))
        out = layer(x)
        zero_fraction = float((out.data == 0).mean())
        assert 0.4 < zero_fraction < 0.6
        nonzero = out.data[out.data != 0]
        np.testing.assert_allclose(nonzero, 2.0, rtol=1e-5)

    def test_eval_mode_is_identity(self):
        layer = Dropout(p=0.5, rng=0)
        layer.eval()
        x = Tensor(np.ones((4, 4), dtype=np.float32))
        assert layer(x) is x

    def test_validation(self):
        with pytest.raises(ValueError):
            Dropout(p=1.0)
