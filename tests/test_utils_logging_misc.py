"""Logging setup, permutation helper, and misc utils coverage."""

import logging

import numpy as np
import pytest

from repro.utils.logging import configure, get_logger
from repro.utils.rng import permutation_for


class TestLogging:
    def test_namespacing(self):
        assert get_logger("nas").name == "repro.nas"
        assert get_logger("repro.core").name == "repro.core"

    def test_configure_idempotent(self):
        configure(level=logging.INFO)
        root = logging.getLogger("repro")
        handlers_before = len(root.handlers)
        configure(level=logging.DEBUG)
        assert len(root.handlers) == handlers_before
        assert root.level == logging.DEBUG

    def test_loggers_emit_through_repro_root(self):
        # configure() sets propagate=False on the repro root, so capture
        # with a handler attached there directly.
        configure(level=logging.INFO)
        records = []

        class Capture(logging.Handler):
            def emit(self, record):
                records.append(record.getMessage())

        root = logging.getLogger("repro")
        handler = Capture()
        root.addHandler(handler)
        try:
            get_logger("test-emit").info("hello from %s", "tests")
        finally:
            root.removeHandler(handler)
        assert "hello from tests" in records


class TestPermutationFor:
    def test_deterministic_per_content(self):
        a = permutation_for(["x", "y", "z"], seed=1)
        b = permutation_for(["x", "y", "z"], seed=1)
        np.testing.assert_array_equal(a, b)

    def test_content_sensitivity(self):
        a = permutation_for(["x", "y", "z", "w", "v", "u"], seed=1)
        b = permutation_for(["x", "y", "z", "w", "v", "q"], seed=1)
        assert not np.array_equal(a, b)

    def test_is_a_permutation(self):
        p = permutation_for(list(range(20)), seed=3)
        np.testing.assert_array_equal(np.sort(p), np.arange(20))
