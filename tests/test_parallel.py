"""Serial and process-pool executors."""

import os

import pytest

from repro.parallel import ProcessPoolExecutorBackend, SerialExecutor, make_executor


def _square(x):
    return x * x


class TestSerialExecutor:
    def test_order_preserved(self):
        assert SerialExecutor().map(_square, [3, 1, 2]) == [9, 1, 4]

    def test_context_manager(self):
        with SerialExecutor() as ex:
            assert ex.map(_square, [2]) == [4]


class TestProcessPool:
    def test_matches_serial(self):
        with ProcessPoolExecutorBackend(workers=2) as pool:
            assert pool.map(_square, list(range(10))) == [x * x for x in range(10)]

    def test_worker_default_positive(self):
        assert ProcessPoolExecutorBackend().workers >= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            ProcessPoolExecutorBackend(workers=0)

    def test_factory(self):
        assert isinstance(make_executor("serial"), SerialExecutor)
        assert isinstance(make_executor("process", workers=1), ProcessPoolExecutorBackend)
        with pytest.raises(ValueError):
            make_executor("gpu")

    def test_auto_chunksize_maps_correctly(self):
        with make_executor("process", workers=2) as pool:
            assert pool.map(_square, list(range(40))) == [x * x for x in range(40)]

    def test_empty_map_returns_without_spawning(self):
        pool = ProcessPoolExecutorBackend(workers=2)
        assert pool.map(_square, []) == []
        assert pool._pool is None  # no worker processes were started
        pool.close()
