"""Executors, partitioning and LPT scheduling."""

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.parallel import (
    ProcessPoolExecutorBackend,
    SerialExecutor,
    chunk_evenly,
    chunk_fixed,
    lpt_schedule,
    make_executor,
)


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


class TestChunking:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(0, 50), parts=st.integers(1, 10))
    def test_chunk_evenly_partitions(self, n, parts):
        items = list(range(n))
        chunks = chunk_evenly(items, parts)
        assert len(chunks) == parts
        assert sum(chunks, []) == items
        sizes = [len(c) for c in chunks]
        assert max(sizes) - min(sizes) <= 1

    def test_chunk_fixed(self):
        assert chunk_fixed([1, 2, 3, 4, 5], 2) == [[1, 2], [3, 4], [5]]

    def test_validation(self):
        with pytest.raises(ValueError):
            chunk_evenly([1], 0)
        with pytest.raises(ValueError):
            chunk_fixed([1], 0)


class TestLpt:
    @settings(max_examples=40, deadline=None)
    @given(
        costs=st.lists(st.floats(0.0, 100.0, allow_nan=False), max_size=40),
        workers=st.integers(1, 6),
    )
    def test_valid_partition(self, costs, workers):
        assignments = lpt_schedule(costs, workers)
        assert len(assignments) == workers
        flat = sorted(task for bucket in assignments for task in bucket)
        assert flat == list(range(len(costs)))

    def test_balances_heterogeneous_costs(self):
        costs = [10.0, 10.0, 1.0] * 4
        loads = [sum(costs[t] for t in bucket) for bucket in lpt_schedule(costs, 4)]
        # LPT guarantee: makespan <= 4/3 OPT (OPT = 21 here).
        assert max(loads) <= 4 / 3 * 21 + 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            lpt_schedule([1.0], 0)
        with pytest.raises(ValueError):
            lpt_schedule([-1.0], 2)
