"""Resilient executor tests: per-item isolation, pool respawn, degradation.

The process-pool tests spawn real worker processes and kill them with
``os._exit`` through a file latch (:class:`repro.faults.KillSwitch`), so
each kill fires exactly once even across pool respawns.

Every test runs under the ``leak_audit`` fixture: a pool that outlives
its test (a live worker process) fails it.
"""

from __future__ import annotations

import os

import pytest

from repro.faults import KillSwitch
from repro.parallel import (
    MapItemResult,
    ProcessPoolExecutorBackend,
    SerialExecutor,
)

pytestmark = pytest.mark.usefixtures("leak_audit")

# --------------------------------------------------------------------------
# Top-level task functions (must be picklable for the process backend).
# --------------------------------------------------------------------------


def _square(x):
    return x * x


def _poison(x):
    if x == 3:
        raise ValueError("poisoned item")
    return x * 2


def _fail_once(task):
    """Fail on the first execution (latch file absent), succeed after."""
    latch_path, x = task
    if KillSwitch(latch_path).acquire():
        raise RuntimeError("first attempt fails")
    return x + 100


def _maybe_kill(task):
    """Kill the worker process once (latch-guarded), else return the item."""
    latch_path, x, kill_value = task
    if x == kill_value:
        KillSwitch(latch_path).fire_once(exit_code=42)
    return x * 10


def _die_unless_parent(task):
    """Kill any process that is not the parent (degradation driver)."""
    parent_pid, x = task
    if os.getpid() != parent_pid:
        os._exit(43)
    return x + 1


class _Flaky:
    """Callable failing the first ``fail_times`` invocations per item."""

    def __init__(self, fail_times=1):
        self.fail_times = fail_times
        self.calls = {}

    def __call__(self, x):
        n = self.calls.get(x, 0) + 1
        self.calls[x] = n
        if n <= self.fail_times:
            raise OSError(f"flaky failure #{n}")
        return x * 3


# --------------------------------------------------------------------------
# Serial backend
# --------------------------------------------------------------------------


class TestSerialMapResilient:
    def test_all_ok_preserves_order(self):
        results = SerialExecutor().map_resilient(_square, [3, 1, 2])
        assert [r.index for r in results] == [0, 1, 2]
        assert [r.value for r in results] == [9, 1, 4]
        assert all(r.ok and r.attempts == 1 for r in results)

    def test_poisoned_item_is_isolated(self):
        results = SerialExecutor().map_resilient(_poison, [1, 3, 5])
        assert [r.ok for r in results] == [True, False, True]
        bad = results[1]
        assert bad.error_type == "ValueError" and "poisoned" in bad.error
        assert results[0].value == 2 and results[2].value == 10

    def test_unwrap(self):
        ok, bad = SerialExecutor().map_resilient(_poison, [1, 3])
        assert ok.unwrap() == 2
        with pytest.raises(RuntimeError, match="ValueError"):
            bad.unwrap()

    def test_retries_recover_flaky_item(self):
        flaky = _Flaky(fail_times=1)
        results = SerialExecutor().map_resilient(flaky, [4, 5], retries=1)
        assert all(r.ok for r in results)
        assert [r.attempts for r in results] == [2, 2]
        assert [r.value for r in results] == [12, 15]

    def test_retries_exhausted(self):
        flaky = _Flaky(fail_times=5)
        (result,) = SerialExecutor().map_resilient(flaky, [7], retries=2)
        assert not result.ok and result.attempts == 3
        assert result.error_type == "OSError"

    def test_fatal_error_propagates(self):
        def boom(_):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            SerialExecutor().map_resilient(boom, [1])

    def test_empty_items(self):
        assert SerialExecutor().map_resilient(_square, []) == []


# --------------------------------------------------------------------------
# Process backend
# --------------------------------------------------------------------------


class TestProcessMapResilient:
    def test_all_ok(self):
        with ProcessPoolExecutorBackend(workers=2) as ex:
            results = ex.map_resilient(_square, [1, 2, 3, 4])
        assert [r.value for r in results] == [1, 4, 9, 16]
        assert all(isinstance(r, MapItemResult) and r.ok for r in results)
        assert ex.stats == {"pool_deaths": 0, "requeued_items": 0, "degraded": False}

    def test_poisoned_item_is_isolated(self):
        with ProcessPoolExecutorBackend(workers=2) as ex:
            results = ex.map_resilient(_poison, [1, 3, 5, 7])
        assert [r.ok for r in results] == [True, False, True, True]
        assert results[1].error_type == "ValueError"
        assert ex.pool_deaths == 0

    def test_retries_in_pool(self, tmp_path):
        tasks = [(str(tmp_path / "latch-a"), 1), (str(tmp_path / "latch-b"), 2)]
        with ProcessPoolExecutorBackend(workers=2) as ex:
            results = ex.map_resilient(_fail_once, tasks, retries=1)
        assert all(r.ok for r in results)
        assert [r.value for r in results] == [101, 102]
        assert all(r.attempts == 2 for r in results)

    def test_worker_kill_respawns_and_requeues(self, tmp_path):
        latch = str(tmp_path / "kill-latch")
        tasks = [(latch, x, 2) for x in range(5)]
        with ProcessPoolExecutorBackend(workers=2) as ex:
            results = ex.map_resilient(_maybe_kill, tasks)
        # Every item succeeds: the killed worker's in-flight items are
        # requeued onto a fresh pool, and the latch stops a second kill.
        assert all(r.ok for r in results), [r.error for r in results]
        assert [r.value for r in results] == [0, 10, 20, 30, 40]
        assert ex.pool_deaths == 1
        assert ex.requeued_items >= 1
        assert not ex.degraded
        assert any(r.requeues >= 1 for r in results)

    def test_degrades_to_serial_after_repeated_deaths(self):
        parent = os.getpid()
        tasks = [(parent, x) for x in range(4)]
        with ProcessPoolExecutorBackend(workers=2, max_pool_deaths=2, max_requeues=5) as ex:
            results = ex.map_resilient(_die_unless_parent, tasks)
        # Workers always die; after two consecutive pool deaths the
        # backend runs the remainder in this (parent) process.
        assert ex.degraded
        assert ex.pool_deaths == 2
        assert all(r.ok for r in results), [r.error for r in results]
        assert [r.value for r in results] == [1, 2, 3, 4]

    def test_max_requeues_zero_gives_up_on_items(self):
        parent = os.getpid()
        tasks = [(parent, x) for x in range(3)]
        with ProcessPoolExecutorBackend(workers=2, max_pool_deaths=5, max_requeues=0) as ex:
            results = ex.map_resilient(_die_unless_parent, tasks)
        # One pool death, no requeues allowed: every in-flight item is
        # recorded as failed rather than retried forever.
        assert all(not r.ok for r in results)
        assert all(r.error_type == "BrokenProcessPool" for r in results)
        assert ex.pool_deaths == 1

    def test_degraded_backend_runs_serial(self):
        ex = ProcessPoolExecutorBackend(workers=2)
        ex.degraded = True
        results = ex.map_resilient(_square, [2, 3])
        assert [r.value for r in results] == [4, 9]
        assert ex._pool is None  # no pool was ever spawned

    def test_empty_items_spawn_no_pool(self):
        ex = ProcessPoolExecutorBackend(workers=2)
        assert ex.map_resilient(_square, []) == []
        assert ex._pool is None


class TestPlainMapRecovery:
    def test_broken_pool_raises_but_next_map_succeeds(self, tmp_path):
        """Satellite fix: plain ``map`` no longer leaves ``_pool`` broken."""
        from concurrent.futures.process import BrokenProcessPool

        latch = str(tmp_path / "map-latch")
        tasks = [(latch, x, 1) for x in range(3)]
        with ProcessPoolExecutorBackend(workers=2) as ex:
            with pytest.raises(BrokenProcessPool):
                ex.map(_maybe_kill, tasks)
            assert ex.pool_deaths == 1
            # The broken pool was discarded: this map respawns and works.
            assert ex.map(_square, [5, 6]) == [25, 36]
            assert ex._consecutive_deaths == 0

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ProcessPoolExecutorBackend(max_pool_deaths=0)
        with pytest.raises(ValueError):
            ProcessPoolExecutorBackend(max_requeues=-1)
