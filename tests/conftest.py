"""Shared fixtures: tiny datasets, canonical configs, seeded RNGs, leak audit."""

from __future__ import annotations

import multiprocessing
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.data.dataset import DrainageCrossingDataset
from repro.nas.config import ModelConfig

#: How long a test's server threads and worker processes get to finish
#: exiting before the leak audit counts them as leaked.
LEAK_GRACE_S = 2.0
_SHM_DIR = Path("/dev/shm")


def _shm_segments() -> set[str]:
    """Names of the POSIX shared-memory segments Python created (psm_*)."""
    return {p.name for p in _SHM_DIR.glob("psm_*")} if _SHM_DIR.is_dir() else set()


def _leaks(segments_before: set[str]) -> dict[str, list]:
    threads = [t.name for t in threading.enumerate()
               if t.name.startswith("repro-fleet-") and t.is_alive()]
    return {
        "shared-memory segments": sorted(_shm_segments() - segments_before),
        # active_children() also reaps children that already exited.
        "child processes": [p.name for p in multiprocessing.active_children()],
        "server threads": threads,
    }


@pytest.fixture()
def leak_audit():
    """Fail a test that leaves shared memory, child processes or server
    threads behind.

    The serving, executor, fabric and obs-integration suites opt in
    through ``pytestmark``.  After a short grace for
    joins in flight, any new ``/dev/shm/psm_*`` segment, live
    ``multiprocessing`` child, or live dispatcher/autoscaler thread
    (named ``repro-fleet-*``) is a leak.
    """
    before = _shm_segments()
    yield
    deadline = time.monotonic() + LEAK_GRACE_S
    while any((leaks := _leaks(before)).values()) and time.monotonic() < deadline:
        time.sleep(0.05)
    leaked = {kind: names for kind, names in leaks.items() if names}
    assert not leaked, f"test leaked {leaked}"


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def tiny_dataset_5ch() -> DrainageCrossingDataset:
    """16 samples, 24x24, 5 channels — fast enough for real training."""
    return DrainageCrossingDataset(
        channels=5, size=24, samples_per_class=2, regions=["nebraska", "california"], seed=7
    )


@pytest.fixture(scope="session")
def tiny_dataset_7ch() -> DrainageCrossingDataset:
    return DrainageCrossingDataset(
        channels=7, size=24, samples_per_class=2, regions=["nebraska", "california"], seed=7
    )


@pytest.fixture()
def winner_config() -> ModelConfig:
    """The paper's best Table-4 solution (7ch, b16, no-pool, f32)."""
    return ModelConfig(
        channels=7, batch=16, kernel_size=3, stride=2, padding=1,
        pool_choice=0, kernel_size_pool=3, stride_pool=2, initial_output_feature=32,
    )


@pytest.fixture()
def baseline_config() -> ModelConfig:
    return ModelConfig.baseline(channels=5, batch=16)
