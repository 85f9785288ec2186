"""Crash-safe store reload, durability knob, and the run-manifest resume gate."""

from __future__ import annotations

import json
import os

import pytest

from repro.faults import corrupt_store_tail
from repro.nas import (
    Experiment,
    GridSearch,
    ResumeMismatchError,
    RunManifest,
    StoreCorruptionError,
    SurrogateEvaluator,
    TrialRecord,
    TrialStore,
)
from repro.nas.config import ModelConfig
from repro.nas.searchspace import SearchSpace

SMALL_SPACE = SearchSpace(
    kernel_size=(3,), stride=(2,), padding=(1,), pool_choice=(0, 1),
    kernel_size_pool=(3,), stride_pool=(2,), initial_output_feature=(32,),
    channels=(5,), batches=(8, 16),
)


def _config(batch=8, pool=1):
    return ModelConfig(
        channels=5, batch=batch, kernel_size=3, stride=2, padding=1,
        pool_choice=pool, kernel_size_pool=3, stride_pool=2,
        initial_output_feature=32,
    )


def _record(trial_id, batch=8, pool=1, accuracy=90.0):
    return TrialRecord(trial_id=trial_id, config=_config(batch, pool), accuracy=accuracy)


def _populated_store(path, n=3):
    store = TrialStore(path)
    for i, (batch, pool) in enumerate([(8, 1), (16, 1), (8, 0)][:n]):
        store.add(_record(i, batch=batch, pool=pool, accuracy=90.0 + i))
    store.close()
    return store


class TestCrashSafeLoad:
    @pytest.mark.parametrize("mode", ["truncate", "garbage", "partial-append"])
    def test_corrupt_tail_is_quarantined(self, tmp_path, mode):
        path = tmp_path / "trials.jsonl"
        _populated_store(path)
        corrupt_store_tail(path, mode=mode, seed=0)

        store = TrialStore(path)
        count = store.load()
        assert count == 2 if mode != "partial-append" else count == 3
        assert len(store.quarantined) == 1
        # The corrupt line landed in the sidecar and left the store clean.
        assert store.quarantine_path.exists()
        clean = TrialStore(path)
        clean.load()
        assert clean.quarantined == []
        assert len(clean) == count

    def test_append_after_quarantine_is_clean(self, tmp_path):
        """The rewrite means a new append cannot extend a partial line."""
        path = tmp_path / "trials.jsonl"
        _populated_store(path)
        corrupt_store_tail(path, mode="truncate", seed=0)

        store = TrialStore(path)
        store.load()
        store.add(_record(99, batch=16, pool=0, accuracy=95.0))
        store.close()

        reloaded = TrialStore(path)
        assert reloaded.load() == 3
        assert reloaded.quarantined == []
        assert reloaded.records()[-1].trial_id == 99

    def test_strict_load_raises_and_modifies_nothing(self, tmp_path):
        path = tmp_path / "trials.jsonl"
        _populated_store(path)
        corrupt_store_tail(path, mode="garbage", seed=1)
        before = path.read_bytes()

        store = TrialStore(path)
        with pytest.raises(StoreCorruptionError, match="undecodable"):
            store.load(strict=True)
        assert path.read_bytes() == before
        assert not store.quarantine_path.exists()

    def test_semantically_invalid_record_is_quarantined(self, tmp_path):
        """A decodable JSON line that is not a TrialRecord is quarantined too."""
        path = tmp_path / "trials.jsonl"
        _populated_store(path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"not_a": "trial record"}\n')
        store = TrialStore(path)
        assert store.load() == 3
        assert len(store.quarantined) == 1

    def test_clean_store_loads_without_quarantine(self, tmp_path):
        path = tmp_path / "trials.jsonl"
        _populated_store(path)
        store = TrialStore(path)
        assert store.load() == 3
        assert store.quarantined == []
        assert not store.quarantine_path.exists()

    def test_load_missing_file(self, tmp_path):
        store = TrialStore(tmp_path / "absent.jsonl")
        assert store.load() == 0


class TestDurability:
    def test_invalid_durability_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="durability"):
            TrialStore(tmp_path / "t.jsonl", durability="paranoid")

    def test_flush_durability_visible_before_close(self, tmp_path):
        path = tmp_path / "t.jsonl"
        store = TrialStore(path, durability="flush")
        store.add(_record(0))
        # Default flush-per-append: the line is already on the OS side.
        assert path.read_text().count("\n") == 1
        store.close()

    def test_buffered_durability_needs_flush(self, tmp_path):
        path = tmp_path / "t.jsonl"
        store = TrialStore(path, durability="buffered")
        store.add(_record(0))
        store.flush()
        assert path.read_text().count("\n") == 1
        store.close()

    def test_fsync_durability_roundtrip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TrialStore(path, durability="fsync") as store:
            store.add(_record(0))
            store.add(_record(1, batch=16))
        reloaded = TrialStore(path)
        assert reloaded.load() == 2

    def test_quarantine_rewrite_honors_fsync_durability(self, tmp_path, monkeypatch):
        """The atomic quarantine rewrite fsyncs exactly when the store's
        durability knob promises it."""
        for durability, expect_fsync in (("fsync", True), ("flush", False)):
            path = tmp_path / f"{durability}.jsonl"
            _populated_store(path)
            corrupt_store_tail(path, mode="truncate", seed=0)
            calls: list[int] = []
            real_fsync = os.fsync
            monkeypatch.setattr(
                os, "fsync", lambda fd: (calls.append(fd), real_fsync(fd))[1]
            )
            damaged = TrialStore(path, durability=durability)
            assert damaged.load() == 2
            monkeypatch.undo()
            damaged.close()
            if expect_fsync:
                # Sidecar, rewritten file, and its directory entry.
                assert len(calls) >= 3
            else:
                assert calls == []


class TestRunManifest:
    def _manifest(self, **overrides):
        base = dict(
            strategy="GridSearch", space_hash=123,
            seeds={"jitter_seed": 0, "evaluator_seed": 7},
            input_hw=(100, 100), latency_jitter=0.006,
            injector="none", evaluator="SurrogateEvaluator",
        )
        base.update(overrides)
        return RunManifest(**base)

    def test_roundtrip_preserves_fingerprint(self):
        manifest = self._manifest()
        again = RunManifest.from_dict(json.loads(json.dumps(manifest.to_dict())))
        assert again.fingerprint() == manifest.fingerprint()

    def test_fingerprint_ignores_created_at(self):
        assert (self._manifest(created_at="2026-01-01").fingerprint()
                == self._manifest(created_at="2026-02-02").fingerprint())

    @pytest.mark.parametrize("field,value", [
        ("strategy", "RandomSearch"),
        ("space_hash", 456),
        ("seeds", {"jitter_seed": 1, "evaluator_seed": 7}),
        ("latency_jitter", 0.01),
        ("injector", "FailureInjector(total=10, failures=1, failed=[3])"),
        ("evaluator", "TrainingEvaluator"),
    ])
    def test_identity_fields_change_fingerprint(self, field, value):
        a, b = self._manifest(), self._manifest(**{field: value})
        assert a.fingerprint() != b.fingerprint()
        assert b.diff(a)  # names the differing field

    def test_store_manifest_roundtrip(self, tmp_path):
        store = TrialStore(tmp_path / "t.jsonl")
        assert store.read_manifest() is None
        store.write_manifest(self._manifest())
        stored = store.read_manifest()
        assert stored is not None
        assert stored.fingerprint() == self._manifest().fingerprint()
        assert stored.created_at != ""  # stamped on write

    def test_verify_or_write_writes_then_verifies(self, tmp_path):
        store = TrialStore(tmp_path / "t.jsonl")
        store.verify_or_write_manifest(self._manifest())
        store.verify_or_write_manifest(self._manifest())  # same identity: ok
        with pytest.raises(ResumeMismatchError, match="jitter"):
            store.verify_or_write_manifest(self._manifest(latency_jitter=0.5))


class TestExperimentResumeGate:
    def _experiment(self, store, **overrides):
        kwargs = dict(
            evaluator=SurrogateEvaluator(seed=0),
            strategy=GridSearch(SMALL_SPACE),
            store=store,
            latency_jitter=0.006,
            jitter_seed=0,
            skip_existing=True,
        )
        kwargs.update(overrides)
        return Experiment(**kwargs)

    def test_resume_same_settings_skips(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        first = self._experiment(TrialStore(path), skip_existing=False)
        first.run(budget=4)
        first.store.close()

        store = TrialStore(path)
        store.load()
        result = self._experiment(store).run(budget=4)
        assert result.skipped == 4 and result.launched == 0

    def test_resume_with_different_seed_refuses(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        first = self._experiment(TrialStore(path), skip_existing=False)
        first.run(budget=2)
        first.store.close()

        store = TrialStore(path)
        store.load()
        with pytest.raises(ResumeMismatchError, match="seeds"):
            self._experiment(store, jitter_seed=1).run(budget=2)

    def test_resume_with_different_jitter_refuses(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        self._experiment(TrialStore(path), skip_existing=False).run(budget=2)
        store = TrialStore(path)
        store.load()
        with pytest.raises(ResumeMismatchError, match="latency_jitter"):
            self._experiment(store, latency_jitter=0.02).run(budget=2)

    def test_fresh_run_writes_manifest(self, tmp_path):
        store = TrialStore(tmp_path / "sweep.jsonl")
        self._experiment(store, skip_existing=False).run(budget=1)
        assert store.read_manifest() is not None
