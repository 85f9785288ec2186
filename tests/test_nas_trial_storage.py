"""Trial records and the JSONL store."""

import pytest

from repro.nas.config import ModelConfig
from repro.nas.storage import TrialStore
from repro.nas.trial import TrialRecord, TrialStatus


def _record(trial_id=0, accuracy=95.0, **config_kw):
    cfg = dict(channels=5, batch=8, kernel_size=3, stride=2, padding=1,
               pool_choice=0, kernel_size_pool=3, stride_pool=2, initial_output_feature=32)
    cfg.update(config_kw)
    return TrialRecord(
        trial_id=trial_id,
        config=ModelConfig(**cfg),
        accuracy=accuracy,
        fold_accuracies=(accuracy - 1, accuracy + 1),
        latency_ms=8.2,
        lat_std=4.5,
        per_device_ms={"cortexA76cpu": 15.0, "myriadvpu": 5.0},
        memory_mb=11.2,
        param_count=2_800_000,
        flops=700_000_000,
    )


class TestTrialRecord:
    def test_dict_roundtrip(self):
        rec = _record()
        back = TrialRecord.from_dict(rec.to_dict())
        assert back.config == rec.config
        assert back.accuracy == rec.accuracy
        assert back.per_device_ms == rec.per_device_ms
        assert back.status is TrialStatus.OK

    def test_failed_record(self):
        rec = TrialRecord(trial_id=1, config=_record().config, status=TrialStatus.FAILED, error="boom")
        assert not rec.ok
        assert TrialRecord.from_dict(rec.to_dict()).error == "boom"

    def test_objectives_and_analysis_record(self):
        rec = _record()
        assert set(rec.objectives()) == {"accuracy", "latency_ms", "memory_mb"}
        flat = rec.as_analysis_record()
        assert flat["kernel_size"] == 3 and flat["trial_id"] == 0 and flat["lat_std"] == 4.5


class TestTrialStore:
    def test_add_find_best(self):
        store = TrialStore()
        store.extend([_record(0, 90.0, batch=8), _record(1, 95.0, batch=16)])
        assert len(store) == 2
        assert store.best_by_accuracy().trial_id == 1
        assert store.find(_record(0, batch=8).config).accuracy == 90.0
        assert store.find(_record(0, batch=32).config) is None

    def test_persistence_roundtrip(self, tmp_path):
        path = tmp_path / "trials.jsonl"
        store = TrialStore(path)
        store.add(_record(0))
        store.add(_record(1, batch=16))
        restored = TrialStore(path)
        assert restored.load() == 2
        assert restored.records()[1].config.batch == 16

    def test_ok_only_filter(self):
        store = TrialStore()
        store.add(_record(0))
        store.add(TrialRecord(trial_id=1, config=_record(0, batch=16).config, status=TrialStatus.FAILED))
        assert len(store.records(ok_only=True)) == 1
        assert len(store.analysis_records()) == 1

    def test_best_of_empty_raises(self):
        with pytest.raises(ValueError):
            TrialStore().best_by_accuracy()

    def test_load_without_path_raises(self):
        with pytest.raises(ValueError):
            TrialStore().load()

    def test_load_missing_file_is_zero(self, tmp_path):
        assert TrialStore(tmp_path / "none.jsonl").load() == 0

    def test_load_twice_replaces_the_records(self, tmp_path):
        """A reload must not double every record (and every front member)."""
        path = tmp_path / "trials.jsonl"
        with TrialStore(path) as writer:
            writer.extend(_record(i, batch=b) for i, b in enumerate((8, 16, 32)))
        store = TrialStore(path)
        assert store.load() == 3
        assert store.load() == 3
        assert len(store) == 3 and len(store.analysis_records()) == 3
        assert store.find(_record(0, batch=16).config).trial_id == 1
