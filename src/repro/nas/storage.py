"""JSONL-backed trial database with crash-safe reload and a run manifest.

Long sweeps append each finished trial immediately, so an interrupted
experiment loses at most the in-flight trial; reloading the store resumes
exactly where the run stopped (the NNI experiment-database role).

Fault tolerance (see DEVELOPMENT.md "Fault tolerance"):

- **Durability knob** — each append can be left OS-buffered, flushed, or
  fsynced (:class:`TrialStore` ``durability``); the default ``"flush"``
  survives a process crash at the cost of one ``flush`` per trial.
- **Tail recovery** — a writer killed mid-append leaves a truncated (or
  garbage) last line.  :meth:`TrialStore.load` quarantines undecodable
  lines into ``<path>.quarantine`` and *rewrites the store without
  them*, so the next append cannot concatenate onto a partial line;
  loading warns but never raises for corruption (``strict=True`` opts
  back into raising).
- **Run manifest** — ``<path>.manifest.json`` pins the sweep's identity
  (strategy, seeds, search-space hash, ...).  Resume verifies the
  manifest before skipping trials, so a store from a *different* sweep
  cannot silently poison a resumed run (:class:`ResumeMismatchError`).
"""

from __future__ import annotations

import datetime as _dt
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any, Iterable, Iterator, Mapping

import repro.obs as obs
from repro.nas.config import ModelConfig
from repro.nas.trial import TrialRecord
from repro.utils.io import append_jsonl_line, atomic_write_text, read_json, scan_jsonl, write_json
from repro.utils.logging import get_logger
from repro.utils.rng import stable_hash

__all__ = ["TrialStore", "RunManifest", "ResumeMismatchError", "StoreCorruptionError"]

_LOG = get_logger("nas.storage")

# Module-level instrument handles: cached once, no-ops while obs is disabled.
_APPENDS = obs.counter("repro_store_appends_total")
_QUARANTINED = obs.counter("repro_store_quarantined_lines_total")


class ResumeMismatchError(ValueError):
    """The store's manifest does not match the resuming experiment."""


class StoreCorruptionError(ValueError):
    """Raised by ``load(strict=True)`` when the store has undecodable lines."""


@dataclass(frozen=True)
class RunManifest:
    """Identity of one sweep, written next to its JSONL store.

    ``fingerprint()`` hashes every identity field (not ``created_at``),
    so two manifests compare equal exactly when a resumed run would
    reproduce the original records for the trials it skips.
    """

    strategy: str
    space_hash: int
    seeds: Mapping[str, int] = field(default_factory=dict)
    input_hw: tuple[int, int] = (100, 100)
    latency_jitter: float = 0.0
    injector: str = "none"
    evaluator: str = ""
    created_at: str = ""
    version: int = 1

    def fingerprint(self) -> int:
        """Order-independent hash of the identity fields."""
        return stable_hash(
            "run-manifest",
            self.version,
            self.strategy,
            self.space_hash,
            tuple(sorted((str(k), int(v)) for k, v in self.seeds.items())),
            tuple(self.input_hw),
            round(float(self.latency_jitter), 12),
            self.injector,
            self.evaluator,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": self.version,
            "strategy": self.strategy,
            "space_hash": self.space_hash,
            "seeds": dict(self.seeds),
            "input_hw": list(self.input_hw),
            "latency_jitter": self.latency_jitter,
            "injector": self.injector,
            "evaluator": self.evaluator,
            "created_at": self.created_at,
            "fingerprint": self.fingerprint(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunManifest":
        return cls(
            strategy=str(data["strategy"]),
            space_hash=int(data["space_hash"]),
            seeds={str(k): int(v) for k, v in data.get("seeds", {}).items()},
            input_hw=tuple(int(v) for v in data.get("input_hw", (100, 100))),  # type: ignore[arg-type]
            latency_jitter=float(data.get("latency_jitter", 0.0)),
            injector=str(data.get("injector", "none")),
            evaluator=str(data.get("evaluator", "")),
            created_at=str(data.get("created_at", "")),
            version=int(data.get("version", 1)),
        )

    def diff(self, other: "RunManifest") -> list[str]:
        """Human-readable list of identity fields that differ."""
        out = []
        for name in ("strategy", "space_hash", "input_hw", "latency_jitter",
                     "injector", "evaluator", "version"):
            mine, theirs = getattr(self, name), getattr(other, name)
            if mine != theirs:
                out.append(f"{name}: stored={theirs!r} current={mine!r}")
        if dict(self.seeds) != dict(other.seeds):
            out.append(f"seeds: stored={dict(other.seeds)!r} current={dict(self.seeds)!r}")
        return out


class TrialStore:
    """An append-only collection of :class:`TrialRecord`.

    Parameters
    ----------
    path:
        Optional JSONL file; when given, every :meth:`add` appends a line
        and :meth:`load` restores previous runs.
    durability:
        Per-record append durability — ``"buffered"``, ``"flush"``
        (default) or ``"fsync"``; see :func:`repro.utils.io.append_jsonl_line`.
    """

    def __init__(self, path: str | Path | None = None, durability: str = "flush") -> None:
        if durability not in ("buffered", "flush", "fsync"):
            raise ValueError(
                f"durability must be 'buffered', 'flush' or 'fsync', got {durability!r}"
            )
        self.path = Path(path) if path is not None else None
        self.durability = durability
        self._records: list[TrialRecord] = []
        self._by_config: dict[str, int] = {}
        self._handle: IO[str] | None = None
        #: ``(lineno, raw_line)`` pairs quarantined by the last :meth:`load`.
        self.quarantined: list[tuple[int, str]] = []

    # -- persistence plumbing ------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        """Sidecar manifest file (``<path>.manifest.json``)."""
        if self.path is None:
            raise ValueError("this store has no backing path")
        return Path(str(self.path) + ".manifest.json")

    @property
    def quarantine_path(self) -> Path:
        """Sidecar quarantine file (``<path>.quarantine``)."""
        if self.path is None:
            raise ValueError("this store has no backing path")
        return Path(str(self.path) + ".quarantine")

    def _append_handle(self) -> IO[str]:
        if self._handle is None:
            assert self.path is not None
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
        return self._handle

    def flush(self) -> None:
        """Flush any buffered appends to the OS."""
        if self._handle is not None:
            self._handle.flush()

    def close(self) -> None:
        """Close the append handle (reopened lazily by the next add)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "TrialStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_handle"] = None  # open files do not pickle
        return state

    # -- core collection API -------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TrialRecord]:
        return iter(self._records)

    def records(self, ok_only: bool = False) -> list[TrialRecord]:
        """All records (optionally only successful ones)."""
        if ok_only:
            return [r for r in self._records if r.ok]
        return list(self._records)

    def add(self, record: TrialRecord) -> None:
        """Append a record (and persist it if a path is configured)."""
        self._records.append(record)
        self._by_config[record.config.config_id()] = len(self._records) - 1
        if self.path is not None:
            append_jsonl_line(self._append_handle(), record.to_dict(), self.durability)
            _APPENDS.inc()

    def extend(self, records: Iterable[TrialRecord]) -> None:
        """Append many records."""
        for record in records:
            self.add(record)

    def find(self, config: ModelConfig) -> TrialRecord | None:
        """The latest record for a configuration, if any."""
        idx = self._by_config.get(config.config_id())
        return self._records[idx] if idx is not None else None

    # -- crash-safe load -----------------------------------------------------

    def load(self, strict: bool = False) -> int:
        """Load records from the configured path; returns the count added.

        Undecodable lines (truncated tail after a crash mid-append,
        corrupted bytes) are **quarantined**: the raw line is appended to
        :attr:`quarantine_path`, a warning is logged, and the store file
        is atomically rewritten with only the valid lines so subsequent
        appends cannot concatenate onto a partial record.  With
        ``strict=True`` corruption raises :class:`StoreCorruptionError`
        instead (nothing is modified).
        """
        if self.path is None:
            raise ValueError("this store has no backing path")
        self.quarantined = []
        if not self.path.exists():
            return 0
        count = 0
        valid_lines: list[str] = []
        for lineno, raw, parsed in scan_jsonl(self.path):
            record: TrialRecord | None = None
            if parsed is not None:
                try:
                    record = TrialRecord.from_dict(parsed)
                except (KeyError, TypeError, ValueError):
                    record = None
            if record is None:
                self.quarantined.append((lineno, raw))
                continue
            self._records.append(record)
            self._by_config[record.config.config_id()] = len(self._records) - 1
            valid_lines.append(raw)
            count += 1
        if self.quarantined:
            if strict:
                self.quarantined, bad = [], self.quarantined
                raise StoreCorruptionError(
                    f"{self.path}: {len(bad)} undecodable line(s) "
                    f"(first at line {bad[0][0]}); run load(strict=False) to quarantine"
                )
            self._quarantine_and_rewrite(valid_lines)
        return count

    def _quarantine_and_rewrite(self, valid_lines: list[str]) -> None:
        """Move corrupt lines to the sidecar and rewrite the store atomically.

        Honors the store's ``durability`` knob: under ``"fsync"`` the
        quarantine sidecar and the rewritten store are fsynced (file and
        directory entry) *before* the rename lands, closing the crash
        window between the rewrite and the replacement becoming durable.
        """
        self.close()  # never rewrite under an open append handle
        fsync = self.durability == "fsync"
        _QUARANTINED.inc(len(self.quarantined))
        stamp = _dt.datetime.now(_dt.timezone.utc).isoformat()
        with open(self.quarantine_path, "a", encoding="utf-8") as sidecar:
            for lineno, raw in self.quarantined:
                sidecar.write(f"# {stamp} line {lineno} of {self.path.name}\n{raw}\n")
            if fsync:
                sidecar.flush()
                os.fsync(sidecar.fileno())
        body = "".join(line + "\n" for line in valid_lines)
        atomic_write_text(self.path, body, fsync=fsync)
        for lineno, raw in self.quarantined:
            _LOG.warning(
                "quarantined undecodable store line %d of %s (%d bytes) -> %s",
                lineno, self.path, len(raw), self.quarantine_path,
            )

    # -- run manifest --------------------------------------------------------

    def write_manifest(self, manifest: RunManifest) -> None:
        """Persist the sweep's identity next to the store (atomic)."""
        if manifest.created_at == "":
            manifest = RunManifest(**{
                **manifest.__dict__,
                "created_at": _dt.datetime.now(_dt.timezone.utc).isoformat(),
            })
        write_json(self.manifest_path, manifest.to_dict())

    def read_manifest(self) -> RunManifest | None:
        """The stored manifest, or ``None`` when absent."""
        if self.path is None or not self.manifest_path.exists():
            return None
        return RunManifest.from_dict(read_json(self.manifest_path))

    def verify_or_write_manifest(self, manifest: RunManifest) -> None:
        """Resume gate: verify an existing manifest or write a fresh one.

        Raises :class:`ResumeMismatchError` when the stored manifest's
        fingerprint differs — resuming under different strategy/seed/
        space settings would silently mix incompatible records.
        """
        stored = self.read_manifest()
        if stored is None:
            self.write_manifest(manifest)
            return
        if stored.fingerprint() != manifest.fingerprint():
            diffs = manifest.diff(stored) or ["fingerprint mismatch"]
            raise ResumeMismatchError(
                f"store manifest at {self.manifest_path} does not match this experiment; "
                "refusing to resume. Differences: " + "; ".join(diffs)
            )

    # -- analysis ------------------------------------------------------------

    def best_by_accuracy(self) -> TrialRecord:
        """Highest-accuracy successful trial."""
        ok = self.records(ok_only=True)
        if not ok:
            raise ValueError("store has no successful trials")
        return max(ok, key=lambda r: r.accuracy)

    def analysis_records(self) -> list[dict]:
        """Flat objective records of successful trials (Pareto input)."""
        return [r.as_analysis_record() for r in self.records(ok_only=True)]
