"""Shared utilities: RNG management, timing, IO, logging, tables.

These helpers are deliberately dependency-light; every other subpackage in
:mod:`repro` builds on them.
"""

from repro.utils.rng import SeedSequenceFactory, rng_from_seed, spawn_rngs, stable_hash
from repro.utils.timing import format_duration
from repro.utils.io import (
    atomic_write_text,
    read_json,
    read_jsonl,
    write_csv,
    write_json,
    write_jsonl,
)
from repro.utils.tables import render_table
from repro.utils.logging import get_logger

__all__ = [
    "SeedSequenceFactory",
    "rng_from_seed",
    "spawn_rngs",
    "stable_hash",
    "format_duration",
    "atomic_write_text",
    "read_json",
    "read_jsonl",
    "write_csv",
    "write_json",
    "write_jsonl",
    "render_table",
    "get_logger",
]
