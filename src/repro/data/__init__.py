"""Synthetic drainage-crossing dataset (paper Section 2.1 substitute).

The paper trains on 12,068 patches cut from High-Resolution Digital
Elevation Models (HRDEMs) and NAIP aerial orthophotos over four US
watersheds (Table 1).  That data is not redistributable here, so this
subpackage synthesizes a structurally equivalent dataset:

- :mod:`~repro.data.terrain` — spectrally synthesized fractal DEMs with
  carved drainage channels and raised road embankments; a *drainage
  crossing* is a culvert signature where a road embankment crosses a
  channel;
- :mod:`~repro.data.orthophoto` — R/G/B/NIR bands correlated with the
  terrain (riparian vegetation, open water, bare road surface);
- :mod:`~repro.data.indices` — NDVI and NDWI per the paper's Eqs. (1)-(2);
- :mod:`~repro.data.regions` — the Table-1 region registry with per-region
  terrain character and exact sample counts;
- :mod:`~repro.data.dataset` — 5- or 7-channel patch datasets with
  deterministic per-sample seeds, k-fold splits, batch sampling and
  augmentation.
"""

from repro.data.indices import ndvi, ndwi
from repro.data.terrain import TerrainParams, synthesize_dem, generate_scene
from repro.data.orthophoto import render_orthophoto
from repro.data.regions import REGIONS, Region, total_sample_count
from repro.data.dataset import DrainageCrossingDataset, generate_patch, make_paper_dataset
from repro.data.scene_sampler import (
    RegionScene,
    build_scene_dataset,
    detect_crossings,
    generate_region_scene,
    sample_patches,
)
from repro.data.sampler import BatchSampler
from repro.data.splits import kfold_indices, train_test_split_indices
from repro.data.augment import augment_batch, random_flip_rot

__all__ = [
    "ndvi",
    "ndwi",
    "TerrainParams",
    "synthesize_dem",
    "generate_scene",
    "render_orthophoto",
    "REGIONS",
    "Region",
    "total_sample_count",
    "DrainageCrossingDataset",
    "generate_patch",
    "make_paper_dataset",
    "RegionScene",
    "generate_region_scene",
    "detect_crossings",
    "sample_patches",
    "build_scene_dataset",
    "BatchSampler",
    "kfold_indices",
    "train_test_split_indices",
    "augment_batch",
    "random_flip_rot",
]
