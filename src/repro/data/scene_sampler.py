"""Region-scale scene synthesis and patch extraction.

The paper builds its dataset by segmenting drainage-crossing objects out
of watershed-scale HRDEMs and sampling negative patches by random spatial
sampling (Section 2.1).  :class:`DrainageCrossingDataset` shortcuts this
by generating one scene per patch; this module reproduces the *actual*
data-build workflow:

1. synthesize a large region raster with a drainage network (several
   meandering channels) and a road network (several embankments);
2. detect every channel-road crossing (the segmentation step) as ground
   truth;
3. cut positive patches centered near crossings and negative patches by
   rejection-sampled random locations away from any crossing.

Everything stays vectorized: channels/roads are rasterized with the same
distance-field profiles as :mod:`repro.data.terrain`, and crossing
detection is a mask intersection + connected-component centroid pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.orthophoto import render_orthophoto
from repro.data.terrain import Scene, TerrainParams, _meander, synthesize_dem
from repro.data.indices import ndvi, ndwi

__all__ = ["RegionScene", "generate_region_scene", "detect_crossings", "sample_patches", "build_scene_dataset"]


@dataclass
class RegionScene:
    """A watershed-scale synthetic raster with ground truth.

    ``crossings`` are (row, col) centroids of channel-road intersections —
    the objects the paper's segmentation step extracts.
    """

    dem: np.ndarray
    channel_mask: np.ndarray
    road_mask: np.ndarray
    water_mask: np.ndarray
    ortho: np.ndarray  # (4, H, W): red, green, blue, nir
    crossings: list[tuple[int, int]] = field(default_factory=list)

    @property
    def size(self) -> int:
        return self.dem.shape[0]

    def channel_stack(self, channels: int = 5) -> np.ndarray:
        """The model-facing raster: DEM + bands (+ NDVI/NDWI for 7)."""
        if channels not in (5, 7):
            raise ValueError(f"channels must be 5 or 7, got {channels}")
        dem = (self.dem - self.dem.mean()) / (self.dem.std() + 1e-6)
        stack = [dem[None], self.ortho]
        if channels == 7:
            red, green, _blue, nir = self.ortho
            stack.append(ndvi(nir, red)[None])
            stack.append(ndwi(green, nir)[None])
        return np.concatenate(stack, axis=0).astype(np.float32)


def _rasterize_channel(size: int, rng: np.random.Generator, params: TerrainParams) -> tuple[np.ndarray, np.ndarray]:
    """One horizontal meandering channel: (depth field, mask)."""
    center = rng.uniform(0.15, 0.85) * size
    path = np.clip(center + _meander(size, rng, n_waves=4), 2, size - 3)
    rows = np.arange(size)[:, None]
    dist = np.abs(rows - path[None, :])
    depth = params.channel_depth * np.exp(-0.5 * (dist / params.channel_width) ** 2)
    return depth.astype(np.float32), depth > 0.35 * params.channel_depth


def _rasterize_road(size: int, rng: np.random.Generator, params: TerrainParams) -> tuple[np.ndarray, np.ndarray]:
    """One roughly vertical road embankment: (height field, mask)."""
    center = rng.uniform(0.15, 0.85) * size
    slope = rng.uniform(-0.25, 0.25)
    rows = np.arange(size)
    path = np.clip(center + slope * (rows - size / 2.0), 2, size - 3)
    cols = np.arange(size)[None, :]
    dist = np.abs(cols - path[:, None])
    half = params.road_width / 2.0
    shoulders = np.clip((dist - half / 2.0) / half, 0.0, 1.0)
    height = params.road_height * 0.5 * (1.0 + np.cos(np.pi * shoulders))
    height[dist > 1.5 * half] = 0.0
    return height.astype(np.float32), height > 0.35 * params.road_height


def detect_crossings(channel_mask: np.ndarray, road_mask: np.ndarray) -> list[tuple[int, int]]:
    """Centroids of connected channel-road intersection regions.

    This is the reproduction's 'object segmentation': each connected
    overlap blob is one culvert candidate.
    """
    # Imported on first use: scipy.ndimage takes about 0.13 s to import.
    from scipy import ndimage

    overlap = channel_mask & road_mask
    labeled, count = ndimage.label(overlap)
    if count == 0:
        return []
    centroids = ndimage.center_of_mass(overlap, labeled, index=range(1, count + 1))
    return [(int(round(r)), int(round(c))) for r, c in centroids]


def generate_region_scene(
    size: int,
    rng: np.random.Generator,
    params: TerrainParams,
    n_channels: int = 3,
    n_roads: int = 3,
) -> RegionScene:
    """Synthesize a region raster with drainage and road networks."""
    if size < 64:
        raise ValueError(f"region scenes need size >= 64, got {size}")
    if n_channels < 0 or n_roads < 0:
        raise ValueError("feature counts must be non-negative")
    dem = synthesize_dem(size, rng, params)
    channel_mask = np.zeros((size, size), dtype=bool)
    road_mask = np.zeros((size, size), dtype=bool)
    for _ in range(n_channels):
        depth, mask = _rasterize_channel(size, rng, params)
        dem = dem - depth
        channel_mask |= mask
    for _ in range(n_roads):
        height, mask = _rasterize_road(size, rng, params)
        dem = dem + height  # embankments fill over channels: culverts
        road_mask |= mask

    if channel_mask.any():
        open_channel = channel_mask & ~road_mask
        if open_channel.any():
            threshold = np.percentile(dem[open_channel], 35)
            water_mask = open_channel & (dem < threshold)
        else:
            water_mask = np.zeros_like(channel_mask)
    else:
        water_mask = np.zeros_like(channel_mask)

    scene_view = Scene(dem=dem.astype(np.float32), channel_mask=channel_mask,
                       road_mask=road_mask, water_mask=water_mask, has_crossing=False)
    ortho = render_orthophoto(scene_view, rng)
    return RegionScene(
        dem=dem.astype(np.float32),
        channel_mask=channel_mask,
        road_mask=road_mask,
        water_mask=water_mask,
        ortho=ortho,
        crossings=detect_crossings(channel_mask, road_mask),
    )


def sample_patches(
    scene: RegionScene,
    patch: int,
    rng: np.random.Generator,
    n_positive: int | None = None,
    n_negative: int | None = None,
    exclusion_radius: float | None = None,
    channels: int = 5,
    jitter: int = 4,
    max_attempts: int = 2000,
) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int]]]:
    """Cut positive/negative patches from a region scene.

    Positives are centered on detected crossings (with a small random
    jitter, as real segmentation boxes are not pixel-perfect); negatives
    are random locations at least ``exclusion_radius`` cells from any
    crossing — the paper's 'random spatial sampling'.

    Returns
    -------
    (X, y, centers):
        ``X`` of shape ``(n, channels, patch, patch)``, labels ``y``,
        and the patch centers used.
    """
    if patch < 8 or patch > scene.size:
        raise ValueError(f"patch size {patch} invalid for scene of size {scene.size}")
    stack = scene.channel_stack(channels)
    half = patch // 2
    lo, hi = half, scene.size - half
    if lo >= hi:
        raise ValueError("patch is too large for the scene")
    exclusion = exclusion_radius if exclusion_radius is not None else patch / 2.0

    usable = [(r, c) for r, c in scene.crossings if lo <= r < hi and lo <= c < hi]
    if n_positive is None:
        n_positive = len(usable)
    if n_positive > 0 and not usable:
        raise ValueError("scene contains no usable crossings for positive patches")
    if n_negative is None:
        n_negative = n_positive

    patches: list[np.ndarray] = []
    labels: list[int] = []
    centers: list[tuple[int, int]] = []

    for i in range(n_positive):
        r, c = usable[i % len(usable)]
        r = int(np.clip(r + rng.integers(-jitter, jitter + 1), lo, hi - 1))
        c = int(np.clip(c + rng.integers(-jitter, jitter + 1), lo, hi - 1))
        patches.append(stack[:, r - half : r - half + patch, c - half : c - half + patch])
        labels.append(1)
        centers.append((r, c))

    crossing_array = np.array(scene.crossings, dtype=float) if scene.crossings else np.zeros((0, 2))
    produced = 0
    for _ in range(max_attempts):
        if produced >= n_negative:
            break
        r = int(rng.integers(lo, hi))
        c = int(rng.integers(lo, hi))
        if crossing_array.size:
            distances = np.hypot(crossing_array[:, 0] - r, crossing_array[:, 1] - c)
            if distances.min() < exclusion:
                continue
        patches.append(stack[:, r - half : r - half + patch, c - half : c - half + patch])
        labels.append(0)
        centers.append((r, c))
        produced += 1
    if produced < n_negative:
        raise RuntimeError(
            f"could only place {produced}/{n_negative} negatives outside the exclusion zones"
        )

    x = np.stack(patches) if patches else np.zeros((0, channels, patch, patch), dtype=np.float32)
    return x.astype(np.float32), np.array(labels, dtype=np.int64), centers


def build_scene_dataset(
    params: TerrainParams,
    scene_size: int = 400,
    patch: int = 64,
    n_scenes: int = 2,
    channels: int = 5,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """A balanced (X, y) dataset cut from several region scenes."""
    xs, ys = [], []
    for scene_idx in range(n_scenes):
        rng = np.random.default_rng(seed + 7919 * scene_idx)
        scene = generate_region_scene(scene_size, rng, params)
        if not scene.crossings:
            continue
        x, y, _ = sample_patches(scene, patch, rng, channels=channels)
        xs.append(x)
        ys.append(y)
    if not xs:
        raise RuntimeError("no scene produced any crossings; increase n_scenes or feature counts")
    return np.concatenate(xs), np.concatenate(ys)
