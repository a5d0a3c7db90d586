"""Polar-grid place recognition descriptor.

A cloud is summarized as a rings x sectors matrix of maximum point heights
per polar bin.  Yawing the cloud by a whole number of sector widths shifts
the matrix columns circularly, so comparing under all column shifts makes
retrieval rotation-aware; the per-ring occupancy key is fully rotation
invariant and serves as a cheap pre-filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .geometry import PointCloud


@dataclass
class ScanContextParams:
    rings: int = 20
    sectors: int = 60
    max_range: float = 80.0
    height_offset: float = 2.0

    def __post_init__(self):
        if self.rings < 1 or self.sectors < 1:
            raise ValueError("scan context needs at least one ring and sector")
        if self.max_range <= 0:
            raise ValueError("scan context max_range must be positive")

    @property
    def sector_width(self) -> float:
        return 2.0 * np.pi / self.sectors


@dataclass
class ScanContext:
    grid: np.ndarray       # (rings, sectors), >= 0
    ring_key: np.ndarray   # (rings,) occupancy mean per ring
    params: ScanContextParams


def make_scan_context(cloud: PointCloud,
                      params: Optional[ScanContextParams] = None) -> ScanContext:
    params = params or ScanContextParams()
    grid = np.zeros((params.rings, params.sectors))
    pts = cloud.points
    if len(pts) > 0:
        rng = np.linalg.norm(pts[:, :2], axis=1)
        keep = rng < params.max_range
        pts = pts[keep]
        rng = rng[keep]
    if len(pts) > 0:
        ring = np.floor(rng / params.max_range * params.rings).astype(int)
        ring = np.clip(ring, 0, params.rings - 1)
        azimuth = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2.0 * np.pi)
        sector = np.floor(azimuth / (2.0 * np.pi) * params.sectors).astype(int)
        sector = np.clip(sector, 0, params.sectors - 1)
        height = np.maximum(pts[:, 2] + params.height_offset, 0.0)
        np.maximum.at(grid, (ring, sector), height)
    occupancy = (grid > 0.0).astype(np.float64)
    ring_key = occupancy.mean(axis=1)
    return ScanContext(grid, ring_key, params)


def descriptor_distance(query: ScanContext,
                        candidate: ScanContext) -> Tuple[float, int]:
    """Minimum over column shifts of the mean column-wise cosine distance.

    Returns (distance, best_shift) where rolling the query grid columns by
    ``best_shift`` best matches the candidate.  Column pairs where either
    column is empty are skipped; if no pair is comparable the distance is 1.
    """
    q, c = query.grid, candidate.grid
    sectors = q.shape[1]
    # all shifts at once: rolling the query by s puts its column (j - s) mod S
    # against candidate column j, so every shift's column dots are entries
    # of the one S x S product q^T c, picked out by a circulant index
    cols = np.arange(sectors)
    src_col = (cols[None, :] - cols[:, None]) % sectors   # [shift, column]
    dots = (q.T @ c)[src_col, cols]
    denom = np.linalg.norm(q, axis=0)[src_col] * np.linalg.norm(c, axis=0)
    usable = denom > 0.0
    count = usable.sum(axis=1)
    # skipped pairs get cos = 1, so they add nothing to the sum
    cos = np.divide(dots, denom, out=np.ones_like(denom), where=usable)
    dist = np.where(count > 0, (1.0 - cos).sum(axis=1) / np.maximum(count, 1),
                    1.0)
    best = int(np.argmin(dist))                   # first minimum wins ties
    return float(dist[best]), best


def shift_to_yaw(shift: int, params: ScanContextParams) -> float:
    """Relative yaw (radians, in (-pi, pi]) implied by a column shift."""
    yaw = shift * params.sector_width
    if yaw > np.pi:
        yaw -= 2.0 * np.pi
    return yaw
