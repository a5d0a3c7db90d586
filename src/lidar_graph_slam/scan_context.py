"""Polar-grid place recognition descriptor.

A cloud is summarized as a rings x sectors matrix of maximum point heights
per polar bin.  Yawing the cloud by a whole number of sector widths shifts
the matrix columns circularly, so comparing under all column shifts makes
retrieval rotation-aware.  One batched product scores a query against a
whole stack of candidate grids under every shift.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .geometry import PointCloud

# added to point heights (m); points further below the sensor leave a bin empty
HEIGHT_OFFSET = 2.0


@dataclass
class ScanContextParams:
    rings: int = 20
    sectors: int = 60
    max_range: float = 80.0

    def __post_init__(self):
        if self.rings < 1 or self.sectors < 1:
            raise ValueError("scan context needs at least one ring and sector")
        if self.max_range <= 0:
            raise ValueError("scan context max_range must be positive")

    @property
    def sector_width(self) -> float:
        return 2.0 * np.pi / self.sectors


def make_scan_context(cloud: PointCloud,
                      params: Optional[ScanContextParams] = None) -> np.ndarray:
    """The (rings, sectors) descriptor of ``cloud``, each bin >= 0."""
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
        height = np.maximum(pts[:, 2] + HEIGHT_OFFSET, 0.0)
        np.maximum.at(grid, (ring, sector), height)
    return grid


def _unit_columns(grids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Columns scaled to unit norm (empty ones stay zero), and occupancy."""
    norms = np.linalg.norm(grids, axis=-2, keepdims=True)
    occupied = norms > 0.0
    unit = np.divide(grids, norms, out=np.zeros_like(grids), where=occupied)
    return unit, occupied[..., 0, :].astype(np.float64)


def descriptor_distances(query: np.ndarray,
                         grids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Minimum over column shifts of the mean column-wise cosine distance,
    for the query grid against each of a stack of candidate grids.

    ``grids`` is (n, rings, sectors).  Returns (distances, best_shifts), each
    (n,): rolling the query grid columns by ``best_shifts[i]`` best matches
    candidate ``i``, and the first minimum wins a tie between shifts.  Column
    pairs where either column is empty are skipped; if no pair is comparable
    the distance is 1.
    """
    sectors = query.shape[1]
    # all shifts at once: rolling the query by s puts its column (j - s) mod S
    # against candidate column j, so every shift's column cosines are entries
    # of the one S x S product of unit columns, picked out by a circulant index
    cols = np.arange(sectors)
    src_col = (cols[None, :] - cols[:, None]) % sectors   # [shift, column]
    q_unit, q_occupied = _unit_columns(query)
    c_unit, c_occupied = _unit_columns(grids)
    # an empty column is a zero unit column: it adds nothing to the sum
    cos_sum = np.matmul(q_unit.T, c_unit)[:, src_col, cols].sum(axis=2)
    # einsum, not a BLAS product: OpenBLAS would spin a second core for this
    # one from a few hundred candidates on
    count = np.einsum("cj,sj->cs", c_occupied, q_occupied[src_col])
    dist = np.where(count > 0, (count - cos_sum) / np.maximum(count, 1), 1.0)
    return dist.min(axis=1), np.argmin(dist, axis=1)


def shift_to_yaw(shift: int, params: ScanContextParams) -> float:
    """Relative yaw (radians, in (-pi, pi]) implied by a column shift."""
    yaw = shift * params.sector_width
    if yaw > np.pi:
        yaw -= 2.0 * np.pi
    return yaw
