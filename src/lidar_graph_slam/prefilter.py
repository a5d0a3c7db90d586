"""Cloud pre-filtering: voxel-grid downsampling and radius outlier removal.

Outlier removal builds one kd-tree over the cloud and asks each point for
its ``min_neighbors + 1`` nearest neighbours (the point itself included)
within the radius; the point is kept iff the farthest of them lies within
the radius.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import KdTree, PointCloud

DOWNSAMPLE_VOXELGRID = "VOXELGRID"
DOWNSAMPLE_NONE = "NONE"
OUTLIER_RADIUS = "RADIUS"
OUTLIER_NONE = "NONE"


@dataclass
class PrefilterConfig:
    downsample_method: str = DOWNSAMPLE_VOXELGRID
    downsample_resolution: float = 0.25
    outlier_method: str = OUTLIER_RADIUS
    radius: float = 0.4
    min_neighbors: int = 2

    def __post_init__(self):
        if self.downsample_method not in (DOWNSAMPLE_VOXELGRID, DOWNSAMPLE_NONE):
            raise ValueError(
                f"unknown downsample method {self.downsample_method!r}")
        if self.outlier_method not in (OUTLIER_RADIUS, OUTLIER_NONE):
            raise ValueError(
                f"unknown outlier removal method {self.outlier_method!r}")
        if self.downsample_resolution <= 0:
            raise ValueError("downsample_resolution must be positive")
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.min_neighbors < 1:
            raise ValueError("min_neighbors must be >= 1")


def voxel_downsample(cloud: PointCloud, resolution: float) -> PointCloud:
    """Replace all points of each occupied voxel by their centroid.

    The grid is axis-aligned with side ``resolution`` and anchored at the
    origin; voxel keys use floor division so negative coordinates land in
    the correct cell.  Output order follows first occurrence of each voxel.
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    if len(cloud) == 0:
        return PointCloud(np.empty((0, 3)), None, cloud.timestamp, cloud.frame_id)
    keys3 = np.floor(cloud.points / resolution).astype(np.int64)
    # pack the 3 cell indices into one int64 (21 bits each, offset to
    # non-negative): one flat sort instead of a lexicographic row sort
    offset = 1 << 20
    if np.any(np.abs(keys3) >= offset):
        raise ValueError("cloud extent too large for this voxel resolution")
    keys = ((keys3[:, 0] + offset) << 42) | ((keys3[:, 1] + offset) << 21) \
        | (keys3[:, 2] + offset)
    _, first_idx, inverse = np.unique(keys, return_index=True,
                                      return_inverse=True)
    n_voxels = len(first_idx)
    sums = np.zeros((n_voxels, 3))
    np.add.at(sums, inverse, cloud.points)
    counts = np.bincount(inverse, minlength=n_voxels).astype(np.float64)
    centroids = sums / counts[:, None]
    order = np.argsort(first_idx, kind="stable")
    return PointCloud(centroids[order], None, cloud.timestamp, cloud.frame_id)


def remove_outliers(cloud: PointCloud, radius: float,
                    min_neighbors: int) -> PointCloud:
    """Keep points having >= min_neighbors other points within radius.

    A point passes iff its (min_neighbors + 1)-th nearest neighbour, counting
    the point itself, is within ``radius``.  The squared distance is summed
    as cKDTree sums it and compared with ``radius**2``, so the rule equals a
    closed-ball neighbour count even for points an ulp from the radius.  A
    cloud of at most ``min_neighbors`` points keeps nothing.  Retained
    points keep their coordinates and relative order.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if min_neighbors < 1:
        raise ValueError("min_neighbors must be >= 1")
    pts = cloud.points
    if len(pts) <= min_neighbors:
        return PointCloud(np.empty((0, 3)), None, cloud.timestamp, cloud.frame_id)
    # the search keeps every neighbour the exact test below accepts, and a
    # neighbour it did not find (index n) is beyond the radius
    idx, _ = KdTree(pts).query_batch(pts, k=min_neighbors + 1,
                                     max_distance=radius)
    far = idx[:, min_neighbors]
    found = far < len(pts)
    diff = pts[np.where(found, far, 0)] - pts
    keep = found & ((diff[:, 0] ** 2 + diff[:, 1] ** 2) + diff[:, 2] ** 2
                    <= radius * radius)
    return PointCloud(pts[keep], None, cloud.timestamp, cloud.frame_id)


def prefilter(cloud: PointCloud, cfg: PrefilterConfig) -> PointCloud:
    """Downsample then remove outliers, per the configured methods."""
    out = cloud
    if cfg.downsample_method == DOWNSAMPLE_VOXELGRID:
        out = voxel_downsample(out, cfg.downsample_resolution)
    if cfg.outlier_method == OUTLIER_RADIUS:
        out = remove_outliers(out, cfg.radius, cfg.min_neighbors)
    return PointCloud(out.points, out.normals, cloud.timestamp, cloud.frame_id)
