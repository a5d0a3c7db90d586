"""Ground-plane extraction.

Clip to a height slab, RANSAC-fit a near-horizontal plane to every point in
it, and refine the best plane by total least squares.
Coefficients follow a*x + b*y + c*z + d = 0 with (a, b, c) unit length and
c > 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .geometry import PointCloud, eigen_symmetric_3x3

# RANSAC scoring holds at most about this many point-plane distances at once
_SCORE_CHUNK = 1 << 20
# plane hypotheses drawn per cloud, and the fewest slab points fitted
RANSAC_ITERATIONS = 200
MIN_SLAB_POINTS = 10


@dataclass
class FloorCoefficients:
    a: float
    b: float
    c: float
    d: float
    valid: bool = True

    @property
    def normal(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c])


@dataclass
class FloorConfig:
    clip_min_z: float = -2.5
    clip_max_z: float = -1.0
    normal_vertical_max_angle: float = np.deg2rad(20.0)
    ransac_inlier_threshold: float = 0.1
    min_inlier_fraction: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if self.clip_min_z >= self.clip_max_z:
            raise ValueError("clip_min_z must be below clip_max_z")
        if not 0.0 < self.normal_vertical_max_angle < np.pi / 2:
            raise ValueError("normal_vertical_max_angle must be in (0, pi/2)")
        if self.ransac_inlier_threshold <= 0:
            raise ValueError("ransac_inlier_threshold must be positive")
        if not 0.0 <= self.min_inlier_fraction <= 1.0:
            raise ValueError("min_inlier_fraction must be in [0, 1]")


def fit_plane_lsq(points: np.ndarray) -> Tuple[np.ndarray, float]:
    """Total least-squares plane: unit normal (c > 0) and offset d."""
    pts = np.asarray(points, dtype=np.float64)
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    _, vecs = eigen_symmetric_3x3((centered.T @ centered)[None])
    n = vecs[0]
    if n[2] < 0 or (n[2] == 0 and (n[0] < 0 or (n[0] == 0 and n[1] < 0))):
        n = -n
    d = -float(n @ centroid)
    return n, d


def _invalid() -> FloorCoefficients:
    return FloorCoefficients(0.0, 0.0, 1.0, 0.0, valid=False)


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products as stacked 1x3 @ 3x1 products, which numpy
    rounds exactly as the 1-D ``a[i] @ b[i]``."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _ground_hypotheses(samples: np.ndarray, cos_max: float):
    """Planes through (H, 3, 3) point triples that are ground-like.

    Collinear triples and planes tilted more than ``arccos(cos_max)`` from
    horizontal are dropped.  Returns the survivors' unit normals (c > 0)
    and offsets, in draw order.
    """
    normals = np.cross(samples[:, 1] - samples[:, 0],
                       samples[:, 2] - samples[:, 0])
    norms = np.sqrt(_rowdot(normals, normals))
    keep = norms >= 1e-12
    normals = normals[keep] / norms[keep, None]
    origins = samples[keep, 0]
    normals[normals[:, 2] < 0] *= -1.0
    ground = normals[:, 2] >= cos_max
    normals, origins = normals[ground], origins[ground]
    return normals, -_rowdot(normals, origins)


def _inlier_counts(points: np.ndarray, normals: np.ndarray,
                   offsets: np.ndarray, threshold: float) -> np.ndarray:
    """Points within ``threshold`` of each plane.

    One matrix-vector product per plane, so every distance rounds as
    ``points @ normal + offset`` does; chunked over planes so at most
    about ``_SCORE_CHUNK`` distances are held at once.
    """
    counts = np.empty(len(normals), dtype=np.int64)
    step = max(1, _SCORE_CHUNK // len(points))
    for lo in range(0, len(normals), step):
        dist = (points @ normals[lo:lo + step, :, None])[:, :, 0]
        dist += offsets[lo:lo + step, None]
        counts[lo:lo + step] = np.count_nonzero(
            np.abs(dist, out=dist) <= threshold, axis=1)
    return counts


def detect_floor(cloud: PointCloud,
                 cfg: Optional[FloorConfig] = None) -> FloorCoefficients:
    """Clip to the height slab and RANSAC-fit the ground plane."""
    cfg = cfg or FloorConfig()
    z = cloud.points[:, 2]
    slab = cloud.points[(z >= cfg.clip_min_z) & (z <= cfg.clip_max_z)]
    n_pts = len(slab)
    if n_pts < MIN_SLAB_POINTS:
        return _invalid()

    # a triple that repeats an index has a zero cross product, so
    # _ground_hypotheses drops it like any other degenerate triple
    draws = np.random.default_rng(cfg.seed).integers(
        n_pts, size=(RANSAC_ITERATIONS, 3))
    cos_max = np.cos(cfg.normal_vertical_max_angle)
    normals, offsets = _ground_hypotheses(slab[draws], cos_max)
    counts = _inlier_counts(slab, normals, offsets,
                            cfg.ransac_inlier_threshold)
    if not np.any(counts):
        return _invalid()
    best = int(np.argmax(counts))       # the first with the most inliers
    if counts[best] < n_pts * cfg.min_inlier_fraction:
        return _invalid()
    best_inliers = np.abs(slab @ normals[best] + offsets[best]) \
        <= cfg.ransac_inlier_threshold

    n, d = fit_plane_lsq(slab[best_inliers])
    if n[2] < cos_max:
        return _invalid()
    return FloorCoefficients(n[0], n[1], n[2], d, valid=True)
