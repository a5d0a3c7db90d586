"""Ground-plane extraction.

Planar mode: clip by height, discard points with non-vertical normals, then
RANSAC plane fit refined by total least squares.  Rough-terrain mode: clip
by horizontal distance from the sensor and fit a single least-squares plane.
Coefficients follow a*x + b*y + c*z + d = 0 with (a, b, c) unit length and
c > 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .geometry import PointCloud, eigen_symmetric_3x3, estimate_normals

MODE_PLANAR = "PLANAR"
MODE_ROUGH = "ROUGH"

# RANSAC scoring holds at most about this many point-plane distances at once
_SCORE_CHUNK = 1 << 20
# plane hypotheses drawn per cloud, and neighbours per normal estimate
RANSAC_ITERATIONS = 200
NORMAL_KNN = 10


@dataclass
class FloorCoefficients:
    a: float
    b: float
    c: float
    d: float
    timestamp: float = 0.0
    mode: str = MODE_PLANAR
    valid: bool = True

    @property
    def normal(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c])

    def distance(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points)
        return pts @ self.normal + self.d


@dataclass
class FloorConfig:
    mode: str = MODE_PLANAR
    clip_min_z: float = -2.5
    clip_max_z: float = -1.0
    normal_vertical_max_angle: float = np.deg2rad(20.0)
    ransac_inlier_threshold: float = 0.1
    min_inlier_fraction: float = 0.3
    rough_clip_radius: float = 3.0
    seed: int = 0

    def __post_init__(self):
        if self.mode not in (MODE_PLANAR, MODE_ROUGH):
            raise ValueError(f"unknown floor mode {self.mode!r}")
        if self.clip_min_z >= self.clip_max_z:
            raise ValueError("clip_min_z must be below clip_max_z")
        if not 0.0 < self.normal_vertical_max_angle < np.pi / 2:
            raise ValueError("normal_vertical_max_angle must be in (0, pi/2)")
        if self.ransac_inlier_threshold <= 0 or self.rough_clip_radius <= 0:
            raise ValueError("thresholds must be positive")


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


def _invalid(timestamp: float, mode: str) -> FloorCoefficients:
    return FloorCoefficients(0.0, 0.0, 1.0, 0.0, timestamp, mode, valid=False)


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


def detect_floor_planar(cloud: PointCloud,
                        cfg: Optional[FloorConfig] = None) -> FloorCoefficients:
    """Clip, normal-filter, and RANSAC-fit the ground plane."""
    cfg = cfg or FloorConfig()
    z = cloud.points[:, 2]
    clipped = cloud.points[(z >= cfg.clip_min_z) & (z <= cfg.clip_max_z)]
    if len(clipped) < max(3, NORMAL_KNN):
        return _invalid(cloud.timestamp, MODE_PLANAR)

    with_normals = estimate_normals(PointCloud(clipped), k=NORMAL_KNN)
    nz = with_normals.normals[:, 2]
    cos_max = np.cos(cfg.normal_vertical_max_angle)
    vertical = nz >= cos_max
    vertical &= np.isfinite(nz)
    candidates = clipped[vertical]
    if len(candidates) < max(50, NORMAL_KNN):
        # near structures the slab degenerates into mixed floor/wall strips
        # whose local normals are unreliable; fall back to all clipped
        # points and let the axis-constrained model fit sort them out
        candidates = clipped

    n_pts = len(candidates)
    rng = np.random.default_rng(cfg.seed)
    draws = [rng.choice(n_pts, size=3, replace=False)
             for _ in range(RANSAC_ITERATIONS)]
    normals, offsets = _ground_hypotheses(
        candidates[np.array(draws, dtype=np.intp).reshape(-1, 3)], cos_max)
    counts = _inlier_counts(candidates, normals, offsets,
                            cfg.ransac_inlier_threshold)
    if not np.any(counts):
        return _invalid(cloud.timestamp, MODE_PLANAR)
    best = int(np.argmax(counts))       # the first with the most inliers
    if counts[best] < n_pts * cfg.min_inlier_fraction:
        return _invalid(cloud.timestamp, MODE_PLANAR)
    best_inliers = np.abs(candidates @ normals[best] + offsets[best]) \
        <= cfg.ransac_inlier_threshold

    n, d = fit_plane_lsq(candidates[best_inliers])
    if n[2] < cos_max:
        return _invalid(cloud.timestamp, MODE_PLANAR)
    return FloorCoefficients(n[0], n[1], n[2], d, cloud.timestamp, MODE_PLANAR,
                             valid=True)


def detect_floor_rough(cloud: PointCloud,
                       cfg: Optional[FloorConfig] = None) -> FloorCoefficients:
    """Least-squares plane over points near the sensor (rough terrain)."""
    cfg = cfg or FloorConfig()
    horiz = np.linalg.norm(cloud.points[:, :2], axis=1)
    near = cloud.points[horiz <= cfg.rough_clip_radius]
    if len(near) < 3:
        return _invalid(cloud.timestamp, MODE_ROUGH)
    n, d = fit_plane_lsq(near)
    rms = float(np.sqrt(np.mean((near @ n + d) ** 2)))
    valid = rms <= 2.0 * cfg.ransac_inlier_threshold
    return FloorCoefficients(n[0], n[1], n[2], d, cloud.timestamp, MODE_ROUGH,
                             valid=valid)


def detect_floor(cloud: PointCloud,
                 cfg: Optional[FloorConfig] = None) -> FloorCoefficients:
    cfg = cfg or FloorConfig()
    if cfg.mode == MODE_ROUGH:
        return detect_floor_rough(cloud, cfg)
    return detect_floor_planar(cloud, cfg)
