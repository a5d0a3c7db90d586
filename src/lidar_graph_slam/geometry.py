"""Core geometric types: point clouds, SE(3) poses, k-NN search, voxel keys,
normals.

Everything downstream (filtering, registration, graph optimization) is built
on the types in this module.  Pose math and point storage are always
float64: ``PointCloud`` converts its points (and normals) on construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.spatial import cKDTree


# ---------------------------------------------------------------------------
# Point clouds
# ---------------------------------------------------------------------------

@dataclass
class PointCloud:
    """A timestamped set of 3D points with optional per-point unit normals.

    ``normals`` are the cloud's GICP normals: ``registration.align`` matches
    a cloud with the ones it carries and sets a normal-less cloud's to its
    voxel normals; the pre-tracker sets k-NN ones on its phase clouds.  A
    keyframe's cloud has ``normals`` ``None`` once the keyframe retires.
    """

    points: np.ndarray                      # (N, 3)
    normals: Optional[np.ndarray] = None    # (N, 3) unit vectors
    timestamp: float = 0.0
    frame_id: str = ""

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        if self.normals is not None:
            self.normals = np.asarray(self.normals, dtype=np.float64).reshape(-1, 3)
            if len(self.normals) != len(self.points):
                raise ValueError("normals length does not match points length")
            # GICP's closed-form pair inverse needs |n| <= 1 (zero allowed)
            if not np.all(np.einsum("ij,ij->i", self.normals, self.normals)
                          <= 1.0 + 1e-9):
                raise ValueError("normals must be finite and at most unit length")

    def __len__(self) -> int:
        return len(self.points)

    def transformed(self, pose: "Pose") -> "PointCloud":
        """Return a copy with points (and normals) mapped into ``pose``'s frame."""
        nrm = None
        if self.normals is not None:
            nrm = self.normals @ pose.rotation.T
        return PointCloud(pose.apply(self.points), nrm, self.timestamp,
                          self.frame_id)


# ---------------------------------------------------------------------------
# SE(3) poses
# ---------------------------------------------------------------------------

def _hat(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrix of a 3-vector; leading batch axes allowed."""
    v = np.asarray(v, dtype=np.float64)
    out = np.zeros(v.shape[:-1] + (3, 3))
    out[..., 0, 1] = -v[..., 2]
    out[..., 0, 2] = v[..., 1]
    out[..., 1, 0] = v[..., 2]
    out[..., 1, 2] = -v[..., 0]
    out[..., 2, 0] = -v[..., 1]
    out[..., 2, 1] = v[..., 0]
    return out


def orthonormalize(r: np.ndarray) -> np.ndarray:
    """Nearest rotation matrix by Frobenius norm (leading batch axes)."""
    u, _, vt = np.linalg.svd(r)
    out = u @ vt
    flip = np.linalg.det(out) < 0
    if np.any(flip):
        u[..., -1] *= np.where(flip, -1.0, 1.0)[..., None]
        out = u @ vt
    return out


def kabsch(src: np.ndarray, dst: np.ndarray):
    """Least-squares rigid transform mapping (N, 3) ``src`` onto ``dst``
    (SVD of the cross-covariance, det forced to +1)."""
    src, dst = (np.asarray(a, dtype=np.float64) for a in (src, dst))
    mu_s, mu_d = src.mean(axis=0), dst.mean(axis=0)
    u, _, vt = np.linalg.svd((src - mu_s).T @ (dst - mu_d))
    d = np.sign(np.linalg.det(vt.T @ u.T)) or 1.0
    r = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    return Pose(r, mu_d - r @ mu_s)


@dataclass(frozen=True)
class Pose:
    """Rigid transform: rotation (3x3 orthonormal) plus translation (meters)."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation",
                           np.asarray(self.rotation, dtype=np.float64).reshape(3, 3))
        object.__setattr__(self, "translation",
                           np.asarray(self.translation, dtype=np.float64).reshape(3))

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.eye(3), np.zeros(3))

    @staticmethod
    def from_matrix(m: np.ndarray) -> "Pose":
        m = np.asarray(m, dtype=np.float64)
        return Pose(m[:3, :3], m[:3, 3])

    def matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    def __matmul__(self, other: "Pose") -> "Pose":
        """Apply ``other`` first, then ``self``."""
        return Pose(self.rotation @ other.rotation,
                    self.rotation @ other.translation + self.translation)

    def inverse(self) -> "Pose":
        rt = self.rotation.T
        return Pose(rt, -rt @ self.translation)

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        out = pts @ self.rotation.T + self.translation
        return out[0] if np.ndim(points) == 1 else out

    def rotation_angle(self) -> float:
        """Magnitude of the rotation in radians, in [0, pi]."""
        c = (np.trace(self.rotation) - 1.0) / 2.0
        return float(np.arccos(np.clip(c, -1.0, 1.0)))

    def orthonormalized(self) -> "Pose":
        """Project the rotation back onto SO(3) (nearest by Frobenius norm)."""
        return Pose(orthonormalize(self.rotation), self.translation)


# ---------------------------------------------------------------------------
# so(3) / se(3) exponential and logarithm
# ---------------------------------------------------------------------------
#
# The helpers below take a leading batch axis: a (..., 3) rotation vector,
# (..., 6) twist or (..., 3, 3) rotation gives (..., 3, 3), (..., 6, 6) or
# (..., 3) results, and a single input keeps its unbatched shape.  Each
# closed form is evaluated at a safe angle of 1 where its series branch
# applies, so no division by zero is ever computed.

_SMALL_ANGLE = 1e-10
# Below this angle (1 - cos t) / t^2 loses more digits to cancellation than
# the truncated series drops, so the left Jacobian switches to the series.
_JACOBIAN_SERIES_ANGLE = 1e-4
# so3_log refuses rotations within this margin of pi, where the axis of the
# logarithm is not unique; the pose graph rejects loop edges in that band.
SO3_LOG_PI_MARGIN = 1e-6


def _angle(omega: np.ndarray):
    """(..., 1, 1) rotation angle of ``omega`` for broadcasting."""
    return np.linalg.norm(omega, axis=-1)[..., None, None]


def so3_exp(omega: np.ndarray) -> np.ndarray:
    """Rodrigues formula: rotation matrix for a rotation vector."""
    omega = np.asarray(omega, dtype=np.float64)
    theta = _angle(omega)
    small = theta < _SMALL_ANGLE
    t = np.where(small, 1.0, theta)
    a = np.where(small, 1.0, np.sin(t) / t)
    b = np.where(small, 0.5, (1.0 - np.cos(t)) / t**2)
    w = _hat(omega)
    return np.eye(3) + a * w + b * (w @ w)


def so3_log(r: np.ndarray) -> np.ndarray:
    """Rotation vector of a rotation matrix (principal branch, angle < pi).

    Raises ValueError if any angle is within ``SO3_LOG_PI_MARGIN`` of pi.
    """
    r = np.asarray(r, dtype=np.float64)
    c = (np.trace(r, axis1=-2, axis2=-1) - 1.0) / 2.0
    theta = np.arccos(np.clip(c, -1.0, 1.0))
    if np.any(theta > np.pi - SO3_LOG_PI_MARGIN):
        raise ValueError("rotation angle at or near pi: log branch is ambiguous")
    axis = np.stack([r[..., 2, 1] - r[..., 1, 2], r[..., 0, 2] - r[..., 2, 0],
                     r[..., 1, 0] - r[..., 0, 1]], axis=-1)
    small = theta < _SMALL_ANGLE
    t = np.where(small, 1.0, theta)
    scale = np.where(small, 0.5, t / (2.0 * np.sin(t)))
    return scale[..., None] * axis


def _so3_left_jacobian(omega: np.ndarray) -> np.ndarray:
    theta = _angle(omega)
    series = theta < _JACOBIAN_SERIES_ANGLE
    t = np.where(series, 1.0, theta)
    a = np.where(series, 0.5, (1.0 - np.cos(t)) / t**2)
    b = np.where(series, 1.0 / 6.0, (t - np.sin(t)) / t**3)
    w = _hat(omega)
    return np.eye(3) + a * w + b * (w @ w)


def _so3_left_jacobian_inv(omega: np.ndarray) -> np.ndarray:
    theta = _angle(omega)
    small = theta < _SMALL_ANGLE
    t = np.where(small, 1.0, theta)
    half = t / 2.0
    b = np.where(small, 1.0 / 12.0, (1.0 - half / np.tan(half)) / t**2)
    w = _hat(omega)
    return np.eye(3) - 0.5 * w + b * (w @ w)


def _se3_exp_rt(twist: np.ndarray):
    """:func:`se3_exp` as (rotation, translation) arrays."""
    twist = np.asarray(twist, dtype=np.float64)
    rho, omega = twist[..., :3], twist[..., 3:]
    return (so3_exp(omega),
            (_so3_left_jacobian(omega) @ rho[..., None])[..., 0])


def _se3_log_rt(rotation: np.ndarray, translation: np.ndarray) -> np.ndarray:
    """:func:`se3_log` of (rotation, translation) arrays."""
    omega = so3_log(rotation)
    rho = _so3_left_jacobian_inv(omega) @ np.asarray(translation)[..., None]
    return np.concatenate([rho[..., 0], omega], axis=-1)


def se3_exp(twist: np.ndarray) -> Pose:
    """Exponential map.  ``twist = (rho, omega)``: translation part first."""
    return Pose(*_se3_exp_rt(np.asarray(twist, dtype=np.float64).reshape(6)))


def se3_log(pose: Pose) -> np.ndarray:
    """Logarithm map, inverse of :func:`se3_exp`.  Angle must be below pi."""
    return _se3_log_rt(pose.rotation, pose.translation)


def _se3_q_matrix(rho: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Top-right block of the SE(3) left Jacobian (closed form)."""
    theta = _angle(omega)
    rx = _hat(rho)
    wx = _hat(omega)
    wx2 = wx @ wx
    wrw = wx @ rx @ wx
    m2 = wx @ rx + rx @ wx + wrw
    m3 = wx2 @ rx + rx @ wx2 - 3.0 * wrw
    m4 = wrw @ wx + wx @ wrw
    series = theta < _JACOBIAN_SERIES_ANGLE
    t = np.where(series, 1.0, theta)
    s, c = np.sin(t), np.cos(t)
    c3 = (t**2 / 2.0 + c - 1.0) / t**4
    c2 = np.where(series, 1.0 / 6.0 - theta**2 / 120.0, (t - s) / t**3)
    c4 = np.where(series, 1.0 / 120.0,
                  0.5 * (c3 + 3.0 * (t - s - t**3 / 6.0) / t**5))
    c3 = np.where(series, 1.0 / 24.0 - theta**2 / 720.0, c3)
    return 0.5 * rx + c2 * m2 + c3 * m3 + c4 * m4


def _se3_jacobian(rot: np.ndarray, q: np.ndarray) -> np.ndarray:
    """6x6 matrices [[rot, q], [0, rot]] (translation block first)."""
    out = np.zeros(rot.shape[:-2] + (6, 6))
    out[..., :3, :3] = rot
    out[..., 3:, 3:] = rot
    out[..., :3, 3:] = q
    return out


def se3_left_jacobian_inv(twist: np.ndarray) -> np.ndarray:
    """Inverse of the SE(3) left Jacobian at ``twist``."""
    twist = np.asarray(twist, dtype=np.float64)
    rho, omega = twist[..., :3], twist[..., 3:]
    jli = _so3_left_jacobian_inv(omega)
    q = _se3_q_matrix(rho, omega)
    return _se3_jacobian(jli, -jli @ q @ jli)


def se3_right_jacobian_inv(twist: np.ndarray) -> np.ndarray:
    """Inverse right Jacobian: Jr(x) = Jl(-x)."""
    return se3_left_jacobian_inv(-np.asarray(twist, dtype=np.float64))


def se3_adjoint(rotation: np.ndarray, translation: np.ndarray) -> np.ndarray:
    """Adjoint of the transform (rotation, translation), mapping twists
    between frames (translation block first)."""
    rotation = np.asarray(rotation, dtype=np.float64)
    return _se3_jacobian(rotation, _hat(translation) @ rotation)


# ---------------------------------------------------------------------------
# Nearest neighbors
# ---------------------------------------------------------------------------

class KdTree:
    """Exact nearest-neighbour index over (N, D) points, the package's one
    cKDTree wrapper.  Its search bounds are inclusive: a query finds what
    an unbounded search finds at ``max_distance`` or nearer.

    The tree is built with the sliding-midpoint rule (cKDTree's
    ``balanced_tree=False``; Maneewongvatana & Mount, 1999): each node is
    split at the middle of its cell's widest side, slid to the nearest
    point when one side would be empty, instead of at the median.  It
    needs no median selection, and on scans, whose points lie on thin
    surfaces, its cells stay less elongated: on the benchmark's scans it
    built in half the time of a median-split tree and answered the
    outlier and normal queries 20-40 % faster.  The layout changes only
    the cost: every query here is exact, so its results do not depend on
    it.
    """

    # cKDTree keeps only neighbours strictly inside its bound, so every
    # bounded search reaches this relative margin past it; the exact
    # inclusive test is applied to what it finds
    _BOUND_MARGIN = 1.0 + 1e-9

    def __init__(self, points: np.ndarray):
        points = np.asarray(points, dtype=np.float64)
        if len(points) == 0:
            raise ValueError("cannot build a KdTree over an empty cloud")
        self._tree = cKDTree(points, balanced_tree=False)

    def query_batch(self, queries: np.ndarray, k: int = 1,
                    max_distance: float = np.inf):
        """Vectorized k-nearest query; returns (indices, distances) arrays.

        A neighbour beyond ``max_distance`` is missing: index N, distance
        inf.  Runs on the calling thread: cKDTree's ``workers=-1`` starts
        threads on every call, which costs more than it saves on
        scan-sized queries.
        """
        dist, idx = self._tree.query(np.asarray(queries, dtype=np.float64),
                                     k=k, distance_upper_bound=max_distance
                                     * self._BOUND_MARGIN)
        beyond = dist > max_distance
        idx[beyond] = self._tree.n
        dist[beyond] = np.inf
        return idx, dist

    def pairs_within(self, radius: float) -> np.ndarray:
        """Every pair of indexed points at most ``radius`` apart.

        Returns an (M, 2) int array of index pairs ``i < j``, in no set
        order, whose squared distance, summed x² + y² + z² as cKDTree sums
        it, is ≤ ``radius**2``: the closed-ball rule, exact even for points
        an ulp from the radius.
        """
        pairs = self._tree.query_pairs(radius * self._BOUND_MARGIN,
                                       output_type="ndarray")
        pts = self._tree.data
        diff = pts[pairs[:, 0]] - pts[pairs[:, 1]]
        sq = diff[:, 0] ** 2
        for axis in range(1, pts.shape[1]):
            sq += diff[:, axis] ** 2
        return pairs[sq <= radius * radius]


# ---------------------------------------------------------------------------
# Voxel grids
# ---------------------------------------------------------------------------

# a packed key holds each cell index in 21 bits, offset to non-negative
_KEY_OFFSET = 1 << 20


def voxel_keys(points: np.ndarray, resolution: float):
    """Each point's cell in the axis-aligned grid of side ``resolution``
    anchored at the origin.

    Returns the (N, 3) int64 cell indices, by floor division so that
    negative coordinates land in the correct cell, and one int64 key per
    point packing them (21 bits each, offset to non-negative), so cells
    group with one flat sort instead of a lexicographic row sort.  A cell
    index outside [-2**20, 2**20) does not fit and raises ``ValueError``,
    as does a NaN or infinite coordinate, with its own message.
    """
    cells = np.floor(points / resolution)
    # NaN fails both comparisons, so a non-finite point never reaches the
    # integer cast
    if not np.all((cells >= -_KEY_OFFSET) & (cells < _KEY_OFFSET)):
        bad = ~np.isfinite(points).all(axis=1)
        if bad.any():
            raise ValueError(f"{int(bad.sum())} non-finite points, the first "
                             f"at row {int(np.argmax(bad))}")
        raise ValueError("cloud extent too large for this voxel resolution")
    cells = cells.astype(np.int64)
    shifted = cells + _KEY_OFFSET
    keys = (shifted[:, 0] << 42) | (shifted[:, 1] << 21) | shifted[:, 2]
    return cells, keys


# ---------------------------------------------------------------------------
# Symmetric 3x3 eigenproblems and normal estimation
# ---------------------------------------------------------------------------

def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross products of (3, N) column stacks."""
    return np.stack([a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]])


def eigen_symmetric_3x3(a: np.ndarray):
    """Eigenvalues and smallest eigenvector of (N, 3, 3) symmetric matrices.

    Returns the (N, 3) eigenvalues in ascending order and an (N, 3) unit
    eigenvector of the smallest one, of arbitrary sign.  Only the upper
    triangle of ``a`` is read.

    Closed form: with q = tr(A) / 3 and p the scale of A - qI, the
    eigenvalues of B = (A - qI) / p are 2 cos(phi + 2 pi j / 3),
    phi = arccos(det(B) / 2) / 3 (the trigonometric method).  The one
    farthest from the other two (the smallest when det(B) < 0, else the
    largest) is insensitive to rounding in phi and lies at least sqrt(3)
    from them, so its eigenvector is the longest cross product of two rows
    of B - beta I.  The other two come from the 2x2 restriction of B to the
    plane orthogonal to it, so a pair of nearly equal eigenvalues (line-
    and disc-shaped neighborhoods) keeps full precision.  A multiple of
    the identity gets its eigenvalue three times.
    """
    a00, a01, a02 = a[:, 0, 0], a[:, 0, 1], a[:, 0, 2]
    a11, a12, a22 = a[:, 1, 1], a[:, 1, 2], a[:, 2, 2]
    q = (a00 + a11 + a22) / 3.0
    d0, d1, d2 = a00 - q, a11 - q, a22 - q
    p = np.sqrt((d0 * d0 + d1 * d1 + d2 * d2
                 + 2.0 * (a01 * a01 + a02 * a02 + a12 * a12)) / 6.0)
    inv_p = np.divide(1.0, p, out=np.zeros_like(p), where=p > 0)
    b00, b11, b22 = d0 * inv_p, d1 * inv_p, d2 * inv_p      # B = (A - qI) / p
    b01, b02, b12 = a01 * inv_p, a02 * inv_p, a12 * inv_p
    half_det = 0.5 * (b00 * (b11 * b22 - b12 * b12)
                      - b01 * (b01 * b22 - b12 * b02)
                      + b02 * (b01 * b12 - b11 * b02))
    phi = np.arccos(np.clip(half_det, -1.0, 1.0)) / 3.0
    low = half_det < 0.0                 # the smallest is the lone one
    beta = 2.0 * np.cos(np.where(low, phi + 2.0 * np.pi / 3.0, phi))

    r0 = np.stack([b00 - beta, b01, b02])        # rows of B - beta I
    r1 = np.stack([b01, b11 - beta, b12])
    r2 = np.stack([b02, b12, b22 - beta])
    crosses = np.stack([_cross(r0, r1), _cross(r0, r2), _cross(r1, r2)])
    lengths = (crosses * crosses).sum(axis=1)
    best, cols = lengths.argmax(axis=0), np.arange(len(a))
    lone = crosses[best, :, cols].T / np.sqrt(lengths[best, cols])

    # orthonormal basis (u, w) of the plane orthogonal to the lone vector
    x, y, z = lone
    x_big = np.abs(x) > np.abs(y)
    u = np.stack([np.where(x_big, -z, 0.0), np.where(x_big, 0.0, z),
                  np.where(x_big, x, -y)])
    u /= np.sqrt((u * u).sum(axis=0))
    w = _cross(lone, u)
    # B u and B w from the rows of B - beta I (B is symmetric)
    bu = r0 * u[0] + r1 * u[1] + r2 * u[2] + beta * u
    bw = r0 * w[0] + r1 * w[1] + r2 * w[2] + beta * w
    c00 = (u * bu).sum(axis=0)
    c01 = (w * bu).sum(axis=0)
    c11 = (w * bw).sum(axis=0)
    mean = 0.5 * (c00 + c11)
    half_diff = 0.5 * (c00 - c11)
    radius = np.hypot(half_diff, c01)
    theta = 0.5 * np.arctan2(c01, half_diff)     # larger pair eigenvector
    pair_small = np.cos(theta) * w - np.sin(theta) * u

    betas = np.where(low, [beta, mean - radius, mean + radius],
                     [mean - radius, mean + radius, beta])
    values = (q + p * betas).T
    vector = np.where(low, lone, pair_small).T
    return values, vector


def neighborhood_covariances(points: np.ndarray,
                             idx: np.ndarray) -> np.ndarray:
    """(N, 3, 3) covariances (divided by k) of the point sets
    ``points[idx[i]]`` for an (N, k) index array.

    Each coordinate is gathered into a (k, N) array, so centering and the six
    distinct products are whole-array operations rather than N small
    matrix products.
    """
    k = idx.shape[1]
    centered = np.take(np.ascontiguousarray(points.T),
                       np.ascontiguousarray(idx.T), axis=1)   # (3, k, N)
    centered -= centered.mean(axis=1, keepdims=True)
    x, y, z = centered
    xx, xy, xz, yy, yz, zz = (np.einsum("kn,kn->n", a, b) for a, b in
                              ((x, x), (x, y), (x, z), (y, y), (y, z), (z, z)))
    return np.stack([xx, xy, xz, xy, yy, yz, xz, yz, zz],
                    axis=1).reshape(-1, 3, 3) / k
