"""Scan matching backends behind one interface.

Both methods estimate the rigid transform mapping the source cloud onto the
target cloud, starting from an initial guess: point-to-point ICP
(closed-form SVD step; the pre-tracker's matcher) and GICP (plane-to-plane,
Gauss-Newton on the se(3) twist; the tracker's and the loop verifier's
matcher).  GICP takes each Gauss-Newton step only if it does not raise the
cost: a step that does ends the match as converged, and a singular system
ends it as not converged.

Each GICP iteration forms the per-pair Mahalanobis matrix
M = (C_q + R C_s R^T)^-1 once, by a closed-form symmetric 3x3 inverse, and
builds the Gauss-Newton system from it with one matrix product over the
stacked Jacobians, as in fast_gicp / VGICP (Koide et al., ICRA 2021).
Trial steps are judged by their cost alone.

As in fast_gicp, each cloud's kd-tree and GICP surface normals are
computed once, outside the matching loop, and cached on the cloud; the
normal comes from a closed-form 3x3 eigensolver.  The pipeline computes
them with :func:`prepare_alignment` on its lookahead worker thread, so the
tracker and the loop verifier on the calling thread only read them.  The
plane-to-plane covariance is fully set by the normal, so :func:`align`
rebuilds a cloud's (N, 3, 3) covariances from it once per call: a kept
keyframe holds 24 bytes per point of GICP state rather than 72.

:func:`align` only estimates the transform.  Its kd-tree queries are
bounded at ``max_correspondence_distance``, inclusive (see
:class:`~.geometry.KdTree`), which finds the same matches as an unbounded
search, and it ends by checking that at least
``MIN_CORRESPONDENCES`` source points match at the final estimate.  How
well the clouds fit there is a separate question, answered by
:func:`score_alignment` (as PCL keeps ``align`` and ``getFitnessScore``
apart); only the loop verifier asks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import (KdTree, PointCloud, Pose, _hat, eigen_symmetric_3x3,
                       kabsch, neighborhood_covariances, se3_exp, so3_log)

ICP_P2P = "ICP_P2P"
GICP = "GICP"
METHODS = (ICP_P2P, GICP)

MIN_CORRESPONDENCES = 10
GICP_EPSILON = 1e-3
# align's final check counts matches among this many source points first,
# and queries the rest only when they fall short
_CHECK_PREFIX = 100


@dataclass
class RegistrationConfig:
    method: str = GICP
    max_iterations: int = 64
    transformation_epsilon: float = 0.1
    max_correspondence_distance: float = 2.0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown registration method {self.method!r}; "
                             f"expected one of {METHODS}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.transformation_epsilon <= 0:
            raise ValueError("transformation_epsilon must be positive")
        if self.max_correspondence_distance <= 0:
            raise ValueError("max_correspondence_distance must be positive")


@dataclass
class RegistrationResult:
    transform: Pose
    iterations_used: int
    converged: bool
    # False when the match failed: too few correspondences at some
    # iteration or at the final estimate, or a degenerate ICP step
    valid: bool = True


# ---------------------------------------------------------------------------
# Closed-form rigid alignment of matched pairs (ICP point-to-point step)
# ---------------------------------------------------------------------------

def rigid_align_pairs(src: np.ndarray, dst: np.ndarray) -> Pose:
    """Least-squares rigid transform mapping src points onto dst points
    (:func:`~.geometry.kabsch`).  Raises on fewer than 3 pairs and on
    rank-deficient input (e.g. collinear pairs).
    """
    if len(src) < 3:
        raise ValueError("need at least 3 correspondence pairs")
    pose, s = kabsch(src, dst)
    if s[1] < 1e-12 * max(s[0], 1e-300):
        raise ValueError("rank-deficient cross-covariance (degenerate pairs)")
    return pose


# ---------------------------------------------------------------------------
# GICP covariances, cost, and normal equations
# ---------------------------------------------------------------------------

def _cloud_cache(cloud: PointCloud) -> dict:
    # clouds are immutable after publication, so derived structures
    # (KD-tree, GICP normals) can be cached on the instance
    cache = getattr(cloud, "_derived_cache", None)
    if cache is None:
        cache = {}
        object.__setattr__(cloud, "_derived_cache", cache)
    return cache


def cloud_kdtree(cloud: PointCloud) -> KdTree:
    cache = _cloud_cache(cloud)
    if "kdtree" not in cache:
        cache["kdtree"] = KdTree(cloud.points)
    return cache["kdtree"]


def compute_gicp_normals(cloud: PointCloud, k: int = 15) -> np.ndarray:
    """(N, 3) unit normals, each the smallest axis of its point's k-NN
    covariance, computed once and cached on the cloud."""
    k = min(k, len(cloud))
    if k < 3:
        raise ValueError("covariance estimation needs k >= 3 points")
    cache = _cloud_cache(cloud)
    key = ("gicp_normals", k)
    if key not in cache:
        idx, _ = cloud_kdtree(cloud).query_batch(cloud.points, k=k)
        _, cache[key] = eigen_symmetric_3x3(
            neighborhood_covariances(cloud.points, idx))
    return cache[key]


def compute_gicp_covariances(cloud: PointCloud, k: int = 15) -> np.ndarray:
    """Per-point covariances regularized to eigenvalues (1, 1, GICP_EPSILON).

    The smallest axis of each k-NN covariance is treated as the local
    surface normal direction n, mimicking plane-to-plane GICP; the result
    is I - (1 - GICP_EPSILON) n n^T, built afresh on each call from the
    cached normals (:func:`compute_gicp_normals`).
    """
    normal = compute_gicp_normals(cloud, k)
    out = (GICP_EPSILON - 1.0) * (normal[:, :, None] * normal[:, None, :])
    out[:, [0, 1, 2], [0, 1, 2]] += 1.0
    return out


def prepare_alignment(cloud: PointCloud, cfg: RegistrationConfig) -> None:
    """Compute and cache what :func:`align` reads of ``cloud`` under ``cfg``:
    its kd-tree and, for GICP, its normals, from which ``align`` builds the
    covariances.  A cloud too small for ``align`` to match is left alone."""
    if len(cloud) < MIN_CORRESPONDENCES:
        return
    cloud_kdtree(cloud)
    if cfg.method == GICP:
        compute_gicp_normals(cloud)


def _inverse_symmetric_3x3(a: np.ndarray) -> np.ndarray:
    """Batched inverse of symmetric 3x3 matrices by adjugate over determinant.

    Only the upper triangle of ``a`` is read.  A matrix whose determinant is
    not above 1e-300 gets a zero inverse, so its pair drops out of every
    GICP sum.
    """
    a00, a01, a02 = a[:, 0, 0], a[:, 0, 1], a[:, 0, 2]
    a11, a12, a22 = a[:, 1, 1], a[:, 1, 2], a[:, 2, 2]
    c00 = a11 * a22 - a12 * a12
    c01 = a02 * a12 - a01 * a22
    c02 = a01 * a12 - a02 * a11
    det = a00 * c00 + a01 * c01 + a02 * c02
    inv_det = np.divide(1.0, det, out=np.zeros_like(det), where=det > 1e-300)
    out = np.empty_like(a)
    out[:, 0, 0] = c00 * inv_det
    out[:, 0, 1] = out[:, 1, 0] = c01 * inv_det
    out[:, 0, 2] = out[:, 2, 0] = c02 * inv_det
    out[:, 1, 1] = (a00 * a22 - a02 * a02) * inv_det
    out[:, 1, 2] = out[:, 2, 1] = (a01 * a02 - a00 * a12) * inv_det
    out[:, 2, 2] = (a00 * a11 - a01 * a01) * inv_det
    return out


def _rotate_covariances(cov: np.ndarray, r: np.ndarray) -> np.ndarray:
    """R C R^T for each (3, 3) matrix C of ``cov``, as one contraction: the
    row-major flattening of R C R^T is (R kron R) times that of C.

    einsum rather than ``@``: OpenBLAS runs an (n x 9) GEMM on several
    threads, whose spin-waiting then takes the core the lookahead worker
    needs (process CPU time about twice the wall time on 2 cores).
    """
    return np.einsum("ni,ji->nj", cov.reshape(-1, 9),
                     np.kron(r, r)).reshape(-1, 3, 3)


def _gicp_terms(src, dst, cov_src, cov_dst, transform):
    """Per-pair GICP quantities at ``transform``.

    Returns p = R s + t, d = p - q, the Mahalanobis matrix
    M = (C_q + R C_s R^T)^-1 and u = M d.  M and u are zero for pairs whose
    combined covariance is singular.
    """
    p = transform.apply(src)
    d = p - dst
    m = _inverse_symmetric_3x3(
        cov_dst + _rotate_covariances(cov_src, transform.rotation))
    u = np.matmul(m, d[..., None])[..., 0]
    return p, d, m, u


def _gicp_cost(src, dst, cov_src, cov_dst, transform) -> float:
    """GICP objective sum_i d_i^T M_i d_i alone, for trial steps."""
    _, d, _, u = _gicp_terms(src, dst, cov_src, cov_dst, transform)
    return float(np.einsum("ni,ni->", d, u))


def _gicp_normal_equations(src, dst, cov_src, cov_dst, transform):
    """Gauss-Newton H, g (and cost) for the GICP objective.

    With the per-pair Jacobian J = [I | -[p]x] of the residual w.r.t. a
    left twist, H = sum J^T M J and g = sum J^T u, each one product of the
    stacked (3n x 6) Jacobians.  Like any Gauss-Newton step it drops the
    derivative of M with respect to the rotation.
    """
    p, d, m, u = _gicp_terms(src, dst, cov_src, cov_dst, transform)
    cost = float(np.einsum("ni,ni->", d, u))
    n = len(src)
    jac = np.zeros((n, 3, 6))
    jac[:, :, :3] = np.eye(3)
    _hat(-p, out=jac[:, :, 3:])     # -[p]x; negating p is the cheaper pass
    jac_flat = jac.reshape(3 * n, 6)
    h = jac_flat.T @ np.matmul(m, jac).reshape(3 * n, 6)
    g = jac_flat.T @ u.reshape(3 * n)
    return h, g, cost


# ---------------------------------------------------------------------------
# Main alignment loop
# ---------------------------------------------------------------------------

def _update_norm(delta: np.ndarray) -> float:
    return float(np.linalg.norm(delta[:3]) + np.linalg.norm(delta[3:]))


def _enough_matches(tree: KdTree, moved: np.ndarray,
                    max_distance: float) -> bool:
    """Whether at least ``MIN_CORRESPONDENCES`` of the ``moved`` points
    have a target within ``max_distance``; the points after the first
    ``_CHECK_PREFIX`` are queried only when those fall short."""
    found = 0
    for part in (moved[:_CHECK_PREFIX], moved[_CHECK_PREFIX:]):
        _, dist = tree.query_batch(part, max_distance=max_distance)
        found += int(np.count_nonzero(dist <= max_distance))
        if found >= MIN_CORRESPONDENCES:
            return True
    return False


def score_alignment(source: PointCloud, target: PointCloud, transform: Pose,
                    max_correspondence_distance: float):
    """(fitness, overlap) of ``source`` on ``target`` at ``transform``.

    Fitness is the mean squared nearest-target distance of the source
    points, each capped at ``max_correspondence_distance`` so that poor
    overlap cannot pass for a good fit; overlap is the fraction of source
    points with a target within that distance.
    """
    max_d = max_correspondence_distance
    _, dist = cloud_kdtree(target).query_batch(transform.apply(source.points),
                                               max_distance=max_d)
    fitness = float(np.mean(np.minimum(dist, max_d) ** 2))
    overlap = float(np.mean(dist <= max_d))
    return fitness, overlap


def align(source: PointCloud, target: PointCloud, guess: Optional[Pose] = None,
          cfg: Optional[RegistrationConfig] = None) -> RegistrationResult:
    """Register source onto target starting from guess.

    Returns the relative transform (source frame -> target frame) and its
    convergence status.  A cloud of fewer than ``MIN_CORRESPONDENCES``
    points, or fewer correspondences within ``max_correspondence_distance``
    at any iteration or at the final estimate, yields an invalid,
    non-converged result; the tiny-cloud case returns the guess before any
    covariance is computed.  :func:`score_alignment` scores the result.
    """
    cfg = cfg or RegistrationConfig()
    guess = guess or Pose.identity()
    if min(len(source), len(target)) < MIN_CORRESPONDENCES:
        return RegistrationResult(guess, 0, False, False)

    tree = cloud_kdtree(target)
    transform = guess
    max_d = cfg.max_correspondence_distance

    cov_src = cov_dst = None
    if cfg.method == GICP:
        cov_src = compute_gicp_covariances(source)
        cov_dst = compute_gicp_covariances(target)

    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iterations + 1):
        moved = transform.apply(source.points)
        idx, dist = tree.query_batch(moved, max_distance=max_d)
        mask = dist <= max_d
        if int(mask.sum()) < MIN_CORRESPONDENCES:
            return RegistrationResult(transform, iterations, False, False)
        src_sel = source.points[mask]
        moved_sel = moved[mask]
        dst_sel = target.points[idx[mask]]

        if cfg.method == ICP_P2P:
            try:
                delta_pose = rigid_align_pairs(moved_sel, dst_sel)
            except ValueError:
                return RegistrationResult(transform, iterations, False, False)
            delta = np.concatenate([
                delta_pose.translation,
                so3_log(delta_pose.rotation)])
        else:  # GICP
            cs = cov_src[mask]
            cd = cov_dst[idx[mask]]
            h, g, cost0 = _gicp_normal_equations(src_sel, dst_sel, cs, cd,
                                                 transform)
            try:
                step = -np.linalg.solve(h, g)
            except np.linalg.LinAlgError:
                break
            delta = step
            delta_pose = se3_exp(step)
            if _gicp_cost(src_sel, dst_sel, cs, cd,
                          delta_pose @ transform) > cost0:
                # the step would raise the cost: keep the current estimate
                converged = True
                break

        transform = (delta_pose @ transform).orthonormalized()
        if _update_norm(delta) < cfg.transformation_epsilon:
            converged = True
            break

    if not _enough_matches(tree, transform.apply(source.points), max_d):
        return RegistrationResult(transform, iterations, False, False)
    return RegistrationResult(transform, iterations, converged)
