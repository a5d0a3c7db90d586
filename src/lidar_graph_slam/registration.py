"""GICP scan matching: the one matcher of the pre-tracker, the tracker and
the loop verifier.

:func:`align` estimates the rigid transform mapping the source cloud onto
the target cloud, starting from an initial guess, by plane-to-plane GICP
(Segal, Hähnel and Thrun, RSS 2009): Gauss-Newton on the se(3) twist.  It
takes each Gauss-Newton step only if it does not raise the cost: a step
that does ends the match as converged, and a singular system ends it as
not converged.

Every covariance is the plane-to-plane disc I - (1 - GICP_EPSILON) n n^T
of its point's normal n (zero where no normal is found), so each pair's
combined covariance is 2I minus a rank-2 term in the two normals, and its
inverse has a closed form through a 2x2 matrix (:func:`_gicp_pairs`).  The
cost, the gradient and the Gauss-Newton matrix are computed from the
normals directly, batched over the pairs as in fast_gicp / VGICP (Koide et
al., ICRA 2021): no 3x3 covariance is formed or inverted.  Trial steps
are judged by their cost alone.

A cloud's GICP normals are its ``normals``: as fast_gicp takes a cloud's
covariances from its owner when given and computes them on first use
otherwise, :func:`align` matches a cloud with the normals it carries and
sets a normal-less cloud's to :func:`voxel_normals` the first time it
matches it.  A cloud's kd-tree is built by the first search of it and kept
on the cloud (:func:`cloud_kdtree`), so in the pipeline only keyframes get
one.  Only the tracker's current keyframe keeps this GICP state (24 bytes
per point of normals, and its tree): a keyframe the tracker replaces drops
both (:func:`drop_gicp_state`) and keeps its points, and the loop verifier
rebuilds them on a temporary cloud over a candidate's points, as HDL graph
SLAM computes a loop candidate's state when it sets it as the target.

A filtered cloud's normals come from voxel moments, as 3D-NDT (Magnusson,
2009) and VGICP take distributions per voxel: the pre-filter leaves at most
one point per 0.25 m cell, so each point gets the smallest axis of the
scatter of its ``NORMAL_CELL`` = 0.75 m cell (:func:`voxel_normals`).  A
cell of fewer than ``MIN_CELL_POINTS`` = 3 points, too few to span a plane,
gives a zero normal, so covariance I: 12-13 % of the filtered points on the
benchmark workloads.  With 5 points as the minimum, 43-51 % of the points
got covariance I, and each match was noisier: redrawing the 2 cm range
noise moved a 5 m loop_ring match by 2.9 mm (standard deviation), against
2.0 mm with 3 and 1.2 mm with 15-NN normals.  That was enough to change
which frames became keyframes and to spread loop_ring's ATE over
0.383-0.422 m across noise seeds; with 3 it spreads over 0.405-0.427 m
(15-NN normals: 0.403-0.415 m).
The pre-tracker's strided phase clouds lie on no grid, so it sets their
normals from each point's k nearest neighbours before it matches them
(:mod:`.pretracker` says why).

:func:`align` only estimates the transform.  Its kd-tree queries are
bounded at ``max_correspondence_distance`` by the strict rule that
:class:`~.geometry.KdTree` states, and it ends by checking that at least
``MIN_CORRESPONDENCES`` source points match at the final estimate.  How
well the clouds fit there is a separate question, answered by
:func:`score_alignment` (as PCL keeps ``align`` and ``getFitnessScore``
apart); the pre-tracker and the loop verifier ask it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import (KdTree, PointCloud, Pose, _hat, eigen_symmetric_3x3,
                       se3_exp, voxel_keys)

MIN_CORRESPONDENCES = 10
GICP_EPSILON = 1e-3
# side of the cells whose moments give a cloud's voxel normals: 3x the
# pre-filter's 0.25 m grid
NORMAL_CELL = 0.75
# a cell of fewer points gives its points a zero normal, so covariance I
MIN_CELL_POINTS = 3
# align's final check counts matches among this many source points first,
# and queries the rest only when they fall short
_CHECK_PREFIX = 100


@dataclass
class RegistrationConfig:
    max_iterations: int = 64
    transformation_epsilon: float = 0.1
    max_correspondence_distance: float = 2.0

    def __post_init__(self):
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
    # iteration or at the final estimate
    valid: bool = True


# ---------------------------------------------------------------------------
# GICP normals, cost, and normal equations
# ---------------------------------------------------------------------------

def cloud_kdtree(cloud: PointCloud) -> KdTree:
    """``cloud``'s kd-tree, built on the first call and kept on the cloud,
    whose points never change."""
    tree = getattr(cloud, "_kdtree", None)
    if tree is None:
        tree = cloud._kdtree = KdTree(cloud.points)
    return tree


def voxel_normals(points: np.ndarray) -> np.ndarray:
    """(N, 3) normals, each the smallest axis of the scatter of the points
    in its ``NORMAL_CELL`` voxel, or zero where that voxel holds fewer than
    ``MIN_CELL_POINTS`` points.

    Each cell's count, sums and second moments are accumulated from the
    points' offsets to the cell's own corner, so distant coordinates do not
    cancel in the scatter.
    """
    cells, keys = voxel_keys(points, NORMAL_CELL)
    _, inverse, counts = np.unique(keys, return_inverse=True,
                                   return_counts=True)
    n_cells = len(counts)
    local = points - cells * NORMAL_CELL
    x, y, z = local.T
    sums = [np.bincount(inverse, weights=a, minlength=n_cells)
            for a in (x, y, z)]
    scatter = np.empty((n_cells, 3, 3))
    for i, j, a in ((0, 0, x * x), (0, 1, x * y), (0, 2, x * z),
                    (1, 1, y * y), (1, 2, y * z), (2, 2, z * z)):
        scatter[:, i, j] = np.bincount(inverse, weights=a,
                                       minlength=n_cells) \
            - sums[i] * sums[j] / counts
    _, normal = eigen_symmetric_3x3(scatter)    # reads the upper triangle
    normal[counts < MIN_CELL_POINTS] = 0.0
    return normal[inverse]


def compute_gicp_normals(cloud: PointCloud) -> np.ndarray:
    """``cloud.normals``, first set to :func:`voxel_normals` of its points
    when the cloud has none."""
    if cloud.normals is None:
        cloud.normals = voxel_normals(cloud.points)
    return cloud.normals


def drop_gicp_state(cloud: PointCloud):
    """Free ``cloud``'s normals and kd-tree, which a retired keyframe no
    longer needs; a later match over its points rebuilds both (see
    ``LoopDetector.verify``)."""
    cloud.normals = None
    vars(cloud).pop("_kdtree", None)


def _gicp_pairs(src, dst, src_normals, dst_normals, transform):
    """Per-pair GICP terms at ``transform``, from the normals alone.

    Each pair's combined covariance is C = 2I - kappa U U^T with
    kappa = 1 - GICP_EPSILON and U = [a b], a the target normal and
    b = R n_s the rotated source normal, so by Woodbury its inverse is
    M = I/2 + U K U^T / 4 with the 2x2 K = (I/kappa - U^T U / 2)^-1.  K is
    positive definite for every pair, zero normals included
    (U^T U <= 2 < 2/kappa), so no pair is singular.

    Returns p = R s + t, d = p - q, a and b as (3, n) columns; the entries
    e12, e22 and the determinant of K^-1; (w_a, w_b) = K c with
    c = (a.d, b.d); and the cost sum_i d_i^T M_i d_i, which is
    sum_i |d_i|^2 / 2 + c_i^T K c_i / 4.
    """
    r = transform.rotation
    p = r @ src.T + transform.translation[:, None]
    d = p - dst.T
    a = np.ascontiguousarray(dst_normals.T)
    b = r @ src_normals.T
    inv_kappa = 1.0 / (1.0 - GICP_EPSILON)
    e11 = inv_kappa - 0.5 * np.einsum("in,in->n", a, a)
    e22 = inv_kappa - 0.5 * np.einsum("in,in->n", b, b)
    e12 = -0.5 * np.einsum("in,in->n", a, b)
    det = e11 * e22 - e12 * e12
    c_a = np.einsum("in,in->n", a, d)
    c_b = np.einsum("in,in->n", b, d)
    w_a = (e22 * c_a - e12 * c_b) / det
    w_b = (e11 * c_b - e12 * c_a) / det
    # summed by numpy, not by a BLAS dot: OpenBLAS runs a dot product of
    # over 10000 elements on several threads, whose spin-waiting then takes
    # the core the lookahead worker needs
    cost = float((0.5 * np.einsum("in,in->n", d, d)
                  + 0.25 * (c_a * w_a + c_b * w_b)).sum())
    return p, d, a, b, (e12, e22, det), (w_a, w_b), cost


def _gicp_cost(src, dst, src_normals, dst_normals, transform) -> float:
    """GICP objective sum_i d_i^T M_i d_i alone, for trial steps."""
    return _gicp_pairs(src, dst, src_normals, dst_normals, transform)[-1]


def _gicp_normal_equations(src, dst, src_normals, dst_normals, transform):
    """Gauss-Newton H, g (and cost) for the GICP objective.

    With the per-pair Jacobian J = [I | -[p]x] of the residual w.r.t. a
    left twist, J^T u = [u; p x u], H = sum J^T M J and g = sum J^T M d.
    M d = v = d/2 + U K c / 4, so g = sum [v; p x v].  H splits as M does:
    sum J^T J / 2 is closed form in n, sum p and sum p p^T, and with the
    Cholesky factor K = L L^T the rest is Z^T Z for the (2n x 6) stack Z of
    the J^T z, z a column of U L / 2.  Like any Gauss-Newton step it drops
    the derivative of M with respect to the rotation.
    """
    p, d, a, b, (e12, e22, det), (w_a, w_b), cost = _gicp_pairs(
        src, dst, src_normals, dst_normals, transform)
    v = 0.5 * d + 0.25 * (w_a * a + w_b * b)
    pv = p @ v.T
    g = np.concatenate([v.sum(axis=1), [pv[1, 2] - pv[2, 1],
                                        pv[2, 0] - pv[0, 2],
                                        pv[0, 1] - pv[1, 0]]])

    # L = [[l11, 0], [l21, l22]] with l11 = sqrt(e22 / det),
    # l21 = -e12 / sqrt(e22 det) and l22 = 1 / sqrt(e22)
    root = np.sqrt(e22)
    scale = 0.5 / (root * np.sqrt(det))
    n = len(src)
    z = np.empty((6, 2, n))     # Z^T, each column [z; p x z]
    z[:3, 0] = (scale * e22) * a - (scale * e12) * b
    z[:3, 1] = (0.5 / root) * b
    px, py, pz = p[:, None]
    z[3] = py * z[2] - pz * z[1]
    z[4] = pz * z[0] - px * z[2]
    z[5] = px * z[1] - py * z[0]
    z = z.reshape(6, 2 * n)
    h = z @ z.T
    s = p.sum(axis=1)
    pp = np.einsum("in,jn->ij", p, p)
    h[:3, :3] += 0.5 * n * np.eye(3)
    h[:3, 3:] -= 0.5 * _hat(s)
    h[3:, :3] += 0.5 * _hat(s)
    h[3:, 3:] += 0.5 * (np.trace(pp) * np.eye(3) - pp)
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
        found += int(np.count_nonzero(np.isfinite(dist)))
        if found >= MIN_CORRESPONDENCES:
            return True
    return False


def score_alignment(source: PointCloud, target: PointCloud, transform: Pose,
                    max_correspondence_distance: float) -> Optional[float]:
    """Fitness of ``source`` on ``target`` at ``transform``: the mean
    squared nearest-target distance of the source points, each capped at
    ``max_correspondence_distance`` so that poor overlap cannot pass for a
    good fit.  None when either cloud has fewer than
    ``MIN_CORRESPONDENCES`` points, as :func:`align` refuses such clouds.
    """
    if min(len(source), len(target)) < MIN_CORRESPONDENCES:
        return None
    max_d = max_correspondence_distance
    _, dist = cloud_kdtree(target).query_batch(transform.apply(source.points),
                                               max_distance=max_d)
    return float(np.mean(np.minimum(dist, max_d) ** 2))


def align(source: PointCloud, target: PointCloud, guess: Optional[Pose] = None,
          cfg: Optional[RegistrationConfig] = None) -> RegistrationResult:
    """Register source onto target starting from guess.

    Returns the relative transform (source frame -> target frame) and its
    convergence status.  A cloud of fewer than ``MIN_CORRESPONDENCES``
    points, or fewer correspondences within ``max_correspondence_distance``
    at any iteration or at the final estimate, yields an invalid,
    non-converged result; the tiny-cloud case returns the guess before any
    normal is computed.  :func:`score_alignment` scores the result.
    """
    cfg = cfg or RegistrationConfig()
    guess = guess or Pose.identity()
    if min(len(source), len(target)) < MIN_CORRESPONDENCES:
        return RegistrationResult(guess, 0, False, False)

    tree = cloud_kdtree(target)
    transform = guess
    max_d = cfg.max_correspondence_distance

    normals_src = compute_gicp_normals(source)
    normals_dst = compute_gicp_normals(target)

    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iterations + 1):
        moved = transform.apply(source.points)
        idx, dist = tree.query_batch(moved, max_distance=max_d)
        mask = np.isfinite(dist)
        if int(mask.sum()) < MIN_CORRESPONDENCES:
            return RegistrationResult(transform, iterations, False, False)
        src_sel = source.points[mask]
        matched = idx[mask]
        dst_sel = target.points[matched]
        ns = normals_src[mask]
        nd = normals_dst[matched]
        h, g, cost0 = _gicp_normal_equations(src_sel, dst_sel, ns, nd,
                                             transform)
        try:
            step = -np.linalg.solve(h, g)
        except np.linalg.LinAlgError:
            break
        delta_pose = se3_exp(step)
        if _gicp_cost(src_sel, dst_sel, ns, nd,
                      delta_pose @ transform) > cost0:
            # the step would raise the cost: keep the current estimate
            converged = True
            break

        transform = (delta_pose @ transform).orthonormalized()
        if _update_norm(step) < cfg.transformation_epsilon:
            converged = True
            break

    if not _enough_matches(tree, transform.apply(source.points), max_d):
        return RegistrationResult(transform, iterations, False, False)
    return RegistrationResult(transform, iterations, converged)
