"""Shared helpers for the test suite."""

import numpy as np
import pytest

from lidar_graph_slam.geometry import (KdTree, PointCloud, Pose,
                                       eigen_symmetric_3x3,
                                       neighborhood_covariances, so3_exp)
from lidar_graph_slam.pretracker import knn_normals
from lidar_graph_slam.registration import GICP_EPSILON, compute_gicp_normals


def random_rotation(rng: np.random.Generator, max_angle: float) -> np.ndarray:
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.0, max_angle)
    return so3_exp(axis * angle)


def random_pose(rng: np.random.Generator, max_trans: float,
                max_angle: float) -> Pose:
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    t = direction * rng.uniform(0.0, max_trans)
    return Pose(random_rotation(rng, max_angle), t)


def pose_error(estimate: Pose, truth: Pose):
    """(translation error in m, rotation error in degrees)."""
    diff = truth.inverse() @ estimate
    return (float(np.linalg.norm(diff.translation)),
            float(np.degrees(diff.rotation_angle())))


def knn_gicp_normals(cloud: PointCloud, k: int) -> np.ndarray:
    """GICP normals set on a cloud with no normals yet, from its k nearest
    neighbours: the estimator the pre-tracker gives its phase clouds."""
    assert cloud.normals is None
    cloud.normals = knn_normals(cloud, k)
    return cloud.normals


def reference_knn_normals(cloud: PointCloud, k: int) -> np.ndarray:
    """Reference: k-NN normals from a fresh kd-tree over the cloud."""
    k = min(k, len(cloud))
    idx, _ = KdTree(cloud.points).query_batch(cloud.points, k=k)
    return eigen_symmetric_3x3(neighborhood_covariances(cloud.points,
                                                        idx))[1]


def disc_covariances(normals: np.ndarray) -> np.ndarray:
    """(N, 3, 3) plane-to-plane covariances I - (1 - GICP_EPSILON) n n^T;
    a unit normal gives eigenvalues (GICP_EPSILON, 1, 1), a zero one I."""
    out = (GICP_EPSILON - 1.0) * (normals[:, :, None] * normals[:, None, :])
    out[:, [0, 1, 2], [0, 1, 2]] += 1.0
    return out


def compute_gicp_covariances(cloud: PointCloud) -> np.ndarray:
    """The GICP covariances of ``cloud``, from its normals (voxel ones,
    set on it, when it has none)."""
    return disc_covariances(compute_gicp_normals(cloud))


def dense_normal_equations(src, dst, src_normals, dst_normals, transform):
    """Reference GICP H, g and cost, the dense way: the covariances from
    the normals, M = (C_q + R C_s R^T)^-1 by ``np.linalg.inv``, then
    H = sum J^T M J and g = sum J^T M d over the stacked (3n x 6)
    Jacobians J = [I | -[p]x]."""
    r, t = transform.rotation, transform.translation
    p = src @ r.T + t
    d = p - dst
    m = np.linalg.inv(disc_covariances(dst_normals)
                      + r @ disc_covariances(src_normals) @ r.T)
    u = np.matmul(m, d[..., None])[..., 0]
    jac = np.zeros((len(src), 3, 6))
    jac[:, :, :3] = np.eye(3)
    jac[:, 0, 4] = p[:, 2]
    jac[:, 0, 5] = -p[:, 1]
    jac[:, 1, 3] = -p[:, 2]
    jac[:, 1, 5] = p[:, 0]
    jac[:, 2, 3] = p[:, 1]
    jac[:, 2, 4] = -p[:, 0]
    jac_flat = jac.reshape(-1, 6)
    h = jac_flat.T @ np.matmul(m, jac).reshape(-1, 6)
    g = jac_flat.T @ u.reshape(-1)
    return h, g, float(np.einsum("ni,ni->", d, u))


def is_valid_pose(pose: Pose) -> bool:
    """An orthonormal, right-handed rotation (to 1e-9) and a finite
    translation."""
    r = pose.rotation
    return (np.allclose(r.T @ r, np.eye(3), atol=1e-9)
            and abs(np.linalg.det(r) - 1.0) < 1e-9
            and bool(np.all(np.isfinite(pose.translation))))


def box_surface_cloud(rng: np.random.Generator, n: int = 500,
                      size: float = 2.0) -> PointCloud:
    """Points on three mutually orthogonal faces of a box.

    The three face normals span R^3, so registration of two copies of this
    cloud constrains all six degrees of freedom.
    """
    per_face = n // 3
    pts = []
    for axis in range(3):
        uv = rng.uniform(0.0, size, size=(per_face, 2))
        face = np.zeros((per_face, 3))
        others = [a for a in range(3) if a != axis]
        face[:, others[0]] = uv[:, 0]
        face[:, others[1]] = uv[:, 1]
        pts.append(face)
    extra = n - 3 * per_face
    if extra:
        uv = rng.uniform(0.0, size, size=(extra, 2))
        face = np.zeros((extra, 3))
        face[:, 0] = uv[:, 0]
        face[:, 1] = uv[:, 1]
        pts.append(face)
    return PointCloud(np.vstack(pts) - size / 2.0)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
