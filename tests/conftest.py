"""Shared helpers for the test suite."""

import numpy as np
import pytest

from lidar_graph_slam.geometry import PointCloud, Pose, so3_exp
from lidar_graph_slam.registration import (compute_gicp_covariances,
                                           compute_gicp_normals)


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


def knn_gicp_covariances(cloud: PointCloud, k: int) -> np.ndarray:
    """GICP covariances of a cloud with no normals yet, from k-NN normals:
    the estimator the pre-tracker gives its phase clouds."""
    assert not hasattr(cloud, "_derived_cache")
    compute_gicp_normals(cloud, k)
    return compute_gicp_covariances(cloud)


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
