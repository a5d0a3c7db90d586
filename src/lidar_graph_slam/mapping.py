"""Global map assembly and PLY export."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .geometry import PointCloud, Pose
from .prefilter import voxel_downsample
from .tracker import Keyframe


def build_map(keyframes: Sequence[Keyframe], poses: Sequence[Pose],
              resolution: float = 0.25) -> PointCloud:
    """Concatenate keyframe clouds in the world frame, voxel-downsampled.

    ``poses`` are the (optimized) world poses to use, one per keyframe.
    """
    if not keyframes:
        raise ValueError("need at least one keyframe")
    if len(poses) != len(keyframes):
        raise ValueError("poses and keyframes length mismatch")
    parts = [p.apply(kf.cloud.points) for kf, p in zip(keyframes, poses)]
    merged = PointCloud(np.vstack(parts))
    return voxel_downsample(merged, resolution)


def write_ply(path: str, cloud: PointCloud):
    """Binary little-endian PLY with float32 x, y, z."""
    header = (
        "ply\n"
        "format binary_little_endian 1.0\n"
        f"element vertex {len(cloud)}\n"
        "property float x\n"
        "property float y\n"
        "property float z\n"
        "end_header\n")
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        f.write(cloud.points.astype("<f4").tobytes())
