"""Global map assembly and PLY export."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .geometry import PointCloud
from .prefilter import voxel_downsample
from .tracker import Keyframe


def build_map(keyframes: Sequence[Keyframe],
              resolution: float = 0.25) -> PointCloud:
    """Concatenate keyframe clouds, each placed at its keyframe's (optimized)
    ``pose``, in the world frame, voxel-downsampled."""
    if not keyframes:
        raise ValueError("need at least one keyframe")
    parts = [kf.pose.apply(kf.cloud.points) for kf in keyframes]
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
