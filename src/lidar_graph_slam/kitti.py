"""KITTI dataset ingestion.

Velodyne scans are flat binary files of N x 4 little-endian float32
(x, y, z, intensity).  Ground-truth poses come as rows of 12 values
(3x4 row-major matrices), one per scan, and times as one value per scan.
Both text files are read by :func:`~.evaluation.read_rows`, which skips
blank lines and ``#`` comments and refuses a malformed, non-numeric or
non-finite row, naming the file and the line.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .evaluation import read_rows
from .geometry import PointCloud, Pose


class ScanFormatError(ValueError):
    pass


@dataclass
class DatasetSequence:
    """Scan files with their strictly increasing times.  Ground-truth pose
    i, when given, is scan i's, so its time is ``timestamps[i]``."""

    scan_paths: List[str]
    timestamps: List[float]
    ground_truth: Optional[List[Pose]] = None

    def __post_init__(self):
        if len(self.scan_paths) != len(self.timestamps):
            raise ValueError("scan_paths and timestamps length mismatch")
        ts = np.asarray(self.timestamps)
        if len(ts) > 1 and not np.all(np.diff(ts) > 0):
            raise ValueError("timestamps must be strictly increasing")

    def __len__(self) -> int:
        return len(self.scan_paths)


def load_kitti_scan(path: str, timestamp: float = 0.0) -> PointCloud:
    """Read one velodyne .bin scan; intensity is discarded, NaN rows kept."""
    raw = np.fromfile(path, dtype="<f4")
    if raw.size % 4 != 0:
        raise ScanFormatError(
            f"{path}: size {raw.size * 4} bytes is not a multiple of 16")
    pts = raw.reshape(-1, 4)[:, :3].astype(np.float64)
    return PointCloud(pts, None, timestamp, frame_id=os.path.basename(path))


def load_kitti_poses(path: str) -> List[Pose]:
    """Ground-truth poses from 12-value rows (3x4 row-major matrices)."""
    rows = [values for _, _, values in read_rows(path, 12)]
    return [Pose(m[:, :3], m[:, 3]) for m in np.reshape(rows, (-1, 3, 4))]


def load_timestamps(path: str) -> List[float]:
    """times.txt: one float (seconds) per line."""
    return [values[0] for _, _, values in read_rows(path, 1)]


def discover_sequence(dataset_dir: str) -> DatasetSequence:
    """Assemble a sequence from a KITTI-odometry-style directory.

    Expects ``velodyne/*.bin`` (sorted), ``times.txt``, and optionally
    ``poses.txt`` with one 12-value row per scan.  Rows of either file
    beyond the last scan are ignored.
    """
    velo = os.path.join(dataset_dir, "velodyne")
    if not os.path.isdir(velo):
        raise FileNotFoundError(f"no velodyne directory under {dataset_dir}")
    scans = sorted(os.path.join(velo, f) for f in os.listdir(velo)
                   if f.endswith(".bin"))
    if not scans:
        raise FileNotFoundError(f"no .bin scans under {velo}")
    times_path = os.path.join(dataset_dir, "times.txt")
    if os.path.exists(times_path):
        times = load_timestamps(times_path)
        if len(times) < len(scans):
            raise ValueError("times.txt has fewer entries than scans")
        times = times[:len(scans)]
    else:
        times = [0.1 * i for i in range(len(scans))]
    gt = None
    poses_path = os.path.join(dataset_dir, "poses.txt")
    if os.path.exists(poses_path):
        # a partly copied sequence has more pose rows than scans
        gt = load_kitti_poses(poses_path)[:len(scans)]
    return DatasetSequence(scans, times, gt)

