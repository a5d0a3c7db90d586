"""KITTI dataset ingestion.

Velodyne scans are flat binary files of N x 4 little-endian float32
(x, y, z, intensity).  Ground-truth poses come as rows of 12 values
(3x4 row-major matrices).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .geometry import PointCloud, Pose


class ScanFormatError(ValueError):
    pass


@dataclass
class DatasetSequence:
    scan_paths: List[str]
    timestamps: List[float]
    ground_truth: Optional[List[Pose]] = None
    ground_truth_timestamps: Optional[List[float]] = None

    def __post_init__(self):
        if len(self.scan_paths) != len(self.timestamps):
            raise ValueError("scan_paths and timestamps length mismatch")
        ts = np.asarray(self.timestamps)
        if len(ts) > 1 and not np.all(np.diff(ts) > 0):
            raise ValueError("timestamps must be strictly increasing")
        if self.ground_truth is not None:
            gt_ts = self.ground_truth_timestamps
            if gt_ts is not None and len(gt_ts) != len(self.ground_truth):
                raise ValueError("ground truth and its timestamps differ in length")

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


def _read_rows(path: str, width: int) -> np.ndarray:
    """(R, width) floats from whitespace-separated text rows; blank lines
    and ``#`` comments are skipped.  A row of another width or with a
    non-numeric field raises ValueError naming the file and the line."""
    rows = []
    with open(path) as f:
        for number, line in enumerate(f, 1):
            fields = line.split("#", 1)[0].split()
            if not fields:
                continue
            if len(fields) != width:
                raise ValueError(f"{path}:{number}: expected {width} values, "
                                 f"found {len(fields)}: {line.strip()!r}")
            try:
                rows.append([float(v) for v in fields])
            except ValueError:
                raise ValueError(f"{path}:{number}: non-numeric field: "
                                 f"{line.strip()!r}") from None
    return np.array(rows, dtype=np.float64).reshape(-1, width)


def load_kitti_poses(path: str) -> List[Pose]:
    """Ground-truth poses from 12-value rows (3x4 row-major matrices)."""
    return [Pose(m[:, :3], m[:, 3])
            for m in _read_rows(path, 12).reshape(-1, 3, 4)]


def load_timestamps(path: str) -> List[float]:
    """times.txt: one float (seconds) per line."""
    return _read_rows(path, 1)[:, 0].tolist()


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
    gt_times = None
    poses_path = os.path.join(dataset_dir, "poses.txt")
    if os.path.exists(poses_path):
        # a partly copied sequence has more pose rows than scans
        gt = load_kitti_poses(poses_path)[:len(scans)]
        gt_times = times[:len(gt)]
    return DatasetSequence(scans, times, gt, gt_times)

