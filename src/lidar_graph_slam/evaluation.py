"""Trajectory I/O and absolute trajectory error.

Trajectories use the TUM text format: one ``timestamp tx ty tz qx qy qz qw``
line per pose.  ATE associates estimated and ground-truth poses by nearest
timestamp, optionally applies the closed-form rigid alignment (no scale),
and reports mean / RMSE / standard deviation of the translation errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.spatial.transform import Rotation

from .geometry import Pose, kabsch


@dataclass
class TimedPose:
    timestamp: float
    pose: Pose


@dataclass
class AteReport:
    mean: float
    rmse: float
    std: float
    per_pose_errors: np.ndarray
    associations: List[Tuple[int, int]]
    alignment: Optional[Pose] = None


class AssociationError(ValueError):
    """No estimate pose could be paired with a ground-truth pose."""


# ---------------------------------------------------------------------------
# TUM trajectory files
# ---------------------------------------------------------------------------

def write_tum(path: str, trajectory: Sequence[TimedPose]):
    with open(path, "w") as f:
        for tp in trajectory:
            q = Rotation.from_matrix(tp.pose.rotation).as_quat()  # x y z w
            t = tp.pose.translation
            f.write("{:.6f} {:.9f} {:.9f} {:.9f} {:.9f} {:.9f} {:.9f} {:.9f}\n"
                    .format(tp.timestamp, t[0], t[1], t[2],
                            q[0], q[1], q[2], q[3]))


def read_tum(path: str) -> List[TimedPose]:
    out = []
    with open(path) as f:
        for number, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                vals = [float(v) for v in line.split()]
            except ValueError:
                raise ValueError(f"{path}:{number}: non-numeric field in TUM "
                                 f"line: {line!r}") from None
            if len(vals) != 8:
                raise ValueError(f"{path}:{number}: malformed TUM line: "
                                 f"{line!r}")
            if not np.isfinite(vals).all():
                raise ValueError(f"{path}:{number}: non-finite value in TUM "
                                 f"line: {line!r}")
            ts, tx, ty, tz, qx, qy, qz, qw = vals
            r = Rotation.from_quat([qx, qy, qz, qw]).as_matrix()
            out.append(TimedPose(ts, Pose(r, [tx, ty, tz])))
    return out


# ---------------------------------------------------------------------------
# Association and ATE
# ---------------------------------------------------------------------------

def associate(estimates: Sequence[TimedPose], truth: Sequence[TimedPose],
              max_dt: float = 0.05) -> List[Tuple[int, int]]:
    """Greedy nearest-timestamp matching, each truth pose used at most once."""
    if not estimates or not truth:
        raise AssociationError("empty trajectory")
    truth_ts = np.array([t.timestamp for t in truth])
    candidates = []
    for i, est in enumerate(estimates):
        j = int(np.argmin(np.abs(truth_ts - est.timestamp)))
        dt = abs(truth_ts[j] - est.timestamp)
        if dt <= max_dt:
            candidates.append((dt, i, j))
    candidates.sort()
    used = set()
    pairs = []
    for _, i, j in candidates:
        if j in used:
            continue
        used.add(j)
        pairs.append((i, j))
    pairs.sort()
    if not pairs:
        raise AssociationError(
            f"no associations within max_dt={max_dt}; evaluation impossible")
    return pairs


def compute_ate(pairs: Sequence[Tuple[int, int]],
                estimates: Sequence[TimedPose],
                truth: Sequence[TimedPose],
                align: bool = True) -> AteReport:
    if len(pairs) < 2:
        raise ValueError("need at least 2 associated pairs")
    est_pts = np.array([estimates[i].pose.translation for i, _ in pairs])
    tru_pts = np.array([truth[j].pose.translation for _, j in pairs])
    alignment = None
    if align:
        # rank-1 (collinear) trajectories are aligned too
        alignment, _ = kabsch(est_pts, tru_pts)
        est_pts = alignment.apply(est_pts)
    errors = np.linalg.norm(est_pts - tru_pts, axis=1)
    mean = float(np.mean(errors))
    rmse = float(np.sqrt(np.mean(errors ** 2)))
    std = float(np.sqrt(max(rmse ** 2 - mean ** 2, 0.0)))
    return AteReport(mean, rmse, std, errors, list(pairs), alignment)


def evaluate_trajectories(estimates: Sequence[TimedPose],
                          truth: Sequence[TimedPose],
                          align: bool = True,
                          max_dt: float = 0.05) -> AteReport:
    return compute_ate(associate(estimates, truth, max_dt), estimates, truth,
                       align)
