"""Trajectory I/O and absolute trajectory error.

Trajectories use the TUM text format: one ``timestamp tx ty tz qx qy qz qw``
line per pose.  :func:`read_rows` reads every text table of the project
(TUM files, and KITTI's ``times.txt`` and ``poses.txt``): blank lines and
``#`` comments, anywhere on a line, are skipped, and a row of the wrong
width or with a non-numeric or non-finite field is refused, naming the file
and the line.  ATE associates estimated and ground-truth poses by nearest
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


def read_rows(path: str, width: int) -> List[Tuple[int, str, List[float]]]:
    """(line number, line, values) of each row of ``width`` whitespace
    separated numbers in a text table; blank lines and ``#`` comments are
    skipped.  A row of another width, or with a non-numeric or non-finite
    field, raises ValueError naming the file and the line."""
    rows = []
    with open(path) as f:
        for number, line in enumerate(f, 1):
            fields = line.split("#", 1)[0].split()
            if not fields:
                continue
            line = line.strip()
            if len(fields) != width:
                raise ValueError(f"{path}:{number}: expected {width} values, "
                                 f"found {len(fields)}: {line!r}")
            try:
                values = [float(v) for v in fields]
            except ValueError:
                raise ValueError(f"{path}:{number}: non-numeric field: "
                                 f"{line!r}") from None
            if not np.isfinite(values).all():
                raise ValueError(f"{path}:{number}: non-finite value: "
                                 f"{line!r}")
            rows.append((number, line, values))
    return rows


def read_tum(path: str) -> List[TimedPose]:
    out = []
    for number, line, (ts, tx, ty, tz, qx, qy, qz, qw) in read_rows(path, 8):
        try:
            r = Rotation.from_quat([qx, qy, qz, qw]).as_matrix()
        except ValueError:
            raise ValueError(f"{path}:{number}: zero-norm quaternion in "
                             f"TUM line: {line!r}") from None
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
        alignment = kabsch(est_pts, tru_pts)
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
