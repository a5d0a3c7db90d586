"""Fast motion estimation on heavily downsampled clouds.

Runs on the raw cloud, next to the pre-filterer, and produces an initial
guess for the tracker: one registration at a very coarse scale, and
for small clouds a second registration at a finer scale seeded with the
first result.  A phase runs only when both this cloud and the previous one
have it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .geometry import PointCloud, Pose
from .registration import ICP_P2P, RegistrationConfig, align

# point-to-point ICP settings of every phase
PHASE_ICP = RegistrationConfig(method=ICP_P2P, max_iterations=20,
                               transformation_epsilon=0.02,
                               max_correspondence_distance=4.0)


@dataclass
class PretrackerConfig:
    phase1_keep_fraction: float = 0.05
    phase2_keep_fraction: float = 0.2
    large_cloud_threshold: int = 60_000

    def __post_init__(self):
        if not 0.0 < self.phase1_keep_fraction <= 0.1:
            raise ValueError("phase1_keep_fraction must be in (0, 0.1]")
        if not self.phase1_keep_fraction < self.phase2_keep_fraction < 1.0:
            raise ValueError("phase2_keep_fraction must lie between phase 1 and 1")
        if self.large_cloud_threshold <= 0:
            raise ValueError("large_cloud_threshold must be positive")


@dataclass
class PretrackResult:
    guess: Pose                 # motion from the previous cloud to this one
    degraded: bool              # fell back to constant velocity
    phases_run: int


def downsample_to_fraction(cloud: PointCloud, fraction: float) -> PointCloud:
    """Keep a deterministic, evenly strided subset of the cloud's points.

    Stride subsampling preserves true surface positions (unlike coarse
    voxel centroids, which snap flat regions onto a grid locked to the
    sensor frame and bias scan matching toward zero motion).  Scan points
    arrive ordered by beam, so a stride also spreads the kept points
    spatially.
    """
    n = len(cloud)
    if n == 0 or fraction >= 1.0:
        return cloud
    target = max(int(round(n * fraction)), 1)
    idx = np.linspace(0, n - 1, target).round().astype(np.intp)
    return PointCloud(cloud.points[np.unique(idx)], None, cloud.timestamp,
                      cloud.frame_id)


class Pretracker:
    """Multi-scale scan matcher producing tracker initial guesses."""

    def __init__(self, cfg: Optional[PretrackerConfig] = None):
        self.cfg = cfg or PretrackerConfig()
        self._previous: List[PointCloud] = []   # the last cloud, per phase
        self._last_motion = Pose.identity()
        self.registration_calls = 0

    def pretrack(self, cloud: PointCloud) -> PretrackResult:
        cfg = self.cfg
        fractions = [cfg.phase1_keep_fraction]
        if len(cloud) <= cfg.large_cloud_threshold:
            fractions.append(cfg.phase2_keep_fraction)
        current = [downsample_to_fraction(cloud, f) for f in fractions]
        previous, self._previous = self._previous, current
        guess = self._last_motion
        phases = 0
        for source, target in zip(current, previous):
            res = align(source, target, guess, PHASE_ICP)
            self.registration_calls += 1
            phases += 1
            if not res.valid:
                return PretrackResult(self._last_motion, True, phases)
            guess = res.transform
        self._last_motion = guess
        return PretrackResult(guess, False, phases)
