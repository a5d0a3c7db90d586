"""Fast motion estimation on heavily downsampled clouds.

Runs on the raw cloud, next to the pre-filterer, and produces an initial
guess for the tracker: one registration at a very coarse scale, and
for small clouds a second registration at a finer scale seeded with the
first result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import PointCloud, Pose
from .registration import ICP_P2P, RegistrationConfig, align


@dataclass
class PretrackerConfig:
    phase1_keep_fraction: float = 0.05
    phase2_keep_fraction: float = 0.2
    large_cloud_threshold: int = 60_000
    max_iterations: int = 20
    transformation_epsilon: float = 0.02
    max_correspondence_distance: float = 4.0

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
        self._prev_phase1: Optional[PointCloud] = None
        self._prev_phase2: Optional[PointCloud] = None
        self._last_motion = Pose.identity()
        self.registration_calls = 0

    def _reg_config(self) -> RegistrationConfig:
        return RegistrationConfig(
            method=ICP_P2P,
            max_iterations=self.cfg.max_iterations,
            transformation_epsilon=self.cfg.transformation_epsilon,
            max_correspondence_distance=self.cfg.max_correspondence_distance)

    def pretrack(self, cloud: PointCloud) -> PretrackResult:
        cfg = self.cfg
        ds1 = downsample_to_fraction(cloud, cfg.phase1_keep_fraction)
        large = len(cloud) > cfg.large_cloud_threshold
        ds2 = None if large else downsample_to_fraction(cloud,
                                                        cfg.phase2_keep_fraction)
        if self._prev_phase1 is None:
            self._prev_phase1 = ds1
            self._prev_phase2 = ds2
            return PretrackResult(Pose.identity(), False, 0)

        reg_cfg = self._reg_config()
        degraded = False
        phases = 0
        guess = self._last_motion

        res = align(ds1, self._prev_phase1, guess, reg_cfg)
        self.registration_calls += 1
        phases = 1
        if res.valid:
            guess = res.transform
        else:
            degraded = True

        if not large and not degraded and self._prev_phase2 is not None:
            res2 = align(ds2, self._prev_phase2, guess, reg_cfg)
            self.registration_calls += 1
            phases = 2
            if res2.valid:
                guess = res2.transform
            else:
                degraded = True

        if degraded:
            guess = self._last_motion
        else:
            self._last_motion = guess
        self._prev_phase1 = ds1
        self._prev_phase2 = ds2
        return PretrackResult(guess, degraded, phases)
