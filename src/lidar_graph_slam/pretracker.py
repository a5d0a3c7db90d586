"""Fast motion estimation on heavily downsampled clouds.

Runs on the raw cloud, next to the pre-filterer, and produces an initial
guess for the tracker: one registration at a very coarse scale, and
for small clouds a second registration at a finer scale seeded with the
first result.  A phase runs only when both this cloud and the previous one
have it.

Each phase matches with GICP (:func:`~.registration.align`), the matcher
the tracker and the loop verifier use, under its own looser settings.  The
strided phase clouds lie on no grid, so just before a phase matches them
the pre-tracker sets their ``normals`` from each point's
``PHASE_NORMAL_NEIGHBOURS`` nearest neighbours (:func:`knn_normals`), where
``align`` gives filtered clouds normals from 0.75 m voxel moments.
Voxel normals on the phase clouds were measured and rejected: at 0.75 m
cells the median guess error went 0.043 -> 0.114 m on fast_revisit and
0.007 -> 0.595 m on no_revisit, and one-thread pre-tracking on no_revisit
went 0.40 -> 0.99 s; at 4 m and 2 m cells fast_revisit ATE went to 1.03 m.

The phases run only when the scene shows that the motion changed.  Before
them, the constant-motion seed (the last estimated motion) is scored on the
phase-1 pair; if it fits no worse than the last successful match's result
fitted its own pair, no phase runs.  Every frame still stores its phase
clouds, so the next frame can match against them.

A guess is offered only when the phases matched this frame's motion.  The
first cloud, a frame the skip rule skips and a frame whose phase fails give
no guess, and the tracker seeds those from its own constant motion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .geometry import (PointCloud, Pose, eigen_symmetric_3x3,
                       neighborhood_covariances)
from .registration import (MIN_CORRESPONDENCES, RegistrationConfig, align,
                           cloud_kdtree, score_alignment)

# GICP settings of every phase
PHASE_MATCHING = RegistrationConfig(max_iterations=20,
                                    transformation_epsilon=0.02,
                                    max_correspondence_distance=4.0)
# neighbours of each phase cloud point's k-NN normal
PHASE_NORMAL_NEIGHBOURS = 15


# k-NN: the raw cloud's voxel normals put fast_revisit ATE at up to 0.77 m
def knn_normals(cloud: PointCloud, k: int) -> np.ndarray:
    """(N, 3) normals, each the smallest axis of the covariance of its
    point's ``k`` nearest neighbours in ``cloud`` (all N when N < k)."""
    idx, _ = cloud_kdtree(cloud).query_batch(cloud.points, k=min(k, len(cloud)))
    return eigen_symmetric_3x3(neighborhood_covariances(cloud.points, idx))[1]


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
    # motion from the previous cloud to this one, when the phases matched it
    guess: Optional[Pose]
    degraded: bool              # a phase failed
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
        # the last match's motion: the seed of the skip rule and the phases
        self._last_motion = Pose.identity()
        # phase-1 fitness the last successful match reached on its pair;
        # None until one has run
        self._matched_fitness: Optional[float] = None
        self.registration_calls = 0

    def pretrack(self, cloud: PointCloud) -> PretrackResult:
        cfg = self.cfg
        fractions = [cfg.phase1_keep_fraction]
        if len(cloud) <= cfg.large_cloud_threshold:
            fractions.append(cfg.phase2_keep_fraction)
        current = [downsample_to_fraction(cloud, f) for f in fractions]
        previous, self._previous = self._previous, current
        if not previous:
            return PretrackResult(None, False, 0)
        if self._matched_fitness is not None:
            seed_fitness = score_alignment(
                current[0], previous[0], self._last_motion,
                PHASE_MATCHING.max_correspondence_distance)
            if seed_fitness is not None and \
                    seed_fitness <= self._matched_fitness:
                return PretrackResult(None, False, 0)
        guess = self._last_motion
        phases = 0
        for source, target in zip(current, previous):
            for phase_cloud in (source, target):
                if phase_cloud.normals is None and \
                        len(phase_cloud) >= MIN_CORRESPONDENCES:
                    phase_cloud.normals = knn_normals(phase_cloud,
                                                      PHASE_NORMAL_NEIGHBOURS)
            res = align(source, target, guess, PHASE_MATCHING)
            self.registration_calls += 1
            phases += 1
            if not res.valid:
                return PretrackResult(None, True, phases)
            guess = res.transform
        self._last_motion = guess
        self._matched_fitness = score_alignment(
            current[0], previous[0], guess,
            PHASE_MATCHING.max_correspondence_distance)
        return PretrackResult(guess, False, phases)
