"""Keyframe-based tracking.

Every filtered cloud is registered against the current keyframe's cloud, so
error accumulates per keyframe transition rather than per frame.  A cloud
becomes a new keyframe when its relative motion or elapsed time crosses any
of the configured thresholds.  Every cloud is scan-matched; the motion
guess only seeds the match.  When the pre-tracker gives a guess, the match
starts from whichever of it and constant motion fits the keyframe better,
scored on a strided sample of the cloud; without one, from constant motion.
A keyframe cloud too small to match against is replaced by the next cloud,
placed at the guess.  A keyframe the tracker replaces keeps its points,
pose and scan-context grid, and drops its GICP normals and kd-tree: only
loop verification matches it again, and rebuilds them for that match.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import PointCloud, Pose
from .registration import (MIN_CORRESPONDENCES, RegistrationConfig, align,
                           drop_gicp_state, score_alignment)

# the seed choice scores every SEED_SAMPLE_STRIDE-th point of the cloud
SEED_SAMPLE_STRIDE = 16


@dataclass
class KeyframeCriteria:
    delta_trans: float = 5.0     # m
    delta_angle: float = 0.25    # rad
    delta_time: float = 1.0      # s

    def __post_init__(self):
        if min(self.delta_trans, self.delta_angle, self.delta_time) <= 0:
            raise ValueError("keyframe thresholds must be positive")


@dataclass
class Keyframe:
    """A keyframe cloud and its world pose.  Once it is a ``PoseGraph``
    node, ``pose`` is the graph's estimate, which each optimization moves
    in place.  Once the tracker replaces it, ``cloud.normals`` is ``None``
    and the cloud holds no kd-tree."""

    cloud: PointCloud
    pose: Pose
    timestamp: float
    accumulated_distance: float
    index: int
    # scan-context grid, set by LoopDetector.descriptor_for on first need
    scan_context: Optional[np.ndarray] = None


def is_new_keyframe(rel: Pose, dt: float, crit: KeyframeCriteria) -> bool:
    """True iff any keyframe criterion fires for this relative motion."""
    if dt < 0:
        raise ValueError("dt must be non-negative")
    return (np.linalg.norm(rel.translation) >= crit.delta_trans
            or rel.rotation_angle() >= crit.delta_angle
            or dt >= crit.delta_time)


@dataclass
class TrackResult:
    pose: Pose                       # world pose of this cloud
    relative: Pose                   # pose relative to the current keyframe
    new_keyframe: Optional[Keyframe]
    odometry_from_previous_keyframe: Optional[Pose]
    degraded: bool


class Tracker:
    """Short-term data association against the latest keyframe."""

    def __init__(self, reg_cfg: Optional[RegistrationConfig] = None,
                 criteria: Optional[KeyframeCriteria] = None):
        self.reg_cfg = reg_cfg or RegistrationConfig()
        self.criteria = criteria or KeyframeCriteria()
        self.keyframe: Optional[Keyframe] = None
        self._prev_rel = Pose.identity()      # previous cloud, keyframe frame
        self._last_step = Pose.identity()     # constant-motion model
        self._keyframe_count = 0
        self.registration_calls = 0

    def track(self, filtered: PointCloud,
              guess: Optional[Pose] = None) -> TrackResult:
        """Process one filtered cloud.

        ``guess`` is the estimated motion since the previous cloud (from the
        pre-tracker); without it the last step is repeated.  With it, the
        match starts from the guess or the last step, whichever fits the
        keyframe better (see :meth:`_better_seed`).  A cloud stamped before
        the current keyframe counts as no time elapsed.
        """
        if self.keyframe is None:
            kf = self._add_keyframe(filtered, Pose.identity(), Pose.identity())
            return TrackResult(kf.pose, Pose.identity(), kf, None, False)

        kf = self.keyframe
        dt = max(filtered.timestamp - kf.timestamp, 0.0)
        constant_rel = self._prev_rel @ self._last_step
        guess_rel = constant_rel if guess is None else self._prev_rel @ guess

        if len(kf.cloud) < MIN_CORRESPONDENCES:
            # nothing to match against: this cloud takes the keyframe's
            # place, at the guess
            pose = kf.pose @ guess_rel
            new_kf = self._add_keyframe(filtered, pose, guess_rel)
            return TrackResult(pose, guess_rel, new_kf, guess_rel, True)

        # seeding from the guess alone raised no_revisit ATE 10.6 % (bound 5 %)
        if guess is not None:
            guess_rel = self._better_seed(filtered, guess_rel, constant_rel)
        result = align(filtered, kf.cloud, guess_rel, self.reg_cfg)
        self.registration_calls += 1
        if not result.valid:
            # registration failed: constant-motion extrapolation, no keyframe
            rel = guess_rel
            pose = kf.pose @ rel
            self._prev_rel = rel
            return TrackResult(pose, rel, None, None, True)

        rel = result.transform
        pose = kf.pose @ rel
        self._last_step = self._prev_rel.inverse() @ rel
        self._prev_rel = rel

        if not is_new_keyframe(rel, dt, self.criteria):
            return TrackResult(pose, rel, None, None, False)

        new_kf = self._add_keyframe(filtered, pose, rel)
        return TrackResult(pose, rel, new_kf, rel, False)

    def _better_seed(self, filtered: PointCloud, guessed: Pose,
                     constant: Pose) -> Pose:
        """Of the guess seed and the constant-motion seed (poses relative to
        the keyframe), the one whose fitness on the keyframe is lower, with
        a tie to constant motion.  The score runs on every
        ``SEED_SAMPLE_STRIDE``-th point; when that sample is too small to
        score, the guess seed is kept.
        """
        sample = PointCloud(filtered.points[::SEED_SAMPLE_STRIDE])
        max_d = self.reg_cfg.max_correspondence_distance
        cloud = self.keyframe.cloud
        guessed_fit = score_alignment(sample, cloud, guessed, max_d)
        if guessed_fit is None:
            return guessed
        constant_fit = score_alignment(sample, cloud, constant, max_d)
        return guessed if guessed_fit < constant_fit else constant

    def _add_keyframe(self, cloud: PointCloud, pose: Pose,
                      rel: Pose) -> Keyframe:
        """Make ``cloud`` the current keyframe, ``rel`` from the last one,
        which retires."""
        travelled = 0.0 if self.keyframe is None else \
            self.keyframe.accumulated_distance \
            + float(np.linalg.norm(rel.translation))
        kf = Keyframe(cloud, pose, cloud.timestamp, travelled,
                      self._keyframe_count)
        if self.keyframe is not None:
            drop_gicp_state(self.keyframe.cloud)
        self._keyframe_count += 1
        self.keyframe = kf
        self._prev_rel = Pose.identity()
        return kf

    def update_keyframe_pose(self, pose: Pose):
        """Adopt an optimized pose for the current keyframe."""
        if self.keyframe is not None:
            self.keyframe.pose = pose
