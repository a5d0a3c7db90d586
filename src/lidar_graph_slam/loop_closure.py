"""Three-phase loop closure.

Phase 1 gates keyframes that are close in space but far along the traveled
path.  Phase 2 scores every gated keyframe by exact polar-grid descriptor
distance in one batched product and keeps the nearest.  Phase 3 verifies
that one candidate by scan matching if its descriptor is close enough, so
at most one registration runs per query.  The candidate is a retired
keyframe, which keeps only its points: the match builds its GICP normals
and kd-tree on a temporary cloud, freed when verification returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .geometry import PointCloud, Pose, so3_exp
from .registration import RegistrationConfig, align, score_alignment
from .scan_context import (ScanContextParams, descriptor_distances,
                           make_scan_context, shift_to_yaw)
from .tracker import Keyframe


@dataclass
class LoopConfig:
    search_radius: float = 40.0
    min_accumulated_distance: float = 25.0
    fitness_accept_threshold: float = 0.5     # m^2
    descriptor_distance_threshold: float = 0.3

    def __post_init__(self):
        if min(self.search_radius, self.min_accumulated_distance,
               self.fitness_accept_threshold) <= 0:
            raise ValueError("all loop-closure parameters must be positive")


@dataclass
class LoopCandidate:
    query_index: int
    candidate_index: int
    descriptor_distance: float
    verified_transform: Optional[Pose] = None   # query keyframe -> candidate
    fitness: Optional[float] = None

    def __post_init__(self):
        if self.query_index <= self.candidate_index:
            raise ValueError("query_index must exceed candidate_index")


def gate_candidates(query: Keyframe, keyframes: Sequence[Keyframe],
                    cfg: LoopConfig) -> List[int]:
    """Indices of keyframes far along the path but nearby in space."""
    out = []
    q_pos = query.pose.translation
    for i, kf in enumerate(keyframes):
        if kf.index >= query.index:
            continue
        if query.accumulated_distance - kf.accumulated_distance \
                < cfg.min_accumulated_distance:
            continue
        if np.linalg.norm(q_pos - kf.pose.translation) > cfg.search_radius:
            continue
        out.append(i)
    return out


def nearest_candidate(query_sc: np.ndarray,
                      gated: Sequence[Tuple[int, np.ndarray]]
                      ) -> Tuple[int, float, int]:
    """The gated candidate nearest by full descriptor distance.

    ``gated`` pairs candidate indices with their descriptors and is not
    empty.  Returns (index, distance, best_shift); a tie goes to the
    earliest entry of ``gated``.
    """
    dist, shift = descriptor_distances(
        query_sc, np.stack([sc for _, sc in gated]))
    best = int(np.argmin(dist))
    return gated[best][0], float(dist[best]), int(shift[best])


class LoopDetector:
    """Three-phase detector; descriptors are cached on the keyframes.  The
    pose graph, not the detector, refuses a loop pair it already holds."""

    def __init__(self, cfg: Optional[LoopConfig] = None,
                 reg_cfg: Optional[RegistrationConfig] = None,
                 sc_params: Optional[ScanContextParams] = None):
        self.cfg = cfg or LoopConfig()
        self.reg_cfg = reg_cfg or RegistrationConfig()
        self.sc_params = sc_params or ScanContextParams()
        self.registration_calls = 0

    def descriptor_for(self, kf: Keyframe) -> np.ndarray:
        if kf.scan_context is None:
            kf.scan_context = make_scan_context(kf.cloud, self.sc_params)
        return kf.scan_context

    def verify(self, query: Keyframe, keyframes: Sequence[Keyframe],
               nearest: Tuple[int, float, int]) -> Optional[LoopCandidate]:
        """Scan-match the nearest candidate, on a temporary cloud over its
        points; return it if accepted."""
        idx, dist, shift = nearest
        if dist > self.cfg.descriptor_distance_threshold:
            return None     # descriptors disagree; not worth a registration
        cand = keyframes[idx]
        guess = self._initial_guess(query, cand, shift)
        target = PointCloud(cand.cloud.points)
        res = align(query.cloud, target, guess, self.reg_cfg)
        self.registration_calls += 1
        # every invalid match is also not converged
        if not res.converged:
            return None
        fitness = score_alignment(query.cloud, target, res.transform,
                                  self.reg_cfg.max_correspondence_distance)
        if fitness > self.cfg.fitness_accept_threshold:
            return None
        return LoopCandidate(query.index, cand.index, dist, res.transform,
                             fitness)

    def _initial_guess(self, query: Keyframe, cand: Keyframe,
                       shift: int) -> Pose:
        """Yaw from the descriptor shift, zero translation.

        A matching descriptor pair means the scans were taken near the same
        spot, so the true relative translation is small regardless of how
        far the drifted pose estimates have diverged; using the estimated
        poses here would bake the accumulated drift into the guess.  Roll
        and pitch are kept from the pose estimates (drift there is small).
        """
        rel = cand.pose.inverse() @ query.pose
        yaw_est = float(np.arctan2(rel.rotation[1, 0], rel.rotation[0, 0]))
        yaw_sc = shift_to_yaw(shift, self.sc_params)
        correction = so3_exp(np.array([0.0, 0.0, yaw_sc - yaw_est]))
        return Pose(correction @ rel.rotation, np.zeros(3))

    def detect(self, query: Keyframe,
               keyframes: Sequence[Keyframe]) -> Optional[LoopCandidate]:
        """Run all three phases for one query keyframe."""
        gated_idx = gate_candidates(query, keyframes, self.cfg)
        if not gated_idx:
            return None
        gated = [(i, self.descriptor_for(keyframes[i])) for i in gated_idx]
        nearest = nearest_candidate(self.descriptor_for(query), gated)
        return self.verify(query, keyframes, nearest)
