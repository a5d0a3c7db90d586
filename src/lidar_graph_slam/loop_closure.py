"""Three-phase loop closure.

Phase 1 gates keyframes that are close in space but far along the traveled
path.  Phase 2 ranks the gated set by polar-grid descriptor distance (ring
keys pre-select via a KD-tree) down to the top k.  Phase 3 verifies the
survivors by scan matching and keeps the single best-fitting candidate, so
at most k registrations run per query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.spatial import cKDTree

from .geometry import Pose, so3_exp
from .registration import RegistrationConfig, align, score_alignment
from .scan_context import (ScanContext, ScanContextParams, descriptor_distance,
                           make_scan_context, shift_to_yaw)
from .tracker import Keyframe

# candidates the ring keys pre-select: this many, or 2 top_k if that is more
RING_KEY_PRESELECT = 10


@dataclass
class LoopConfig:
    search_radius: float = 40.0
    min_accumulated_distance: float = 25.0
    top_k: int = 5
    fitness_accept_threshold: float = 0.5     # m^2
    descriptor_distance_threshold: float = 0.3

    def __post_init__(self):
        if min(self.search_radius, self.min_accumulated_distance,
               self.top_k, self.fitness_accept_threshold) <= 0:
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


def rank_candidates(query_sc: ScanContext,
                    gated: Sequence[Tuple[int, ScanContext]],
                    k: int) -> List[Tuple[int, float, int]]:
    """Top-k gated candidates by full descriptor distance.

    ``gated`` pairs candidate indices with their descriptors.  Ring keys
    pre-select up to ``max(RING_KEY_PRESELECT, 2k)`` nearest candidates
    before the shift-exhaustive comparison.  Returns (index, distance,
    best_shift) ascending by distance.
    """
    if not gated:
        return []
    n_pre = min(len(gated), max(RING_KEY_PRESELECT, 2 * k))
    keys = np.stack([sc.ring_key for _, sc in gated])
    tree = cKDTree(keys)
    _, pre_idx = tree.query(query_sc.ring_key, k=n_pre)
    pre_idx = np.atleast_1d(pre_idx)
    scored = []
    for i in pre_idx:
        idx, sc = gated[int(i)]
        dist, shift = descriptor_distance(query_sc, sc)
        scored.append((idx, dist, shift))
    scored.sort(key=lambda s: s[1])
    return scored[:k]


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

    def descriptor_for(self, kf: Keyframe) -> ScanContext:
        if kf.scan_context is None:
            kf.scan_context = make_scan_context(kf.cloud, self.sc_params)
        return kf.scan_context

    def verify(self, query: Keyframe, keyframes: Sequence[Keyframe],
               ranked: Sequence[Tuple[int, float, int]]) -> Optional[LoopCandidate]:
        """Scan-match the ranked candidates; return the best accepted one."""
        best: Optional[LoopCandidate] = None
        for idx, dist, shift in ranked:
            if dist > self.cfg.descriptor_distance_threshold:
                continue    # descriptors disagree; not worth a registration
            cand = keyframes[idx]
            guess = self._initial_guess(query, cand, shift)
            res = align(query.cloud, cand.cloud, guess, self.reg_cfg)
            self.registration_calls += 1
            if not res.converged or not res.valid:
                continue
            fitness, _ = score_alignment(
                query.cloud, cand.cloud, res.transform,
                self.reg_cfg.max_correspondence_distance)
            if fitness > self.cfg.fitness_accept_threshold:
                continue
            if best is None or fitness < best.fitness:
                best = LoopCandidate(query.index, cand.index, dist,
                                     res.transform, fitness)
        return best

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
        query_sc = self.descriptor_for(query)
        ranked = rank_candidates(query_sc, gated, self.cfg.top_k)
        return self.verify(query, keyframes, ranked)
