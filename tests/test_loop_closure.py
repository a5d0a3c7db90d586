"""Three-phase loop closure: gating, ranking, verification."""

import numpy as np
import pytest

from lidar_graph_slam.geometry import PointCloud, Pose, so3_exp
from lidar_graph_slam.loop_closure import (LoopCandidate, LoopConfig,
                                           LoopDetector, gate_candidates,
                                           rank_candidates)
from lidar_graph_slam.scan_context import make_scan_context
from lidar_graph_slam.synthetic import make_world, render_scan
from lidar_graph_slam.tracker import Keyframe

from conftest import pose_error


def kf_at(index, xy, accum, cloud=None, yaw=0.0):
    pose = Pose(so3_exp([0.0, 0.0, yaw]), np.array([xy[0], xy[1], 0.0]))
    if cloud is None:
        cloud = PointCloud(np.zeros((1, 3)))
    return Keyframe(cloud, pose, float(index), accum, index)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            LoopConfig(search_radius=0.0)
        with pytest.raises(ValueError):
            LoopConfig(top_k=0)


class TestCandidateRecord:
    def test_query_must_follow_candidate(self):
        with pytest.raises(ValueError):
            LoopCandidate(query_index=2, candidate_index=2,
                          descriptor_distance=0.1)


class TestGating:
    def test_near_in_space_far_in_path(self):
        cfg = LoopConfig(search_radius=10.0, min_accumulated_distance=25.0)
        keyframes = [
            kf_at(0, (0.0, 0.0), 0.0),      # close in space, far in path
            kf_at(1, (100.0, 0.0), 30.0),   # far in space
            kf_at(2, (1.0, 0.0), 45.0),     # close in path
        ]
        query = kf_at(3, (0.5, 0.0), 60.0)
        assert gate_candidates(query, keyframes, cfg) == [0]

    def test_query_itself_and_later_frames_excluded(self):
        cfg = LoopConfig(search_radius=10.0, min_accumulated_distance=1.0)
        keyframes = [kf_at(0, (0.0, 0.0), 0.0), kf_at(5, (0.0, 0.0), 99.0)]
        query = kf_at(3, (0.0, 0.0), 50.0)
        assert gate_candidates(query, keyframes, cfg) == [0]


class TestRanking:
    def _descriptors(self, rng, n):
        out = []
        for _ in range(n):
            pts = rng.uniform(-40, 40, size=(300, 2))
            z = rng.uniform(-1.5, 3.0, size=300)
            cloud = PointCloud(np.column_stack([pts, z]))
            out.append(make_scan_context(cloud))
        return out

    def test_true_match_ranked_first(self, rng):
        descriptors = self._descriptors(rng, 8)
        gated = list(enumerate(descriptors))
        ranked = rank_candidates(descriptors[5], gated, k=3)
        assert len(ranked) == 3
        assert ranked[0][0] == 5
        assert ranked[0][1] == pytest.approx(0.0, abs=1e-12)
        # ascending by distance
        dists = [d for _, d, _ in ranked]
        assert dists == sorted(dists)

    def test_empty_gated_set(self, rng):
        descriptors = self._descriptors(rng, 1)
        assert rank_candidates(descriptors[0], [], k=3) == []

    def test_k_limits_output(self, rng):
        descriptors = self._descriptors(rng, 10)
        gated = list(enumerate(descriptors))
        assert len(rank_candidates(descriptors[0], gated, k=2)) == 2


@pytest.fixture(scope="module")
def revisit_scene():
    """Two scans of one place, second with a 90 degree heading change."""
    xy = np.array([[0.0, 0.0], [30.0, 0.0]])
    world = make_world(xy, seed=3, corridor=12.0)
    spot = Pose(np.eye(3), np.array([2.0, 1.0, 0.0]))
    turned = Pose(so3_exp([0.0, 0.0, np.pi / 2]), spot.translation)
    scan_a = render_scan(world, spot, 0.0, max_range=30.0)
    scan_b = render_scan(world, turned, 9.0, max_range=30.0)
    return scan_a, scan_b


class TestDetector:
    def _keyframes(self, revisit_scene, drift=np.array([2.0, -1.0, 0.0])):
        scan_a, scan_b = revisit_scene
        kf0 = Keyframe(scan_a, Pose.identity(), 0.0, 0.0, 0)
        # estimated pose carries accumulated drift plus the true heading
        est_pose = Pose(so3_exp([0.0, 0.0, np.pi / 2]), drift)
        kf9 = Keyframe(scan_b, est_pose, 9.0, 60.0, 9)
        return [kf0], kf9

    def test_detects_and_verifies_revisit(self, revisit_scene):
        keyframes, query = self._keyframes(revisit_scene)
        detector = LoopDetector()
        loop = detector.detect(query, keyframes)
        assert loop is not None
        assert loop.query_index == 9 and loop.candidate_index == 0
        assert loop.fitness < 0.5
        # true motion between the two scans: pure 90 degree yaw at one spot
        truth = Pose(so3_exp([0.0, 0.0, np.pi / 2]), np.zeros(3))
        terr, rerr = pose_error(loop.verified_transform, truth)
        assert terr < 0.5
        assert rerr < 3.0

    def test_registration_budget_per_query(self, revisit_scene):
        scan_a, _ = revisit_scene
        cfg = LoopConfig(top_k=3, descriptor_distance_threshold=1.1)
        detector = LoopDetector(cfg)
        # many gated candidates sharing the same cloud: all rank, only
        # top_k may reach the registration phase
        keyframes = [Keyframe(scan_a, Pose.identity(), float(i), 0.0, i)
                     for i in range(12)]
        query = Keyframe(scan_a, Pose.identity(), 99.0, 100.0, 99)
        detector.detect(query, keyframes)
        assert detector.registration_calls <= cfg.top_k

    def test_distant_descriptors_skip_registration(self, rng, revisit_scene):
        scan_a, _ = revisit_scene
        # a cloud occupying only far rings shares no ring with a 30 m scan,
        # so the descriptor distance is maximal
        radius = rng.uniform(60.0, 79.0, size=2000)
        azimuth = rng.uniform(0.0, 2 * np.pi, size=2000)
        noise = PointCloud(np.column_stack([radius * np.cos(azimuth),
                                            radius * np.sin(azimuth),
                                            rng.uniform(-1, 3, size=2000)]))
        detector = LoopDetector()
        keyframes = [Keyframe(noise, Pose.identity(), 0.0, 0.0, 0)]
        query = Keyframe(scan_a, Pose.identity(), 9.0, 60.0, 9)
        loop = detector.detect(query, keyframes)
        assert loop is None
        assert detector.registration_calls == 0
