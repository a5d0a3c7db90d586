"""Three-phase loop closure: gating, ranking, verification."""

import numpy as np
import pytest

from lidar_graph_slam import loop_closure as loop_closure_module
from lidar_graph_slam.geometry import PointCloud, Pose, so3_exp
from lidar_graph_slam.loop_closure import (LoopCandidate, LoopConfig,
                                           LoopDetector, gate_candidates,
                                           nearest_candidate)
from lidar_graph_slam.registration import (RegistrationConfig, cloud_kdtree,
                                           compute_gicp_normals,
                                           drop_gicp_state)
from lidar_graph_slam.scan_context import ScanContextParams, make_scan_context
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
            LoopConfig(fitness_accept_threshold=0.0)


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
        idx, dist, shift = nearest_candidate(descriptors[5], gated)
        assert (idx, shift) == (5, 0)
        assert dist == pytest.approx(0.0, abs=1e-12)

    def test_tie_goes_to_earliest_gated(self, rng):
        descriptors = self._descriptors(rng, 3)
        # gated indices need not be in order; the first entry wins a tie
        gated = [(7, descriptors[1]), (2, descriptors[0]),
                 (4, descriptors[0]), (9, descriptors[2])]
        assert nearest_candidate(descriptors[0], gated)[0] == 2

    def test_empty_gated_set(self):
        detector = LoopDetector()
        # the only keyframe is too close along the path to be gated
        keyframes = [kf_at(0, (0.0, 0.0), 90.0)]
        query = kf_at(1, (0.0, 0.0), 100.0)
        assert detector.detect(query, keyframes) is None
        assert detector.registration_calls == 0


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

    def test_retired_candidate_verifies_as_one_that_kept_its_state(
            self, revisit_scene):
        # a retired keyframe's normals and kd-tree are rebuilt for the
        # match alone: the loop is bit-identical and the keyframe stays
        # without them
        loops = []
        for retire in (False, True):
            keyframes, query = self._keyframes(revisit_scene)
            cand = keyframes[0]
            cand.cloud = PointCloud(cand.cloud.points)
            query.cloud = PointCloud(query.cloud.points)
            compute_gicp_normals(cand.cloud)
            cloud_kdtree(cand.cloud)
            if retire:
                drop_gicp_state(cand.cloud)
            loops.append(LoopDetector().detect(query, keyframes))
        kept, rebuilt = loops
        assert kept is not None and rebuilt is not None
        np.testing.assert_array_equal(rebuilt.verified_transform.matrix(),
                                      kept.verified_transform.matrix())
        assert rebuilt.fitness == kept.fitness
        assert cand.cloud.normals is None
        assert getattr(cand.cloud, "_kdtree", None) is None

    def test_match_above_the_fitness_threshold_is_refused(self, rng,
                                                          revisit_scene):
        # 5 cm of noise on the query keeps the match valid and converged
        # but its fitness above zero; that fitness alone refuses it, and a
        # threshold above it accepts the same match
        _, scan_b = revisit_scene
        noisy = scan_b.points + rng.normal(scale=0.05,
                                           size=scan_b.points.shape)
        loops = []
        for threshold in (1e-3, LoopConfig().fitness_accept_threshold):
            keyframes, query = self._keyframes(revisit_scene)
            query.cloud = PointCloud(noisy, None, query.timestamp)
            detector = LoopDetector(LoopConfig(
                fitness_accept_threshold=threshold))
            loops.append(detector.detect(query, keyframes))
            assert detector.registration_calls == 1
        refused, accepted = loops
        assert refused is None
        assert accepted is not None and accepted.candidate_index == 0
        assert 1e-3 < accepted.fitness < 0.5

    def _recorded_matches(self, monkeypatch):
        """The results of every ``align`` the detector runs, in order."""
        results = []
        real_align = loop_closure_module.align

        def recording_align(*args):
            results.append(real_align(*args))
            return results[-1]

        monkeypatch.setattr(loop_closure_module, "align", recording_align)
        return results

    def test_match_that_did_not_converge_is_refused(self, revisit_scene,
                                                    monkeypatch):
        # the query's points are moved 0.5 m off the guess, and one
        # iteration cannot step below a tiny epsilon: the match stays
        # valid, so only its convergence refuses it
        keyframes, query = self._keyframes(revisit_scene)
        query.cloud = PointCloud(query.cloud.points + [0.5, 0.3, 0.0])
        results = self._recorded_matches(monkeypatch)
        detector = LoopDetector(reg_cfg=RegistrationConfig(
            max_iterations=1, transformation_epsilon=1e-12))
        assert detector.detect(query, keyframes) is None
        assert detector.registration_calls == 1
        (res,) = results
        assert res.valid and not res.converged

    def test_invalid_match_is_refused(self, revisit_scene, monkeypatch):
        # the candidate's points lie 200 m from the query's at the guess,
        # beyond max_correspondence_distance: the match is invalid.  The
        # fitness threshold lies above the capped maximum fitness
        # (max_correspondence_distance squared), so only the validity
        # check refuses it
        keyframes, query = self._keyframes(revisit_scene)
        cand = keyframes[0]
        cand.cloud = PointCloud(cand.cloud.points + [200.0, 0.0, 0.0])
        results = self._recorded_matches(monkeypatch)
        detector = LoopDetector(LoopConfig(descriptor_distance_threshold=1.1,
                                           fitness_accept_threshold=5.0))
        assert detector.reg_cfg.max_correspondence_distance ** 2 < 5.0
        assert detector.detect(query, keyframes) is None
        assert detector.registration_calls == 1
        (res,) = results
        assert not res.valid

    def test_registration_budget_per_query(self, revisit_scene):
        scan_a, _ = revisit_scene
        cfg = LoopConfig(descriptor_distance_threshold=1.1)
        detector = LoopDetector(cfg)
        # many gated candidates sharing the same cloud: all rank, only
        # the nearest may reach the registration phase
        keyframes = [Keyframe(scan_a, Pose.identity(), float(i), 0.0, i)
                     for i in range(12)]
        query = Keyframe(scan_a, Pose.identity(), 99.0, 100.0, 99)
        loop = detector.detect(query, keyframes)
        assert detector.registration_calls == 1
        assert loop.candidate_index == 0

    def test_true_match_behind_ring_key_decoys(self, rng, revisit_scene):
        """The true match is found among 11 decoys with the query's exact
        per-ring occupancy, which a ring-key pre-selection of 10 would
        rank ahead of it."""
        scan_a, _ = revisit_scene
        params = ScanContextParams()
        query_sc = make_scan_context(scan_a, params)
        # the true match: the query scan yawed by 4 sectors, its points in
        # the first three occupied bins dropped
        m = 4
        yaw = Pose(so3_exp([0.0, 0.0, m * params.sector_width]), np.zeros(3))
        pts = scan_a.points
        ring = np.minimum(np.linalg.norm(pts[:, :2], axis=1)
                          / params.max_range * params.rings,
                          params.rings - 1).astype(int)
        sector = (np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2 * np.pi)
                  / params.sector_width).astype(int)
        dropped = np.argwhere(query_sc > 0)[:3]
        keep = ~np.any((ring[:, None] == dropped[:, 0])
                       & (sector[:, None] == dropped[:, 1]), axis=1)
        match = PointCloud(pts[keep]).transformed(yaw)
        keyframes = []
        for i in range(12):
            kf = kf_at(i, (0.0, 0.0), 0.0, match if i == 5 else None)
            if i != 5:
                # each ring's cells shuffled across its sectors: the
                # ring's occupancy is the query's exactly
                grid = query_sc.copy()
                for r in range(params.rings):
                    grid[r] = grid[r, rng.permutation(params.sectors)]
                kf.scan_context = grid
            keyframes.append(kf)
        query = Keyframe(scan_a, Pose.identity(), 99.0, 100.0, 99)
        query.scan_context = query_sc
        detector = LoopDetector()
        ring_occupancy = [
            (detector.descriptor_for(kf) > 0).sum(axis=1)
            for kf in keyframes]
        q_occupancy = (query_sc > 0).sum(axis=1)
        for i, occ in enumerate(ring_occupancy):
            assert np.array_equal(occ, q_occupancy) == (i != 5)
        loop = detector.detect(query, keyframes)
        assert loop is not None and loop.candidate_index == 5
        assert detector.registration_calls == 1
        terr, rerr = pose_error(loop.verified_transform, yaw)
        assert terr < 0.1 and rerr < 0.5

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
