"""Coarse multi-scale motion estimation."""

from dataclasses import replace

import numpy as np
import pytest

from lidar_graph_slam import pretracker as pretracker_module
from lidar_graph_slam.geometry import PointCloud, Pose, so3_exp
from lidar_graph_slam.pretracker import (PHASE_NORMAL_NEIGHBOURS, Pretracker,
                                         PretrackerConfig,
                                         downsample_to_fraction)
from lidar_graph_slam.registration import RegistrationResult
from lidar_graph_slam.synthetic import (make_world, render_sequence,
                                        straight_then_curve_trajectory)

from conftest import (box_surface_cloud, pose_error, random_pose,
                      reference_knn_normals)


class TestDownsampleToFraction:
    def test_target_size(self, rng):
        cloud = PointCloud(rng.normal(size=(1000, 3)))
        out = downsample_to_fraction(cloud, 0.05)
        assert len(out) == 50

    def test_points_are_a_subset(self, rng):
        cloud = PointCloud(rng.normal(size=(500, 3)))
        out = downsample_to_fraction(cloud, 0.2)
        originals = set(map(tuple, cloud.points))
        assert all(tuple(p) in originals for p in out.points)

    def test_deterministic(self, rng):
        cloud = PointCloud(rng.normal(size=(500, 3)))
        a = downsample_to_fraction(cloud, 0.1)
        b = downsample_to_fraction(cloud, 0.1)
        np.testing.assert_array_equal(a.points, b.points)

    def test_full_fraction_passthrough(self, rng):
        cloud = PointCloud(rng.normal(size=(50, 3)))
        assert downsample_to_fraction(cloud, 1.0) is cloud

    def test_empty_cloud(self):
        out = downsample_to_fraction(PointCloud(np.empty((0, 3))), 0.1)
        assert len(out) == 0

    def test_at_least_one_point(self, rng):
        cloud = PointCloud(rng.normal(size=(5, 3)))
        assert len(downsample_to_fraction(cloud, 0.01)) == 1


class TestPretrackerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PretrackerConfig(phase1_keep_fraction=0.0)
        with pytest.raises(ValueError):
            PretrackerConfig(phase1_keep_fraction=0.5)
        with pytest.raises(ValueError):
            PretrackerConfig(phase1_keep_fraction=0.05,
                             phase2_keep_fraction=0.04)
        with pytest.raises(ValueError):
            PretrackerConfig(large_cloud_threshold=0)


def dense_scene(rng, n=8000):
    return PointCloud(np.vstack([
        box_surface_cloud(rng, n=n // 2, size=20.0).points,
        box_surface_cloud(rng, n=n // 2, size=8.0).points + 3.0]))


class TestPretracker:
    def test_first_cloud_gives_identity(self, rng):
        # no pair to match: no guess, and the last motion stays identity
        pre = Pretracker()
        res = pre.pretrack(dense_scene(rng))
        assert res.phases_run == 0 and not res.degraded
        assert res.guess is None
        np.testing.assert_array_equal(pre._last_motion.matrix(), np.eye(4))

    def test_estimates_motion_between_scans(self, rng):
        scene = dense_scene(rng)
        motion = random_pose(rng, 0.8, 0.03)
        pre = Pretracker()
        pre.pretrack(scene)
        res = pre.pretrack(scene.transformed(motion.inverse()))
        assert res.phases_run == 2
        terr, rerr = pose_error(res.guess, motion)
        assert terr < 0.3
        assert rerr < 2.0

    def test_phase_clouds_keep_knn_normals(self, rng):
        # strided phase clouds lie on no grid, so the pre-tracker sets
        # k-NN normals on both clouds of each pair before it matches
        scene = dense_scene(rng)
        pre = Pretracker()
        pre.pretrack(scene)
        targets = pre._previous
        res = pre.pretrack(scene.transformed(random_pose(rng, 0.5, 0.02)))
        assert res.phases_run == 2
        for cloud in targets + pre._previous:
            np.testing.assert_array_equal(
                cloud.normals,
                reference_knn_normals(cloud, PHASE_NORMAL_NEIGHBOURS))

    def test_large_cloud_runs_single_phase(self, rng):
        scene = PointCloud(rng.uniform(-30, 30, size=(70_000, 3)))
        pre = Pretracker()
        pre.pretrack(scene)
        res = pre.pretrack(scene)
        assert res.phases_run == 1
        assert pre.registration_calls == 1

    def test_constant_velocity_fallback(self, rng):
        scene = dense_scene(rng)
        motion = Pose(np.eye(3), np.array([0.5, 0.0, 0.0]))
        pre = Pretracker()
        pre.pretrack(scene)
        moved = scene.transformed(motion.inverse())
        pre.pretrack(moved)
        # a garbage cloud with no overlap: no guess, so the tracker falls
        # back to its constant motion; the last match is kept
        garbage = PointCloud(rng.normal(size=(400, 3)) + 500.0)
        res = pre.pretrack(garbage)
        assert res.degraded and res.guess is None
        terr, _ = pose_error(pre._last_motion, motion)
        assert terr < 0.3

    def test_registration_call_budget(self, rng):
        scene = dense_scene(rng)
        pre = Pretracker()
        for _ in range(4):
            pre.pretrack(scene)
        # first cloud is free; each later cloud runs at most two phases
        assert pre.registration_calls <= 6

    def test_failed_phase_two_returns_last_motion(self, rng, monkeypatch):
        scene = dense_scene(rng)
        back = Pose(np.eye(3), [-0.5, 0.0, 0.0])    # the inverse of the motion
        pre = Pretracker()
        pre.pretrack(scene)
        moved = scene.transformed(back)
        first = pre.pretrack(moved)
        assert first.phases_run == 2 and not first.degraded

        real_align = pretracker_module.align
        calls = []

        def phase_two_fails(source, target, guess, cfg):
            calls.append(len(source))
            res = real_align(source, target, guess, cfg)
            return replace(res, valid=False) if len(calls) == 2 else res

        monkeypatch.setattr(pretracker_module, "align", phase_two_fails)
        # the motion changes, so the constant-motion seed fits worse than
        # the last match did and the phases run
        turn_back = Pose(so3_exp([0.0, 0.0, -0.1]), [-0.5, 0.0, 0.0])
        res = pre.pretrack(moved.transformed(turn_back))
        assert calls[0] < calls[1]            # phase 1 on the smaller cloud
        assert res.degraded and res.phases_run == 2
        # no guess; the last motion stays the last match's, phase 1's
        # result is dropped
        assert res.guess is None
        np.testing.assert_array_equal(pre._last_motion.matrix(),
                                      first.guess.matrix())

    @pytest.mark.parametrize("sizes", [(8000, 4000), (4000, 8000)],
                             ids=["large-then-small", "small-then-large"])
    def test_large_cloud_on_either_side_runs_one_phase(self, rng, sizes):
        pre = Pretracker(PretrackerConfig(large_cloud_threshold=6000))
        pre.pretrack(dense_scene(rng, sizes[0]))
        res = pre.pretrack(dense_scene(rng, sizes[1]))
        assert res.phases_run == 1
        assert pre.registration_calls == 1


class TestSkipRule:
    """The phases run only when the constant-motion seed fits the phase-1
    pair worse than the last successful match fitted its own pair."""

    def test_constant_velocity_runs_icp_on_the_first_pair_only(
            self, rng, monkeypatch):
        # A matcher that returns the true motion, on points whose
        # coordinates are exact in binary: every pair then fits that motion
        # with a fitness of exactly 0, so the matcher's convergence error
        # cannot decide.
        step = Pose(np.eye(3), np.array([0.5, 0.25, 0.0]))
        points = rng.integers(-160, 160, size=(4000, 3)) / 8.0
        monkeypatch.setattr(
            pretracker_module, "align",
            lambda source, target, guess, cfg: RegistrationResult(step, 1,
                                                                  True))
        pre = Pretracker()
        results = [pre.pretrack(PointCloud(points - i * step.translation))
                   for i in range(6)]
        assert [r.phases_run for r in results] == [0, 2, 0, 0, 0, 0]
        assert pre.registration_calls == 2
        assert not any(r.degraded for r in results)
        # only the matched frame offers a guess; the skipped ones keep
        # the step as the skip rule's seed
        np.testing.assert_array_equal(results[1].guess.matrix(), step.matrix())
        assert [r.guess for r in results[2:]] == [None] * 4
        np.testing.assert_array_equal(pre._last_motion.matrix(), step.matrix())

    def test_only_matched_phase_clouds_get_normals(self, rng, monkeypatch):
        # the set-up above: frame 1 runs both phases, frame 2 skips them
        step = Pose(np.eye(3), np.array([0.5, 0.25, 0.0]))
        points = rng.integers(-160, 160, size=(4000, 3)) / 8.0
        monkeypatch.setattr(
            pretracker_module, "align",
            lambda source, target, guess, cfg: RegistrationResult(step, 1,
                                                                  True))
        pre = Pretracker()
        phases, clouds = [], []
        for i in range(3):
            res = pre.pretrack(PointCloud(points - i * step.translation))
            phases.append(res.phases_run)
            clouds.append(pre._previous)
        assert phases == [0, 2, 0]
        for cloud in clouds[0] + clouds[1]:
            np.testing.assert_array_equal(
                cloud.normals,
                reference_knn_normals(cloud, PHASE_NORMAL_NEIGHBOURS))
        assert [cloud.normals for cloud in clouds[2]] == [None, None]

    def test_turn_runs_icp_again(self, rng):
        scene = dense_scene(rng)
        step = Pose(np.eye(3), np.array([0.5, 0.0, 0.0]))
        turn = Pose(so3_exp([0.0, 0.0, 0.2]), np.array([0.5, 0.2, 0.0]))
        pre = Pretracker()
        world = Pose.identity()
        for motion in [Pose.identity()] + [step] * 3 + [turn]:
            world = world @ motion
            res = pre.pretrack(scene.transformed(world.inverse()))
        assert res.phases_run == 2 and not res.degraded
        terr, rerr = pose_error(res.guess, turn)
        assert terr < 0.3 and rerr < 2.0

    @pytest.mark.parametrize("n_points", [0, 5], ids=["empty", "five_points"])
    def test_tiny_cloud_keeps_the_last_motion(self, rng, n_points):
        # the seed is not scored against a cloud too small to score: the
        # phases run and fail, both on the tiny cloud and on the next one,
        # which matches against it, so neither gets a guess and the last
        # motion is kept; no warning (an error under the test settings) is
        # raised
        scene = dense_scene(rng)
        back = Pose(np.eye(3), [-0.5, 0.0, 0.0])
        pre = Pretracker()
        pre.pretrack(scene)
        moved = scene.transformed(back)
        first = pre.pretrack(moved)
        tiny = PointCloud(moved.transformed(back).points[:n_points])
        for cloud in (tiny, moved.transformed(back).transformed(back)):
            res = pre.pretrack(cloud)
            assert res.degraded and res.phases_run == 1
            assert res.guess is None
            np.testing.assert_array_equal(pre._last_motion.matrix(),
                                          first.guess.matrix())


class TestAccuracy:
    def test_guesses_follow_a_straight_run(self):
        # 21 noiseless scans 1 m apart on a straight line; the guesses
        # were biased toward too little motion (up to 1.14 m off) when the
        # phases ran point-to-point ICP
        traj = straight_then_curve_trajectory(straight=20.0, curve_radius=40.0,
                                              curve_angle=0.25)[:21]
        xy = np.array([[p.translation[0], p.translation[1]] for _, p in traj])
        clouds, truth = render_sequence(make_world(xy, seed=4), traj)
        pre = Pretracker()
        pre.pretrack(clouds[0])
        guessed = 0
        for i in range(1, len(clouds)):
            guess = pre.pretrack(clouds[i]).guess
            if guess is None:
                continue
            guessed += 1
            terr, _ = pose_error(guess, truth[i - 1].inverse() @ truth[i])
            assert terr < 0.1, f"scan {i}: {terr:.3f} m"
        assert guessed > 0
