"""Keyframe-based tracking."""

import numpy as np
import pytest

from lidar_graph_slam import tracker as tracker_module
from lidar_graph_slam.geometry import PointCloud, Pose, so3_exp
from lidar_graph_slam.registration import RegistrationConfig
from lidar_graph_slam.tracker import (Keyframe, KeyframeCriteria, Tracker,
                                      is_new_keyframe)

from conftest import box_surface_cloud, is_valid_pose, pose_error


def reg_cfg():
    return RegistrationConfig(max_iterations=50,
                              transformation_epsilon=1e-5,
                              max_correspondence_distance=2.0)


class TestKeyframeCriteria:
    def test_any_threshold_fires(self):
        crit = KeyframeCriteria(delta_trans=1.0, delta_angle=0.5, delta_time=2.0)
        small = Pose.identity()
        assert not is_new_keyframe(small, 0.1, crit)
        far = Pose(np.eye(3), np.array([1.5, 0.0, 0.0]))
        assert is_new_keyframe(far, 0.1, crit)
        turned = Pose(so3_exp([0.0, 0.0, 0.6]), np.zeros(3))
        assert is_new_keyframe(turned, 0.1, crit)
        assert is_new_keyframe(small, 2.5, crit)

    def test_thresholds_are_inclusive(self):
        crit = KeyframeCriteria(delta_trans=1.0, delta_angle=0.5, delta_time=2.0)
        exactly = Pose(np.eye(3), np.array([1.0, 0.0, 0.0]))
        assert is_new_keyframe(exactly, 0.0, crit)
        assert is_new_keyframe(Pose.identity(), 2.0, crit)

    def test_negative_dt_raises(self):
        with pytest.raises(ValueError):
            is_new_keyframe(Pose.identity(), -0.1, KeyframeCriteria())

    def test_validation(self):
        with pytest.raises(ValueError):
            KeyframeCriteria(delta_trans=0.0)


class TestTracker:
    def _scene(self, rng):
        return box_surface_cloud(rng, n=2000, size=20.0)

    def test_first_cloud_becomes_keyframe_zero(self, rng):
        tracker = Tracker(reg_cfg())
        res = tracker.track(self._scene(rng))
        assert res.new_keyframe is not None
        assert res.new_keyframe.index == 0
        assert res.new_keyframe.accumulated_distance == 0.0
        assert is_valid_pose(res.pose)
        assert tracker.registration_calls == 0

    def test_static_scene_yields_time_keyframes_only(self, rng):
        # identical clouds at 10 Hz with delta_time = 1 s: frames 0 and 10
        # become keyframes within the first 11 frames
        scene = self._scene(rng)
        crit = KeyframeCriteria(delta_trans=5.0, delta_angle=0.25,
                                delta_time=1.0)
        tracker = Tracker(reg_cfg(), crit)
        kf_frames = []
        for i in range(11):
            cloud = PointCloud(scene.points, timestamp=i * 0.1)
            res = tracker.track(cloud)
            if res.new_keyframe is not None:
                kf_frames.append(i)
            terr, _ = pose_error(res.pose, Pose.identity())
            assert terr < 1e-3
        assert kf_frames == [0, 10]

    def test_motion_triggers_keyframe_and_pose_chains(self, rng):
        scene = self._scene(rng)
        step = Pose(np.eye(3), np.array([1.2, 0.0, 0.0]))
        crit = KeyframeCriteria(delta_trans=3.0, delta_angle=1.0,
                                delta_time=100.0)
        tracker = Tracker(reg_cfg(), crit)
        pose = Pose.identity()
        world = Pose.identity()
        for i in range(6):
            cloud = scene.transformed(world.inverse())
            cloud = PointCloud(cloud.points, timestamp=i * 0.1)
            res = tracker.track(cloud)
            terr, rerr = pose_error(res.pose, world)
            assert terr < 0.05 and rerr < 0.5
            world = world @ step
        # 1.2 m per frame, threshold 3 m: keyframes roughly every 3 frames
        assert tracker.keyframe.index >= 1
        assert tracker.keyframe.accumulated_distance > 0.0

    def test_failed_registration_degrades(self, rng):
        tracker = Tracker(reg_cfg())
        tracker.track(PointCloud(self._scene(rng).points, timestamp=0.0))
        garbage = PointCloud(rng.normal(size=(100, 3)) + 1000.0, timestamp=0.1)
        res = tracker.track(garbage)
        assert res.degraded
        assert res.new_keyframe is None
        assert is_valid_pose(res.pose)

    def test_update_keyframe_pose(self, rng):
        tracker = Tracker(reg_cfg())
        tracker.track(self._scene(rng))
        better = Pose(np.eye(3), np.array([0.0, 0.0, 1.0]))
        tracker.update_keyframe_pose(better)
        terr, _ = pose_error(tracker.keyframe.pose, better)
        assert terr == 0.0


class TestSeedChoice:
    """With a guess, the match starts from whichever of the guess seed and
    the constant-motion seed fits the keyframe better; a tie goes to
    constant motion.  The tracker's constant-motion seed is the identity
    here: one keyframe, no step yet."""

    def _seed_used(self, rng, monkeypatch, moved_by: Pose, guess: Pose,
                   n_points=None):
        scene = box_surface_cloud(rng, n=2000, size=20.0)
        tracker = Tracker(reg_cfg())
        tracker.track(PointCloud(scene.points, timestamp=0.0))
        real_align = tracker_module.align
        seeds = []

        def recording(source, target, seed, cfg):
            seeds.append(seed)
            return real_align(source, target, seed, cfg)

        monkeypatch.setattr(tracker_module, "align", recording)
        cloud = scene.transformed(moved_by.inverse())
        tracker.track(PointCloud(cloud.points[:n_points], timestamp=0.1),
                      guess)
        assert len(seeds) == 1
        return seeds[0]

    def test_off_guess_loses_to_constant_motion(self, rng, monkeypatch):
        off = Pose(np.eye(3), np.array([1.5, -1.0, 0.0]))
        seed = self._seed_used(rng, monkeypatch, Pose.identity(), off)
        np.testing.assert_array_equal(seed.matrix(), np.eye(4))

    def test_guess_wins_when_constant_motion_is_off(self, rng, monkeypatch):
        motion = Pose(so3_exp([0.0, 0.0, 0.05]), np.array([1.5, 0.5, 0.0]))
        seed = self._seed_used(rng, monkeypatch, motion, motion)
        np.testing.assert_array_equal(seed.matrix(), motion.matrix())

    def test_cloud_too_small_to_score_keeps_the_guess(self, rng,
                                                      monkeypatch):
        # 100 points leave a sample of 7, too few to score: the guess seed
        # is kept, though it would lose to constant motion on a full cloud
        off = Pose(np.eye(3), np.array([1.5, -1.0, 0.0]))
        seed = self._seed_used(rng, monkeypatch, Pose.identity(), off,
                               n_points=100)
        np.testing.assert_array_equal(seed.matrix(), off.matrix())

    def test_tie_goes_to_constant_motion(self, rng, monkeypatch):
        # both seeds leave every sampled point beyond the correspondence
        # bound, so both fitness values are the capped maximum
        far = Pose(np.eye(3), np.array([500.0, 0.0, 0.0]))
        guess = Pose(np.eye(3), np.array([0.0, 500.0, 0.0]))
        seed = self._seed_used(rng, monkeypatch, far, guess)
        np.testing.assert_array_equal(seed.matrix(), np.eye(4))
