"""Coarse multi-scale motion estimation."""

from dataclasses import replace

import numpy as np
import pytest

from lidar_graph_slam import pretracker as pretracker_module
from lidar_graph_slam.geometry import PointCloud, Pose
from lidar_graph_slam.pretracker import (Pretracker, PretrackerConfig,
                                         downsample_to_fraction)

from conftest import box_surface_cloud, pose_error, random_pose


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


class TestPretracker:
    def _dense_scene(self, rng, n=8000):
        return PointCloud(np.vstack([
            box_surface_cloud(rng, n=n // 2, size=20.0).points,
            box_surface_cloud(rng, n=n // 2, size=8.0).points + 3.0]))

    def test_first_cloud_gives_identity(self, rng):
        pre = Pretracker()
        res = pre.pretrack(self._dense_scene(rng))
        assert res.phases_run == 0 and not res.degraded
        terr, rerr = pose_error(res.guess, Pose.identity())
        assert terr == 0.0 and rerr == 0.0

    def test_estimates_motion_between_scans(self, rng):
        scene = self._dense_scene(rng)
        motion = random_pose(rng, 0.8, 0.03)
        pre = Pretracker()
        pre.pretrack(scene)
        res = pre.pretrack(scene.transformed(motion.inverse()))
        assert res.phases_run == 2
        terr, rerr = pose_error(res.guess, motion)
        assert terr < 0.3
        assert rerr < 2.0

    def test_large_cloud_runs_single_phase(self, rng):
        scene = PointCloud(rng.uniform(-30, 30, size=(70_000, 3)))
        pre = Pretracker()
        pre.pretrack(scene)
        res = pre.pretrack(scene)
        assert res.phases_run == 1
        assert pre.registration_calls == 1

    def test_constant_velocity_fallback(self, rng):
        scene = self._dense_scene(rng)
        motion = Pose(np.eye(3), np.array([0.5, 0.0, 0.0]))
        pre = Pretracker()
        pre.pretrack(scene)
        moved = scene.transformed(motion.inverse())
        pre.pretrack(moved)
        # a garbage cloud with no overlap: fall back to the last motion
        garbage = PointCloud(rng.normal(size=(400, 3)) + 500.0)
        res = pre.pretrack(garbage)
        assert res.degraded
        terr, _ = pose_error(res.guess, motion)
        assert terr < 0.3

    def test_registration_call_budget(self, rng):
        scene = self._dense_scene(rng)
        pre = Pretracker()
        for _ in range(4):
            pre.pretrack(scene)
        # first cloud is free; each later cloud runs at most two phases
        assert pre.registration_calls <= 6

    def test_failed_phase_two_returns_last_motion(self, rng, monkeypatch):
        scene = self._dense_scene(rng)
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
        res = pre.pretrack(moved.transformed(back))
        assert calls[0] < calls[1]            # phase 1 on the smaller cloud
        assert res.degraded and res.phases_run == 2
        np.testing.assert_array_equal(res.guess.matrix(), first.guess.matrix())

    @pytest.mark.parametrize("sizes", [(8000, 4000), (4000, 8000)],
                             ids=["large-then-small", "small-then-large"])
    def test_large_cloud_on_either_side_runs_one_phase(self, rng, sizes):
        pre = Pretracker(PretrackerConfig(large_cloud_threshold=6000))
        pre.pretrack(self._dense_scene(rng, sizes[0]))
        res = pre.pretrack(self._dense_scene(rng, sizes[1]))
        assert res.phases_run == 1
        assert pre.registration_calls == 1
