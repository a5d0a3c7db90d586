"""Trajectory I/O, association, and absolute trajectory error."""

import numpy as np
import pytest

from lidar_graph_slam.evaluation import (AssociationError, TimedPose,
                                         associate, compute_ate,
                                         evaluate_trajectories, read_tum,
                                         write_tum)
from lidar_graph_slam.geometry import Pose, kabsch

from conftest import pose_error, random_pose


def trajectory(rng, n=20, dt=0.1):
    out = []
    pose = Pose.identity()
    for i in range(n):
        pose = pose @ random_pose(rng, 0.5, 0.1)
        out.append(TimedPose(i * dt, pose))
    return out


class TestTumIo:
    def test_roundtrip(self, tmp_path, rng):
        traj = trajectory(rng)
        path = tmp_path / "traj.tum"
        write_tum(str(path), traj)
        back = read_tum(str(path))
        assert len(back) == len(traj)
        for a, b in zip(traj, back):
            assert b.timestamp == pytest.approx(a.timestamp, abs=1e-6)
            terr, rerr = pose_error(b.pose, a.pose)
            assert terr < 1e-8 and rerr < 1e-6

    def test_read_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "traj.tum"
        path.write_text("# header\n\n0.0 1 2 3 0 0 0 1\n")
        traj = read_tum(str(path))
        assert len(traj) == 1
        np.testing.assert_allclose(traj[0].pose.translation, [1, 2, 3])

    def test_comment_after_the_values_is_skipped(self, tmp_path):
        path = tmp_path / "traj.tum"
        path.write_text("0.0 1 2 3 0 0 0 1  # start\n0.1 4 5 6 0 0 0 1#\n")
        traj = read_tum(str(path))
        assert [tp.timestamp for tp in traj] == [0.0, 0.1]
        np.testing.assert_allclose(traj[1].pose.translation, [4, 5, 6])

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "traj.tum"
        path.write_text("0.0 1 2 3\n")
        with pytest.raises(ValueError):
            read_tum(str(path))

    @pytest.mark.parametrize("bad_line", ["0.1 1 2 3 0 0 inf 1",
                                          "0.1 nan 2 3 0 0 0 1"],
                             ids=["inf_quaternion", "nan_translation"])
    def test_non_finite_field_raises_naming_the_line(self, tmp_path,
                                                     bad_line):
        # an inf quaternion used to read as a valid pose (ATE 0.0), a nan
        # translation to fail later inside the ATE's SVD
        path = tmp_path / "traj.tum"
        path.write_text(f"0.0 1 2 3 0 0 0 1\n{bad_line}\n")
        with pytest.raises(ValueError, match=r"traj\.tum:2: non-finite"):
            read_tum(str(path))

    def test_zero_norm_quaternion_raises_naming_the_line(self, tmp_path):
        path = tmp_path / "traj.tum"
        path.write_text("0.0 1 2 3 0 0 0 1\n0.1 1 2 3 0 0 0 0\n")
        with pytest.raises(ValueError,
                           match=r"traj\.tum:2: zero-norm quaternion in TUM "
                                 r"line: '0\.1 1 2 3 0 0 0 0'"):
            read_tum(str(path))

    def test_non_numeric_field_raises_naming_the_line(self, tmp_path):
        path = tmp_path / "traj.tum"
        path.write_text("0.0 1 2 3 0 0 0 1\n0.1 abc 2 3 0 0 0 1\n")
        with pytest.raises(ValueError,
                           match=r"traj\.tum:2: non-numeric field: "
                                 r"'0\.1 abc 2 3 0 0 0 1'"):
            read_tum(str(path))


class TestAssociate:
    def test_exact_timestamps(self, rng):
        traj = trajectory(rng)
        pairs = associate(traj, traj)
        assert pairs == [(i, i) for i in range(len(traj))]

    def test_offset_within_tolerance(self, rng):
        truth = trajectory(rng)
        est = [TimedPose(t.timestamp + 0.02, t.pose) for t in truth]
        pairs = associate(est, truth, max_dt=0.05)
        assert pairs == [(i, i) for i in range(len(truth))]

    def test_beyond_tolerance_raises(self, rng):
        truth = trajectory(rng)
        est = [TimedPose(t.timestamp + 10.0, t.pose) for t in truth]
        with pytest.raises(AssociationError):
            associate(est, truth, max_dt=0.05)

    def test_truth_pose_used_at_most_once(self, rng):
        truth = [TimedPose(0.0, Pose.identity())]
        est = [TimedPose(0.0, Pose.identity()), TimedPose(0.01, Pose.identity())]
        pairs = associate(est, truth, max_dt=0.05)
        assert len(pairs) == 1

    def test_empty_raises(self):
        with pytest.raises(AssociationError):
            associate([], [TimedPose(0.0, Pose.identity())])


class TestRigidAlignment:
    def test_recovers_applied_transform(self, rng):
        truth = random_pose(rng, 5.0, 1.0)
        pts = rng.normal(size=(30, 3))
        est = kabsch(pts, truth.apply(pts))
        terr, rerr = pose_error(est, truth)
        assert terr < 1e-10 and rerr < 1e-8

    def test_no_reflection(self, rng):
        # mirrored data must still yield a proper rotation (det = +1)
        src = rng.normal(size=(30, 3))
        dst = src * np.array([1.0, 1.0, -1.0])
        est = kabsch(src, dst)
        assert np.linalg.det(est.rotation) == pytest.approx(1.0)

    def test_collinear_points_are_aligned(self, rng):
        # rank-1 input, as from a straight trajectory: the rotation about
        # the line is free, but a proper one maps every point onto dst
        truth = random_pose(rng, 5.0, 1.0)
        src = np.outer(np.arange(10.0), [1.0, 0.0, 0.0])
        est = kabsch(src, truth.apply(src))
        assert np.linalg.det(est.rotation) == pytest.approx(1.0)
        np.testing.assert_allclose(est.apply(src), truth.apply(src),
                                   rtol=0, atol=1e-9)


class TestComputeAte:
    def test_identical_trajectories_zero_error(self, rng):
        traj = trajectory(rng)
        report = evaluate_trajectories(traj, traj, align=False)
        assert report.rmse < 1e-12
        assert report.mean < 1e-12

    def test_constant_offset_unaligned_is_exact(self, rng):
        truth = trajectory(rng)
        offset = np.array([3.0, -4.0, 0.0])     # norm exactly 5
        est = [TimedPose(t.timestamp, Pose(t.pose.rotation,
                                           t.pose.translation + offset))
               for t in truth]
        report = evaluate_trajectories(est, truth, align=False)
        assert report.mean == pytest.approx(5.0, abs=1e-12)
        assert report.rmse == pytest.approx(5.0, abs=1e-12)
        assert report.std == pytest.approx(0.0, abs=1e-6)

    def test_constant_offset_aligned_vanishes(self, rng):
        truth = trajectory(rng)
        offset = np.array([3.0, -4.0, 0.0])
        est = [TimedPose(t.timestamp, Pose(t.pose.rotation,
                                           t.pose.translation + offset))
               for t in truth]
        report = evaluate_trajectories(est, truth, align=True)
        assert report.rmse < 1e-9
        assert report.alignment is not None
        np.testing.assert_allclose(report.alignment.translation, -offset,
                                   atol=1e-9)

    def test_moment_identity(self, rng):
        truth = trajectory(rng)
        est = [TimedPose(t.timestamp,
                         Pose(t.pose.rotation,
                              t.pose.translation + rng.normal(scale=0.3,
                                                              size=3)))
               for t in truth]
        report = evaluate_trajectories(est, truth, align=False)
        assert abs(report.std ** 2 + report.mean ** 2
                   - report.rmse ** 2) < 1e-12

    def test_needs_two_pairs(self, rng):
        one = [TimedPose(0.0, Pose.identity())]
        with pytest.raises(ValueError):
            compute_ate([(0, 0)], one, one)

    def test_per_pose_errors_match_summary(self, rng):
        truth = trajectory(rng)
        est = [TimedPose(t.timestamp,
                         Pose(t.pose.rotation,
                              t.pose.translation + rng.normal(size=3)))
               for t in truth]
        report = evaluate_trajectories(est, truth, align=False)
        assert report.mean == pytest.approx(np.mean(report.per_pose_errors))
        assert report.rmse == pytest.approx(
            np.sqrt(np.mean(report.per_pose_errors ** 2)))
