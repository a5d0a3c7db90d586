"""System-level acceptance suite.

Each test certifies one externally observable guarantee of the toolkit on
synthetic data with analytic ground truth; the final test additionally runs
against KITTI odometry sequence 07 when the dataset is available locally.
"""

import os
import time

import numpy as np
import pytest
from scipy.spatial import cKDTree

from lidar_graph_slam.config import PipelineConfig
from lidar_graph_slam.evaluation import TimedPose, evaluate_trajectories
from lidar_graph_slam.floor import detect_floor
from lidar_graph_slam.geometry import PointCloud, Pose, se3_exp, so3_exp
from lidar_graph_slam.kitti import discover_sequence, load_kitti_scan
from lidar_graph_slam.loop_closure import LoopCandidate, LoopConfig, LoopDetector
from lidar_graph_slam.pipeline import SlamPipeline
from lidar_graph_slam.pose_graph import PoseGraph
from lidar_graph_slam.prefilter import prefilter, remove_outliers, voxel_downsample
from lidar_graph_slam.pretracker import Pretracker
from lidar_graph_slam.registration import (RegistrationConfig,
                                           _gicp_cost, _gicp_normal_equations,
                                           align)
from lidar_graph_slam.scan_context import (ScanContextParams,
                                           descriptor_distances,
                                           make_scan_context)
from lidar_graph_slam.synthetic import (make_world, render_scan,
                                        render_sequence,
                                        square_loop_trajectory,
                                        straight_then_curve_trajectory)
from lidar_graph_slam.tracker import Keyframe, Tracker

from conftest import (box_surface_cloud, knn_gicp_normals, pose_error,
                      random_pose)


def trajectory_xy(traj):
    return np.array([[p.translation[0], p.translation[1]] for _, p in traj])


def tracker_only_trajectory(clouds):
    """Front-end only: pre-filter, pre-track, track; no graph, no loops."""
    cfg = PipelineConfig()
    pre = Pretracker(cfg.pretracker)
    trk = Tracker(cfg.registration, cfg.keyframes)
    out = []
    for cloud in clouds:
        filtered = prefilter(cloud, cfg.prefilter)
        guess = pre.pretrack(cloud).guess
        out.append(TimedPose(cloud.timestamp, trk.track(filtered, guess).pose))
    return out


@pytest.fixture(scope="module")
def loop_sequence():
    traj = square_loop_trajectory(side=50.0, step=1.0, overshoot=11.0)
    world = make_world(trajectory_xy(traj), seed=1, corridor=12.0)
    clouds, truth = render_sequence(world, traj, max_range=30.0, curl=0.002)
    truth_tp = [TimedPose(c.timestamp, p) for c, p in zip(clouds, truth)]
    return clouds, truth_tp


class TestLoopRing:
    """A ~200 m square loop with a systematic per-scan warp that biases the
    scan-to-scan odometry.  The front end alone drifts by meters; the full
    pipeline must find the loop and pull the trajectory back."""

    def test_full_pipeline_closes_the_loop(self, loop_sequence):
        clouds, truth = loop_sequence
        assert len(clouds) >= 190

        result = SlamPipeline().run_batch(clouds)
        assert result.runtime_seconds < 60.0
        assert result.loop_count >= 1

        pipeline_ate = evaluate_trajectories(result.trajectory, truth).rmse
        tracker_ate = evaluate_trajectories(
            tracker_only_trajectory(clouds), truth).rmse
        assert tracker_ate > 2.0
        assert pipeline_ate < 0.5


class TestNoLoopRobustness:
    """A straight-then-curve path never revisits any place: the loop
    detector must stay silent and the front end must stay below 1% drift."""

    def test_no_false_loops_and_low_drift(self):
        traj = straight_then_curve_trajectory(straight=110.0,
                                              curve_radius=40.0,
                                              curve_angle=1.0, step=1.0)
        world = make_world(trajectory_xy(traj), seed=4, corridor=12.0)
        clouds, truth = render_sequence(world, traj, max_range=30.0)
        assert len(clouds) >= 150
        truth_tp = [TimedPose(c.timestamp, p)
                    for c, p in zip(clouds, truth)]
        steps = np.diff(trajectory_xy(traj), axis=0)
        path_length = float(np.sum(np.linalg.norm(steps, axis=1)))

        result = SlamPipeline().run_batch(clouds)
        assert result.loop_count == 0
        ate = evaluate_trajectories(result.trajectory, truth_tp).rmse
        assert ate < 0.01 * path_length


class TestGroundOptimization:
    """The straight-then-curve scans with a pitch warp: each point is
    pitched about the sensor's y axis by k * x radians, x its forward
    coordinate, so scan matching drifts in height and pitch.  The floor
    edges against the fixed ground plane must take that drift out."""

    K = 0.0005

    @classmethod
    def pitched(cls, cloud):
        p = cloud.points
        ang = cls.K * p[:, 0]
        c, s = np.cos(ang), np.sin(ang)
        return PointCloud(np.column_stack([c * p[:, 0] + s * p[:, 2], p[:, 1],
                                           c * p[:, 2] - s * p[:, 0]]),
                          None, cloud.timestamp)

    def test_floor_removes_pitch_drift(self):
        traj = straight_then_curve_trajectory(straight=110.0,
                                              curve_radius=40.0,
                                              curve_angle=1.0, step=1.0)
        world = make_world(trajectory_xy(traj), seed=4, corridor=12.0)
        clouds, truth = render_sequence(world, traj, max_range=30.0)
        clouds = [self.pitched(c) for c in clouds]
        truth_tp = [TimedPose(c.timestamp, p)
                    for c, p in zip(clouds, truth)]
        ate = {}
        for floor in (True, False):
            cfg = PipelineConfig()
            cfg.floor_enabled = floor
            result = SlamPipeline(cfg).run_batch(clouds)
            ate[floor] = evaluate_trajectories(result.trajectory,
                                               truth_tp).rmse
        assert ate[True] < 0.1
        assert ate[True] <= ate[False] / 5.0


class TestRegistrationRecovery:
    """The matcher must recover random small motions on noiseless pairs."""

    def test_100_random_pairs(self):
        rng = np.random.default_rng(11)
        cfg = RegistrationConfig(max_iterations=100,
                                 transformation_epsilon=1e-6,
                                 max_correspondence_distance=2.0)
        for _ in range(100):
            target = box_surface_cloud(rng, n=500)
            truth = random_pose(rng, 1.0, np.deg2rad(10.0))
            source = target.transformed(truth.inverse())
            res = align(source, target, cfg=cfg)
            terr, rerr = pose_error(res.transform, truth)
            assert terr < 1e-3
            assert rerr < 0.05

    def test_gicp_gradient_matches_finite_differences(self):
        """2 g[:3], the translation gradient the Gauss-Newton solver steps
        on, against central differences of the GICP cost.  g[3:] leaves out
        the rotation dependence of the combined covariance, as Gauss-Newton
        does, so it is not the exact rotation gradient."""
        rng = np.random.default_rng(12)
        worst = 0.0
        for _ in range(20):
            cloud_a = box_surface_cloud(rng, n=100)
            cloud_b = PointCloud(cloud_a.points
                                 + rng.normal(scale=0.05, size=(100, 3)))
            args = (cloud_a.points, cloud_b.points,
                    knn_gicp_normals(cloud_a, k=10),
                    knn_gicp_normals(cloud_b, k=10))
            transform = random_pose(rng, 0.3, 0.1)
            _, g, _ = _gicp_normal_equations(*args, transform)
            h = 1e-6
            fd = np.zeros(3)
            for j in range(3):
                delta = np.zeros(6)
                delta[j] = h
                cp = _gicp_cost(*args, se3_exp(delta) @ transform)
                cm = _gicp_cost(*args, se3_exp(-delta) @ transform)
                fd[j] = (cp - cm) / (2.0 * h)
            scale = max(1.0, float(np.max(np.abs(fd))))
            worst = max(worst, float(np.max(np.abs(2.0 * g[:3] - fd))) / scale)
        assert worst < 1e-5


class TestPoseGraphRing:
    """Drifted 20-node odometry ring plus one exact loop edge."""

    def test_ring_closure(self):
        n = 20
        truth = []
        for i in range(n):
            a = 2.0 * np.pi * i / n
            truth.append(Pose(so3_exp([0.0, 0.0, a + np.pi / 2]),
                              [10.0 * np.cos(a), 10.0 * np.sin(a), 0.0]))
        graph = PoseGraph()
        drift = np.array([0.01, 0.0, 0.0, 0.0, 0.0, 0.015])
        graph.add_keyframe(Keyframe(PointCloud(np.zeros((1, 3))), truth[0],
                                    0.0, 0.0, 0))
        for i in range(1, n):
            rel = truth[i - 1].inverse() @ truth[i]
            graph.add_keyframe(
                Keyframe(PointCloud(np.zeros((1, 3))), Pose.identity(),
                         float(i), float(i), i),
                odometry_rel=rel @ se3_exp(drift))

        fixed_id = graph.keyframe_node_ids[0]
        fixed_before = (graph.nodes[fixed_id].pose.rotation.tobytes(),
                        graph.nodes[fixed_id].pose.translation.tobytes())
        endpoint_before, _ = pose_error(graph.keyframe_poses()[-1], truth[-1])

        loop_rel = truth[0].inverse() @ truth[-1]
        graph.add_loop(LoopCandidate(n - 1, 0, 0.0, loop_rel, fitness=0.05))
        report = graph.optimize(max_iterations=50)

        endpoint_after, _ = pose_error(graph.keyframe_poses()[-1], truth[-1])
        assert endpoint_after <= 0.1 * endpoint_before
        assert all(b <= a + 1e-9 for a, b in
                   zip(report.chi2_trace, report.chi2_trace[1:]))
        node = graph.nodes[fixed_id]
        assert node.pose.rotation.tobytes() == fixed_before[0]
        assert node.pose.translation.tobytes() == fixed_before[1]


class TestFloorDetection:
    """Plane recovery rates on constructed floor+wall scenes."""

    @staticmethod
    def _scene(rng):
        xy = rng.uniform(-12.0, 12.0, size=(1500, 2))
        floor = np.column_stack([xy, np.full(1500, -1.7)])
        yz = rng.uniform(-2.0, 2.0, size=(600, 2))
        wall = np.column_stack([np.full(600, 8.0), yz[:, 0], yz[:, 1]])
        pts = np.vstack([floor, wall])
        return PointCloud(pts + rng.normal(scale=0.01, size=pts.shape))

    def test_planar_success_rate_over_100_seeds(self):
        successes = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            coeffs = detect_floor(self._scene(rng))
            if not coeffs.valid:
                continue
            angle = np.degrees(np.arccos(np.clip(coeffs.c, -1.0, 1.0)))
            if angle <= 0.5 and abs(coeffs.d - 1.7) <= 0.02:
                successes += 1
        assert successes >= 99


class TestScanContextProperties:
    def test_sector_multiple_yaw_is_exact_column_shift(self):
        rng = np.random.default_rng(21)
        params = ScanContextParams()
        ring = rng.integers(1, params.rings, size=500)
        sector = rng.integers(0, params.sectors, size=500)
        radius = (ring + 0.5) / params.rings * params.max_range
        azimuth = (sector + 0.5) * params.sector_width
        cloud = PointCloud(np.column_stack([
            radius * np.cos(azimuth), radius * np.sin(azimuth),
            rng.uniform(-1.8, 3.0, size=500)]))
        for m in (1, 9, 31, 58):
            rotated = cloud.transformed(
                Pose(so3_exp([0.0, 0.0, m * params.sector_width]), np.zeros(3)))
            a = make_scan_context(cloud, params)
            b = make_scan_context(rotated, params)
            np.testing.assert_array_equal(b, np.roll(a, m, axis=1))

    def test_revisit_ranked_first_in_100_trials(self):
        places = []
        spot = Pose(np.eye(3), np.array([0.0, 0.0, 0.0]))
        for seed in range(5):
            world = make_world(np.array([[0.0, 0.0], [10.0, 0.0]]),
                               seed=seed + 30, corridor=15.0)
            places.append(world)
        base_grids = np.stack([
            make_scan_context(render_scan(w, spot, 0.0, max_range=40.0))
            for w in places])

        rng = np.random.default_rng(22)
        for trial in range(100):
            p = trial % 5
            jitter = Pose(so3_exp([0.0, 0.0, rng.uniform(-np.pi, np.pi)]),
                          np.array([rng.uniform(-0.5, 0.5),
                                    rng.uniform(-0.5, 0.5), 0.0]))
            query_scan = render_scan(places[p], jitter, 0.0, max_range=40.0)
            query = make_scan_context(query_scan)
            dists, _ = descriptor_distances(query, base_grids)
            assert int(np.argmin(dists)) == p

    def test_one_registration_per_query(self):
        world = make_world(np.array([[0.0, 0.0], [10.0, 0.0]]), seed=40,
                           corridor=12.0)
        scan = render_scan(world, Pose.identity(), 0.0, max_range=30.0)
        cfg = LoopConfig(descriptor_distance_threshold=1.1)
        detector = LoopDetector(cfg)
        keyframes = [Keyframe(scan, Pose.identity(), float(i), 0.0, i)
                     for i in range(20)]
        query = Keyframe(scan, Pose.identity(), 99.0, 100.0, 99)
        # every candidate is under the threshold; only the nearest is
        # registered
        detector.detect(query, keyframes)
        assert detector.registration_calls == 1


class TestFilterEquivalence:
    def test_outlier_removal_matches_ball_count(self):
        rng = np.random.default_rng(31)
        for i in range(10):
            pts = np.vstack([
                rng.normal(scale=8.0, size=(60_000, 3)),
                rng.uniform(-50.0, 50.0, size=(40_000, 3)),
            ])
            m = (1, 2, 3, 5)[i % 4]
            counts = cKDTree(pts).query_ball_point(pts, 0.5, return_length=True)
            np.testing.assert_array_equal(
                remove_outliers(PointCloud(pts), 0.5, m).points,
                pts[counts - 1 >= m])

    def test_voxel_downsample_idempotent(self):
        rng = np.random.default_rng(32)
        pts = rng.uniform(-30.0, 30.0, size=(50_000, 3))
        once = voxel_downsample(PointCloud(pts), 0.4)
        twice = voxel_downsample(once, 0.4)
        np.testing.assert_array_equal(twice.points, once.points)


class TestEvaluationMath:
    def test_moment_identity_to_1e12(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            base = Pose.identity()
            truth, est = [], []
            for i in range(50):
                base = base @ random_pose(rng, 0.5, 0.1)
                truth.append(TimedPose(0.1 * i, base))
                est.append(TimedPose(0.1 * i, Pose(
                    base.rotation,
                    base.translation + rng.normal(scale=0.5, size=3))))
            report = evaluate_trajectories(est, truth, align=False)
            assert abs(report.std ** 2 + report.mean ** 2
                       - report.rmse ** 2) < 1e-12

    def test_constant_offset_is_exact(self):
        rng = np.random.default_rng(42)
        base = Pose.identity()
        truth = []
        for i in range(30):
            base = base @ random_pose(rng, 0.5, 0.1)
            truth.append(TimedPose(0.1 * i, base))
        offset = np.array([3.0, 0.0, -4.0])            # norm exactly 5
        est = [TimedPose(t.timestamp,
                         Pose(t.pose.rotation, t.pose.translation + offset))
               for t in truth]
        unaligned = evaluate_trajectories(est, truth, align=False)
        assert unaligned.mean == pytest.approx(5.0, abs=1e-12)
        assert unaligned.rmse == pytest.approx(5.0, abs=1e-12)
        aligned = evaluate_trajectories(est, truth, align=True)
        assert aligned.rmse < 1e-9


KITTI_ENV = "KITTI_SEQ07_DIR"
KITTI_DEFAULTS = [
    "/data/kitti/odometry/sequences/07",
    os.path.expanduser("~/data/kitti/odometry/sequences/07"),
]


def _find_kitti_seq07():
    candidates = ([os.environ[KITTI_ENV]] if KITTI_ENV in os.environ else [])
    candidates += KITTI_DEFAULTS
    for c in candidates:
        if os.path.isdir(os.path.join(c, "velodyne")):
            return c
    return None


class TestKittiSequence07:
    """Extended check against real data; runs only when the dataset exists."""

    def test_low_drift_loop_closed_run(self):
        root = _find_kitti_seq07()
        if root is None:
            pytest.skip(f"KITTI sequence 07 not found (set ${KITTI_ENV})")
        seq = discover_sequence(root)
        if seq.ground_truth is None:
            pytest.skip("sequence 07 has no poses.txt ground truth")
        clouds = (load_kitti_scan(p, t)
                  for p, t in zip(seq.scan_paths, seq.timestamps))

        started = time.perf_counter()
        result = SlamPipeline().run_batch(clouds)
        elapsed = time.perf_counter() - started
        duration = seq.timestamps[-1] - seq.timestamps[0]
        assert elapsed <= 3.0 * duration

        truth = [TimedPose(t, p) for t, p in
                 zip(seq.timestamps, seq.ground_truth)]
        report = evaluate_trajectories(result.trajectory, truth)
        assert result.loop_count >= 1
        assert report.rmse <= 1.5
