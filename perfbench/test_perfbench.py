"""Tests of the benchmark's own logic.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import numpy as np
import pytest

from lidar_graph_slam.evaluation import TimedPose
from lidar_graph_slam.geometry import PointCloud, Pose, so3_exp
from lidar_graph_slam.loop_closure import LoopCandidate
from lidar_graph_slam.pose_graph import PoseGraph
from lidar_graph_slam.tracker import Keyframe

from checks import failed_frames, loop_edge_errors
from spans import (MIN_TAIL_SAMPLES, Span, Tracer, busy_by_layer,
                   samples_beyond, self_times, summarize, tail_percentile)
from workloads import fast_revisit_trajectory, rounded_square_pose


class TestSelfTime:
    def test_children_are_subtracted_from_their_parent(self):
        spans = [Span("frame", 0.0, 10.0, None, 0),
                 Span("tracker", 1.0, 4.0, 0, 0),
                 Span("pose_graph.optimize", 5.0, 7.0, 0, 0)]
        assert self_times(spans) == [5.0, 3.0, 2.0]

    def test_overlapping_children_count_once_and_are_clipped(self):
        spans = [Span("loop_closure", 0.0, 10.0, None, 3),
                 Span("a", 1.0, 5.0, 0, 3),
                 Span("b", 3.0, 6.0, 0, 3),
                 Span("c", 9.0, 12.0, 0, 3)]
        assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)

    def test_grandchildren_only_reduce_their_own_parent(self):
        spans = [Span("frame", 0.0, 10.0, None, 0),
                 Span("tracker", 0.0, 6.0, 0, 0),
                 Span("registration", 1.0, 5.0, 1, 0)]
        assert self_times(spans) == [4.0, 2.0, 4.0]

    def test_busy_sums_self_time_by_layer(self):
        spans = [Span("frame", 0.0, 10.0, None, 0),
                 Span("pose_graph.add_keyframe", 1.0, 2.0, 0, 0),
                 Span("pose_graph.optimize", 3.0, 6.0, 0, 0)]
        assert busy_by_layer(spans) == {"frame": 6.0, "pose_graph": 4.0}

    def test_tracer_records_nesting_and_frames(self):
        tracer = Tracer()
        with tracer.span("frame", 7):
            with tracer.span("tracker", 7):
                pass
        with tracer.span("pose_graph.optimize", None):
            pass
        names = [(s.name, s.parent, s.frame) for s in tracer.spans]
        assert names == [("frame", None, 7), ("tracker", 0, 7),
                         ("pose_graph.optimize", None, None)]
        assert all(s.end >= s.start for s in tracer.spans)
        assert min(self_times(tracer.spans)) >= 0.0


class TestPercentileSamples:
    def test_p90_of_100_samples_has_ten_beyond(self):
        values = np.arange(1, 101, dtype=float)
        assert samples_beyond(values, 90) == 10
        assert tail_percentile(values) == 90

    def test_tail_drops_to_a_percentile_with_enough_samples(self):
        values = np.arange(1, 51, dtype=float)
        assert samples_beyond(values, 90) == 5
        assert tail_percentile(values) == 75
        assert tail_percentile(np.arange(1000, dtype=float)) == 99

    def test_too_few_samples_support_no_tail(self):
        assert tail_percentile(np.arange(2 * MIN_TAIL_SAMPLES - 1.0)) is None
        assert tail_percentile([]) is None

    def test_ties_at_the_percentile_are_not_beyond_it(self):
        assert samples_beyond([1.0] * 50 + [2.0] * 50, 50) == 50
        assert samples_beyond([1.0] * 100, 50) == 0

    def test_summary_states_the_sample_count(self):
        s = summarize([3.0, 1.0, 2.0])
        assert (s["n"], s["p50"], s["p25"], s["p75"]) == (3, 2.0, 1.5, 2.5)
        assert s["tail_q"] is None
        assert summarize([]) == {"n": 0}


def _keyframe(index, pose, timestamp):
    return Keyframe(PointCloud(np.zeros((1, 3)), None, timestamp), pose,
                    timestamp, 10.0 * index, index)


def _yaw(deg):
    return so3_exp([0.0, 0.0, np.deg2rad(deg)])


class TestFalseLoops:
    """The classifier compares each LOOP edge with the true relative pose."""

    @pytest.fixture
    def world(self):
        truth_poses = [Pose(_yaw(0.0), [0.0, 0.0, 1.7]),
                       Pose(_yaw(90.0), [20.0, 5.0, 1.7]),
                       Pose(_yaw(175.0), [0.5, 0.3, 1.7])]
        truth = [TimedPose(0.1 * i, p) for i, p in enumerate(truth_poses)]
        # Estimates live in another world frame than the truth.
        offset = Pose(_yaw(30.0), [3.0, -2.0, 0.0])
        graph = PoseGraph()
        keyframes = []
        for i, tp in enumerate(truth):
            kf = _keyframe(i, offset @ tp.pose, tp.timestamp)
            graph.add_keyframe(kf)
            keyframes.append(kf)
        true_rel = truth_poses[0].inverse() @ truth_poses[2]
        return graph, keyframes, truth, true_rel

    def _add_loop(self, graph, measurement):
        graph.add_loop(LoopCandidate(2, 0, 0.1, measurement, 0.05))

    def test_true_loop_edge_passes(self, world):
        graph, keyframes, truth, true_rel = world
        self._add_loop(graph, true_rel)
        (err,) = loop_edge_errors(graph, keyframes, truth)
        assert err.trans_m < 1e-9 and err.rot_deg < 1e-6
        assert not err.false

    def test_small_error_within_limits_passes(self, world):
        graph, keyframes, truth, true_rel = world
        self._add_loop(graph, true_rel @ Pose(_yaw(0.6), [0.16, 0.0, 0.0]))
        (err,) = loop_edge_errors(graph, keyframes, truth)
        assert err.trans_m == pytest.approx(0.16)
        assert err.rot_deg == pytest.approx(0.6)
        assert not err.false

    @pytest.mark.parametrize("corruption", [
        Pose(_yaw(0.0), [1.5, 0.0, 0.0]),
        Pose(_yaw(8.0), [0.0, 0.0, 0.0]),
    ])
    def test_corrupted_loop_edge_is_flagged(self, world, corruption):
        graph, keyframes, truth, true_rel = world
        self._add_loop(graph, true_rel @ corruption)
        (err,) = loop_edge_errors(graph, keyframes, truth)
        assert err.false

    def test_only_loop_edges_are_classified(self, world):
        graph, keyframes, truth, _ = world
        assert loop_edge_errors(graph, keyframes, truth) == []


class TestFailedFrames:
    def test_missing_and_non_finite_poses_count_as_failed(self):
        bad = Pose(np.eye(3), [np.nan, 0.0, 0.0])
        traj = [TimedPose(0.0, Pose.identity()), TimedPose(0.1, bad)]
        assert failed_frames(traj, [0.0, 0.1, 0.2]) == 2
        assert failed_frames(traj[:1], [0.0]) == 0


class TestFastRevisitPath:
    def test_lap_two_is_offset_by_half_a_step(self):
        traj = fast_revisit_trajectory()
        xy = np.array([p.translation[:2] for _, p in traj])
        steps = np.linalg.norm(np.diff(xy, axis=0), axis=1)
        assert steps.min() > 2.45 and steps.max() < 2.55
        half = len(traj) // 2
        lap_one = xy[:half]
        gaps = [np.min(np.linalg.norm(lap_one - p, axis=1))
                for p in xy[half + 1:]]
        assert min(gaps) > 1.0

    def test_heading_follows_the_path(self):
        for s in np.linspace(0.0, 170.0, 40):
            pose = rounded_square_pose(s, 50.0, 12.0)
            ahead = rounded_square_pose(s + 0.01, 50.0, 12.0)
            d = ahead.translation - pose.translation
            assert np.allclose(pose.rotation[:, 0][:2],
                               d[:2] / np.linalg.norm(d[:2]), atol=1e-3)
