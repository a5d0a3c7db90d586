"""End-to-end pipeline wiring, outputs, and the command-line interface."""

import json
import os
import sys
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from lidar_graph_slam import kitti as kitti_module
from lidar_graph_slam import pipeline as pipeline_module
from lidar_graph_slam import registration as registration_module
from lidar_graph_slam import tracker as tracker_module
from lidar_graph_slam.cli import main as cli_main
from lidar_graph_slam.config import PipelineConfig
from lidar_graph_slam.evaluation import (TimedPose, evaluate_trajectories,
                                         read_tum, write_tum)
from lidar_graph_slam.floor import detect_floor
from lidar_graph_slam.geometry import PointCloud, Pose, so3_exp
from lidar_graph_slam.loop_closure import LoopCandidate
from lidar_graph_slam.pipeline import (SlamPipeline, frame_dropped,
                                       run_pipeline)
from lidar_graph_slam.pose_graph import OptimizationReport, PoseGraph
from lidar_graph_slam.prefilter import prefilter
from lidar_graph_slam.pretracker import Pretracker
from lidar_graph_slam.registration import align
from lidar_graph_slam.synthetic import (make_world, render_sequence,
                                        straight_then_curve_trajectory,
                                        write_kitti_sequence)


@pytest.fixture(scope="module")
def straight_run():
    """A short drift-free straight sequence with ground truth."""
    traj = straight_then_curve_trajectory(straight=28.0, curve_radius=40.0,
                                          curve_angle=0.05, step=1.0)
    xy = np.array([[t.translation[0], t.translation[1]] for _, t in traj])
    world = make_world(xy, seed=2, corridor=12.0)
    clouds, truth = render_sequence(world, traj, max_range=30.0)
    truth_tp = [TimedPose(c.timestamp, p) for c, p in zip(clouds, truth)]
    return clouds, truth_tp


@pytest.fixture(scope="module")
def burst_clouds():
    """69 scans 10 us apart, far closer than any frame takes to track, so
    arrivals outrun the pipeline however fast it tracks."""
    traj = straight_then_curve_trajectory(straight=66.0, curve_radius=40.0,
                                          curve_angle=0.05, step=1.0,
                                          rate_hz=1e5)
    xy = np.array([[t.translation[0], t.translation[1]] for _, t in traj])
    world = make_world(xy, seed=2, corridor=12.0)
    clouds, _ = render_sequence(world, traj, max_range=30.0)
    assert len(clouds) == 69
    return clouds


class TestBatchRun:
    def test_tracks_accurately_without_loops(self, straight_run):
        clouds, truth = straight_run
        pipeline = SlamPipeline()
        result = pipeline.run_batch(clouds)
        assert len(result.trajectory) == len(clouds)
        assert result.keyframe_count >= 2
        assert result.loop_count == 0
        assert result.dropped_frames == 0
        assert result.degraded_frames == 0
        report = evaluate_trajectories(result.trajectory, truth)
        assert report.rmse < 0.3
        # per-stage latencies were recorded
        pct = result.latency_percentiles()
        assert {"prefilter", "pretrack", "track", "floor"} <= set(pct)
        assert all(v["p50"] >= 0.0 for v in pct.values())

    def test_deterministic_across_runs(self, straight_run, tmp_path):
        clouds, _ = straight_run
        paths = []
        for name in ("a.tum", "b.tum"):
            result = SlamPipeline().run_batch(clouds)
            path = tmp_path / name
            write_tum(str(path), result.trajectory)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_tracker_keyframe_is_the_last_keyframe(self, straight_run):
        # the pipeline moves the tracker's keyframe only as its last
        # keyframe, so the two must be one object after every frame
        clouds, _ = straight_run
        same = []

        class Checked(SlamPipeline):
            def _track(self, pending):
                wall = super()._track(pending)
                same.append(self.tracker.keyframe is self.keyframes[-1])
                return wall

        pipeline = Checked()
        pipeline.run_batch(clouds)
        assert len(same) == len(clouds) and all(same)
        tracked = pipeline.tracker.keyframe.pose
        last = pipeline.graph.keyframe_poses()[-1]
        assert tracked.rotation.tobytes() == last.rotation.tobytes()
        assert tracked.translation.tobytes() == last.translation.tobytes()

    def test_keyframes_are_the_graph_nodes(self, straight_run):
        # one keyframe list, the graph's; each solve moves its poses in
        # place, and the result's loops are the graph's loop edges
        clouds, _ = straight_run
        pipeline = SlamPipeline()
        result = pipeline.run_batch(clouds)
        assert pipeline.keyframes is pipeline.graph.nodes
        assert result.keyframe_count == len(pipeline.keyframes) >= 2
        poses = pipeline.graph.keyframe_poses()
        assert len(poses) == len(pipeline.keyframes)
        for i, pose in enumerate(poses):
            assert pose is pipeline.keyframes[i].pose
        assert result.loop_count == sum(
            e.kind == "LOOP" for e in pipeline.graph.edges)

    def test_modules_can_be_disabled(self, straight_run):
        clouds, truth = straight_run
        cfg = PipelineConfig()
        cfg.pretracker_enabled = False
        cfg.floor_enabled = False
        result = SlamPipeline(cfg).run_batch(clouds[:12])
        assert len(result.trajectory) == 12
        report = evaluate_trajectories(result.trajectory,
                                       truth[:12])
        assert report.rmse < 0.3


class TestDegradedFrames:
    def test_failed_match_is_counted_and_still_tracked(self, straight_run,
                                                       monkeypatch):
        # the tracker's fifth match (frame 5; frame 0 is the first
        # keyframe) fails; the loop verifier's matches are left alone
        clouds = straight_run[0][:12]
        real_align = tracker_module.align
        calls = []

        def fifth_fails(source, target, guess, cfg):
            calls.append(source.timestamp)
            res = real_align(source, target, guess, cfg)
            return replace(res, valid=False) if len(calls) == 5 else res

        monkeypatch.setattr(tracker_module, "align", fifth_fails)
        result = SlamPipeline().run_batch(clouds)
        assert result.degraded_frames == 1
        _assert_every_frame_tracked(result, 12)
        assert calls[4] == clouds[5].timestamp
        assert clouds[5].timestamp in [tp.timestamp
                                       for tp in result.trajectory]


class TestRunOnce:
    @pytest.mark.parametrize("first, second", [
        ("run_batch", "run_batch"), ("run_batch", "run_realtime_sim"),
        ("run_realtime_sim", "run_batch")])
    def test_second_run_raises_before_touching_state(self, straight_run,
                                                     first, second):
        clouds = straight_run[0][:6]
        pipeline = SlamPipeline()
        result = getattr(pipeline, first)(clouds)
        tracks = len(result.stage_latencies["track"])
        keyframes = len(pipeline.keyframes)

        def untouched():
            raise AssertionError("the second run read its input")
            yield

        with pytest.raises(RuntimeError, match="runs once"):
            getattr(pipeline, second)(untouched())
        assert len(result.trajectory) == len(pipeline.frames) == 6
        assert len(result.stage_latencies["track"]) == tracks == 6
        assert len(pipeline.keyframes) == keyframes
        assert pipeline.dropped_frames == 0


class TestRealtimeSim:
    def test_feeds_at_recorded_rate(self, straight_run):
        clouds, _ = straight_run
        subset = clouds[:10]
        result = SlamPipeline().run_realtime_sim(subset)
        # the queue holds all 10 scans, so none is dropped and the simulated
        # clock changes nothing: the output is the batch output
        assert result.dropped_frames == 0
        batch = SlamPipeline().run_batch(subset)
        assert [(tp.timestamp, tp.pose.matrix().tobytes())
                for tp in result.trajectory] == \
            [(tp.timestamp, tp.pose.matrix().tobytes())
             for tp in batch.trajectory]

    def test_every_frame_tracked_or_dropped(self, burst_clouds):
        cfg = PipelineConfig()
        cfg.streaming_queue_capacity = 2
        result = SlamPipeline(cfg).run_realtime_sim(burst_clouds)
        assert result.dropped_frames > 0
        assert len(result.trajectory) + result.dropped_frames == 69

    def test_drop_rule_on_fixed_costs(self):
        """Scans 1 s apart, each costing 2.5 s, behind queues of one to
        three, against a reference schedule built from the drop rule alone.

        With a queue of two, admitted frames start at 0, 2.5, 5, 7.5, 10
        and 12.5 s.  Frame 4 arrives at 4 s while frames 2 and 3 wait for
        their starts at 5 and 7.5 s, so it is dropped; frame 5 arrives as
        frame 2 starts and is admitted.
        """
        scans = _one_second_scans()
        for capacity in (1, 2, 3):
            tracked = _fixed_cost_tracked(scans, capacity)[0]
            expected = _reference_schedule(
                [s.timestamp - 100.0 for s in scans], 2.5, capacity)
            assert tracked == expected
            if capacity == 2:
                assert tracked == [0, 1, 2, 3, 5, 8]
                assert len(scans) - len(tracked) == 4
        assert not frame_dropped(5.0, [0.0, 2.5, 5.0], 2)
        assert frame_dropped(4.0, [0.0, 2.5, 5.0, 7.5], 2)

    @pytest.mark.parametrize("capacity, in_flight", [
        (None, 4),     # run_batch
        (1, 1),
        (2, 2),
        (3, 3),
        (5, 4)])
    def test_front_ends_in_flight(self, capacity, in_flight):
        """While a frame is tracked, min(LOOKAHEAD, capacity) later frames
        at most are admitted, whose pre-tracks and front ends may run
        meanwhile; every scan is tracked or dropped."""
        scans = _one_second_scans()
        tracked, ahead, dropped = _fixed_cost_tracked(scans, capacity)
        assert max(ahead) == in_flight
        assert len(tracked) + dropped == len(scans)
        if capacity is None:
            assert tracked == list(range(10))

    def test_capacity_must_be_positive(self, straight_run):
        cfg = PipelineConfig()
        cfg.streaming_queue_capacity = 0
        with pytest.raises(ValueError):
            SlamPipeline(cfg).run_realtime_sim(straight_run[0][:2])


def _reference_schedule(arrivals, cost, capacity):
    """Frames admitted by the drop rule when every frame costs ``cost``."""
    starts, tracked, finish = [], [], 0.0
    for j, arrival in enumerate(arrivals):
        if frame_dropped(arrival, starts, capacity):
            continue
        starts.append(max(arrival, finish))
        finish = starts[-1] + cost
        tracked.append(j)
    return tracked


def _one_second_scans():
    """Ten point-less scans 1 s apart, each carrying its index."""
    return [SimpleNamespace(index=j, timestamp=100.0 + j,
                            points=np.empty((0, 3))) for j in range(10)]


def _fixed_cost_tracked(scans, capacity):
    """Run scans through a pipeline whose frames each cost 2.5 s; return
    the tracked indices, the frames admitted beyond each tracked frame and
    the dropped count."""
    tracked, ahead = [], []

    class FixedCost(SlamPipeline):
        def _pretrack(self, cloud):
            return None

        def _front_end(self, cloud):
            return cloud.index

        def _track(self, pending):
            tracked.append(pending[0].front_end.result())
            ahead.append(len(pending) - 1)
            return 2.5

    cfg = PipelineConfig()
    if capacity is None:
        result = FixedCost(cfg).run_batch(scans)
    else:
        cfg.streaming_queue_capacity = capacity
        result = FixedCost(cfg).run_realtime_sim(scans)
    return tracked, ahead, result.dropped_frames


def _hold_worker(monkeypatch, clouds):
    """Keep the lookahead worker in frame 0's pre-track until frame
    LOOKAHEAD's front end starts, so that the calling thread runs the front
    ends of frames 0 to LOOKAHEAD itself; return the (thread, timestamp) of
    every prefilter call."""
    released = threading.Event()
    prefiltered = []
    real_prefilter = pipeline_module.prefilter
    real_pretrack = Pretracker.pretrack

    def recording_prefilter(cloud, cfg):
        prefiltered.append((threading.get_ident(), cloud.timestamp))
        if cloud.timestamp == clouds[pipeline_module.LOOKAHEAD].timestamp:
            released.set()
        return real_prefilter(cloud, cfg)

    def holding_pretrack(pretracker, cloud):
        if cloud.timestamp == clouds[0].timestamp:
            assert released.wait(timeout=60), "the worker was never released"
        return real_pretrack(pretracker, cloud)

    monkeypatch.setattr(pipeline_module, "prefilter", recording_prefilter)
    monkeypatch.setattr(Pretracker, "pretrack", holding_pretrack)
    return prefiltered


def _pose_bytes(result):
    return [(tp.timestamp, tp.pose.matrix().tobytes())
            for tp in result.trajectory]


class TestSchedule:
    """Which thread runs a front end changes no pose."""

    def test_caller_runs_front_ends_while_the_worker_is_held(
            self, straight_run, monkeypatch):
        clouds = straight_run[0]
        expected = _pose_bytes(SlamPipeline().run_batch(clouds))
        prefiltered = _hold_worker(monkeypatch, clouds)
        result = SlamPipeline().run_batch(clouds)
        caller = threading.get_ident()
        held = {c.timestamp for c in clouds[:pipeline_module.LOOKAHEAD + 1]}
        assert {thread for thread, ts in prefiltered if ts in held} == \
            {caller}
        assert _pose_bytes(result) == expected

    def test_fast_thread_switching_loses_no_sample(self, straight_run):
        # both threads append stage latencies and hand front ends over;
        # switching threads every microsecond would expose a lost update
        clouds = straight_run[0][:12]
        expected = _pose_bytes(SlamPipeline().run_batch(clouds))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            result = SlamPipeline().run_batch(clouds)
        finally:
            sys.setswitchinterval(interval)
        assert _pose_bytes(result) == expected
        for stage in ("prefilter", "pretrack", "track"):
            assert len(result.stage_latencies[stage]) == len(clouds)

    def test_caller_that_never_takes_over_a_front_end(self, straight_run,
                                                       monkeypatch):
        clouds = straight_run[0]
        expected = _pose_bytes(SlamPipeline().run_batch(clouds))
        threads = []
        real_prefilter = pipeline_module.prefilter

        def recording_prefilter(cloud, cfg):
            threads.append(threading.get_ident())
            return real_prefilter(cloud, cfg)

        monkeypatch.setattr(pipeline_module, "prefilter", recording_prefilter)
        monkeypatch.setattr(Future, "cancel", lambda future: False)
        result = SlamPipeline().run_batch(clouds)
        assert len(threads) == len(clouds)
        assert threading.get_ident() not in threads
        assert _pose_bytes(result) == expected


class TestStageErrors:
    def test_front_end_error_reaches_the_caller(self, straight_run,
                                               monkeypatch):
        clouds, _ = straight_run
        real = pipeline_module.prefilter
        calls = []

        def failing_on_fifth(cloud, cfg):
            calls.append(cloud.timestamp)
            if len(calls) == 5:
                raise RuntimeError("prefilter failed on frame 5")
            return real(cloud, cfg)

        monkeypatch.setattr(pipeline_module, "prefilter", failing_on_fifth)
        with pytest.raises(RuntimeError, match="frame 5"):
            SlamPipeline().run_batch(clouds[:8])

    def test_error_in_a_front_end_the_caller_ran_waits_for_its_frame(
            self, straight_run, monkeypatch):
        clouds = straight_run[0][:12]
        _hold_worker(monkeypatch, clouds)
        held_prefilter = pipeline_module.prefilter
        failed_on, tracked = [], []
        real_track = tracker_module.Tracker.track

        def failing_on_frame_2(cloud, cfg):
            if cloud.timestamp == clouds[2].timestamp:
                failed_on.append(threading.get_ident())
                raise RuntimeError("prefilter failed on frame 2")
            return held_prefilter(cloud, cfg)

        def recording_track(tracker, cloud, guess):
            tracked.append(cloud.timestamp)
            return real_track(tracker, cloud, guess)

        monkeypatch.setattr(pipeline_module, "prefilter", failing_on_frame_2)
        monkeypatch.setattr(tracker_module.Tracker, "track", recording_track)
        with pytest.raises(RuntimeError, match="frame 2"):
            SlamPipeline().run_batch(clouds)
        assert failed_on == [threading.get_ident()]
        assert tracked == [clouds[0].timestamp, clouds[1].timestamp]

    def test_stage_error_cancels_the_queued_work(self, straight_run,
                                                 monkeypatch):
        """Once a stage error reaches the caller, no queued pre-track or
        front end starts.  The worker is held in frame 4's pre-track until
        the pipeline has shut its pool down, so any queued task the
        shutdown did not cancel would start after the release."""
        clouds = straight_run[0][:12]
        released = threading.Event()
        started = []    # (stage, whether the worker was released by then)
        real_prefilter = pipeline_module.prefilter
        real_pretrack = Pretracker.pretrack

        def failing_on_frame_2(cloud, cfg):
            started.append(("prefilter", released.is_set()))
            if cloud.timestamp == clouds[2].timestamp:
                raise RuntimeError("prefilter failed on frame 2")
            return real_prefilter(cloud, cfg)

        def holding_pretrack(pretracker, cloud):
            started.append(("pretrack", released.is_set()))
            if cloud.timestamp == clouds[4].timestamp:
                assert released.wait(timeout=60), "never released"
            return real_pretrack(pretracker, cloud)

        class ReleasingPool(ThreadPoolExecutor):
            def shutdown(self, wait=True, *, cancel_futures=False):
                super().shutdown(wait=False, cancel_futures=cancel_futures)
                released.set()
                super().shutdown(wait=wait)

        monkeypatch.setattr(pipeline_module, "prefilter", failing_on_frame_2)
        monkeypatch.setattr(Pretracker, "pretrack", holding_pretrack)
        monkeypatch.setattr(pipeline_module, "ThreadPoolExecutor",
                            ReleasingPool)
        with pytest.raises(RuntimeError, match="frame 2"):
            SlamPipeline().run_batch(clouds)
        assert released.is_set()
        assert not any(after for _, after in started)
        # frames 5 and 6 were admitted, but their pre-tracks never started
        assert sum(stage == "pretrack" for stage, _ in started) <= 5

    def test_floor_error_on_a_keyframe_reaches_the_caller(self, straight_run,
                                                          monkeypatch):
        clouds, _ = straight_run
        real = pipeline_module.detect_floor
        calls = []

        def failing_on_second(cloud, cfg):
            calls.append(cloud.timestamp)
            if len(calls) == 2:
                raise RuntimeError("floor failed on keyframe 1")
            return real(cloud, cfg)

        monkeypatch.setattr(pipeline_module, "detect_floor",
                            failing_on_second)
        with pytest.raises(RuntimeError, match="keyframe 1"):
            SlamPipeline().run_batch(clouds[:12])
        assert len(calls) == 2


def _assert_every_frame_tracked(result, n_frames):
    assert result.dropped_frames == 0
    assert len(result.trajectory) == n_frames
    assert all(np.isfinite(tp.pose.matrix()).all()
               for tp in result.trajectory)


class TestDegenerateScans:
    """Degenerate input in scan 5 of a 12-scan run: every frame is still
    tracked.  Scan 4 is not a keyframe, so even a timestamp before it
    comes after the current keyframe's."""

    @pytest.mark.parametrize("case", ["empty", "five_points",
                                      "one_point_after_outlier_removal",
                                      "duplicate_timestamp",
                                      "50ms_before_previous"])
    def test_run_completes(self, straight_run, case):
        clouds = straight_run[0][:12]
        scan, prev = clouds[5], clouds[4]
        points, timestamp = {
            "empty": (np.empty((0, 3)), scan.timestamp),
            "five_points": (scan.points[:5], scan.timestamp),
            "one_point_after_outlier_removal": (
                [[5.0, 0.0, 0.0], [5.3, 0.0, 0.0], [4.7, 0.0, 0.0]],
                scan.timestamp),
            "duplicate_timestamp": (scan.points, prev.timestamp),
            "50ms_before_previous": (scan.points, prev.timestamp - 0.05),
        }[case]
        clouds[5] = PointCloud(points, None, timestamp, scan.frame_id)
        _assert_every_frame_tracked(SlamPipeline().run_batch(clouds), 12)

    @pytest.mark.parametrize("n_points", [0, 5])
    def test_first_scan_too_small_to_match(self, straight_run, n_points):
        # the next scan takes the unmatchable keyframe's place, so tracking
        # goes on
        clouds, truth = list(straight_run[0]), straight_run[1]
        scan = clouds[0]
        clouds[0] = PointCloud(scan.points[:n_points], None, scan.timestamp,
                               scan.frame_id)
        result = SlamPipeline().run_batch(clouds)
        _assert_every_frame_tracked(result, len(clouds))
        assert result.keyframe_count >= 2
        assert evaluate_trajectories(result.trajectory, truth).rmse < 0.3

    def test_scan_before_the_current_keyframe(self, straight_run):
        # keyframes at 0.0 and 0.5 s; scan 7 comes back to 0.45 s
        clouds = straight_run[0][:12]
        scan = clouds[7]
        clouds[7] = PointCloud(scan.points, None, 0.45, scan.frame_id)
        pipeline = SlamPipeline()
        _assert_every_frame_tracked(pipeline.run_batch(clouds), 12)
        assert [kf.timestamp for kf in pipeline.keyframes][:2] == \
            pytest.approx([0.0, 0.5])

    def test_non_finite_points_dropped_with_warning(self, straight_run,
                                                    caplog):
        clouds = straight_run[0][:12]
        pts = clouds[5].points.copy()
        pts[::50, 1] = np.nan
        pts[7, 0] = np.inf
        n_bad = len(pts[::50]) + 1
        clouds[5] = PointCloud(pts, None, clouds[5].timestamp)
        with caplog.at_level("WARNING", logger="lidar_graph_slam.pipeline"):
            result = SlamPipeline().run_batch(clouds)
        _assert_every_frame_tracked(result, 12)
        warnings = [rec.getMessage() for rec in caplog.records]
        assert len(warnings) == 1
        assert f"dropped {n_bad} non-finite points" in warnings[0]
        assert caplog.records[0].thread == threading.get_ident()


class TestNonFiniteTimestamp:
    @pytest.mark.parametrize("driver", ["run_batch", "run_realtime_sim"])
    @pytest.mark.parametrize("position, stamp", [(0, np.nan), (3, np.inf),
                                                 (3, np.nan)])
    def test_scan_is_refused_by_position_and_frame_id(
            self, straight_run, driver, position, stamp):
        # a scan without a time can be neither dropped nor placed
        clouds = straight_run[0][:6]
        scan = clouds[position]
        clouds[position] = PointCloud(scan.points, None, stamp, "scan_x")
        refused = f"scan {position} \\('scan_x'\\) has the non-finite"
        with pytest.raises(ValueError, match=refused):
            getattr(SlamPipeline(), driver)(clouds)


class TestRejectedLoop:
    def test_half_turn_loop_is_not_counted(self, straight_run):
        # a verified loop whose rotation contradicts the graph by a half
        # turn cannot be optimized; the graph refuses it and the run goes on
        clouds, _ = straight_run
        pipeline = SlamPipeline()
        real = pipeline.loop_detector.detect
        offered = []

        def half_turn_once(kf, keyframes):
            if offered:
                return real(kf, keyframes)
            poses = pipeline.graph.keyframe_poses()
            half_turn = Pose(so3_exp([0.0, 0.0, np.pi]), np.zeros(3))
            offered.append(LoopCandidate(
                kf.index, 0, 0.0,
                poses[0].inverse() @ poses[-1] @ half_turn, fitness=0.01))
            return offered[-1]

        pipeline.loop_detector.detect = half_turn_once
        result = pipeline.run_batch(clouds[:12])
        assert len(offered) == 1
        assert result.loop_count == 0
        assert len(result.trajectory) == 12
        assert not [e for e in pipeline.graph.edges if e.kind == "LOOP"]


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory, straight_run):
    clouds, truth = straight_run
    root = tmp_path_factory.mktemp("dataset")
    write_kitti_sequence(str(root), clouds, [tp.pose for tp in truth])
    return str(root)


@pytest.fixture(scope="module")
def burst_dataset_dir(tmp_path_factory, burst_clouds):
    root = tmp_path_factory.mktemp("burst_dataset")
    write_kitti_sequence(str(root), burst_clouds)
    return str(root)


@pytest.fixture(scope="module")
def short_dataset_dir(tmp_path_factory, straight_run):
    clouds, _ = straight_run
    root = tmp_path_factory.mktemp("cli_dataset")
    write_kitti_sequence(str(root), clouds[:12])
    return str(root)


class TestUnconvergedOptimizations:
    def test_every_unconverged_solve_is_counted(self, straight_run,
                                                 monkeypatch):
        calls = []

        def capped_optimize(graph, max_iterations=20):
            calls.append(graph)
            return OptimizationReport(1.0, 1.0, max_iterations, False)

        monkeypatch.setattr(PoseGraph, "optimize", capped_optimize)
        result = SlamPipeline().run_batch(straight_run[0])
        assert len(calls) >= 2
        assert result.unconverged_optimizations == len(calls)


class TestRunPipeline:
    def test_writes_all_outputs(self, dataset_dir, tmp_path, straight_run):
        _, truth = straight_run
        out = tmp_path / "out"
        result = run_pipeline(None, dataset_dir, "batch", str(out))
        for name in ("trajectory.tum", "map.ply", "graph.g2o", "report.json"):
            assert (out / name).exists(), name
        report = json.loads((out / "report.json").read_text())
        assert report["frames"] == len(truth)
        assert report["keyframes"] == result.keyframe_count
        assert report["loops"] == 0
        assert report["degraded_frames"] == result.degraded_frames == 0
        assert report["unconverged_optimizations"] \
            == result.unconverged_optimizations == 0
        est = read_tum(str(out / "trajectory.tum"))
        ate = evaluate_trajectories(est, truth)
        assert ate.rmse < 0.3

    def test_realtime_report_accounts_for_every_scan(self, burst_dataset_dir,
                                                     tmp_path):
        out = tmp_path / "out_rt"
        run_pipeline(None, burst_dataset_dir, "realtime-sim", str(out))
        report = json.loads((out / "report.json").read_text())
        assert report["scans"] == 69
        assert report["frames"] + report["dropped_frames"] == report["scans"]

    def test_config_file_is_honored(self, dataset_dir, tmp_path):
        conf = tmp_path / "slam.conf"
        conf.write_text("keyframe_delta_trans = 2.0\n")
        out = tmp_path / "out_cfg"
        result = run_pipeline(str(conf), dataset_dir, "batch", str(out))
        # halving the keyframe spacing produces more keyframes
        baseline = run_pipeline(None, dataset_dir, "batch",
                                str(tmp_path / "out_base"))
        assert result.keyframe_count > baseline.keyframe_count

    def test_scan_missing_mid_sequence_raises(self, tmp_path, straight_run,
                                              monkeypatch):
        # scan 3 is listed when the sequence is found, then deleted while
        # scan 0 loads
        root = tmp_path / "vanishing"
        write_kitti_sequence(str(root), straight_run[0][:6])
        scans = sorted((root / "velodyne").iterdir())
        real_load = kitti_module.load_kitti_scan

        def load_and_delete(path, ts):
            if scans[3].exists():
                scans[3].unlink()
            return real_load(path, ts)

        monkeypatch.setattr(kitti_module, "load_kitti_scan", load_and_delete)
        out = tmp_path / "out_missing"
        with pytest.raises(FileNotFoundError,
                           match=f"scan file missing mid-sequence: "
                                 f".*{scans[3].name}"):
            run_pipeline(None, str(root), "batch", str(out))
        assert not out.exists()

    def test_missing_config_raises(self, dataset_dir, tmp_path):
        with pytest.raises(FileNotFoundError):
            run_pipeline(str(tmp_path / "nope.conf"), dataset_dir, "batch",
                         str(tmp_path / "o"))

    def test_unknown_mode_raises(self, dataset_dir, tmp_path):
        with pytest.raises(ValueError):
            run_pipeline(None, dataset_dir, "warp", str(tmp_path / "o"))


class TestCli:
    def test_run_subcommand(self, short_dataset_dir, tmp_path, capsys):
        out = tmp_path / "cli_out"
        code = cli_main(["run", "--dataset", short_dataset_dir,
                         "--out", str(out)])
        assert code == 0
        assert (out / "trajectory.tum").exists()
        assert "VERTEX_SE3:QUAT" in (out / "graph.g2o").read_text()
        printed = capsys.readouterr().out
        assert "keyframes:" in printed and "degraded: 0" in printed

    def test_eval_subcommand(self, straight_run, tmp_path, capsys):
        _, truth = straight_run
        est_path = tmp_path / "est.tum"
        truth_path = tmp_path / "truth.tum"
        write_tum(str(est_path), truth)
        write_tum(str(truth_path), truth)
        code = cli_main(["eval", "--est", str(est_path),
                         "--truth", str(truth_path)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rmse"] < 1e-6
        assert report["pairs"] == len(truth)

    def test_errors_exit_with_code_2(self, tmp_path, capsys):
        code = cli_main(["run", "--dataset", str(tmp_path / "missing"),
                         "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("estimate", ["empty", "five_seconds_late"])
    def test_eval_without_associations_exits_with_code_2(
            self, straight_run, tmp_path, capsys, estimate):
        _, truth = straight_run
        est_path = tmp_path / "est.tum"
        truth_path = tmp_path / "truth.tum"
        write_tum(str(truth_path), truth)
        if estimate == "empty":
            est_path.write_text("")
        else:
            write_tum(str(est_path), [TimedPose(t.timestamp + 5.0, t.pose)
                                      for t in truth[:1]])
        code = cli_main(["eval", "--est", str(est_path),
                         "--truth", str(truth_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_eval_non_numeric_field_exits_with_code_2(
            self, straight_run, tmp_path, capsys):
        _, truth = straight_run
        est_path = tmp_path / "est.tum"
        truth_path = tmp_path / "truth.tum"
        write_tum(str(truth_path), truth)
        est_path.write_text("0.0 1 2 3 0 0 0 1\nabc 1 2 3 0 0 0 1\n")
        code = cli_main(["eval", "--est", str(est_path),
                         "--truth", str(truth_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {est_path}:2: non-numeric field: " in err
        assert "'abc 1 2 3 0 0 0 1'" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_eval_non_finite_field_exits_with_code_2(
            self, straight_run, tmp_path, capsys, value):
        _, truth = straight_run
        est_path = tmp_path / "est.tum"
        truth_path = tmp_path / "truth.tum"
        write_tum(str(truth_path), truth)
        est_path.write_text(f"0.0 1 2 3 0 0 0 1\n0.1 1 {value} 3 0 0 0 1\n")
        code = cli_main(["eval", "--est", str(est_path),
                         "--truth", str(truth_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {est_path}:2: non-finite value: " in err
        assert f"'0.1 1 {value} 3 0 0 0 1'" in err

    def test_eval_zero_norm_quaternion_exits_with_code_2(
            self, straight_run, tmp_path, capsys):
        _, truth = straight_run
        est_path = tmp_path / "est.tum"
        truth_path = tmp_path / "truth.tum"
        write_tum(str(truth_path), truth)
        est_path.write_text("0.0 1 2 3 0 0 0 0\n")
        code = cli_main(["eval", "--est", str(est_path),
                         "--truth", str(truth_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {est_path}:1: zero-norm quaternion in TUM line" in err
        assert "'0.0 1 2 3 0 0 0 0'" in err


class TestStagePlacement:
    """The tracker builds each filtered cloud's GICP normals, and a
    keyframe's kd-tree, once, on the calling thread; the worker alone
    pre-tracks, every frame in order."""

    def test_alignment_state_is_built_once_inside_track(
            self, straight_run, monkeypatch):
        clouds = straight_run[0][:8]
        caller = threading.get_ident()
        # (event, points, built on the calling thread inside Tracker.track)
        events, filtered, tracking = [], {}, [False]
        real_prefilter = pipeline_module.prefilter
        real_normals = registration_module.voxel_normals
        real_track = tracker_module.Tracker.track

        def recording_prefilter(cloud, cfg):
            out = real_prefilter(cloud, cfg)
            filtered[cloud.timestamp] = out
            return out

        def building(event, points):
            inside = tracking[0] and threading.get_ident() == caller
            events.append((event, points, inside))

        class RecordingTree(registration_module.KdTree):
            def __init__(self, points):
                building("tree", points)
                super().__init__(points)

        def recording_normals(points):
            building("normals", points)
            return real_normals(points)

        def recording_track(tracker, cloud, guess):
            events.append(("track", cloud.points, False))
            tracking[0] = True
            try:
                return real_track(tracker, cloud, guess)
            finally:
                tracking[0] = False

        monkeypatch.setattr(pipeline_module, "prefilter", recording_prefilter)
        monkeypatch.setattr(registration_module, "KdTree", RecordingTree)
        monkeypatch.setattr(registration_module, "voxel_normals",
                            recording_normals)
        monkeypatch.setattr(tracker_module.Tracker, "track", recording_track)
        SlamPipeline().run_batch(clouds)

        for cloud in clouds:
            points = filtered[cloud.timestamp].points
            mine = [(event, inside) for event, pts, inside in events
                    if pts is points]
            assert mine[0] == ("track", False)
            assert all(inside for _, inside in mine[1:])
            built = [event for event, _ in mine[1:]]
            assert built.count("normals") == 1 and built.count("tree") <= 1

    def test_only_keyframe_clouds_carry_a_kdtree(self, straight_run,
                                                 monkeypatch):
        # a retired keyframe drops its tree, so every tree built during the
        # run is recorded, with the points it was built over
        filtered, tree_points = [], []
        real_prefilter = pipeline_module.prefilter

        def recording_prefilter(cloud, cfg):
            filtered.append(real_prefilter(cloud, cfg))
            return filtered[-1]

        class RecordingTree(registration_module.KdTree):
            def __init__(self, points):
                tree_points.append(points)
                super().__init__(points)

        monkeypatch.setattr(pipeline_module, "prefilter", recording_prefilter)
        monkeypatch.setattr(registration_module, "KdTree", RecordingTree)
        pipeline = SlamPipeline()
        pipeline.run_batch(straight_run[0])

        keyframe_ids = {id(kf.cloud) for kf in pipeline.keyframes}
        with_tree = [c for c in filtered
                     if any(np.shares_memory(c.points, points)
                            for points in tree_points)]
        assert len(with_tree) >= 2
        assert {id(c) for c in with_tree} <= keyframe_ids
        assert len(with_tree) < len(filtered)

    def test_pretrack_runs_on_the_worker_in_frame_order(self, straight_run,
                                                        monkeypatch):
        clouds = straight_run[0][:8]
        pretracked = []
        real_pretrack = Pretracker.pretrack

        def recording_pretrack(pretracker, cloud):
            pretracked.append((threading.get_ident(), cloud.timestamp))
            return real_pretrack(pretracker, cloud)

        monkeypatch.setattr(Pretracker, "pretrack", recording_pretrack)
        SlamPipeline().run_batch(clouds)

        threads = {thread for thread, _ in pretracked}
        assert len(threads) == 1
        assert threading.get_ident() not in threads
        assert [ts for _, ts in pretracked] == [c.timestamp for c in clouds]

    def test_floor_runs_once_per_keyframe_on_the_calling_thread(
            self, straight_run, monkeypatch):
        clouds = straight_run[0][:12]
        floors = []
        real = pipeline_module.detect_floor

        def recording_floor(cloud, cfg):
            floors.append((threading.get_ident(), cloud))
            return real(cloud, cfg)

        monkeypatch.setattr(pipeline_module, "detect_floor", recording_floor)
        pipeline = SlamPipeline()
        result = pipeline.run_batch(clouds)

        assert result.keyframe_count >= 2
        assert len(floors) == result.keyframe_count
        assert all(thread == threading.get_ident() for thread, _ in floors)
        assert all(cloud is kf.cloud
                   for (_, cloud), kf in zip(floors, pipeline.keyframes))
        assert len(result.stage_latencies["floor"]) == result.keyframe_count


class TestFrontEndStartsNoThreads:
    """The front end shares the lookahead worker with nothing else, and the
    tracker runs on the caller: neither may start threads of its own."""

    def test_front_end_and_gicp_run_on_the_calling_thread(self, straight_run,
                                                           monkeypatch):
        clouds = straight_run[0][:2]
        cfg = PipelineConfig()

        def refuse(thread):
            raise AssertionError(f"thread {thread.name!r} started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        filtered = [prefilter(c, cfg.prefilter) for c in clouds]
        assert detect_floor(filtered[1], cfg.floor).valid
        pretracker = Pretracker(cfg.pretracker)
        pretracker.pretrack(clouds[0])
        pre = pretracker.pretrack(clouds[1])
        assert pre.phases_run == 2 and not pre.degraded
        res = align(filtered[1], filtered[0], pre.guess, cfg.registration)
        assert res.valid
