"""SlamPipeline's per-frame wiring, run one stage after another in one thread.

This module calls the same public functions and objects that
``SlamPipeline`` connects through its dispatch queues, in the order in which
the tracker worker consumes them, so on the same scans it must produce the
same keyframes, loops and trajectory as ``SlamPipeline.run_batch``.  The
benchmark checks that on every traced run.  Each call is wrapped in a span
of the layer it enters; with a :class:`spans.NullTracer` the wrappers cost
nothing measurable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from lidar_graph_slam.config import PipelineConfig
from lidar_graph_slam.evaluation import TimedPose
from lidar_graph_slam.floor import detect_floor
from lidar_graph_slam.geometry import Pose
from lidar_graph_slam.loop_closure import LoopDetector
from lidar_graph_slam.pose_graph import (OptimizationReport, PoseGraph,
                                         default_information)
from lidar_graph_slam.prefilter import prefilter
from lidar_graph_slam.pretracker import Pretracker
from lidar_graph_slam.tracker import Tracker


@dataclass
class LayerCounts:
    """Counts read from what each layer's calls return or expose."""

    frames: int = 0
    points_in: int = 0
    points_kept: int = 0
    pretrack_degraded: int = 0
    floor_valid: int = 0
    track_degraded: int = 0
    optimize_reports: List[OptimizationReport] = field(default_factory=list)


class SequentialSlam:
    """Single-threaded twin of ``SlamPipeline`` with the default config."""

    def __init__(self, tracer):
        self.cfg = PipelineConfig()
        self.tracer = tracer
        self.pretracker = Pretracker(self.cfg.pretracker)
        self.tracker = Tracker(self.cfg.registration, self.cfg.keyframes)
        self.loop_detector = LoopDetector(self.cfg.loop, self.cfg.registration,
                                          self.cfg.scan_context)
        self.graph = PoseGraph(np.deg2rad(self.cfg.incline_threshold_deg))
        self.keyframes = []
        self.frames = []     # (timestamp, keyframe index, pose relative to it)
        self.loop_count = 0
        self.counts = LayerCounts()
        self._kf_since_opt = 0

    def run(self, clouds) -> List[TimedPose]:
        span = self.tracer.span
        for i, cloud in enumerate(clouds):
            with span("frame", i):
                with span("prefilter", i):
                    filtered = prefilter(cloud, self.cfg.prefilter)
                with span("pretracker", i):
                    pre = self.pretracker.pretrack(cloud)
                with span("floor", i):
                    floor = detect_floor(filtered, self.cfg.floor)
                with span("tracker", i):
                    result = self.tracker.track(filtered, pre.guess)
                self._count(cloud, filtered, pre, floor, result)
                kf = result.new_keyframe
                self.frames.append((
                    filtered.timestamp,
                    kf.index if kf else self.tracker.keyframe.index,
                    Pose.identity() if kf else result.relative))
                if kf is not None:
                    self._on_keyframe(i, kf,
                                      result.odometry_from_previous_keyframe,
                                      floor)
        self._optimize_and_sync(None)
        return [TimedPose(ts, self.keyframes[k].pose @ rel)
                for ts, k, rel in self.frames]

    def _count(self, cloud, filtered, pre, floor, result):
        c = self.counts
        c.frames += 1
        c.points_in += len(cloud)
        c.points_kept += len(filtered)
        c.pretrack_degraded += pre.degraded
        c.floor_valid += floor.valid
        c.track_degraded += result.degraded

    def _on_keyframe(self, i, kf, odometry_rel, floor):
        span = self.tracer.span
        with span("pose_graph.add_keyframe", i):
            node_id = self.graph.add_keyframe(kf, odometry_rel)
        self.keyframes.append(kf)
        if floor.valid:
            with span("pose_graph.add_floor", i):
                self.graph.add_floor(node_id, floor)
        with span("scan_context", i):
            self.loop_detector.descriptor_for(kf)
        loop = None
        if len(self.keyframes) > 1:
            with span("loop_closure", i):
                loop = self.loop_detector.detect(kf, self.keyframes)
        if loop is not None:
            with span("pose_graph.add_loop", i):
                self.graph.add_loop(loop,
                                    default_information("LOOP", loop.fitness))
            self.loop_count += 1
        self._kf_since_opt += 1
        if loop is not None or \
                self._kf_since_opt >= self.cfg.optimize_every_n_keyframes:
            self._optimize_and_sync(i)
            self._kf_since_opt = 0

    def _optimize_and_sync(self, frame: Optional[int]):
        if len(self.keyframes) < 2:
            return
        with self.tracer.span("pose_graph.optimize", frame):
            report = self.graph.optimize()
        self.counts.optimize_reports.append(report)
        for kf, pose in zip(self.keyframes, self.graph.keyframe_poses()):
            kf.pose = pose
        self.tracker.update_keyframe_pose(self.keyframes[-1].pose)
