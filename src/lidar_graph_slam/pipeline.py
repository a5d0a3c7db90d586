"""End-to-end pipeline wiring and batch / realtime-simulation drivers.

Each frame runs one fixed sequence.  Non-finite points are dropped when the
frame is admitted; a scan whose timestamp is not finite stops the run with
``ValueError``, since neither the drop rule nor the trajectory can place it.
The front end pre-filters the scan; the pre-tracker estimates the motion
from the raw cloud (running GICP only when constant motion stops fitting);
then the tracker matches the filtered cloud against the current keyframe,
from the better of that guess and constant motion.
That match computes the filtered cloud's GICP normals, and a keyframe's
kd-tree is built by the first match against it, so only keyframes get one;
a keyframe drops both when the tracker replaces it.
A frame whose match fails keeps its seed as its pose and is counted as
degraded.  When a match makes a new keyframe, the floor is detected in its
filtered cloud and the back end (pose graph, loop closure, optimization)
runs inline.  Only keyframes carry a floor, so no other frame detects one.
The pose graph's nodes are the keyframes, and each solve moves their poses
in place, so the tracker's keyframe and the final trajectory read the
optimized poses with nothing copied back.

The pre-tracker runs "in parallel with the filtering process": one
lookahead worker thread pre-tracks and runs the front ends of up to
``LOOKAHEAD`` frames ahead, in frame order, while the calling thread tracks
frame i and runs the back end.  Until frame i's pre-track and front end are
done, the calling thread runs the queued front ends itself, frame i's first,
and waits only when none is left.  The front end keeps no state, so its
thread changes nothing; the stateful pre-tracker runs only on the worker,
and the tracker, floor and back end only on the calling thread.  Every
module therefore sees the same inputs in the same order as a sequential
run.  A stage exception reaches the caller when its own frame is tracked,
after every earlier frame, and the queued work is then cancelled.

``run_realtime_sim`` runs the same loop on a simulated clock (see
:func:`frame_dropped`); it never sleeps, and every frame is either tracked
or counted as dropped.  A ``SlamPipeline`` runs one sequence: its modules,
frames and latencies belong to that run, so a second call to either driver
raises ``RuntimeError`` before it touches any of them.
"""

from __future__ import annotations

import json
import logging
import math
import os
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence

import numpy as np

from .config import PipelineConfig
from .evaluation import TimedPose, write_tum
from .floor import detect_floor
from .geometry import PointCloud, Pose
from .loop_closure import LoopDetector
from .mapping import build_map, write_ply
from .pose_graph import EDGE_LOOP, PoseGraph
from .prefilter import prefilter
from .pretracker import Pretracker
from .tracker import Keyframe, Tracker

log = logging.getLogger(__name__)

# frames admitted ahead of the one being tracked
LOOKAHEAD = 4


def frame_dropped(arrival: float, starts: Sequence[float],
                  capacity: float) -> bool:
    """The realtime-sim drop rule.

    Frame j arrives at a_j = t_j - t_0, starts at s_j = max(a_j, f_prev) and
    finishes at f_j = s_j + c_j, where c_j is the wall time the loop spent
    on it.  ``starts`` holds s_j of the frames admitted so far, which never
    decrease.  A frame arriving at ``arrival`` is dropped when ``capacity``
    admitted frames have arrived but not yet started; at an infinite
    ``capacity`` none is.
    """
    return len(starts) >= capacity and starts[-capacity] > arrival


def finite_points(cloud: PointCloud) -> PointCloud:
    """The cloud without its NaN or infinite points, logged as a warning;
    a cloud whose points are all finite is returned as it is."""
    finite = np.isfinite(cloud.points).all(axis=1)
    if finite.all():
        return cloud
    log.warning("scan %r at t=%.3f: dropped %d non-finite points",
                cloud.frame_id, cloud.timestamp, len(finite) - finite.sum())
    return PointCloud(cloud.points[finite], None, cloud.timestamp,
                      cloud.frame_id)


def _off(*_args):
    """Stands in for a stage the configuration switches off."""
    return None


@dataclass
class FrameRecord:
    timestamp: float
    keyframe_index: int          # keyframe this frame is expressed against
    relative: Pose


@dataclass
class PipelineResult:
    trajectory: List[TimedPose]
    keyframe_count: int
    loop_count: int              # loop edges in the pose graph
    dropped_frames: int
    # tracked frames whose scan match failed or had no keyframe cloud to
    # match against, so their pose is the tracker's seed
    degraded_frames: int
    runtime_seconds: float
    # Seconds per call of each stage, on the thread that ran it: pretrack
    # (which also computes its phase clouds' k-NN normals) on the lookahead
    # worker, track (which also computes the filtered cloud's voxel GICP
    # normals) on the calling thread, prefilter on whichever ran that frame's
    # front end.  The stages overlap, and the lists are not in frame order.
    # track includes floor, one sample per keyframe, and the back end.
    stage_latencies: Dict[str, List[float]] = field(default_factory=dict)
    # pose-graph solves that stopped at LM's iteration cap, not converged
    unconverged_optimizations: int = 0

    def latency_percentiles(self) -> Dict[str, Dict[str, float]]:
        out = {}
        for stage, vals in self.stage_latencies.items():
            if vals:
                arr = np.array(vals)
                out[stage] = {p: float(np.percentile(arr, q))
                              for p, q in (("p50", 50), ("p90", 90), ("p99", 99))}
        return out


@dataclass
class _Admitted:
    """A frame admitted but not yet tracked."""
    arrival: float          # simulated arrival, seconds after the first scan
    cloud: PointCloud       # its finite points
    pretrack: Future
    front_end: Future       # replaced when the calling thread takes it over


class SlamPipeline:
    """Owns all module instances and their wiring."""

    def __init__(self, cfg: Optional[PipelineConfig] = None):
        self.cfg = cfg or PipelineConfig()
        self.pretracker = Pretracker(self.cfg.pretracker)
        self.tracker = Tracker(self.cfg.registration, self.cfg.keyframes)
        self.loop_detector = LoopDetector(self.cfg.loop, self.cfg.registration,
                                          self.cfg.scan_context)
        self.graph = PoseGraph(np.deg2rad(self.cfg.incline_threshold_deg))
        # the keyframes so far, in order: the graph's node list itself
        self.keyframes: List[Keyframe] = self.graph.nodes
        self.frames: List[FrameRecord] = []
        self.dropped_frames = 0
        self.degraded_frames = 0
        self.unconverged_optimizations = 0
        self._kf_since_opt = 0
        self._ran = False
        self._latencies: Dict[str, List[float]] = {
            "prefilter": [], "floor": [], "pretrack": [], "track": []}

    # -- per-stage handlers -------------------------------------------------

    def _timed(self, stage: str, fn, *args):
        """``fn(*args)``, with its wall time added to ``stage``'s latencies."""
        t0 = time.perf_counter()
        out = fn(*args)
        self._latencies[stage].append(time.perf_counter() - t0)
        return out

    def _do_track(self, filtered: PointCloud, guess: Optional[Pose]):
        result = self.tracker.track(filtered, guess)
        self.degraded_frames += result.degraded
        self.frames.append(FrameRecord(
            filtered.timestamp, self.tracker.keyframe.index,
            Pose.identity() if result.new_keyframe else result.relative))
        if result.new_keyframe is not None:
            floor_coeffs = self._timed(
                "floor", detect_floor if self.cfg.floor_enabled else _off,
                filtered, self.cfg.floor)
            self._on_keyframe(result.new_keyframe,
                              result.odometry_from_previous_keyframe,
                              floor_coeffs)

    def _on_keyframe(self, kf, odometry_rel, floor_coeffs):
        node_id = self.graph.add_keyframe(kf, odometry_rel)
        if floor_coeffs is not None:
            self.graph.add_floor(node_id, floor_coeffs)
        loop_added = False
        if len(self.keyframes) > 1:
            loop = self.loop_detector.detect(kf, self.keyframes)
            # the graph refuses duplicates and half-turn errors it cannot
            # optimize; only an edge it took counts and forces a re-solve
            loop_added = loop is not None and \
                self.graph.add_loop(loop) is not None
        self._kf_since_opt += 1
        if loop_added or self._kf_since_opt >= \
                self.cfg.optimize_every_n_keyframes:
            self._optimize()
            self._kf_since_opt = 0

    def _optimize(self):
        """Re-solve the graph; every keyframe, the tracker's too, moves.  A
        solve that does not converge is counted, and its poses are kept."""
        if len(self.keyframes) < 2:
            return
        if not self.graph.optimize().converged:
            self.unconverged_optimizations += 1

    def _pretrack(self, cloud: PointCloud):
        """Pre-track one frame; runs on the lookahead worker, in frame
        order, and nowhere else."""
        return self._timed("pretrack", self.pretracker.pretrack
                           if self.cfg.pretracker_enabled else _off, cloud)

    def _front_end(self, cloud: PointCloud) -> PointCloud:
        """The filtered cloud; runs on the lookahead worker or, when it
        takes the work over, the calling thread."""
        return self._timed("prefilter", prefilter, cloud, self.cfg.prefilter)

    # kept: a separate pre-filter pool instead lost frames/s and raised RSS
    def _take_over(self, frame: _Admitted) -> bool:
        """Run ``frame``'s front end on this thread if the worker has not
        started it, keeping its result or exception for when the frame is
        tracked; False when the worker has it."""
        if not frame.front_end.cancel():
            return False
        frame.front_end = Future()
        try:
            frame.front_end.set_result(self._front_end(frame.cloud))
        except Exception as exc:
            frame.front_end.set_exception(exc)
        return True

    def _track(self, pending: Deque[_Admitted]) -> float:
        """Track the oldest pending frame on the calling thread; return the
        wall time spent on it, including any front end of a later frame run
        while its own pre-track or front end was not done."""
        t0 = time.perf_counter()
        frame = pending[0]
        while not (frame.pretrack.done() and frame.front_end.done()):
            # only this thread queues work, so once none is left to take
            # over, none will be
            if not any(self._take_over(f) for f in pending):
                wait((frame.pretrack, frame.front_end))
        pre = frame.pretrack.result()
        self._timed("track", self._do_track, frame.front_end.result(),
                    pre.guess if pre is not None else None)
        return time.perf_counter() - t0

    # -- drivers ------------------------------------------------------------

    def run_batch(self, clouds) -> PipelineResult:
        """Track every cloud in order, as fast as the stages run."""
        return self._run(clouds, math.inf)

    def run_realtime_sim(self, clouds) -> PipelineResult:
        """Track clouds on a simulated clock at their recorded rate, dropping
        those that arrive while ``streaming_queue_capacity`` frames wait."""
        if self.cfg.streaming_queue_capacity < 1:
            raise ValueError("streaming_queue_capacity must be positive")
        return self._run(clouds, self.cfg.streaming_queue_capacity)

    def _run(self, clouds, capacity: float) -> PipelineResult:
        """Track ``clouds`` in order, with up to ``LOOKAHEAD`` frames (at
        most ``capacity``) admitted ahead of the one being tracked;
        ``run_batch`` passes an infinite ``capacity``, so it drops no frame.

        ``pending`` holds the admitted frames not yet tracked, oldest first.
        A frame's simulated start is known once the frame before it is
        tracked, so ``starts`` runs up to ``pending[0]`` and lacks the
        ``unknown`` frames behind it.  The drop rule reads the start
        ``capacity`` admitted frames back; as fewer than ``capacity`` are
        unknown, that is ``capacity - unknown`` back in ``starts``.  A
        frame's simulated cost is the wall time :meth:`_track` spent on it,
        which includes the later front ends it ran while waiting.
        """
        if self._ran:
            raise RuntimeError("a SlamPipeline runs once; make a new one "
                               "for another run")
        self._ran = True
        started = time.perf_counter()
        depth = min(LOOKAHEAD, capacity)
        first_ts = None
        starts: List[float] = []    # simulated start of each admitted frame
        pending: Deque[_Admitted] = deque()

        def track_oldest():
            finish = starts[-1] + self._track(pending)
            pending.popleft()
            if pending:
                starts.append(max(pending[0].arrival, finish))

        lookahead = ThreadPoolExecutor(max_workers=1)
        try:
            for position, cloud in enumerate(clouds):
                if not math.isfinite(cloud.timestamp):
                    raise ValueError(
                        f"scan {position} ({cloud.frame_id!r}) has the "
                        f"non-finite timestamp {cloud.timestamp}")
                if first_ts is None:
                    first_ts = cloud.timestamp
                arrival = cloud.timestamp - first_ts
                unknown = max(len(pending) - 1, 0)
                if frame_dropped(arrival, starts, capacity - unknown):
                    self.dropped_frames += 1
                    continue
                if not starts:
                    starts.append(arrival)
                cloud = finite_points(cloud)
                pending.append(_Admitted(
                    arrival, cloud, lookahead.submit(self._pretrack, cloud),
                    lookahead.submit(self._front_end, cloud)))
                if len(pending) > depth:
                    track_oldest()
            while pending:
                track_oldest()
        finally:
            # after a stage error, the queued tasks would otherwise still run
            lookahead.shutdown(cancel_futures=True)
        self._optimize()

        trajectory = self._final_trajectory()
        loops = sum(e.kind == EDGE_LOOP for e in self.graph.edges)
        return PipelineResult(trajectory, len(self.keyframes), loops,
                              self.dropped_frames, self.degraded_frames,
                              time.perf_counter() - started,
                              self._latencies, self.unconverged_optimizations)

    def _final_trajectory(self) -> List[TimedPose]:
        """Per-frame world poses using the optimized keyframe poses."""
        out = []
        for fr in self.frames:
            kf_pose = self.keyframes[fr.keyframe_index].pose
            out.append(TimedPose(fr.timestamp, kf_pose @ fr.relative))
        return out


def run_pipeline(config_path: Optional[str], dataset_dir: str, mode: str,
                 out_dir: str) -> PipelineResult:
    """Load a dataset directory, run SLAM, and write all outputs."""
    from .kitti import discover_sequence, load_kitti_scan

    cfg = PipelineConfig() if config_path is None else \
        PipelineConfig.from_file(config_path)
    if mode not in ("batch", "realtime-sim"):
        raise ValueError(f"unknown mode {mode!r}")
    seq = discover_sequence(dataset_dir)

    def scan_iter():
        for path, ts in zip(seq.scan_paths, seq.timestamps):
            if not os.path.exists(path):
                raise FileNotFoundError(f"scan file missing mid-sequence: {path}")
            yield load_kitti_scan(path, ts)

    pipeline = SlamPipeline(cfg)
    if mode == "batch":
        result = pipeline.run_batch(scan_iter())
    else:
        result = pipeline.run_realtime_sim(scan_iter())

    os.makedirs(out_dir, exist_ok=True)
    write_tum(os.path.join(out_dir, "trajectory.tum"), result.trajectory)
    if pipeline.keyframes:
        world_map = build_map(pipeline.keyframes, cfg.map_resolution)
        write_ply(os.path.join(out_dir, "map.ply"), world_map)
        pipeline.graph.export_g2o(os.path.join(out_dir, "graph.g2o"))
    report = {
        "mode": mode,
        "scans": len(seq),
        "frames": len(result.trajectory),
        "keyframes": result.keyframe_count,
        "loops": result.loop_count,
        "dropped_frames": result.dropped_frames,
        "degraded_frames": result.degraded_frames,
        "unconverged_optimizations": result.unconverged_optimizations,
        "runtime_seconds": result.runtime_seconds,
        "latency_percentiles": result.latency_percentiles(),
    }
    with open(os.path.join(out_dir, "report.json"), "w") as f:
        json.dump(report, f, indent=2)
    return result
