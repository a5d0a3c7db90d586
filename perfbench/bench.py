"""Workload runs, checks and metrics behind ``run.py``."""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import List

import numpy
import scipy

from lidar_graph_slam.evaluation import AssociationError, evaluate_trajectories
from lidar_graph_slam.pipeline import SlamPipeline

from checks import accuracy_gates, failed_frames, loop_edge_errors
from sequential import SequentialSlam
from spans import NullTracer, Tracer, busy_by_layer, summarize
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# Set-up is timed this many times before the measured passes and after them.
# Hosts like the 2-vCPU VM this was tuned on switch between a fast state and
# one about 30% slower every few seconds; two windows far apart make the
# median of the set-up times less bimodal than one window would.
SETUP_BEFORE, SETUP_AFTER = 6, 5
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
              "NUMEXPR_NUM_THREADS")


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def source_digest() -> str:
    """SHA-256 over the program's sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment() -> dict:
    return {"commit": git_commit(), "src_sha256": source_digest(),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "thread_env": {k: os.environ.get(k) for k in THREAD_ENV}}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """What one run over the scans produced, and whether it was right."""

    wall_s: float
    frames: int
    keyframes: int = 0
    loops: int = 0
    ate_m: float = float("inf")
    failed: int = 0
    loop_errors: list = field(default_factory=list)
    gate_failures: List[str] = field(default_factory=list)

    @property
    def false_loops(self) -> int:
        return sum(e.false for e in self.loop_errors)

    def summary(self) -> dict:
        worst = max(self.loop_errors, key=lambda e: e.trans_m, default=None)
        return {"wall_s": self.wall_s, "keyframes": self.keyframes,
                "loops": self.loops, "ate_rmse_m": self.ate_m,
                "false_loops": self.false_loops,
                "frames_failed": self.failed,
                "frames_failed_frac": self.failed / self.frames,
                "worst_loop_edge": None if worst is None else
                {"trans_m": worst.trans_m, "rot_deg": worst.rot_deg},
                "gate_failures": self.gate_failures}


def judge(workload, scene, wall, trajectory, graph, keyframes, loops
          ) -> Outcome:
    frames = len(scene.clouds)
    out = Outcome(wall, frames, len(keyframes), loops)
    out.failed = failed_frames(trajectory, [c.timestamp for c in scene.clouds])
    try:
        out.ate_m = evaluate_trajectories(trajectory, scene.truth).rmse
    except (AssociationError, ValueError):
        pass
    out.loop_errors = loop_edge_errors(graph, keyframes, scene.truth)
    out.gate_failures = accuracy_gates(workload, loops, out.ate_m,
                                       scene.path_length, out.false_loops,
                                       out.failed)
    return out


def raised(scene, wall) -> Outcome:
    traceback.print_exc()
    frames = len(scene.clouds)
    return Outcome(wall, frames, failed=frames,
                   gate_failures=["run raised an exception"])


def batch_run(workload, scene) -> Outcome:
    pipeline = SlamPipeline()
    t0 = time.perf_counter()
    try:
        result = pipeline.run_batch(scene.clouds)
    except Exception:
        return raised(scene, time.perf_counter() - t0)
    wall = time.perf_counter() - t0
    return judge(workload, scene, wall, result.trajectory, pipeline.graph,
                 pipeline.keyframes, result.loop_count)


def sequential_run(workload, scene, tracer):
    slam = SequentialSlam(tracer)
    t0 = time.perf_counter()
    try:
        trajectory = slam.run(scene.clouds)
    except Exception:
        return raised(scene, time.perf_counter() - t0), slam
    wall = time.perf_counter() - t0
    return judge(workload, scene, wall, trajectory, slam.graph,
                 slam.keyframes, slam.loop_count), slam


def setup(workload: str, seed: int):
    """Build the scans and a pipeline; return the scans and the time taken."""
    t0 = time.perf_counter()
    scene = WORKLOADS[workload](seed)
    SlamPipeline()
    return scene, time.perf_counter() - t0


def measure_end_to_end(workload, scene, seconds):
    """Repeat run_batch until another pass would overrun ``seconds``."""
    runs: List[Outcome] = []
    start = time.perf_counter()
    while True:
        runs.append(batch_run(workload, scene))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(runs) > seconds:
            return runs


def end_to_end_metrics(runs, setup_times):
    fps = [r.frames / r.wall_s for r in runs]
    frames = sum(r.frames for r in runs)
    failed = sum(r.failed for r in runs)
    accepted = sum(len(r.loop_errors) for r in runs)
    false_loops = sum(r.false_loops for r in runs)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "frames_per_s": (statistics.median(fps), "frames/s"),
        "ate_rmse_m": (statistics.median(r.ate_m for r in runs), "m"),
        "loop_precision": (1.0 - false_loops / accepted if accepted else 1.0,
                           "fraction"),
        "frames_ok_frac": (1.0 - failed / frames, "fraction"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    timings = {"setup_s": summarize(setup_times),
               "frames_per_s": summarize(fps),
               "run_batch_wall_s": summarize([r.wall_s for r in runs])}
    return metrics, timings


def per_layer_metrics(batch, untraced, traced, slam, tracer):
    spans = tracer.spans
    busy = busy_by_layer(spans)

    def durations_ms(name):
        return [1e3 * (s.end - s.start) for s in spans if s.name == name]

    def ratio(a, b):
        return a / b if b else 0.0

    track_ms = summarize(durations_ms("tracker"))
    frame_ms = summarize(durations_ms("frame"))
    optimize_ms = durations_ms("pose_graph.optimize")
    c = slam.counts
    verifications = slam.loop_detector.registration_calls
    metrics = {
        "tracker.busy_s": (busy.get("tracker", 0.0), "s"),
        "tracker.call_ms.p50": (track_ms.get("p50", 0.0), "ms"),
        "tracker.call_ms.p90": (track_ms.get("p90", 0.0), "ms"),
        "tracker.registrations": (slam.tracker.registration_calls, "count"),
        "tracker.degraded_frac": (ratio(c.track_degraded, c.frames), "fraction"),
        "tracker.keyframes": (len(slam.keyframes), "count"),
        "prefilter.busy_s": (busy.get("prefilter", 0.0), "s"),
        "prefilter.kept_frac": (ratio(c.points_kept, c.points_in), "fraction"),
        "pretracker.busy_s": (busy.get("pretracker", 0.0), "s"),
        "pretracker.registrations": (slam.pretracker.registration_calls,
                                     "count"),
        "pretracker.degraded_frac": (ratio(c.pretrack_degraded, c.frames),
                                     "fraction"),
        "floor.busy_s": (busy.get("floor", 0.0), "s"),
        "floor.valid_frac": (ratio(c.floor_valid, c.frames), "fraction"),
        "scan_context.busy_s": (busy.get("scan_context", 0.0), "s"),
        "loop_closure.busy_s": (busy.get("loop_closure", 0.0), "s"),
        "loop_closure.verifications": (verifications, "count"),
        "loop_closure.accepted": (slam.loop_count, "count"),
        "loop_closure.accept_ratio": (ratio(slam.loop_count, verifications),
                                      "fraction"),
        "pose_graph.busy_s": (busy.get("pose_graph", 0.0), "s"),
        "pose_graph.optimize_calls": (len(c.optimize_reports), "count"),
        "pose_graph.lm_iterations": (
            sum(r.iterations for r in c.optimize_reports), "count"),
        "pose_graph.last_optimize_ms": (
            optimize_ms[-1] if optimize_ms else 0.0, "ms"),
        "pose_graph.nodes": (len(slam.graph.nodes), "count"),
        "pose_graph.edges": (len(slam.graph.edges), "count"),
        "runtime.overlap_gain": (untraced.wall_s / batch.wall_s, "ratio"),
        "frame_ms.p50": (frame_ms.get("p50", 0.0), "ms"),
        "frame_ms.p90": (frame_ms.get("p90", 0.0), "ms"),
        "frame_ms.samples": (frame_ms["n"], "count"),
        "trace.overhead_frac": (traced.wall_s / untraced.wall_s - 1.0,
                                "fraction"),
    }
    timings = {"tracker.call_ms": track_ms, "frame_ms": frame_ms,
               "pose_graph.optimize_ms": summarize(optimize_ms),
               "busy_s": busy}
    return metrics, timings


def equivalence_failures(batch: Outcome, others) -> List[str]:
    """Differences in keyframes, loops or ATE from run_batch's output."""
    out = []
    for name, o in others:
        for what in ("keyframes", "loops", "ate_m"):
            a, b = getattr(batch, what), getattr(o, what)
            if a != b:
                out.append(f"{name} {what} {b!r} != run_batch {a!r}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one benchmark workload.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    setup_times = []
    for _ in range(SETUP_BEFORE):
        scene = None
        scene, seconds = setup(args.workload, args.seed)
        setup_times.append(seconds)
    report = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "environment": environment(),
              "scans": len(scene.clouds),
              "points_per_scan": sum(map(len, scene.clouds)) / len(scene.clouds),
              "path_length_m": scene.path_length}

    if args.trace == 0:
        runs = measure_end_to_end(args.workload, scene, args.seconds)
        scene = None
        setup_times += [setup(args.workload, args.seed)[1]
                        for _ in range(SETUP_AFTER)]
        metrics, report["timings"] = end_to_end_metrics(runs, setup_times)
        report["runs"] = [r.summary() for r in runs]
        problems = sorted({g for r in runs for g in r.gate_failures})
    else:
        batch = batch_run(args.workload, scene)
        untraced, _ = sequential_run(args.workload, scene, NullTracer())
        tracer = Tracer()
        traced, slam = sequential_run(args.workload, scene, tracer)
        runs = [batch, untraced, traced]
        metrics, report["timings"] = per_layer_metrics(
            batch, untraced, traced, slam, tracer)
        report["runs"] = {"run_batch": batch.summary(),
                          "sequential": untraced.summary(),
                          "sequential_traced": traced.summary()}
        problems = sorted({g for r in runs for g in r.gate_failures})
        problems += equivalence_failures(
            batch, [("sequential", untraced), ("sequential_traced", traced)])
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                  "w") as f:
            json.dump({"report": report, "spans": tracer.to_json()}, f)

    report["problems"] = problems
    for p in problems:
        print(f"perfbench: FAILED CHECK: {p}", file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.frames for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0

