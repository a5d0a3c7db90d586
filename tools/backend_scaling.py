"""Time ``PoseGraph.optimize`` on cloud-free ring graphs of growing size.

    python3 tools/backend_scaling.py

Keyframes go round a 20 m-radius circle, 60 per lap.  Odometry is the true
relative pose times a twist with 0.02 m and 0.002 rad of noise per axis;
from lap two, every 10th keyframe gets an exact loop edge to the one a lap
before.  Each size is solved with and without a flat floor edge on every
keyframe; a line gives the fastest of three calls (each on a fresh graph)
in ms, its LM iterations and its final chi2.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from lidar_graph_slam.floor import FloorCoefficients  # noqa: E402
from lidar_graph_slam.geometry import (  # noqa: E402
    PointCloud, Pose, se3_exp, so3_exp)
from lidar_graph_slam.loop_closure import LoopCandidate  # noqa: E402
from lidar_graph_slam.pose_graph import PoseGraph  # noqa: E402
from lidar_graph_slam.tracker import Keyframe  # noqa: E402

LAP, RADIUS, LOOP_EVERY = 60, 20.0, 10


def timed_optimize(count: int, floor: bool):
    rng = np.random.default_rng(0)
    truth = [Pose(so3_exp([0.0, 0.0, a + np.pi / 2]),
                  [RADIUS * np.cos(a), RADIUS * np.sin(a), 0.0])
             for a in 2.0 * np.pi * np.arange(count) / LAP]
    graph = PoseGraph()
    for i, pose in enumerate(truth):
        noise = np.concatenate([rng.normal(scale=0.02, size=3),
                                rng.normal(scale=0.002, size=3)])
        rel = truth[i - 1].inverse() @ pose @ se3_exp(noise) if i else None
        graph.add_keyframe(Keyframe(PointCloud(np.zeros((1, 3))), pose,
                                    float(i), float(i), i), rel)
        if floor:
            graph.add_floor(i, FloorCoefficients(0.0, 0.0, 1.0, 1.7))
        if i >= LAP and i % LOOP_EVERY == 0:
            rel = truth[i - LAP].inverse() @ pose
            graph.add_loop(LoopCandidate(i, i - LAP, 0.0, rel, fitness=0.1))
    start = time.perf_counter()
    report = graph.optimize()
    return 1e3 * (time.perf_counter() - start), report


if __name__ == "__main__":
    print("keyframes floor   optimize_ms iterations final_chi2")
    for count in (500, 1000, 2000):
        for floor in (False, True):
            ms, report = min((timed_optimize(count, floor) for _ in range(3)),
                             key=lambda run: run[0])
            print(f"{count:9d} {floor!s:5} {ms:13.1f} {report.iterations:10d}"
                  f" {report.final_chi2:10.4f}", flush=True)
