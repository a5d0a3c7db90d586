"""Inject wrong loop edges into a finished run and re-optimize the graph.

    python3 tools/wrong_loops.py

For loop_ring and fast_revisit at seed 1, it runs ``SlamPipeline.run_batch``
once, then adds wrong loop edges one at a time, up to three: an identity
measurement with fitness 0.2 between two keyframes whose run poses are at
least 15 m apart, each workload's pairs drawn by ``np.random.default_rng(0)``;
only edges ``add_loop`` accepts count.  After the run and after each
accepted edge it prints the keyframe ATE against the ground truth, and the
final chi2, the LM iterations and ``converged`` of a ``PoseGraph.optimize``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402

from lidar_graph_slam.evaluation import TimedPose, evaluate_trajectories  # noqa: E402
from lidar_graph_slam.geometry import Pose  # noqa: E402
from lidar_graph_slam.loop_closure import LoopCandidate  # noqa: E402
from lidar_graph_slam.pipeline import SlamPipeline  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_APART, FITNESS, MAX_WRONG = 15.0, 0.2, 3


def report(name, wrong, pipeline, truth):
    rep = pipeline.graph.optimize()
    kf_traj = [TimedPose(kf.timestamp, kf.pose) for kf in pipeline.keyframes]
    ate = evaluate_trajectories(kf_traj, truth).rmse
    print(f"{name:12s} wrong_loops {wrong}  keyframe_ate_m {ate:8.4f}  "
          f"final_chi2 {rep.final_chi2:10.4f}  lm_iterations "
          f"{rep.iterations:2d}  converged {rep.converged}", flush=True)


if __name__ == "__main__":
    for name in ("loop_ring", "fast_revisit"):
        rng = np.random.default_rng(0)
        scene = WORKLOADS[name](1)
        pipeline = SlamPipeline()
        pipeline.run_batch(scene.clouds)
        # each re-optimization moves the keyframes; pairs are drawn by the
        # poses the run ended with
        run_xyz = np.array([kf.pose.translation for kf in pipeline.keyframes])
        report(name, 0, pipeline, scene.truth)
        wrong = 0
        while wrong < MAX_WRONG:
            j, i = sorted(rng.choice(len(run_xyz), size=2, replace=False))
            if np.linalg.norm(run_xyz[i] - run_xyz[j]) < MIN_APART:
                continue
            loop = LoopCandidate(int(i), int(j), 0.0, Pose.identity(), FITNESS)
            if pipeline.graph.add_loop(loop) is not None:
                wrong += 1
                report(name, wrong, pipeline, scene.truth)
