"""Output checks: loop-edge truth, failed frames and the accuracy gates."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from lidar_graph_slam.evaluation import TimedPose
from lidar_graph_slam.geometry import Pose
from lidar_graph_slam.pose_graph import EDGE_LOOP

# A loop edge further than this from the true relative pose is false.
FALSE_LOOP_TRANS_M = 1.0
FALSE_LOOP_ROT_DEG = 5.0


@dataclass
class LoopEdgeError:
    from_id: int
    to_id: int
    trans_m: float
    rot_deg: float

    @property
    def false(self) -> bool:
        return self.trans_m > FALSE_LOOP_TRANS_M or \
            self.rot_deg > FALSE_LOOP_ROT_DEG


def truth_at(truth: Sequence[TimedPose], timestamp: float) -> Pose:
    times = np.array([t.timestamp for t in truth])
    return truth[int(np.argmin(np.abs(times - timestamp)))].pose


def loop_edge_errors(graph, keyframes, truth: Sequence[TimedPose]
                     ) -> List[LoopEdgeError]:
    """Distance of each LOOP edge's measurement from the true relative pose.

    A loop edge runs from the candidate keyframe's node to the query's, and
    its measurement maps the query frame into the candidate frame.
    """
    node_truth: Dict[int, Pose] = {
        node_id: truth_at(truth, kf.timestamp)
        for node_id, kf in zip(graph.keyframe_node_ids, keyframes)}
    out = []
    for edge in graph.edges:
        if edge.kind != EDGE_LOOP:
            continue
        true_rel = node_truth[edge.from_id].inverse() @ node_truth[edge.to_id]
        diff = edge.measurement.inverse() @ true_rel
        out.append(LoopEdgeError(edge.from_id, edge.to_id,
                                 float(np.linalg.norm(diff.translation)),
                                 float(np.rad2deg(diff.rotation_angle()))))
    return out


def failed_frames(trajectory: Sequence[TimedPose], frame_times) -> int:
    """Input frames with no finite pose in the result."""
    tracked = {tp.timestamp for tp in trajectory
               if np.all(np.isfinite(tp.pose.matrix()))}
    return sum(1 for ts in frame_times if ts not in tracked)


def accuracy_gates(workload: str, loops: int, ate: float, path_length: float,
                   false_loops: int, failed: int) -> List[str]:
    """The gates each workload must pass; returns the ones that failed."""
    gates = {"no failed frames": failed == 0,
             "no false loops": false_loops == 0}
    if workload == "loop_ring":
        gates["ATE < 0.5 m"] = ate < 0.5
        gates[">= 1 loop"] = loops >= 1
    elif workload == "no_revisit":
        gates["0 loops"] = loops == 0
        gates["ATE < 1% of path"] = ate < 0.01 * path_length
    elif workload == "fast_revisit":
        gates[">= 1 loop"] = loops >= 1
    return [name for name, ok in gates.items() if not ok]
