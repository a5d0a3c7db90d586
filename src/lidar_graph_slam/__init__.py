"""Modular LiDAR graph-SLAM toolkit.

Estimates 6-DoF trajectories and 3D maps from point cloud sequences:
pre-filtering, keyframe tracking via scan matching, multi-scale
pre-tracking, floor detection, polar-grid place recognition with
three-phase loop closure, and pose-graph optimization on SE(3).
"""

from .config import PipelineConfig, parse_config_text
from .evaluation import (AteReport, TimedPose, associate, compute_ate,
                         evaluate_trajectories, read_tum, write_tum)
from .floor import FloorCoefficients, FloorConfig, detect_floor
from .geometry import KdTree, PointCloud, Pose, se3_exp, se3_log
from .loop_closure import LoopCandidate, LoopConfig, LoopDetector
from .mapping import build_map, write_ply
from .pipeline import PipelineResult, SlamPipeline, run_pipeline
from .pose_graph import OptimizationReport, PoseGraph
from .prefilter import PrefilterConfig, prefilter, remove_outliers, voxel_downsample
from .pretracker import Pretracker, PretrackerConfig
from .registration import (RegistrationConfig, RegistrationResult, align,
                           score_alignment)
from .scan_context import ScanContextParams, make_scan_context
from .tracker import Keyframe, KeyframeCriteria, Tracker, is_new_keyframe

__version__ = "0.1.0"

__all__ = [
    "AteReport", "FloorCoefficients", "FloorConfig", "KdTree", "Keyframe",
    "KeyframeCriteria", "LoopCandidate", "LoopConfig", "LoopDetector",
    "OptimizationReport", "PipelineConfig", "PipelineResult",
    "PointCloud", "Pose", "PoseGraph", "PrefilterConfig", "Pretracker",
    "PretrackerConfig", "RegistrationConfig", "RegistrationResult",
    "ScanContextParams", "SlamPipeline", "TimedPose", "Tracker",
    "align", "associate", "build_map", "compute_ate", "detect_floor",
    "evaluate_trajectories", "is_new_keyframe",
    "make_scan_context", "parse_config_text", "prefilter", "read_tum",
    "remove_outliers",
    "run_pipeline", "score_alignment", "se3_exp", "se3_log",
    "voxel_downsample", "write_ply",
    "write_tum",
]
