"""Print the bytes that a finished run's keyframes hold, by kind.

    python3 tools/keyframe_memory.py [--workload fast_revisit ...]

For each benchmark workload (``perfbench/workloads.py``) it runs
``SlamPipeline.run_batch`` once at seed 1 and prints two lines: one for
the retired keyframes and one for the tracker's current keyframe.  Each
gives the keyframe count and the bytes of their points, GICP normals,
kd-tree indices and scan-context descriptors.  The kd-tree's nodes live
inside scipy and are not counted; its data is the points array itself.
Each line ends with the process's peak RSS so far (``ru_maxrss``), so a
workload's figure includes every workload run before it in the process;
run one workload per process to compare them.
"""

import argparse
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from lidar_graph_slam.pipeline import SlamPipeline  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def held_bytes(keyframes):
    """(points, normals, kd-tree indices, descriptors) bytes summed over
    ``keyframes``."""
    points = normals = tree = descriptors = 0
    for kf in keyframes:
        cloud = kf.cloud
        points += cloud.points.nbytes
        if cloud.normals is not None:
            normals += cloud.normals.nbytes
        kdtree = getattr(cloud, "_kdtree", None)
        if kdtree is not None:
            tree += kdtree._tree.indices.nbytes
        if kf.scan_context is not None:
            descriptors += kf.scan_context.nbytes
    return points, normals, tree, descriptors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", nargs="+", choices=sorted(WORKLOADS),
                    default=list(WORKLOADS))
    args = ap.parse_args(argv)
    mb = 1e-6
    for name in args.workload:
        pipeline = SlamPipeline()
        pipeline.run_batch(WORKLOADS[name](1).clouds)
        current = pipeline.tracker.keyframe
        retired = [kf for kf in pipeline.keyframes if kf is not current]
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for label, kfs in (("retired", retired), ("current", [current])):
            points, normals, tree, descriptors = held_bytes(kfs)
            print(f"{name:12s} {label:7s} keyframes {len(kfs):3d}  "
                  f"points_mb {points * mb:6.2f}  normals_mb "
                  f"{normals * mb:6.2f}  kdtree_indices_mb {tree * mb:5.2f}  "
                  f"descriptors_mb {descriptors * mb:5.2f}  "
                  f"peak_rss_mb {rss_mb:6.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
