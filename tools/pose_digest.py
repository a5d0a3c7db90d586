"""Print a digest of every pose that ``SlamPipeline.run_batch`` returns.

    python3 tools/pose_digest.py --workload loop_ring --seed 1 2 3

For each benchmark workload (``perfbench/workloads.py``) and seed, it runs
the default pipeline once on the in-memory scans and prints one line: the
workload, the seed, the keyframe and loop counts, and the SHA-256 of every
trajectory timestamp, rotation and translation as float64 bytes.  Two
checkouts that print the same lines return bit-identical poses; the
script compares nothing itself.
"""

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402

from lidar_graph_slam.pipeline import SlamPipeline  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def pose_digest(trajectory) -> str:
    h = hashlib.sha256()
    for tp in trajectory:
        h.update(np.float64(tp.timestamp).tobytes())
        h.update(tp.pose.rotation.tobytes())
        h.update(tp.pose.translation.tobytes())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", nargs="+", choices=sorted(WORKLOADS),
                    default=list(WORKLOADS))
    ap.add_argument("--seed", nargs="+", type=int, default=[1])
    args = ap.parse_args(argv)
    for name in args.workload:
        for seed in args.seed:
            scene = WORKLOADS[name](seed)
            result = SlamPipeline().run_batch(scene.clouds)
            print(f"{name} seed {seed}: keyframes {result.keyframe_count} "
                  f"loops {result.loop_count} "
                  f"sha256 {pose_digest(result.trajectory)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
