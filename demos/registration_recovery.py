"""Recover known motions with the GICP scan matcher.

Renders one scan of a synthetic world, applies known random rigid motions
to copies of it, and asks :func:`align` to recover each motion.  Reports
the accuracy, the iteration count and the wall time.

Run:  python3 demos/registration_recovery.py
"""

import time

import numpy as np

from lidar_graph_slam import Pose, RegistrationConfig, align
from lidar_graph_slam.geometry import so3_exp
from lidar_graph_slam.synthetic import make_world, render_scan

N_TRIALS = 15
MAX_TRANS = 1.0      # m
MAX_ANGLE = 0.17     # rad, about 10 degrees


def random_motion(rng):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    rot = so3_exp(axis * rng.uniform(0.0, MAX_ANGLE))
    trans = rng.uniform(-MAX_TRANS, MAX_TRANS, size=3)
    return Pose(rot, trans)


def main():
    rng = np.random.default_rng(7)
    xy = np.array([[0.0, 0.0], [25.0, 0.0]])
    world = make_world(xy, seed=5, corridor=12.0)
    target = render_scan(world, Pose.identity(), 0.0, max_range=30.0)
    print(f"target scan: {len(target):,} points")

    motions = [random_motion(rng) for _ in range(N_TRIALS)]
    # the source cloud is the target seen from the moved sensor, so the
    # transform to recover is exactly `motion`
    sources = [target.transformed(m.inverse()) for m in motions]

    print(f"{N_TRIALS} trials, up to {MAX_TRANS} m / "
          f"{np.degrees(MAX_ANGLE):.0f} deg initial offset\n")
    cfg = RegistrationConfig(max_iterations=100, transformation_epsilon=1e-6)
    terrs, rerrs, iters = [], [], []
    start = time.perf_counter()
    for source, motion in zip(sources, motions):
        result = align(source, target, cfg=cfg)
        delta = motion.inverse() @ result.transform
        terrs.append(np.linalg.norm(delta.translation))
        rerrs.append(np.degrees(delta.rotation_angle()))
        iters.append(result.iterations_used)
    elapsed = time.perf_counter() - start
    print(f"terr p50 {np.median(terrs):.2e} m, terr max {max(terrs):.2e} m, "
          f"rerr max {max(rerrs):.4f} deg, {np.mean(iters):.1f} iterations, "
          f"{elapsed:.2f} s")


if __name__ == "__main__":
    main()
