"""Synthetic SLAM workloads for the benchmark.

Each workload turns one seed into a list of scans plus the ground-truth
sensor poses; the program under test only ever sees the scans.  The world
(ground plane and walls) is fixed per workload and the seed draws the range
noise.  ATE depends far more on the world than on the noise: across world
seeds it ranged from 0.016 to 0.23 m on no_revisit and from 0.31 to 1.11 m
on a 40 m version of fast_revisit, too wide for a bound on it to mean
anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from lidar_graph_slam.evaluation import TimedPose
from lidar_graph_slam.geometry import PointCloud, Pose, so3_exp
from lidar_graph_slam.synthetic import (make_world, render_sequence,
                                        square_loop_trajectory,
                                        straight_then_curve_trajectory)


# Range noise of every scan, in metres; the seed draws it.
NOISE_SIGMA = 0.02


@dataclass
class Scene:
    clouds: List[PointCloud]
    truth: List[TimedPose]
    path_length: float


def _xy(traj) -> np.ndarray:
    return np.array([p.translation[:2] for _, p in traj])


def _scene(traj, world, **render) -> Scene:
    clouds, truth = render_sequence(world, traj, max_range=30.0, **render)
    xy = _xy(traj)
    length = float(np.sum(np.linalg.norm(np.diff(xy, axis=0), axis=1)))
    return Scene(clouds, [TimedPose(c.timestamp, p)
                          for c, p in zip(clouds, truth)], length)


def loop_ring(seed: int) -> Scene:
    """The acceptance test's square loop: 199 scans at 1 m, one revisit."""
    traj = square_loop_trajectory(side=50.0, step=1.0, overshoot=11.0)
    world = make_world(_xy(traj), seed=1, corridor=12.0)
    return _scene(traj, world, noise_sigma=NOISE_SIGMA, curl=0.002, seed=seed)


def no_revisit(seed: int) -> Scene:
    """The acceptance test's straight-then-curve path: 151 scans, no revisit.

    Noiseless, so the seed changes nothing: its ATE (1.7 cm) is at the
    scale of the range noise, and with 2 cm noise it spread by 17% of its
    median across seeds, too much for a bound on it to mean anything.
    """
    traj = straight_then_curve_trajectory(straight=110.0, curve_radius=40.0,
                                          curve_angle=1.0, step=1.0)
    world = make_world(_xy(traj), seed=4, corridor=12.0)
    return _scene(traj, world)


def rounded_square_pose(s: float, side: float, radius: float) -> Pose:
    """Pose at arc length ``s`` along a counter-clockwise rounded square.

    The path starts at (radius, 0) heading +x, like
    ``square_loop_trajectory``, and repeats every perimeter.
    """
    straight = side - 2.0 * radius
    arc = 0.5 * np.pi * radius
    s = s % (4.0 * (straight + arc))
    starts = [(radius, 0.0), (side, radius), (side - radius, side),
              (0.0, side - radius)]
    centers = [(side - radius, radius), (side - radius, side - radius),
               (radius, side - radius), (radius, radius)]
    for leg in range(4):
        heading = 0.5 * np.pi * leg
        if s < straight:
            xy = np.array(starts[leg]) + s * np.array([np.cos(heading),
                                                       np.sin(heading)])
            break
        s -= straight
        if s < arc or leg == 3:
            ang = heading - 0.5 * np.pi + s / radius
            xy = np.array(centers[leg]) + radius * np.array([np.cos(ang),
                                                             np.sin(ang)])
            heading += s / radius
            break
        s -= arc
    return Pose(so3_exp([0.0, 0.0, heading]), [xy[0], xy[1], 0.0])


def fast_revisit_trajectory():
    """Two laps of a 36 m square with 12 m corners, about 2.5 m per scan.

    The stride is stretched so that a lap is a whole number of strides plus
    a half: lap-two scans then fall half a stride from lap-one scans and
    never replay a lap-one pose, so loop verification registers two
    different scans of the same place.
    """
    side, radius, step, rate_hz = 36.0, 12.0, 2.5, 10.0
    perimeter = 4.0 * (side - 2.0 * radius) + 2.0 * np.pi * radius
    scans = 2 * int(round(perimeter / step - 0.5)) + 1
    stride = 2.0 * perimeter / scans
    return [(i / rate_hz, rounded_square_pose(i * stride, side, radius))
            for i in range(scans)]


def fast_revisit(seed: int) -> Scene:
    """Two fast laps: a keyframe every ~2 scans, a loop on most of lap two."""
    traj = fast_revisit_trajectory()
    world = make_world(_xy(traj), seed=1, corridor=12.0)
    return _scene(traj, world, noise_sigma=NOISE_SIGMA, curl=0.002, seed=seed)


WORKLOADS: Dict[str, Callable[[int], Scene]] = {
    "loop_ring": loop_ring,
    "no_revisit": no_revisit,
    "fast_revisit": fast_revisit,
}
