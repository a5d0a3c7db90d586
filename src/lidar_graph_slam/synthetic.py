"""Synthetic LiDAR worlds for testing and demos.

Builds a fixed world (a ground plane plus random vertical walls), drives a
sensor along a parameterized trajectory, and renders range-limited scans in
the sensor frame.  An optional systematic distortion warps every scan the
same way, which biases scan-to-scan odometry and accumulates drift, while
loop-closure pairs (seen from similar headings) remain nearly unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .geometry import PointCloud, Pose, so3_exp


@dataclass
class SyntheticWorld:
    points: np.ndarray          # (N, 3), world frame, ground at z = 0
    sensor_height: float = 1.7


def _wall(rng, x0, y0, x1, y1, height=3.0, spacing=0.3):
    length = np.hypot(x1 - x0, y1 - y0)
    n_along = max(int(length / spacing), 2)
    n_up = max(int(height / spacing), 2)
    s = np.linspace(0.0, 1.0, n_along)
    z = np.linspace(0.0, height, n_up)
    xs = x0 + (x1 - x0) * s
    ys = y0 + (y1 - y0) * s
    gx, gz = np.meshgrid(xs, z)
    gy, _ = np.meshgrid(ys, z)
    pts = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])
    return pts + rng.normal(scale=0.01, size=pts.shape)


def make_world(trajectory_xy: np.ndarray, seed: int = 0,
               floor_spacing: float = 0.6, corridor: float = 25.0,
               walls_per_50m: float = 12.0,
               sensor_height: float = 1.7) -> SyntheticWorld:
    """Ground plane plus random walls scattered along a trajectory corridor."""
    rng = np.random.default_rng(seed)
    lo = trajectory_xy.min(axis=0) - corridor
    hi = trajectory_xy.max(axis=0) + corridor
    xs = np.arange(lo[0], hi[0], floor_spacing)
    ys = np.arange(lo[1], hi[1], floor_spacing)
    gx, gy = np.meshgrid(xs, ys)
    floor = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)])
    floor += rng.normal(scale=0.005, size=floor.shape)

    path_len = np.sum(np.linalg.norm(np.diff(trajectory_xy, axis=0), axis=1))
    n_walls = max(int(path_len / 50.0 * walls_per_50m), 4)
    anchors = trajectory_xy[rng.integers(0, len(trajectory_xy), n_walls)]
    walls = []
    for ax, ay in anchors:
        offset = rng.uniform(4.0, 12.0)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        cx = ax + offset * np.cos(angle)
        cy = ay + offset * np.sin(angle)
        length = rng.uniform(4.0, 10.0)
        wall_dir = rng.uniform(0.0, 2.0 * np.pi)
        dx = 0.5 * length * np.cos(wall_dir)
        dy = 0.5 * length * np.sin(wall_dir)
        walls.append(_wall(rng, cx - dx, cy - dy, cx + dx, cy + dy))
    pts = np.vstack([floor] + walls)
    return SyntheticWorld(pts, sensor_height)


def square_loop_trajectory(side: float = 50.0, step: float = 1.0,
                           rate_hz: float = 10.0,
                           corner_radius: float = 6.0,
                           overshoot: float = 0.0
                           ) -> List[Tuple[float, Pose]]:
    """Timestamped poses around a closed square with rounded corners.

    Corners are quarter arcs so the per-frame heading change stays small
    enough for scan matching to follow (a vehicle, not a point turning in
    place).  ``overshoot`` continues that many meters into a second lap, so
    the vehicle re-traverses the start of the loop instead of stopping dead
    on the closure point.
    """
    r = corner_radius
    pts = []
    # four straight legs and four quarter arcs, counter-clockwise from origin
    legs = [((r, 0.0), (side - r, 0.0), 0.0),
            ((side, r), (side, side - r), np.pi / 2),
            ((side - r, side), (r, side), np.pi),
            ((0.0, side - r), (0.0, r), -np.pi / 2)]
    centers = [(side - r, r), (side - r, side - r), (r, side - r), (r, r)]
    for (start, end, heading), center in zip(legs, centers):
        a, b = np.array(start), np.array(end)
        seg = np.linalg.norm(b - a)
        for i in range(max(int(round(seg / step)), 1)):
            pts.append(a + (b - a) * i / seg * step)
        arc_start = heading - np.pi / 2
        n_arc = max(int(round((np.pi / 2 * r) / step)), 2)
        for i in range(n_arc):
            ang = arc_start + (np.pi / 2) * i / n_arc
            pts.append(np.array(center) + r * np.array([np.cos(ang), np.sin(ang)]))
    n_over = int(round(overshoot / step))
    pts.extend(pts[:n_over] if n_over else [pts[0]])
    return _follow_waypoints(np.array(pts), rate_hz)


def straight_then_curve_trajectory(straight: float = 80.0,
                                   curve_radius: float = 40.0,
                                   curve_angle: float = np.pi / 2,
                                   step: float = 1.0,
                                   rate_hz: float = 10.0) -> List[Tuple[float, Pose]]:
    """A straight leg followed by an arc; never revisits any place."""
    pts = [np.array([x, 0.0]) for x in np.arange(0.0, straight, step)]
    n_arc = int(curve_radius * curve_angle / step)
    center = np.array([straight, curve_radius])
    # an arc shorter than one step contributes its end point alone
    first = 0 if n_arc else 1
    n_arc = max(n_arc, 1)
    for i in range(first, n_arc + 1):
        a = curve_angle * i / n_arc
        pts.append(center + curve_radius * np.array([np.sin(a), -np.cos(a)]))
    return _follow_waypoints(np.array(pts), rate_hz)


def _follow_waypoints(pts: np.ndarray,
                      rate_hz: float) -> List[Tuple[float, Pose]]:
    """Timed poses at the waypoints, each heading along the path."""
    out = []
    for i, p in enumerate(pts):
        nxt = pts[min(i + 1, len(pts) - 1)]
        prv = pts[max(i - 1, 0)]
        heading = np.arctan2(nxt[1] - prv[1], nxt[0] - prv[0])
        rot = so3_exp([0.0, 0.0, heading])
        out.append((i / rate_hz, Pose(rot, [p[0], p[1], 0.0])))
    return out


def render_scan(world: SyntheticWorld, pose_2d: Pose, timestamp: float,
                max_range: float = 30.0, noise_sigma: float = 0.0,
                curl: float = 0.0, rng: Optional[np.random.Generator] = None
                ) -> PointCloud:
    """View of the world from a trajectory pose, in the sensor frame.

    ``pose_2d`` places the sensor body on the ground plane; the sensor sits
    ``world.sensor_height`` above it.  ``curl`` applies the systematic
    drift-inducing warp: each point is yawed about the sensor origin by
    ``curl * x`` radians, where x is its forward coordinate in meters.
    """
    sensor_pose = Pose(pose_2d.rotation,
                       pose_2d.translation + [0.0, 0.0, world.sensor_height])
    rel = world.points - sensor_pose.translation
    dist = np.linalg.norm(rel, axis=1)
    near = dist <= max_range
    local = rel[near] @ sensor_pose.rotation   # world -> sensor frame
    if noise_sigma > 0.0:
        rng = rng or np.random.default_rng(0)
        local = local + rng.normal(scale=noise_sigma, size=local.shape)
    if curl != 0.0:
        ang = curl * local[:, 0]
        c, s = np.cos(ang), np.sin(ang)
        x = c * local[:, 0] - s * local[:, 1]
        y = s * local[:, 0] + c * local[:, 1]
        local = np.column_stack([x, y, local[:, 2]])
    return PointCloud(local, None, timestamp)


def render_sequence(world: SyntheticWorld,
                    trajectory: List[Tuple[float, Pose]],
                    max_range: float = 30.0, noise_sigma: float = 0.0,
                    curl: float = 0.0, seed: int = 0
                    ) -> Tuple[List[PointCloud], List[Pose]]:
    """Scans plus ground-truth sensor poses (sensor frame, world-referenced)."""
    rng = np.random.default_rng(seed)
    clouds = []
    truth = []
    for ts, pose in trajectory:
        clouds.append(render_scan(world, pose, ts, max_range, noise_sigma,
                                  curl, rng))
        truth.append(Pose(pose.rotation,
                          pose.translation + [0.0, 0.0, world.sensor_height]))
    return clouds, truth


def write_kitti_sequence(out_dir: str, clouds: List[PointCloud],
                         truth: Optional[List[Pose]] = None):
    """Persist a synthetic sequence in KITTI odometry layout."""
    import os

    velo = os.path.join(out_dir, "velodyne")
    os.makedirs(velo, exist_ok=True)
    for i, cloud in enumerate(clouds):
        data = np.zeros((len(cloud), 4), dtype="<f4")
        data[:, :3] = cloud.points
        data.tofile(os.path.join(velo, f"{i:06d}.bin"))
    with open(os.path.join(out_dir, "times.txt"), "w") as f:
        for cloud in clouds:
            f.write(f"{cloud.timestamp:.6f}\n")
    if truth is not None:
        with open(os.path.join(out_dir, "poses.txt"), "w") as f:
            for pose in truth:
                m = np.hstack([pose.rotation, pose.translation[:, None]])
                f.write(" ".join(f"{v:.9f}" for v in m.ravel()) + "\n")
