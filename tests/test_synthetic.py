"""Synthetic trajectories."""

import numpy as np
import pytest

from lidar_graph_slam.synthetic import straight_then_curve_trajectory


def positions(traj):
    return np.array([p.translation[:2] for _, p in traj])


class TestStraightThenCurve:
    @pytest.mark.parametrize("curve_angle", [0.02, 0.0])
    def test_arc_shorter_than_a_step_keeps_its_end_point(self, curve_angle):
        # 40 m * 0.02 rad = 0.8 m: no full step fits on the arc
        traj = straight_then_curve_trajectory(straight=5.0, curve_radius=40.0,
                                              curve_angle=curve_angle)
        xy = positions(traj)
        assert len(xy) == 6
        np.testing.assert_array_equal(xy[:5, 0], np.arange(5.0))
        end = [5.0 + 40.0 * np.sin(curve_angle),
               40.0 - 40.0 * np.cos(curve_angle)]
        np.testing.assert_allclose(xy[5], end, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("straight, radius, angle, step", [
        (110.0, 40.0, 1.0, 1.0), (28.0, 40.0, 0.05, 1.0),
        (20.0, 40.0, 0.25, 1.0), (3.0, 7.0, np.pi / 2, 0.4)])
    def test_arc_of_whole_steps_is_unchanged(self, straight, radius, angle,
                                             step):
        # the reference is the arc as the benchmark scans were built from
        xy = positions(straight_then_curve_trajectory(straight, radius, angle,
                                                      step))
        n_arc = int(radius * angle / step)
        assert n_arc >= 1
        center = np.array([straight, radius])
        arc = [center + radius * np.array([np.sin(a), -np.cos(a)])
               for a in (angle * i / n_arc for i in range(n_arc + 1))]
        straight_leg = np.arange(0.0, straight, step)
        assert len(xy) == len(straight_leg) + n_arc + 1
        assert xy[len(straight_leg):].tobytes() == np.array(arc).tobytes()
