"""Global map assembly and PLY round trips."""

import numpy as np
import pytest

from lidar_graph_slam.geometry import PointCloud, Pose, so3_exp
from lidar_graph_slam.mapping import build_map, read_ply, write_ply
from lidar_graph_slam.tracker import Keyframe


def kf(cloud, index):
    return Keyframe(cloud, Pose.identity(), float(index), 0.0, index)


class TestBuildMap:
    def test_transforms_into_world_frame(self, rng):
        local = PointCloud(np.array([[1.0, 0.0, 0.0]]))
        pose = Pose(so3_exp([0.0, 0.0, np.pi / 2]), np.array([10.0, 0.0, 0.0]))
        world = build_map([kf(local, 0)], [pose], resolution=0.1)
        np.testing.assert_allclose(world.points, [[10.0, 1.0, 0.0]],
                                   atol=1e-12)

    def test_merges_and_downsamples(self, rng):
        pts = rng.uniform(-5, 5, size=(2000, 3))
        cloud = PointCloud(pts)
        keyframes = [kf(cloud, 0), kf(cloud, 1)]
        poses = [Pose.identity(), Pose.identity()]
        world = build_map(keyframes, poses, resolution=0.5)
        # duplicated clouds collapse onto the same voxels
        solo = build_map([kf(cloud, 0)], [Pose.identity()], resolution=0.5)
        assert len(world) == len(solo)

    def test_input_validation(self, rng):
        cloud = PointCloud(rng.normal(size=(10, 3)))
        with pytest.raises(ValueError):
            build_map([], [], resolution=0.5)
        with pytest.raises(ValueError):
            build_map([kf(cloud, 0)], [], resolution=0.5)


class TestPly:
    def test_roundtrip(self, tmp_path, rng):
        pts = rng.normal(size=(123, 3)).astype(np.float32).astype(np.float64)
        path = tmp_path / "map.ply"
        write_ply(str(path), PointCloud(pts))
        back = read_ply(str(path))
        assert len(back) == 123
        np.testing.assert_array_equal(back.points, pts)

    def test_header_is_binary_little_endian(self, tmp_path):
        path = tmp_path / "map.ply"
        write_ply(str(path), PointCloud(np.zeros((2, 3))))
        header = path.read_bytes().split(b"end_header\n")[0].decode()
        assert header.startswith("ply\n")
        assert "format binary_little_endian 1.0" in header
        assert "element vertex 2" in header

    def test_empty_cloud(self, tmp_path):
        path = tmp_path / "empty.ply"
        write_ply(str(path), PointCloud(np.empty((0, 3))))
        assert len(read_ply(str(path))) == 0

    def test_truncated_header_raises(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_bytes(b"ply\nformat binary_little_endian 1.0\n")
        with pytest.raises(ValueError):
            read_ply(str(path))

    @pytest.mark.parametrize("cut", [12, 24, 13])
    def test_truncated_body_raises(self, tmp_path, rng, cut):
        # whole points cut (12, 24 bytes) and a partial point (13 bytes)
        path = tmp_path / "map.ply"
        write_ply(str(path), PointCloud(rng.normal(size=(10, 3))))
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(ValueError, match=f"expected 120 vertex bytes, "
                                             f"found {120 - cut}"):
            read_ply(str(path))
