"""KITTI-layout dataset ingestion."""

import re

import numpy as np
import pytest

from lidar_graph_slam.cli import main as cli_main
from lidar_graph_slam.kitti import (DatasetSequence, ScanFormatError,
                                    discover_sequence, load_kitti_poses,
                                    load_kitti_scan, load_timestamps)

from conftest import is_valid_pose


def write_scan(path, pts):
    data = np.zeros((len(pts), 4), dtype="<f4")
    data[:, :3] = pts
    data.tofile(path)


def make_dataset(root, n=3, with_poses=True):
    velo = root / "velodyne"
    velo.mkdir()
    rng = np.random.default_rng(0)
    for i in range(n):
        write_scan(velo / f"{i:06d}.bin", rng.normal(size=(50, 3)))
    (root / "times.txt").write_text(
        "".join(f"{0.1 * i:.6f}\n" for i in range(n)))
    if with_poses:
        rows = []
        for i in range(n):
            m = np.hstack([np.eye(3), [[float(i)], [0.0], [0.0]]])
            rows.append(" ".join(str(v) for v in m.ravel()))
        (root / "poses.txt").write_text("\n".join(rows) + "\n")


class TestLoadScan:
    def test_roundtrip_drops_intensity(self, tmp_path, rng):
        pts = rng.normal(size=(100, 3))
        path = tmp_path / "000000.bin"
        write_scan(path, pts)
        cloud = load_kitti_scan(str(path), timestamp=1.5)
        assert cloud.points.shape == (100, 3)
        assert cloud.points.dtype == np.float64
        np.testing.assert_allclose(cloud.points, pts.astype(np.float32),
                                   atol=1e-7)
        assert cloud.timestamp == 1.5
        assert cloud.frame_id == "000000.bin"

    def test_truncated_file_raises(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 10)   # not a multiple of 16 bytes
        with pytest.raises(ScanFormatError):
            load_kitti_scan(str(path))


class TestPosesAndTimes:
    def test_load_poses(self, tmp_path):
        rows = []
        expected = []
        for i in range(3):
            m = np.hstack([np.eye(3), [[i], [0.0], [0.0]]])
            rows.append(" ".join(str(v) for v in m.ravel()))
            expected.append(float(i))
        path = tmp_path / "poses.txt"
        path.write_text("\n".join(rows) + "\n")
        poses = load_kitti_poses(str(path))
        assert len(poses) == 3
        assert [p.translation[0] for p in poses] == expected
        assert all(is_valid_pose(p) for p in poses)

    def test_load_timestamps(self, tmp_path):
        path = tmp_path / "times.txt"
        path.write_text("0.0\n0.1\n0.2\n")
        assert load_timestamps(str(path)) == [0.0, 0.1, 0.2]

    def test_blank_lines_and_comments_are_skipped(self, tmp_path):
        times = tmp_path / "times.txt"
        times.write_text("# seconds\n\n0.0\n   \n0.1  # second scan\n")
        assert load_timestamps(str(times)) == [0.0, 0.1]
        row = " ".join(str(v) for v in np.eye(3, 4).ravel())
        poses = tmp_path / "poses.txt"
        poses.write_text(f"# 3x4 row-major\n\n{row}\n{row}  # again\n")
        loaded = load_kitti_poses(str(poses))
        assert len(loaded) == 2
        for pose in loaded:
            np.testing.assert_array_equal(pose.matrix(), np.eye(4))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_values_raise_naming_the_line(self, tmp_path, value):
        times = tmp_path / "times.txt"
        times.write_text(f"0.0\n{value}\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{times}:2: non-finite value: '{value}'")):
            load_timestamps(str(times))
        fields = [str(v) for v in np.eye(3, 4).ravel()]
        good = " ".join(fields)
        fields[3] = value
        poses = tmp_path / "poses.txt"
        poses.write_text(f"{good}\n\n{' '.join(fields)}\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{poses}:3: non-finite value: '{' '.join(fields)}'")):
            load_kitti_poses(str(poses))


class TestDatasetSequence:
    def test_timestamps_must_increase(self):
        with pytest.raises(ValueError):
            DatasetSequence(["a", "b"], [0.2, 0.1])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            DatasetSequence(["a"], [0.0, 0.1])


class TestDiscoverSequence:
    def test_discovers_scans_times_and_poses(self, tmp_path):
        make_dataset(tmp_path)
        seq = discover_sequence(str(tmp_path))
        assert len(seq) == 3
        assert seq.scan_paths == sorted(seq.scan_paths)
        assert seq.timestamps == [0.0, 0.1, 0.2]
        assert len(seq.ground_truth) == 3

    def test_missing_times_synthesizes_10hz(self, tmp_path):
        make_dataset(tmp_path, with_poses=False)
        (tmp_path / "times.txt").unlink()
        seq = discover_sequence(str(tmp_path))
        np.testing.assert_allclose(seq.timestamps, [0.0, 0.1, 0.2])

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            discover_sequence(str(tmp_path))

    def test_directory_without_scans_raises(self, tmp_path):
        make_dataset(tmp_path)
        velo = tmp_path / "velodyne"
        for scan in velo.glob("*.bin"):
            scan.rename(scan.with_suffix(".txt"))
        with pytest.raises(FileNotFoundError,
                           match=re.escape(f"no .bin scans under {velo}")):
            discover_sequence(str(tmp_path))

    def test_extra_pose_rows_are_cut_to_the_scans(self, tmp_path):
        # a partly copied sequence: 3 pose and time rows, 2 scans
        make_dataset(tmp_path)
        (tmp_path / "velodyne" / "000002.bin").unlink()
        seq = discover_sequence(str(tmp_path))
        assert len(seq.ground_truth) == len(seq) == 2
        assert seq.timestamps == [0.0, 0.1]

    def test_short_times_file_raises(self, tmp_path):
        make_dataset(tmp_path)
        (tmp_path / "times.txt").write_text("0.0\n")
        with pytest.raises(ValueError):
            discover_sequence(str(tmp_path))


class TestLoadErrorsInCli:
    """``slam run`` on a malformed text file exits with code 2 and names
    the file and the line."""

    def run(self, root):
        return cli_main(["run", "--dataset", str(root),
                         "--out", str(root / "out")])

    def test_short_pose_row(self, tmp_path, capsys):
        make_dataset(tmp_path)
        poses = tmp_path / "poses.txt"
        rows = poses.read_text().splitlines()
        rows[2] = " ".join(rows[2].split()[:11])
        poses.write_text("\n".join(rows) + "\n")
        assert self.run(tmp_path) == 2
        assert f"error: {poses}:3: expected 12 values, found 11" in \
            capsys.readouterr().err

    def test_non_finite_pose(self, tmp_path, capsys):
        make_dataset(tmp_path)
        poses = tmp_path / "poses.txt"
        rows = poses.read_text().splitlines()
        rows[1] = rows[1].replace("1.0", "nan", 1)
        poses.write_text("\n".join(rows) + "\n")
        assert self.run(tmp_path) == 2
        assert f"error: {poses}:2: non-finite value: {rows[1]!r}" in \
            capsys.readouterr().err

    def test_non_finite_time(self, tmp_path, capsys):
        make_dataset(tmp_path)
        times = tmp_path / "times.txt"
        times.write_text("0.0\ninf\n0.2\n")
        assert self.run(tmp_path) == 2
        assert f"error: {times}:2: non-finite value: 'inf'" in \
            capsys.readouterr().err

    def test_non_numeric_time(self, tmp_path, capsys):
        make_dataset(tmp_path)
        times = tmp_path / "times.txt"
        times.write_text("abc\n0.1\n0.2\n")
        assert self.run(tmp_path) == 2
        assert f"error: {times}:1: non-numeric field: 'abc'" in \
            capsys.readouterr().err
