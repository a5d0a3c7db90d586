"""Voxel downsampling and radius outlier removal."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial import cKDTree

from lidar_graph_slam.geometry import PointCloud, voxel_keys
from lidar_graph_slam.prefilter import (PrefilterConfig, prefilter,
                                        remove_outliers, voxel_downsample)


class TestVoxelKeys:
    def test_keys_sort_cells_lexicographically(self):
        # every combination of the extreme and middle cells on each axis
        edge = [-(1 << 20), -1, 0, 1, (1 << 20) - 1]
        cells = np.stack(np.meshgrid(edge, edge, edge, indexing="ij"),
                         axis=-1).reshape(-1, 3)
        got, keys = voxel_keys(cells + 0.5, 1.0)
        np.testing.assert_array_equal(got, cells)
        assert len(np.unique(keys)) == len(cells)
        np.testing.assert_array_equal(np.argsort(keys),
                                      np.lexsort(cells.T[::-1]))
        assert keys.min() == 0


class TestVoxelDownsample:
    def test_single_voxel_centroid(self):
        pts = np.array([[0.1, 0.1, 0.1], [0.2, 0.2, 0.2], [0.3, 0.3, 0.3]])
        out = voxel_downsample(PointCloud(pts), 1.0)
        assert len(out) == 1
        np.testing.assert_allclose(out.points[0], pts.mean(axis=0))

    def test_negative_coordinates_bin_correctly(self):
        # floor division: -0.1 and +0.1 are in different cells at res 1.0
        pts = np.array([[-0.1, 0.0, 0.0], [0.1, 0.0, 0.0]])
        out = voxel_downsample(PointCloud(pts), 1.0)
        assert len(out) == 2

    def test_first_occurrence_order(self):
        pts = np.array([[5.5, 0, 0], [0.5, 0, 0], [5.6, 0, 0], [2.5, 0, 0]])
        out = voxel_downsample(PointCloud(pts), 1.0)
        np.testing.assert_allclose(out.points[:, 0], [5.55, 0.5, 2.5])

    def test_empty_cloud(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = voxel_downsample(PointCloud(np.empty((0, 3)), timestamp=2.0,
                                              frame_id="s"), 0.5)
        assert len(out) == 0 and out.timestamp == 2.0 and out.frame_id == "s"
        assert out.points.shape == (0, 3)

    def test_invalid_resolution(self):
        with pytest.raises(ValueError):
            voxel_downsample(PointCloud(np.zeros((1, 3))), 0.0)

    def test_extent_guard(self):
        pts = np.array([[1e9, 0.0, 0.0]])
        with pytest.raises(ValueError):
            voxel_downsample(PointCloud(pts), 0.25)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_are_named(self, bad):
        # not mistaken for a cloud too large for the grid, and no
        # RuntimeWarning from casting them to cells
        pts = np.zeros((4, 3))
        pts[2, 1] = bad
        with pytest.raises(ValueError,
                           match="1 non-finite points, the first at row 2"):
            voxel_downsample(PointCloud(pts), 0.25)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("coordinate, fits", [
        (-float(1 << 20), True),            # cell -2**20 packs to 0
        (float(1 << 20) - 0.5, True),       # cell 2**20 - 1
        (float(1 << 20), False),
        (-float(1 << 20) - 0.5, False)])
    def test_extent_limits(self, axis, coordinate, fits):
        point = np.zeros((1, 3))
        point[0, axis] = coordinate
        if fits:
            out = voxel_downsample(PointCloud(point), 1.0)
            np.testing.assert_array_equal(out.points, point)
        else:
            with pytest.raises(ValueError, match="extent too large"):
                voxel_downsample(PointCloud(point), 1.0)

    @settings(max_examples=30, deadline=None)
    @given(hnp.arrays(np.float64, (50, 3),
                      elements=st.floats(-40.0, 40.0, allow_nan=False)),
           st.floats(0.1, 5.0))
    def test_matches_groupby_oracle(self, pts, res):
        out = voxel_downsample(PointCloud(pts), res)
        groups = {}
        for p in pts:
            groups.setdefault(tuple(np.floor(p / res).astype(int)), []).append(p)
        assert len(out) == len(groups)
        expected = sorted(np.mean(g, axis=0).tolist() for g in groups.values())
        actual = sorted(out.points.tolist())
        np.testing.assert_allclose(actual, expected, atol=1e-9)

    @pytest.mark.parametrize("res", [0.25, 1.0, 3.0])
    def test_centroids_equal_an_add_at_reference(self, rng, res):
        # many points per voxel, half of them at negative coordinates: the
        # centroids are bit-identical to sums taken with np.add.at
        pts = rng.uniform(-6.0, 6.0, size=(20000, 3))
        keys, first, inverse = np.unique(np.floor(pts / res), axis=0,
                                         return_index=True,
                                         return_inverse=True)
        inverse = inverse.ravel()
        sums = np.zeros((len(keys), 3))
        np.add.at(sums, inverse, pts)
        centroids = sums / np.bincount(inverse)[:, None]
        expected = centroids[np.argsort(first, kind="stable")]
        out = voxel_downsample(PointCloud(pts), res)
        np.testing.assert_array_equal(out.points, expected)

    def test_idempotent(self, rng):
        pts = rng.uniform(-20, 20, size=(5000, 3))
        once = voxel_downsample(PointCloud(pts), 0.7)
        twice = voxel_downsample(once, 0.7)
        np.testing.assert_array_equal(twice.points, once.points)


def ball_count_reference(pts, radius, min_neighbors):
    """Points with at least ``min_neighbors`` others in the closed ball."""
    counts = cKDTree(pts).query_ball_point(pts, radius, return_length=True)
    return pts[counts - 1 >= min_neighbors]


class TestRemoveOutliers:
    def test_isolated_point_removed(self):
        cluster = np.zeros((5, 3)) + np.linspace(0, 0.1, 5)[:, None]
        lonely = np.array([[100.0, 100.0, 100.0]])
        out = remove_outliers(PointCloud(np.vstack([cluster, lonely])),
                              radius=1.0, min_neighbors=2)
        assert len(out) == 5
        np.testing.assert_array_equal(out.points, cluster)

    def test_self_not_counted_as_neighbor(self):
        # two points within radius: each has exactly 1 other neighbor
        pts = np.array([[0.0, 0, 0], [0.1, 0, 0]])
        assert len(remove_outliers(PointCloud(pts), 1.0, 1)) == 2
        assert len(remove_outliers(PointCloud(pts), 1.0, 2)) == 0

    def test_preserves_coordinates_and_order(self, rng):
        pts = rng.normal(scale=0.5, size=(300, 3))
        out = remove_outliers(PointCloud(pts), 1.0, 2)
        kept = out.points
        # kept points appear in the same relative order with exact values
        positions = [np.flatnonzero((pts == p).all(axis=1))[0] for p in kept]
        assert positions == sorted(positions)

    def test_matches_ball_count_rule(self, rng):
        for m in (1, 2, 3, 5):
            pts = np.vstack([
                rng.normal(scale=5.0, size=(6000, 3)),
                rng.uniform(-30, 30, size=(3000, 3)),
            ])
            np.testing.assert_array_equal(
                remove_outliers(PointCloud(pts), 0.6, m).points,
                ball_count_reference(pts, 0.6, m))

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_lattice_spacing_equal_to_radius(self, rng, m):
        # every lattice neighbour sits at (about) exactly the radius
        for radius in (0.25, 0.4, 0.6, 1.0 / 3.0):
            axes = [np.arange(n) * radius for n in (14, 9, 5)]
            grid = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, 3)
            for offset in (np.zeros(3), rng.uniform(-20.0, 20.0, size=3)):
                pts = grid + offset
                pts = pts[rng.random(len(pts)) < 0.6]   # vary the counts
                np.testing.assert_array_equal(
                    remove_outliers(PointCloud(pts), radius, m).points,
                    ball_count_reference(pts, radius, m))

    def test_neighbours_an_ulp_from_the_radius(self, rng):
        # pairs whose distance is the radius give or take a few ulps: the
        # closed ball decides, not a rounded square root
        for _ in range(20):
            radius = rng.uniform(0.05, 2.0)
            a = rng.uniform(-50.0, 50.0, size=(2000, 3))
            u = rng.normal(size=a.shape)
            b = a + u / np.linalg.norm(u, axis=1, keepdims=True) * radius
            b += rng.integers(-3, 4, size=b.shape) * np.spacing(b)
            pts = np.vstack([a, b])
            np.testing.assert_array_equal(
                remove_outliers(PointCloud(pts), radius, 1).points,
                ball_count_reference(pts, radius, 1))

    def test_fewer_points_than_neighbours_keeps_none(self):
        pts = np.zeros((3, 3))
        assert len(remove_outliers(PointCloud(pts), 1.0, 3)) == 0
        assert len(remove_outliers(PointCloud(pts), 1.0, 2)) == 3

    def test_empty_cloud(self):
        out = remove_outliers(PointCloud(np.empty((0, 3))), 1.0, 1)
        assert len(out) == 0

    def test_invalid_parameters(self):
        cloud = PointCloud(np.zeros((1, 3)))
        with pytest.raises(ValueError):
            remove_outliers(cloud, 0.0, 1)
        with pytest.raises(ValueError):
            remove_outliers(cloud, 1.0, 0)


class TestPrefilterComposition:
    def test_downsample_then_outlier(self, rng):
        pts = np.vstack([rng.normal(scale=2.0, size=(2000, 3)),
                         [[500.0, 500.0, 500.0]]])
        cfg = PrefilterConfig(downsample_resolution=0.5, radius=1.0,
                              min_neighbors=2)
        out = prefilter(PointCloud(pts, timestamp=3.0, frame_id="s"), cfg)
        assert len(out) < 2000
        assert not np.any(np.all(out.points == [500.0, 500.0, 500.0], axis=1))
        assert out.timestamp == 3.0 and out.frame_id == "s"

    def test_methods_can_be_disabled(self, rng):
        # with outlier removal off, the filter is the voxel downsample alone
        pts = np.vstack([rng.normal(size=(100, 3)), [[500.0, 500.0, 500.0]]])
        cfg = PrefilterConfig(downsample_resolution=0.5, outlier_method="NONE")
        out = prefilter(PointCloud(pts, timestamp=3.0, frame_id="s"), cfg)
        np.testing.assert_array_equal(
            out.points, voxel_downsample(PointCloud(pts), 0.5).points)
        assert out.timestamp == 3.0 and out.frame_id == "s"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PrefilterConfig(downsample_resolution=-1.0)
        with pytest.raises(ValueError):
            PrefilterConfig(radius=0.0)
        with pytest.raises(ValueError):
            PrefilterConfig(min_neighbors=0)
