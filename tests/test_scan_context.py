"""Polar-grid place descriptor."""

import numpy as np
import pytest

from lidar_graph_slam.geometry import PointCloud, Pose, so3_exp
from lidar_graph_slam.scan_context import (ScanContextParams,
                                           descriptor_distances,
                                           make_scan_context, shift_to_yaw)

PARAMS = ScanContextParams(rings=20, sectors=60, max_range=80.0)


def bin_centered_cloud(rng, n=400, params=PARAMS):
    """Random points snapped to ring/sector bin centers (away from edges)."""
    ring = rng.integers(1, params.rings, size=n)
    sector = rng.integers(0, params.sectors, size=n)
    radius = (ring + 0.5) / params.rings * params.max_range
    azimuth = (sector + 0.5) * params.sector_width
    z = rng.uniform(-1.8, 3.0, size=n)
    pts = np.column_stack([radius * np.cos(azimuth),
                           radius * np.sin(azimuth), z])
    return PointCloud(pts)


class TestMakeScanContext:
    def test_single_point_bin(self):
        # range 10 of 80 over 20 rings -> ring 2; azimuth 0 -> sector 0
        cloud = PointCloud(np.array([[10.0, 0.0, 0.5]]))
        sc = make_scan_context(cloud, PARAMS)
        assert sc.shape == (20, 60)
        assert sc[2, 0] == pytest.approx(2.5)    # z + HEIGHT_OFFSET
        assert np.count_nonzero(sc) == 1

    def test_max_height_per_bin(self):
        pts = np.array([[10.0, 0.0, 0.5], [10.0, 0.0, 1.5], [10.0, 0.0, -0.5]])
        sc = make_scan_context(PointCloud(pts), PARAMS)
        assert sc[2, 0] == pytest.approx(3.5)

    def test_points_below_offset_clamp_to_zero(self):
        cloud = PointCloud(np.array([[10.0, 0.0, -5.0]]))
        sc = make_scan_context(cloud, PARAMS)
        assert sc[2, 0] == 0.0

    def test_out_of_range_points_ignored(self):
        cloud = PointCloud(np.array([[100.0, 0.0, 1.0]]))
        sc = make_scan_context(cloud, PARAMS)
        assert np.count_nonzero(sc) == 0

    def test_empty_cloud(self):
        sc = make_scan_context(PointCloud(np.empty((0, 3))), PARAMS)
        assert np.count_nonzero(sc) == 0


class TestRotationBehavior:
    @pytest.mark.parametrize("shift_sectors", [1, 7, 30, 59])
    def test_sector_multiple_yaw_shifts_columns_exactly(self, rng,
                                                        shift_sectors):
        cloud = bin_centered_cloud(rng)
        yaw = shift_sectors * PARAMS.sector_width
        rotated = cloud.transformed(Pose(so3_exp([0.0, 0.0, yaw]), np.zeros(3)))
        base = make_scan_context(cloud, PARAMS)
        rot = make_scan_context(rotated, PARAMS)
        np.testing.assert_array_equal(rot,
                                      np.roll(base, shift_sectors, axis=1))

    def test_distance_recovers_rotation(self, rng):
        cloud = bin_centered_cloud(rng)
        m = 13
        rotated = cloud.transformed(
            Pose(so3_exp([0.0, 0.0, m * PARAMS.sector_width]), np.zeros(3)))
        query = make_scan_context(rotated, PARAMS)
        cand = make_scan_context(cloud, PARAMS)
        dist, shift = descriptor_distance(query, cand)
        assert dist < 1e-12
        np.testing.assert_array_equal(np.roll(query, shift, axis=1),
                                      cand)


class TestDescriptorDistance:
    def test_identical_is_zero(self, rng):
        sc = make_scan_context(bin_centered_cloud(rng), PARAMS)
        dist, shift = descriptor_distance(sc, sc)
        assert dist == pytest.approx(0.0, abs=1e-12)
        assert shift == 0

    def test_disjoint_occupancy_is_one(self):
        a = np.zeros((20, 60))
        b = np.zeros((20, 60))
        a[:, 0] = 1.0
        dist, _ = descriptor_distance(a, b)
        assert dist == 1.0

    def test_different_places_are_far(self, rng):
        a = make_scan_context(bin_centered_cloud(rng), PARAMS)
        b = make_scan_context(bin_centered_cloud(rng), PARAMS)
        dist, _ = descriptor_distance(a, b)
        assert dist > 0.05


def descriptor_distance(query, candidate):
    """The batched distance's one-candidate case, as (distance, shift)."""
    dist, shift = descriptor_distances(query, candidate[None])
    return float(dist[0]), int(shift[0])


def loop_distance(query, candidate):
    """Reference: roll the query through every shift, keep the first best."""
    q, c = query, candidate
    c_norms = np.linalg.norm(c, axis=0)
    best = (np.inf, 0)
    for shift in range(q.shape[1]):
        rq = np.roll(q, shift, axis=1)
        denom = np.linalg.norm(rq, axis=0) * c_norms
        usable = denom > 0.0
        if not usable.any():
            dist = 1.0
        else:
            dots = (rq[:, usable] * c[:, usable]).sum(axis=0)
            dist = float(np.mean(1.0 - dots / denom[usable]))
        if dist < best[0]:
            best = (dist, shift)
    return best


def random_grid(rng):
    """Sparse grid with about a third of its columns empty."""
    g = rng.uniform(0.0, 4.0, size=(20, 60))
    g *= rng.random((20, 60)) < rng.uniform(0.05, 1.0)
    g[:, rng.random(60) < 0.3] = 0.0
    return g


class TestDistanceAgainstLoop:
    def test_random_grids_with_empty_columns(self, rng):
        for _ in range(200):
            a, b = random_grid(rng), random_grid(rng)
            dist, shift = descriptor_distance(a, b)
            ref_dist, ref_shift = loop_distance(a, b)
            assert shift == ref_shift
            assert dist == pytest.approx(ref_dist, abs=1e-12)

    def test_all_empty_grid_is_one_at_shift_zero(self, rng):
        empty = np.zeros((20, 60))
        full = rng.uniform(0.5, 2.0, size=(20, 60))
        assert descriptor_distance(empty, full) == (1.0, 0)
        assert descriptor_distance(full, empty) == (1.0, 0)
        assert descriptor_distance(empty, empty) == (1.0, 0)

    def test_exact_ties_keep_lowest_shift(self):
        # one-hot columns repeating every 20 sectors: shifts 5, 25 and 45
        # match exactly, with cosines of exactly 0 or 1
        q = np.zeros((20, 60))
        for col in range(0, 60, 20):
            q[0, col] = 1.0
            q[3, col + 7] = 2.0
        c = np.roll(q, 5, axis=1)
        dist, shift = descriptor_distance(q, c)
        assert (dist, shift) == loop_distance(q, c)
        assert (dist, shift) == (0.0, 5)


class TestBatchedDistance:
    @pytest.mark.parametrize("n", [1, 10, 43])
    def test_stack_matches_loop(self, rng, n):
        # random candidates with empty columns, one of them all empty
        grids = np.stack([random_grid(rng) for _ in range(n)])
        grids[rng.integers(n)] = 0.0
        for _ in range(5):
            query = random_grid(rng)
            dist, shift = descriptor_distances(query, grids)
            assert dist.shape == shift.shape == (n,)
            for i, grid in enumerate(grids):
                ref_dist, ref_shift = loop_distance(query, grid)
                assert shift[i] == ref_shift
                assert dist[i] == pytest.approx(ref_dist, abs=1e-12)

    def test_exact_tie_between_candidates_goes_to_earlier(self):
        q = np.zeros((20, 60))
        q[0, 0] = 1.0
        q[3, 7] = 2.0
        # the same grid at two places in the stack, behind a worse one
        c = np.roll(q, 11, axis=1)
        worse = c.copy()
        worse[5, 11] = 1.0
        grids = np.stack([worse, c, c])
        dist, shift = descriptor_distances(q, grids)
        assert dist[0] > 0.0
        assert dist[1] == dist[2] == 0.0
        assert shift[1] == shift[2] == 11
        assert int(np.argmin(dist)) == 1


class TestShiftToYaw:
    def test_wraps_to_signed_range(self):
        assert shift_to_yaw(0, PARAMS) == 0.0
        assert shift_to_yaw(1, PARAMS) == pytest.approx(PARAMS.sector_width)
        assert shift_to_yaw(59, PARAMS) == pytest.approx(-PARAMS.sector_width)
        assert -np.pi < shift_to_yaw(30, PARAMS) <= np.pi
