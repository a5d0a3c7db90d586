"""Ground-plane extraction in planar and rough-terrain modes."""

import numpy as np
import pytest

from lidar_graph_slam import floor
from lidar_graph_slam.floor import (MODE_PLANAR, MODE_ROUGH, FloorConfig,
                                    FloorCoefficients, detect_floor,
                                    detect_floor_planar, detect_floor_rough,
                                    fit_plane_lsq)
from lidar_graph_slam.geometry import PointCloud, estimate_normals

SENSOR_HEIGHT = 1.7


def floor_wall_scene(rng, tilt=None, noise=0.01, n_floor=1500, n_wall=600):
    """Sensor-frame scene: floor at z = -SENSOR_HEIGHT plus a vertical wall."""
    xy = rng.uniform(-12.0, 12.0, size=(n_floor, 2))
    floor = np.column_stack([xy, np.full(n_floor, -SENSOR_HEIGHT)])
    if tilt is not None:
        floor = floor @ tilt.T
    yz = rng.uniform(-2.0, 2.0, size=(n_wall, 2))
    wall = np.column_stack([np.full(n_wall, 8.0), yz[:, 0], yz[:, 1]])
    pts = np.vstack([floor, wall])
    return PointCloud(pts + rng.normal(scale=noise, size=pts.shape))


def reference_floor_planar(cloud, cfg=None):
    """Planar floor detection scoring one RANSAC hypothesis at a time.

    The per-hypothesis loop ``detect_floor_planar`` replaced; it keeps the
    first hypothesis whose inlier count beats every earlier one.
    """
    cfg = cfg or FloorConfig()
    z = cloud.points[:, 2]
    clipped = cloud.points[(z >= cfg.clip_min_z) & (z <= cfg.clip_max_z)]
    invalid = FloorCoefficients(0.0, 0.0, 1.0, 0.0, cloud.timestamp,
                                MODE_PLANAR, valid=False)
    if len(clipped) < max(3, floor.NORMAL_KNN):
        return invalid
    nz = estimate_normals(PointCloud(clipped), k=floor.NORMAL_KNN).normals[:, 2]
    cos_max = np.cos(cfg.normal_vertical_max_angle)
    candidates = clipped[(nz >= cos_max) & np.isfinite(nz)]
    if len(candidates) < max(50, floor.NORMAL_KNN):
        candidates = clipped
    rng = np.random.default_rng(cfg.seed)
    best_count = 0
    best_inliers = None
    n_pts = len(candidates)
    for _ in range(floor.RANSAC_ITERATIONS):
        sample = candidates[rng.choice(n_pts, size=3, replace=False)]
        normal = np.cross(sample[1] - sample[0], sample[2] - sample[0])
        norm = np.linalg.norm(normal)
        if norm < 1e-12:
            continue
        normal /= norm
        if normal[2] < 0:
            normal = -normal
        if normal[2] < cos_max:
            continue
        d = -normal @ sample[0]
        dist = np.abs(candidates @ normal + d)
        count = int((dist <= cfg.ransac_inlier_threshold).sum())
        if count > best_count:
            best_count = count
            best_inliers = dist <= cfg.ransac_inlier_threshold
    if best_inliers is None or best_count < n_pts * cfg.min_inlier_fraction:
        return invalid
    n, d = fit_plane_lsq(candidates[best_inliers])
    if n[2] < cos_max:
        return invalid
    return FloorCoefficients(n[0], n[1], n[2], d, cloud.timestamp,
                             MODE_PLANAR, valid=True)


def ransac_draws(n_pts, cfg):
    """The index triples RANSAC draws from ``n_pts`` candidates."""
    rng = np.random.default_rng(cfg.seed)
    return np.array([rng.choice(n_pts, size=3, replace=False)
                     for _ in range(floor.RANSAC_ITERATIONS)])


def assert_matches_reference(cloud, cfg=None):
    got = detect_floor_planar(cloud, cfg)
    want = reference_floor_planar(cloud, cfg)
    assert (got.a, got.b, got.c, got.d, got.valid) == \
        (want.a, want.b, want.c, want.d, want.valid)
    return got


def two_level_grids(z_low, z_high, spacing=0.25, half=5.0):
    """Two equal horizontal point grids, at z_low and z_high."""
    g = np.arange(-half, half, spacing)
    xy = np.stack(np.meshgrid(g, g, indexing="ij"), -1).reshape(-1, 2)
    return [np.column_stack([xy, np.full(len(xy), z)])
            for z in (z_low, z_high)]


def plane_errors(coeffs, true_normal, true_d):
    angle = np.degrees(np.arccos(np.clip(coeffs.normal @ true_normal, -1, 1)))
    return angle, abs(coeffs.d - true_d)


class TestFitPlaneLsq:
    def test_exact_plane(self, rng):
        n = np.array([0.2, -0.1, 0.97])
        n /= np.linalg.norm(n)
        basis = np.linalg.svd(n[None])[2][1:]
        uv = rng.uniform(-5, 5, size=(100, 2))
        pts = uv @ basis + n * 1.3            # plane n.x = 1.3 -> d = -1.3
        est_n, est_d = fit_plane_lsq(pts)
        np.testing.assert_allclose(est_n, n, atol=1e-9)
        assert est_d == pytest.approx(-1.3, abs=1e-9)

    def test_normal_sign_convention(self, rng):
        xy = rng.uniform(-1, 1, size=(50, 2))
        pts = np.column_stack([xy, np.full(50, -2.0)])
        n, d = fit_plane_lsq(pts)
        assert n[2] > 0


class TestPlanarMode:
    def test_finds_floor_despite_wall(self, rng):
        cloud = floor_wall_scene(rng)
        coeffs = detect_floor_planar(cloud)
        assert coeffs.valid
        angle, offset = plane_errors(coeffs, np.array([0.0, 0.0, 1.0]),
                                     SENSOR_HEIGHT)
        assert angle < 0.5
        assert offset < 0.02

    def test_coefficient_convention(self, rng):
        coeffs = detect_floor_planar(floor_wall_scene(rng))
        # unit normal with c > 0; points on the plane satisfy ax+by+cz+d = 0
        assert np.linalg.norm(coeffs.normal) == pytest.approx(1.0)
        assert coeffs.c > 0
        on_plane = np.array([[3.0, -2.0, -SENSOR_HEIGHT]])
        assert abs(coeffs.distance(on_plane)[0]) < 0.05

    def test_no_floor_in_clip_band_is_invalid(self, rng):
        # everything well above the clip band
        pts = rng.uniform(-5, 5, size=(500, 3))
        coeffs = detect_floor_planar(PointCloud(pts, timestamp=4.0))
        assert not coeffs.valid
        assert coeffs.timestamp == 4.0

    def test_wall_only_scene_is_invalid(self, rng):
        # vertical strip inside the clip band: no ground-like plane exists
        yz = rng.uniform(-1.0, 1.0, size=(800, 2))
        wall = np.column_stack([np.full(800, 5.0),
                                yz[:, 0], -1.75 + 0.7 * yz[:, 1]])
        wall += rng.normal(scale=0.01, size=wall.shape)
        coeffs = detect_floor_planar(PointCloud(wall))
        assert not coeffs.valid

    def test_deterministic(self, rng):
        cloud = floor_wall_scene(rng)
        a = detect_floor_planar(cloud)
        b = detect_floor_planar(cloud)
        assert (a.a, a.b, a.c, a.d) == (b.a, b.b, b.c, b.d)


class TestPlanarKernelMatchesReference:
    """``detect_floor_planar`` scores all hypotheses in one pass; its
    coefficients must equal those of the one-at-a-time reference loop."""

    @pytest.fixture(params=["default_chunk", "one_plane_per_chunk"])
    def chunk(self, request, monkeypatch):
        if request.param == "one_plane_per_chunk":
            monkeypatch.setattr(floor, "_SCORE_CHUNK", 1)

    def test_synthetic_floors(self, chunk):
        from lidar_graph_slam.geometry import so3_exp
        for seed in range(6):
            rng = np.random.default_rng(100 + seed)
            tilt = so3_exp(rng.normal(scale=np.deg2rad(4.0), size=3))
            for scene in (floor_wall_scene(rng),
                          floor_wall_scene(rng, tilt=tilt, noise=0.05),
                          floor_wall_scene(rng, n_floor=300, n_wall=900)):
                for cfg in (FloorConfig(seed=seed),
                            FloorConfig(seed=seed, min_inlier_fraction=0.6,
                                        ransac_inlier_threshold=0.03)):
                    assert_matches_reference(scene, cfg)

    def test_no_floor_and_wall_only_scenes(self, rng, chunk):
        assert_matches_reference(
            PointCloud(rng.uniform(-5, 5, size=(500, 3))))
        yz = rng.uniform(-1.0, 1.0, size=(800, 2))
        wall = np.column_stack([np.full(800, 5.0),
                                yz[:, 0], -1.75 + 0.7 * yz[:, 1]])
        assert_matches_reference(
            PointCloud(wall + rng.normal(scale=0.01, size=wall.shape)))

    def test_equal_best_counts_first_wins(self, chunk):
        # two equal flat grids: every triple from one grid counts exactly
        # that grid, so many hypotheses tie for the most inliers
        low, high = two_level_grids(-2.3, -1.2)
        cloud = PointCloud(np.vstack([low, high]))
        cfg = FloorConfig(seed=3)
        draws = ransac_draws(len(cloud), cfg)
        on_low = np.all(draws < len(low), axis=1)
        on_high = np.all(draws >= len(low), axis=1)
        single = np.flatnonzero(on_low | on_high)
        # the first and the last tied hypothesis lie on different grids,
        # so a rule keeping the last one would pick the other plane
        assert on_low[single[0]] != on_low[single[-1]]
        got = assert_matches_reference(cloud, cfg)
        want_d = 2.3 if on_low[single[0]] else 1.2
        assert got.valid and got.d == pytest.approx(want_d, abs=1e-9)

    def test_collinear_samples_are_skipped(self, chunk):
        # a line jittered by ~1e-15 m: its triples have cross products under
        # 1e-12 and must not become hypotheses.  Kept, one would give a plane
        # through the line at an arbitrary tilt, with the whole line as
        # inliers, beating the 40-point floor patch.
        rng = np.random.default_rng(7)
        x = np.arange(-10.0, 10.0, 0.1)
        line = np.column_stack([x, np.zeros(len(x)), np.full(len(x), -1.1)])
        line[:, 1:] += rng.normal(scale=1e-15, size=(len(x), 2))
        patch = np.column_stack([rng.uniform(-10.0, 10.0, 40),
                                 rng.uniform(1.0, 2.0, 40), np.full(40, -2.5)])
        cfg = FloorConfig(seed=1, min_inlier_fraction=0.1)
        draws = ransac_draws(len(line) + len(patch), cfg)
        assert np.any(np.all(draws < len(line), axis=1))
        got = assert_matches_reference(PointCloud(np.vstack([line, patch])),
                                       cfg)
        assert got.valid and got.d == pytest.approx(2.5, abs=1e-9)
        # the line alone: every triple is degenerate, so no floor
        assert not assert_matches_reference(PointCloud(line), cfg).valid

    def test_slab_without_ground_like_plane_is_invalid(self, rng, chunk):
        # a 45-degree slope fills the clip band: every hypothesis is steep
        xy = rng.uniform([-0.7, -5.0], [0.7, 5.0], size=(1000, 2))
        slope = np.column_stack([xy, -1.75 + xy[:, 0]])
        slope += rng.normal(scale=0.01, size=slope.shape)
        assert not assert_matches_reference(PointCloud(slope)).valid

    def test_large_candidate_set_spans_chunks(self, rng):
        xy = rng.uniform(-20.0, 20.0, size=(40_000, 2))
        ground = np.column_stack([xy, np.full(len(xy), -SENSOR_HEIGHT)])
        ground += rng.normal(scale=0.03, size=ground.shape)
        # 40k candidates: each chunk scores fewer planes than RANSAC draws
        assert floor._SCORE_CHUNK // len(ground) < floor.RANSAC_ITERATIONS
        assert assert_matches_reference(PointCloud(ground)).valid


class TestRoughMode:
    def test_tilted_plane_under_noise(self, rng):
        from lidar_graph_slam.geometry import so3_exp
        tilt = so3_exp([np.deg2rad(5.0), 0.0, 0.0])
        xy = rng.uniform(-3.0, 3.0, size=(800, 2))
        pts = np.column_stack([xy, np.full(800, -SENSOR_HEIGHT)]) @ tilt.T
        pts += rng.normal(scale=0.05, size=pts.shape)
        coeffs = detect_floor_rough(PointCloud(pts))
        assert coeffs.valid
        true_n = tilt @ np.array([0.0, 0.0, 1.0])
        angle, _ = plane_errors(coeffs, true_n, 0.0)
        assert angle < 2.0

    def test_clips_by_horizontal_radius(self, rng):
        # near points flat, far points wildly sloped: only near ones count
        near_xy = rng.uniform(-2.0, 2.0, size=(300, 2))
        near = np.column_stack([near_xy, np.full(300, -SENSOR_HEIGHT)])
        far_xy = rng.uniform(5.0, 10.0, size=(300, 2))
        far = np.column_stack([far_xy, far_xy[:, 0] * 2.0])
        coeffs = detect_floor_rough(PointCloud(np.vstack([near, far])))
        assert coeffs.valid
        angle, offset = plane_errors(coeffs, np.array([0.0, 0.0, 1.0]),
                                     SENSOR_HEIGHT)
        assert angle < 0.5 and offset < 0.02

    def test_non_planar_neighborhood_is_invalid(self, rng):
        pts = rng.uniform(-2.0, 2.0, size=(500, 3))
        coeffs = detect_floor_rough(PointCloud(pts))
        assert not coeffs.valid

    def test_too_few_points_invalid(self):
        coeffs = detect_floor_rough(PointCloud(np.zeros((2, 3))))
        assert not coeffs.valid


class TestModeDispatchAndConfig:
    def test_detect_floor_dispatches(self, rng):
        cloud = floor_wall_scene(rng)
        planar = detect_floor(cloud, FloorConfig(mode=MODE_PLANAR))
        rough = detect_floor(cloud, FloorConfig(mode=MODE_ROUGH))
        assert planar.mode == MODE_PLANAR
        assert rough.mode == MODE_ROUGH

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FloorConfig(clip_min_z=-1.0, clip_max_z=-2.0)
        with pytest.raises(ValueError):
            FloorConfig(normal_vertical_max_angle=0.0)
        with pytest.raises(ValueError):
            FloorConfig(ransac_inlier_threshold=-0.1)
