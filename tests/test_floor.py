"""Ground-plane extraction: RANSAC over a height slab."""

import numpy as np
import pytest

from lidar_graph_slam import floor
from lidar_graph_slam.floor import (FloorConfig, FloorCoefficients,
                                    detect_floor, fit_plane_lsq)
from lidar_graph_slam.geometry import PointCloud
from lidar_graph_slam.prefilter import PrefilterConfig, prefilter
from lidar_graph_slam.synthetic import (make_world, render_sequence,
                                        square_loop_trajectory,
                                        straight_then_curve_trajectory)

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

    The per-hypothesis loop ``detect_floor`` replaced; it keeps the
    first hypothesis whose inlier count beats every earlier one.
    """
    cfg = cfg or FloorConfig()
    z = cloud.points[:, 2]
    slab = cloud.points[(z >= cfg.clip_min_z) & (z <= cfg.clip_max_z)]
    invalid = FloorCoefficients(0.0, 0.0, 1.0, 0.0, valid=False)
    if len(slab) < floor.MIN_SLAB_POINTS:
        return invalid
    cos_max = np.cos(cfg.normal_vertical_max_angle)
    best_count = 0
    best_inliers = None
    for triple in ransac_draws(len(slab), cfg):
        sample = slab[triple]
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
        dist = np.abs(slab @ normal + d)
        count = int((dist <= cfg.ransac_inlier_threshold).sum())
        if count > best_count:
            best_count = count
            best_inliers = dist <= cfg.ransac_inlier_threshold
    if best_inliers is None or best_count < len(slab) * cfg.min_inlier_fraction:
        return invalid
    n, d = fit_plane_lsq(slab[best_inliers])
    if n[2] < cos_max:
        return invalid
    return FloorCoefficients(n[0], n[1], n[2], d, valid=True)


def ransac_draws(n_pts, cfg):
    """The index triples RANSAC draws from ``n_pts`` slab points."""
    return np.random.default_rng(cfg.seed).integers(
        n_pts, size=(floor.RANSAC_ITERATIONS, 3))


def distinct(draws):
    """Whether each triple's three indices differ."""
    return ((draws[:, 0] != draws[:, 1]) & (draws[:, 1] != draws[:, 2])
            & (draws[:, 0] != draws[:, 2]))


def assert_matches_reference(cloud, cfg=None):
    got = detect_floor(cloud, cfg)
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
        coeffs = detect_floor(cloud)
        assert coeffs.valid
        angle, offset = plane_errors(coeffs, np.array([0.0, 0.0, 1.0]),
                                     SENSOR_HEIGHT)
        assert angle < 0.5
        assert offset < 0.02

    def test_coefficient_convention(self, rng):
        coeffs = detect_floor(floor_wall_scene(rng))
        # unit normal with c > 0; points on the plane satisfy ax+by+cz+d = 0
        assert np.linalg.norm(coeffs.normal) == pytest.approx(1.0)
        assert coeffs.c > 0
        on_plane = np.array([3.0, -2.0, -SENSOR_HEIGHT])
        assert abs(on_plane @ coeffs.normal + coeffs.d) < 0.05

    def test_no_floor_in_clip_band_is_invalid(self, rng):
        # everything well above the clip band
        pts = rng.uniform(-5, 5, size=(500, 3))
        coeffs = detect_floor(PointCloud(pts))
        assert not coeffs.valid

    def test_wall_only_scene_is_invalid(self, rng):
        # vertical strip inside the clip band: no ground-like plane exists
        yz = rng.uniform(-1.0, 1.0, size=(800, 2))
        wall = np.column_stack([np.full(800, 5.0),
                                yz[:, 0], -1.75 + 0.7 * yz[:, 1]])
        wall += rng.normal(scale=0.01, size=wall.shape)
        coeffs = detect_floor(PointCloud(wall))
        assert not coeffs.valid

    def test_refit_steeper_than_the_limit_is_invalid(self, rng,
                                                    monkeypatch):
        # a 0.3 m wide strip of ground pitched 25 degrees with 2 cm noise:
        # some noisy triples tilt under the 20 degree limit, and each such
        # plane holds the whole strip within the inlier threshold, so
        # RANSAC accepts; the least-squares refit over the strip is steeper
        x = rng.uniform(-0.15, 0.15, 400)
        strip = np.column_stack([
            x, rng.uniform(-3.0, 3.0, 400),
            -SENSOR_HEIGHT + np.tan(np.deg2rad(25.0)) * x
            + rng.normal(scale=0.02, size=400)])
        refits = []

        def recorded(points):
            refits.append(fit_plane_lsq(points))
            return refits[-1]

        monkeypatch.setattr(floor, "fit_plane_lsq", recorded)
        cfg = FloorConfig(normal_vertical_max_angle=np.deg2rad(20.0))
        assert not detect_floor(PointCloud(strip), cfg).valid
        (normal, _), = refits
        assert np.rad2deg(np.arccos(normal[2])) > 20.0
        # the same refit passes under a looser limit
        cfg = FloorConfig(normal_vertical_max_angle=np.deg2rad(40.0))
        assert detect_floor(PointCloud(strip), cfg).valid

    def test_prefiltered_rendered_scans(self):
        # what the pipeline hands the floor: every 5th scan of runs like the
        # benchmark's (a 1 m loop, a straight-then-curve path, a 2.5 m-per-
        # scan square) through a rendered world, prefiltered as by default
        loop = square_loop_trajectory(side=50.0, step=1.0, overshoot=11.0)
        straight = straight_then_curve_trajectory(
            straight=110.0, curve_radius=40.0, curve_angle=1.0, step=1.0)
        fast = square_loop_trajectory(side=36.0, step=2.5, corner_radius=12.0)
        cfg = PrefilterConfig()
        for traj, world_seed, noise, curl in ((loop, 1, 0.02, 0.002),
                                              (straight, 4, 0.0, 0.0),
                                              (fast, 1, 0.02, 0.002)):
            xy = np.array([p.translation[:2] for _, p in traj])
            world = make_world(xy, seed=world_seed, corridor=12.0)
            clouds, _ = render_sequence(world, traj[::5], noise_sigma=noise,
                                        curl=curl, seed=1)
            for cloud in clouds:
                coeffs = detect_floor(prefilter(cloud, cfg))
                assert coeffs.valid
                angle, offset = plane_errors(
                    coeffs, np.array([0.0, 0.0, 1.0]), SENSOR_HEIGHT)
                assert angle < 0.5 and offset < 0.02

    def test_deterministic(self, rng):
        cloud = floor_wall_scene(rng)
        a = detect_floor(cloud)
        b = detect_floor(cloud)
        assert (a.a, a.b, a.c, a.d) == (b.a, b.b, b.c, b.d)


class TestPlanarKernelMatchesReference:
    """``detect_floor`` scores all hypotheses in one pass; its
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
        cfg = FloorConfig(seed=0)
        draws = ransac_draws(len(cloud), cfg)
        on_low = np.all(draws < len(low), axis=1)
        on_high = np.all(draws >= len(low), axis=1)
        single = np.flatnonzero((on_low | on_high) & distinct(draws))
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

    def test_repeated_index_triples_make_no_hypothesis(self, chunk):
        # a slab of the 10 points a floor needs: about a quarter of the
        # draws repeat an index, and such a triple spans no plane
        rng = np.random.default_rng(5)
        xy = rng.uniform(-5.0, 5.0, size=(10, 2))
        slab = np.column_stack([xy, np.full(len(xy), -SENSOR_HEIGHT)])
        cfg = FloorConfig()
        draws = ransac_draws(len(slab), cfg)
        repeated = ~distinct(draws)
        assert np.any(repeated)
        cos_max = np.cos(cfg.normal_vertical_max_angle)
        normals, _ = floor._ground_hypotheses(slab[draws[repeated]], cos_max)
        assert len(normals) == 0
        normals, _ = floor._ground_hypotheses(slab[draws], cos_max)
        assert len(normals) == np.count_nonzero(~repeated)
        got = assert_matches_reference(PointCloud(slab), cfg)
        assert got.valid and got.d == pytest.approx(SENSOR_HEIGHT, abs=1e-9)
        # nine points are too few
        assert not assert_matches_reference(PointCloud(slab[1:]), cfg).valid

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


class TestModeDispatchAndConfig:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            FloorConfig(clip_min_z=-1.0, clip_max_z=-2.0)
        with pytest.raises(ValueError):
            FloorConfig(normal_vertical_max_angle=0.0)
        with pytest.raises(ValueError):
            FloorConfig(ransac_inlier_threshold=-0.1)
