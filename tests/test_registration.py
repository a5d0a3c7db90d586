"""GICP scan matching: the match, its checks and its kernel."""

import warnings

import numpy as np
import pytest
from scipy.spatial import cKDTree

from lidar_graph_slam import registration as registration_module
from lidar_graph_slam.geometry import (KdTree, PointCloud, Pose, se3_exp,
                                       so3_exp)
from lidar_graph_slam.pipeline import SlamPipeline
from lidar_graph_slam.prefilter import PrefilterConfig, prefilter
from lidar_graph_slam.registration import (GICP_EPSILON, MIN_CELL_POINTS,
                                           MIN_CORRESPONDENCES, NORMAL_CELL,
                                           RegistrationConfig, _gicp_cost,
                                           _gicp_normal_equations, _gicp_pairs,
                                           compute_gicp_normals, align,
                                           cloud_kdtree, score_alignment,
                                           voxel_normals)
from lidar_graph_slam.synthetic import (make_world, render_sequence,
                                        straight_then_curve_trajectory)
from lidar_graph_slam.tracker import KeyframeCriteria, Tracker

from conftest import (box_surface_cloud, compute_gicp_covariances,
                      dense_normal_equations, disc_covariances,
                      knn_gicp_normals, pose_error, random_pose,
                      reference_knn_normals)


def tight_config():
    return RegistrationConfig(max_iterations=100,
                              transformation_epsilon=1e-6,
                              max_correspondence_distance=2.0)


def make_pair(rng, max_trans=1.0, max_angle=np.deg2rad(10.0)):
    """Target cloud, source = target seen under a random motion, truth."""
    target = box_surface_cloud(rng, n=500)
    truth = random_pose(rng, max_trans, max_angle)
    source = target.transformed(truth.inverse())
    return source, target, truth


class TestAlign:
    def test_recovers_motion(self, rng):
        for _ in range(5):
            source, target, truth = make_pair(rng)
            res = align(source, target, cfg=tight_config())
            terr, rerr = pose_error(res.transform, truth)
            assert res.converged and res.valid
            assert terr < 1e-3
            assert rerr < 0.05
            assert score_alignment(source, target, res.transform, 2.0) < 1e-4

    def test_identity_on_identical_clouds(self, rng):
        source, target, _ = make_pair(rng, max_trans=0.0,
                                      max_angle=1e-12)
        res = align(source, target, cfg=tight_config())
        terr, rerr = pose_error(res.transform, Pose.identity())
        assert terr < 1e-6 and rerr < 1e-4

    def test_initial_guess_is_used(self, rng):
        # motion too large for identity start, recoverable from a good guess
        source, target, truth = make_pair(rng, max_trans=0.0)
        big = Pose(so3_exp([0.0, 0.0, np.pi / 3]), np.array([4.0, 0.0, 0.0]))
        source = target.transformed(big.inverse())
        res = align(source, target, guess=big, cfg=tight_config())
        terr, rerr = pose_error(res.transform, big)
        assert terr < 1e-3 and rerr < 0.05

    def test_too_few_correspondences_fails_gracefully(self, rng):
        source = PointCloud(rng.normal(size=(30, 3)))
        target = PointCloud(rng.normal(size=(30, 3)) + 100.0)
        res = align(source, target, cfg=tight_config())
        assert not res.converged
        assert not res.valid

    def test_empty_cloud_fails_gracefully(self, rng):
        empty = PointCloud(np.empty((0, 3)))
        full = PointCloud(rng.normal(size=(30, 3)))
        res = align(empty, full)
        assert not res.converged and not res.valid

    @pytest.mark.parametrize("n_points", [1, 2, 9])
    def test_cloud_below_min_correspondences_fails(self, rng, n_points):
        # the guess comes back, before any normal is computed
        tiny = PointCloud(rng.normal(size=(n_points, 3)))
        full = PointCloud(rng.normal(size=(30, 3)))
        guess = random_pose(rng, 0.5, 0.1)
        for source, target in ((tiny, full), (full, tiny)):
            res = align(source, target, guess, RegistrationConfig())
            assert not res.converged and not res.valid
            assert res.transform is guess and res.iterations_used == 0
        assert tiny.normals is None and not hasattr(tiny, "_kdtree")

    def test_overlap_and_capped_fitness(self, rng):
        # half the source has no counterpart within the bound: each of
        # those points adds the capped max_d**2, the matched half adds 0
        target = box_surface_cloud(rng, n=400)
        far = PointCloud(np.vstack([target.points,
                                    rng.normal(size=(400, 3)) + 50.0]))
        max_d = 2.0
        fitness = score_alignment(far, target, Pose.identity(), max_d)
        assert fitness == pytest.approx(0.5 * max_d ** 2)

    @pytest.mark.parametrize("n_points", [0, MIN_CORRESPONDENCES - 1],
                             ids=["empty", "nine_points"])
    def test_cloud_too_small_to_score_gets_none(self, rng, n_points):
        # align refuses such clouds too; the empty source used to score
        # nan with a RuntimeWarning, and the empty target to raise
        tiny = PointCloud(rng.normal(size=(n_points, 3)))
        full = box_surface_cloud(rng, n=300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert score_alignment(tiny, full, Pose.identity(), 2.0) is None
            assert score_alignment(full, tiny, Pose.identity(), 2.0) is None

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RegistrationConfig(max_iterations=0)
        with pytest.raises(ValueError):
            RegistrationConfig(transformation_epsilon=0.0)
        with pytest.raises(ValueError):
            RegistrationConfig(max_correspondence_distance=-1.0)


class TestGicpStepRule:
    """GICP takes a Gauss-Newton step only if it does not raise the cost."""

    def test_step_that_raises_the_cost_ends_the_match(self, rng,
                                                      monkeypatch):
        source, target, truth = make_pair(rng)
        monkeypatch.setattr(registration_module, "_gicp_cost",
                            lambda *args: np.inf)
        res = align(source, target, truth, tight_config())
        assert res.transform is truth
        assert res.converged and res.valid and res.iterations_used == 1
        assert score_alignment(source, target, truth, 2.0) < 1e-12

    def test_singular_system_ends_the_match(self, rng):
        # every source point at the origin: the rotation block of H is zero
        source = PointCloud(np.zeros((50, 3)))
        target = box_surface_cloud(rng, n=300)
        res = align(source, target, cfg=tight_config())
        assert np.isfinite(res.transform.matrix()).all()
        assert not res.converged and res.iterations_used == 1
        assert res.valid
        assert np.isfinite(score_alignment(source, target, res.transform,
                                           2.0))


class TestBoundedSearch:
    """align's correspondence search is bounded at the maximum
    correspondence distance, strictly in squared distance; it must find
    what an unbounded search finds under that rule."""

    @staticmethod
    def boundary_pair(rng, max_d):
        """Random source and target points, plus source points with a
        target at exactly ``max_d`` and one ulp either side."""
        source = [rng.uniform(-5.0, 5.0, size=(300, 3))]
        target = [rng.uniform(-5.0, 5.0, size=(300, 3))]
        for j, d in enumerate((np.nextafter(max_d, 0.0), max_d,
                               np.nextafter(max_d, np.inf))):
            base = np.array([0.0, 100.0 + 20.0 * j, 0.0])
            source.append(base[None, :])
            target.append((base + [d, 0.0, 0.0])[None, :])
        return PointCloud(np.vstack(source)), PointCloud(np.vstack(target))

    @pytest.mark.parametrize("max_d", [2.0, 0.7, 1.3])
    def test_same_matches_and_score_as_unbounded_search(self, rng, max_d):
        source, target = self.boundary_pair(rng, max_d)
        reference = cKDTree(target.points)

        def within(queries, nearest):
            # squared distance summed x² + y² + z², strictly below max_d²
            diff = queries - target.points[nearest]
            sq = diff[:, 0] ** 2 + diff[:, 1] ** 2 + diff[:, 2] ** 2
            return sq < max_d * max_d

        # the three boundary points: inside, at and just outside max_d
        _, boundary = reference.query(source.points[-3:])
        assert list(within(source.points[-3:], boundary)) == \
            [True, False, False]
        for transform in (Pose.identity(), random_pose(rng, 0.5, 0.2)):
            moved = transform.apply(source.points)
            ref_dist, ref_idx = reference.query(moved)
            ref_mask = within(moved, ref_idx)
            idx, dist = cloud_kdtree(target).query_batch(
                moved, max_distance=max_d)
            mask = np.isfinite(dist)
            np.testing.assert_array_equal(mask, ref_mask)
            np.testing.assert_array_equal(idx[mask], ref_idx[ref_mask])
            np.testing.assert_array_equal(dist[mask], ref_dist[ref_mask])
            fitness = score_alignment(source, target, transform, max_d)
            assert fitness == float(np.mean(np.minimum(ref_dist, max_d) ** 2))


class TestFinalCheck:
    """align's last step: at least MIN_CORRESPONDENCES source points must
    match at the final estimate."""

    def test_final_estimate_without_matches_fails(self, rng, monkeypatch):
        # a step that moves the source 100 m away, and that the cost accepts
        source, target, _ = make_pair(rng)
        monkeypatch.setattr(registration_module, "se3_exp",
                            lambda step: Pose(np.eye(3), [100.0, 0, 0]))
        monkeypatch.setattr(registration_module, "_gicp_cost",
                            lambda *args: -np.inf)
        cfg = RegistrationConfig(max_iterations=1)
        res = align(source, target, cfg=cfg)
        assert not res.valid and not res.converged
        assert res.iterations_used == 1
        np.testing.assert_allclose(res.transform.translation, [100.0, 0, 0])

    def record_queries(self, monkeypatch):
        sizes = []

        class RecordingTree(registration_module.KdTree):
            def query_batch(self, queries, *args, **kwargs):
                sizes.append(len(queries))
                return super().query_batch(queries, *args, **kwargs)

        monkeypatch.setattr(registration_module, "KdTree", RecordingTree)
        return sizes

    def test_prefix_with_enough_matches_ends_the_check(self, rng,
                                                        monkeypatch):
        sizes = self.record_queries(monkeypatch)
        source, target, truth = make_pair(rng)
        res = align(source, target, cfg=tight_config())
        assert res.valid and pose_error(res.transform, truth)[0] < 1e-3
        prefix = registration_module._CHECK_PREFIX
        assert prefix >= MIN_CORRESPONDENCES
        assert sizes[-1] == prefix
        assert sizes[:-1] == [len(source)] * res.iterations_used

    def test_short_prefix_queries_the_rest(self, rng, monkeypatch):
        sizes = self.record_queries(monkeypatch)
        target = box_surface_cloud(rng, n=500)
        prefix = registration_module._CHECK_PREFIX
        # the first points have no counterpart, the rest match exactly
        source = PointCloud(np.vstack([rng.normal(size=(prefix, 3)) + 50.0,
                                       target.points]))
        res = align(source, target, cfg=tight_config())
        assert res.valid
        assert sizes[-2:] == [prefix, len(source) - prefix]


def grid_plane(normal, offset, half_width=3.0, spacing=0.25):
    """Noiseless points of the plane through ``offset`` with unit
    ``normal``, one per ``spacing`` step of a square lattice in the plane."""
    basis = np.linalg.svd(np.asarray(normal)[None])[2][1:]
    ticks = np.arange(-half_width, half_width, spacing) + spacing / 2
    uv = np.stack(np.meshgrid(ticks, ticks), axis=-1).reshape(-1, 2)
    return PointCloud(uv @ basis + offset)


def voxel_reference_normals(points):
    """Reference for voxel_normals: each NORMAL_CELL cell's points gathered
    one cell at a time, and the smallest eigenvector of their centered
    scatter by np.linalg.eigh; zero for cells below MIN_CELL_POINTS."""
    cells = np.floor(points / NORMAL_CELL).astype(np.int64)
    _, inverse = np.unique(cells, axis=0, return_inverse=True)
    out = np.zeros_like(points)
    for cell in np.unique(inverse):
        members = np.flatnonzero(inverse == cell)
        if len(members) >= MIN_CELL_POINTS:
            centered = points[members] - points[members].mean(axis=0)
            out[members] = np.linalg.eigh(centered.T @ centered)[1][:, 0]
    return out


class TestInvalidIsNotConverged:
    """LoopDetector.verify refuses a match on ``not res.converged`` alone,
    so every invalid result that align returns must be not converged."""

    @pytest.mark.parametrize("exit_", [
        "cloud_below_min_correspondences", "too_few_matches_at_an_iteration",
        "no_matches_after_converging"])
    def test_invalid_result_is_not_converged(self, rng, monkeypatch, exit_):
        source, target, _ = make_pair(rng)
        cfg = tight_config()
        if exit_ == "cloud_below_min_correspondences":
            source = PointCloud(source.points[:MIN_CORRESPONDENCES - 1])
        elif exit_ == "too_few_matches_at_an_iteration":
            source = source.transformed(Pose(np.eye(3), [100.0, 0, 0]))
        else:
            # a step that moves the source 100 m away and that the cost
            # accepts, under an epsilon every step is below: the loop ends
            # as converged after one iteration, and the final check then
            # finds no match
            monkeypatch.setattr(registration_module, "se3_exp",
                                lambda step: Pose(np.eye(3), [100.0, 0, 0]))
            monkeypatch.setattr(registration_module, "_gicp_cost",
                                lambda *args: -np.inf)
            cfg = RegistrationConfig(max_iterations=100,
                                     transformation_epsilon=1e9)
        res = align(source, target, cfg=cfg)
        assert not res.valid
        assert not res.converged
        if exit_ == "no_matches_after_converging":
            assert res.iterations_used == 1


class TestGicpInternals:
    """Filtered clouds' normals come from NORMAL_CELL voxel moments."""

    def test_covariances_are_disc_shaped(self):
        # flat plane sampled like a filtered cloud, one point per 0.25 m:
        # smallest eigenvalue epsilon along z, ones in plane
        cloud = grid_plane([0.0, 0.0, 1.0], [0.0, 0.0, 0.1])
        cov = compute_gicp_covariances(cloud)
        vals, vecs = np.linalg.eigh(cov)
        np.testing.assert_allclose(vals[:, 0], 1e-3, atol=1e-9)
        np.testing.assert_allclose(vals[:, 1:], 1.0, atol=1e-9)
        np.testing.assert_allclose(np.abs(vecs[:, 2, 0]), 1.0, atol=1e-9)
        np.testing.assert_allclose(
            np.abs(compute_gicp_normals(cloud)[:, 2]), 1.0, atol=1e-9)

    def test_normals_of_a_tilted_plane(self, rng):
        # noiseless, and 1 km from the origin: each cell's moments are
        # taken about its own corner; moments of the raw coordinates would
        # cancel, and tilt the normals by about 1e-7 rad
        n_true = np.array([1.0, 1.0, 4.0])
        n_true /= np.linalg.norm(n_true)
        basis = np.linalg.svd(n_true[None])[2][1:]
        uv = rng.uniform(-3, 3, size=(3000, 2))
        cloud = PointCloud(uv @ basis + [1e3, -6e2, 2e2])
        normals = compute_gicp_normals(cloud)
        full = np.linalg.norm(normals, axis=1) > 0
        assert full.mean() > 0.9
        np.testing.assert_allclose(np.linalg.norm(normals[full], axis=1),
                                   1.0, atol=1e-12)
        sin_angle = np.linalg.norm(np.cross(normals[full], n_true), axis=1)
        assert sin_angle.max() < 1e-9

    def test_sparse_cell_gives_zero_normal_and_identity(self, rng):
        # one cell of MIN_CELL_POINTS points, one of a point fewer
        corner = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
        offsets = rng.uniform(0.05, 0.7, size=(2 * MIN_CELL_POINTS - 1, 3))
        points = offsets.copy()
        points[:MIN_CELL_POINTS] += corner[0]
        points[MIN_CELL_POINTS:] += corner[1]
        cloud = PointCloud(points)
        normals = compute_gicp_normals(cloud)
        np.testing.assert_allclose(
            np.linalg.norm(normals[:MIN_CELL_POINTS], axis=1), 1.0)
        np.testing.assert_array_equal(normals[MIN_CELL_POINTS:], 0.0)
        cov = compute_gicp_covariances(cloud)
        for c in cov[MIN_CELL_POINTS:]:
            np.testing.assert_array_equal(c, np.eye(3))

    def test_normals_match_per_cell_reference(self, rng):
        # a noisy box far from the origin, cells cut across its edges
        cloud = box_surface_cloud(rng, n=3000, size=4.0)
        points = cloud.points + rng.normal(scale=0.02, size=cloud.points.shape)
        points += [120.0, -80.0, 15.0]
        normals = voxel_normals(points)
        ref = voxel_reference_normals(points)
        full = np.linalg.norm(ref, axis=1) > 0
        assert 0.5 < full.mean() < 1.0
        np.testing.assert_array_equal(normals[~full], 0.0)
        sin_angle = np.linalg.norm(np.cross(normals, ref), axis=1)
        assert sin_angle[full].max() < 1e-9

    def test_extent_beyond_the_key_range_raises(self):
        # the pre-filter's voxel keys, so the same limit and error
        far = PointCloud(np.array([[NORMAL_CELL * (1 << 20), 0.0, 0.0]]))
        with pytest.raises(ValueError, match="extent too large"):
            compute_gicp_normals(far)

    def test_non_finite_points_are_named(self, rng):
        points = box_surface_cloud(rng, n=50).points.copy()
        points[[7, 30], 0] = np.nan
        with pytest.raises(ValueError,
                           match="2 non-finite points, the first at row 7"):
            voxel_normals(points)

    def test_all_sparse_cloud_matches_point_to_point(self, rng):
        # no cell holds MIN_CELL_POINTS points, so every covariance is I
        # and align matches point to point; a small motion is recovered
        target = box_surface_cloud(rng, n=300, size=40.0)
        assert not np.any(compute_gicp_normals(target))
        truth = random_pose(rng, 0.2, 0.01)
        source = target.transformed(truth.inverse())
        res = align(source, target, cfg=tight_config())
        np.testing.assert_array_equal(compute_gicp_covariances(source),
                                      np.broadcast_to(np.eye(3),
                                                      (len(source), 3, 3)))
        assert res.valid and res.converged
        terr, rerr = pose_error(res.transform, truth)
        assert terr < 1e-6 and rerr < 1e-4

    def test_normals_cached_per_cloud(self, rng, monkeypatch):
        # each cloud's normals are computed once, by its first match, and
        # every later match reads the cached array
        calls = []
        monkeypatch.setattr(registration_module, "voxel_normals",
                            lambda points: calls.append(len(points))
                            or voxel_normals(points))
        source, target, _ = make_pair(rng)
        for _ in range(2):
            assert align(source, target).valid
        assert calls == [len(source), len(target)]
        assert compute_gicp_normals(source) is compute_gicp_normals(source)


class TestCloudNormals:
    """A cloud's GICP normals are its ``normals``: align matches a cloud
    with the ones it carries and gives a cloud without any voxel normals."""

    def test_given_normals_are_matched_and_kept(self, rng, monkeypatch):
        # every pair the kernel sees carries its points' given normals,
        # no voxel normal is computed, and the given arrays stay as they were
        source, target, truth = make_pair(rng)
        source.normals = reference_knn_normals(source, 10)
        target.normals = reference_knn_normals(target, 10)
        held = [(c.normals, c.normals.copy()) for c in (source, target)]
        monkeypatch.setattr(registration_module, "voxel_normals",
                            lambda points: pytest.fail("voxel normals made"))
        seen = []
        real_equations = registration_module._gicp_normal_equations

        def recording_equations(src, dst, ns, nd, transform):
            seen.append((src, dst, ns, nd))
            return real_equations(src, dst, ns, nd, transform)

        monkeypatch.setattr(registration_module, "_gicp_normal_equations",
                            recording_equations)
        res = align(source, target, cfg=tight_config())
        assert res.valid and pose_error(res.transform, truth)[0] < 1e-3
        assert len(seen) == res.iterations_used

        def given_at(cloud, points):
            row = {tuple(p): i for i, p in enumerate(cloud.points)}
            return cloud.normals[[row[tuple(p)] for p in points]]

        for src, dst, ns, nd in seen:
            np.testing.assert_array_equal(ns, given_at(source, src))
            np.testing.assert_array_equal(nd, given_at(target, dst))
        for cloud, (given, copy) in zip((source, target), held):
            assert cloud.normals is given
            np.testing.assert_array_equal(given, copy)

    def test_align_sets_missing_normals_to_voxel_normals_once(
            self, rng, monkeypatch):
        calls = []
        monkeypatch.setattr(registration_module, "voxel_normals",
                            lambda points: calls.append(len(points))
                            or voxel_normals(points))
        source, target, _ = make_pair(rng)
        assert source.normals is None and target.normals is None
        assert align(source, target).valid
        normals = [source.normals, target.normals]
        for cloud, held in zip((source, target), normals):
            np.testing.assert_array_equal(held, voxel_normals(cloud.points))
        assert align(source, target).valid and align(target, source).valid
        assert calls == [len(source), len(target)]
        assert source.normals is normals[0] and target.normals is normals[1]


class TestUnpreparedTracking:
    """align sets the voxel normals a normal-less cloud lacks, so clouds
    given them before they are tracked and clouds that are not (as in the
    pipeline) track identically."""

    def test_unprepared_clouds_track_bit_identically(self):
        traj = straight_then_curve_trajectory(straight=6.0, curve_radius=30.0,
                                              curve_angle=0.1, step=1.0)
        xy = np.array([[t.translation[0], t.translation[1]] for _, t in traj])
        clouds, _ = render_sequence(make_world(xy, seed=3, corridor=12.0),
                                    traj, max_range=30.0)
        cfg = PrefilterConfig()
        poses = []
        for prepare in (False, True):
            tracker = Tracker(criteria=KeyframeCriteria(delta_trans=3.0))
            run = []
            for cloud in clouds:
                filtered = prefilter(cloud, cfg)
                if prepare:
                    filtered.normals = voxel_normals(filtered.points)
                run.append(tracker.track(filtered).pose.matrix())
            assert tracker.registration_calls == len(clouds) - 1
            poses.append(np.array(run))
        np.testing.assert_array_equal(poses[0], poses[1])


def normals_buffer(cloud):
    """The array that owns the memory of ``cloud.normals``, so a view
    cannot hide a larger buffer."""
    value = cloud.normals
    while isinstance(value.base, np.ndarray):
        value = value.base
    return value


class TestAlignmentState:
    """A cloud keeps its kd-tree and (N, 3) normals for alignment, never
    its (N, 3, 3) covariances; a retired keyframe keeps neither."""

    @pytest.mark.parametrize("k", [3, 10, 15, 40])
    def test_covariances_equal_broadcast_reference(self, rng, k):
        # the k-NN estimator, which the pre-tracker's phase clouds keep
        xy = rng.uniform(-5, 5, size=(300, 2))
        for cloud in (box_surface_cloud(rng, n=300),
                      PointCloud(np.column_stack([xy, 0.01 * xy[:, 0]])),
                      PointCloud(rng.normal(size=(25, 3)))):
            knn_gicp_normals(cloud, k)
            assert np.array_equal(
                compute_gicp_covariances(cloud),
                disc_covariances(reference_knn_normals(cloud, k)))

    def test_matched_clouds_keep_normals_and_target_tree(self, rng):
        # the source is never searched, so only the target keeps a tree
        source, target, _ = make_pair(rng)
        assert align(source, target).valid
        assert isinstance(getattr(target, "_kdtree", None), KdTree)
        assert not hasattr(source, "_kdtree")
        for cloud in (source, target):
            assert cloud.normals.shape == (len(cloud), 3)
            assert cloud.normals.dtype == np.float64
            assert normals_buffer(cloud).ndim == 2

    def test_cloud_too_small_to_match_is_left_alone(self, rng):
        tiny = PointCloud(rng.normal(size=(MIN_CORRESPONDENCES - 1, 3)))
        full = box_surface_cloud(rng, n=300)
        assert not align(tiny, full).valid and not align(full, tiny).valid
        assert tiny.normals is None and not hasattr(tiny, "_kdtree")

    def test_keyframes_keep_no_more_than_their_points(self):
        traj = straight_then_curve_trajectory(straight=8.0, curve_radius=40.0,
                                              curve_angle=0.05, step=1.0)
        xy = np.array([[t.translation[0], t.translation[1]] for _, t in traj])
        clouds, _ = render_sequence(make_world(xy, seed=2, corridor=12.0),
                                    traj, max_range=30.0)
        pipeline = SlamPipeline()
        pipeline.run_batch(clouds)
        current = pipeline.tracker.keyframe
        retired = pipeline.keyframes[:-1]
        assert len(retired) >= 1 and pipeline.keyframes[-1] is current
        for kf in retired:
            assert kf.cloud.normals is None
            assert getattr(kf.cloud, "_kdtree", None) is None
        assert normals_buffer(current.cloud).nbytes \
            <= current.cloud.points.nbytes


def noisy_pair(rng, n=300):
    """Box cloud, a noisy copy, their k-NN normals and a small transform."""
    cloud_a = box_surface_cloud(rng, n=n)
    cloud_b = PointCloud(cloud_a.points + rng.normal(scale=0.05, size=(n, 3)))
    return (cloud_a.points, cloud_b.points, knn_gicp_normals(cloud_a, 10),
            knn_gicp_normals(cloud_b, 10), random_pose(rng, 0.3, 0.1))


def relative_error(a, b):
    return np.max(np.abs(np.asarray(a) - b)) / np.max(np.abs(b))


def unit_normals(rng, n):
    normals = rng.normal(size=(n, 3))
    return normals / np.linalg.norm(normals, axis=1, keepdims=True)


class TestGicpKernel:
    def test_closed_form_inverse_matches_linalg(self, rng):
        # M d from the 2x2 closed form against the dense inverse of the
        # combined covariance, for unit and zero normals on either side
        n = 400
        src = rng.uniform(-20.0, 20.0, size=(n, 3))
        dst = src + rng.normal(scale=0.3, size=(n, 3))
        src_normals, dst_normals = unit_normals(rng, n), unit_normals(rng, n)
        src_normals[::4] = 0.0
        dst_normals[::3] = 0.0
        for _ in range(5):
            transform = random_pose(rng, 1.0, np.pi)
            p, d, a, b, _, (w_a, w_b), _ = _gicp_pairs(
                src, dst, src_normals, dst_normals, transform)
            m_d = 0.5 * d + 0.25 * (w_a * a + w_b * b)
            r = transform.rotation
            dense = np.linalg.solve(
                disc_covariances(dst_normals)
                + r @ disc_covariances(src_normals) @ r.T, d.T[..., None])
            np.testing.assert_allclose(m_d.T, dense[..., 0], rtol=1e-10,
                                       atol=1e-12)
            np.testing.assert_allclose(p.T, transform.apply(src), rtol=0,
                                       atol=1e-12)

    def test_covariances_match_eigen_reconstruction(self, rng):
        # reference: V diag(eps, 1, 1) V^T from the k-NN covariance's
        # eigenvectors V, for the pre-tracker's estimator
        cloud = box_surface_cloud(rng, n=300)
        knn_gicp_normals(cloud, 10)
        cov = compute_gicp_covariances(cloud)
        idx, _ = KdTree(cloud.points).query_batch(cloud.points, k=10)
        nb = cloud.points[idx]
        centered = nb - nb.mean(axis=1, keepdims=True)
        _, vecs = np.linalg.eigh(
            np.einsum("nki,nkj->nij", centered, centered) / 10)
        ref = np.einsum("nij,j,nkj->nik", vecs, [1e-3, 1.0, 1.0], vecs)
        np.testing.assert_allclose(cov, ref, rtol=0, atol=1e-14)
        np.testing.assert_array_equal(cov, cov.transpose(0, 2, 1))

    def test_normal_equations_match_solve_reference(self, rng):
        for _ in range(5):
            args = noisy_pair(rng)
            h, g, cost = _gicp_normal_equations(*args)
            h_ref, g_ref, cost_ref = dense_normal_equations(*args)
            assert relative_error(h, h_ref) < 1e-9
            assert relative_error(g, g_ref) < 1e-9
            assert cost == pytest.approx(cost_ref, rel=1e-9)

    def test_cost_only_matches_full_evaluations(self, rng):
        for _ in range(5):
            args = noisy_pair(rng)
            _, _, cost = _gicp_normal_equations(*args)
            assert _gicp_cost(*args) == cost

    def test_translation_gradient_matches_finite_differences(self, rng):
        """2 g[:3] is the exact translation gradient of the cost.

        Gauss-Newton drops the derivative of M = (C_q + R C_s R^T)^-1 with
        respect to the rotation, so g[3:] is not the rotation gradient and
        only the translation block, on which M does not depend, is checked.
        """
        for _ in range(5):
            src, dst, normals_a, normals_b, transform = noisy_pair(rng)
            _, g, _ = _gicp_normal_equations(src, dst, normals_a, normals_b,
                                             transform)
            step = 1e-6
            fd = np.zeros(3)
            for j in range(3):
                delta = np.zeros(6)
                delta[j] = step
                plus = _gicp_cost(src, dst, normals_a, normals_b,
                                  se3_exp(delta) @ transform)
                minus = _gicp_cost(src, dst, normals_a, normals_b,
                                   se3_exp(-delta) @ transform)
                fd[j] = (plus - minus) / (2.0 * step)
            assert np.max(np.abs(2.0 * g[:3] - fd)) < \
                1e-5 * max(1.0, np.max(np.abs(fd)))


class TestGicpClosedFormEdgeCases:
    """The closed form against the dense reference (covariances from the
    normals, ``np.linalg.inv``, stacked Jacobians) where the 2x2 system is
    at its extremes: zero normals, and a source normal that the rotation
    carries onto the target normal or its opposite."""

    @staticmethod
    def scattered_pairs(rng, n=200):
        src = rng.uniform(-15.0, 15.0, size=(n, 3))
        return src, src + rng.normal(scale=0.2, size=(n, 3))

    def assert_matches_reference(self, *args):
        h, g, cost = _gicp_normal_equations(*args)
        h_ref, g_ref, cost_ref = dense_normal_equations(*args)
        assert np.all(np.isfinite(h)) and np.all(np.isfinite(g))
        assert relative_error(h, h_ref) < 1e-9
        assert relative_error(g, g_ref) < 1e-9
        assert cost == pytest.approx(cost_ref, rel=1e-9)
        assert _gicp_cost(*args) == cost
        return h, g, cost

    @pytest.mark.parametrize("zero_src, zero_dst", [
        (True, False), (False, True), (True, True)])
    def test_zero_normals(self, rng, zero_src, zero_dst):
        src, dst = self.scattered_pairs(rng)
        normals = [unit_normals(rng, len(src)) for _ in range(2)]
        if zero_src:
            normals[0][:] = 0.0
        if zero_dst:
            normals[1][:] = 0.0
        transform = random_pose(rng, 1.0, np.pi)
        _, _, cost = self.assert_matches_reference(src, dst, *normals,
                                                   transform)
        if zero_src and zero_dst:
            # M = I / 2: half the point-to-point cost
            d = transform.apply(src) - dst
            assert cost == pytest.approx(0.5 * np.sum(d * d), rel=1e-12)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_aligned_normals_weigh_the_normal_by_one_over_two_eps(
            self, rng, sign):
        # b = R n_s = +-a: C = 2I - 2 kappa a a^T, whose inverse weighs the
        # offset along a by 1 / (2 eps) and across it by 1/2, finite
        src, dst = self.scattered_pairs(rng)
        transform = random_pose(rng, 1.0, np.pi)
        dst_normals = unit_normals(rng, len(src))
        src_normals = sign * dst_normals @ transform.rotation
        self.assert_matches_reference(src, dst, src_normals, dst_normals,
                                      transform)
        # offsets along the normal alone
        offset = rng.uniform(-0.5, 0.5, size=len(src))
        dst = transform.apply(src) - offset[:, None] * dst_normals
        _, _, cost = self.assert_matches_reference(
            src, dst, src_normals, dst_normals, transform)
        assert cost == pytest.approx(
            np.sum(offset ** 2) / (2.0 * GICP_EPSILON), rel=1e-9)

    def test_random_rotations(self, rng):
        # unit and zero normals mixed on both sides, at rotations up to pi
        src, dst = self.scattered_pairs(rng, n=500)
        src_normals = unit_normals(rng, len(src))
        dst_normals = unit_normals(rng, len(src))
        src_normals[rng.random(len(src)) < 0.15] = 0.0
        dst_normals[rng.random(len(src)) < 0.15] = 0.0
        for _ in range(10):
            self.assert_matches_reference(src, dst, src_normals, dst_normals,
                                          random_pose(rng, 5.0, np.pi))
