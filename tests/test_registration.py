"""Scan-matching backends: closed-form step, ICP variants, GICP."""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from lidar_graph_slam import registration as registration_module
from lidar_graph_slam.geometry import (KdTree, PointCloud, Pose,
                                       eigen_symmetric_3x3,
                                       neighborhood_covariances, se3_exp,
                                       so3_exp)
from lidar_graph_slam.pipeline import SlamPipeline
from lidar_graph_slam.registration import (GICP, GICP_EPSILON, ICP_P2P,
                                           MIN_CORRESPONDENCES,
                                           RegistrationConfig,
                                           _gicp_cost, _gicp_normal_equations,
                                           _inverse_symmetric_3x3,
                                           _rotate_covariances,
                                           compute_gicp_covariances,
                                           compute_gicp_normals, align,
                                           cloud_kdtree, prepare_alignment,
                                           rigid_align_pairs, score_alignment)
from lidar_graph_slam.synthetic import (make_world, render_sequence,
                                        straight_then_curve_trajectory)

from conftest import (box_surface_cloud, pose_error, random_pose,
                      random_rotation)

ALL_METHODS = [ICP_P2P, GICP]


def tight_config(method):
    return RegistrationConfig(method=method, max_iterations=100,
                              transformation_epsilon=1e-6,
                              max_correspondence_distance=2.0)


def make_pair(rng, max_trans=1.0, max_angle=np.deg2rad(10.0)):
    """Target cloud, source = target seen under a random motion, truth."""
    target = box_surface_cloud(rng, n=500)
    truth = random_pose(rng, max_trans, max_angle)
    source = target.transformed(truth.inverse())
    return source, target, truth


class TestRigidAlignPairs:
    def test_recovers_known_transform(self, rng):
        truth = random_pose(rng, 3.0, 1.0)
        src = rng.normal(size=(50, 3))
        dst = truth.apply(src)
        est = rigid_align_pairs(src, dst)
        terr, rerr = pose_error(est, truth)
        assert terr < 1e-9 and rerr < 1e-5

    def test_no_reflection(self, rng):
        # mirrored data must still yield a proper rotation (det = +1)
        src = rng.normal(size=(30, 3))
        dst = src * np.array([1.0, 1.0, -1.0])
        est = rigid_align_pairs(src, dst)
        assert np.linalg.det(est.rotation) == pytest.approx(1.0)

    def test_collinear_pairs_raise(self):
        src = np.column_stack([np.arange(5.0), np.zeros(5), np.zeros(5)])
        with pytest.raises(ValueError):
            rigid_align_pairs(src, src + 1.0)

    def test_too_few_pairs_raise(self):
        with pytest.raises(ValueError):
            rigid_align_pairs(np.zeros((2, 3)), np.zeros((2, 3)))


class TestAlign:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_recovers_motion(self, rng, method):
        for _ in range(5):
            source, target, truth = make_pair(rng)
            res = align(source, target, cfg=tight_config(method))
            terr, rerr = pose_error(res.transform, truth)
            assert res.converged and res.valid
            assert terr < 1e-3
            assert rerr < 0.05
            assert score_alignment(source, target, res.transform, 2.0)[0] \
                < 1e-4

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_identity_on_identical_clouds(self, rng, method):
        source, target, _ = make_pair(rng, max_trans=0.0,
                                      max_angle=1e-12)
        res = align(source, target, cfg=tight_config(method))
        terr, rerr = pose_error(res.transform, Pose.identity())
        assert terr < 1e-6 and rerr < 1e-4

    def test_p2p_cost_non_increasing_with_iterations(self, rng):
        source, target, _ = make_pair(rng, max_trans=0.8)
        fits = []
        for iters in (1, 2, 4, 8, 16, 32):
            cfg = RegistrationConfig(method=ICP_P2P, max_iterations=iters,
                                     transformation_epsilon=1e-9,
                                     max_correspondence_distance=2.0)
            res = align(source, target, cfg=cfg)
            fits.append(score_alignment(source, target, res.transform,
                                        cfg.max_correspondence_distance)[0])
        assert all(b <= a + 1e-9 for a, b in zip(fits, fits[1:]))

    def test_initial_guess_is_used(self, rng):
        # motion too large for identity start, recoverable from a good guess
        source, target, truth = make_pair(rng, max_trans=0.0)
        big = Pose(so3_exp([0.0, 0.0, np.pi / 3]), np.array([4.0, 0.0, 0.0]))
        source = target.transformed(big.inverse())
        res = align(source, target, guess=big, cfg=tight_config(ICP_P2P))
        terr, rerr = pose_error(res.transform, big)
        assert terr < 1e-3 and rerr < 0.05

    def test_too_few_correspondences_fails_gracefully(self, rng):
        source = PointCloud(rng.normal(size=(30, 3)))
        target = PointCloud(rng.normal(size=(30, 3)) + 100.0)
        res = align(source, target, cfg=tight_config(ICP_P2P))
        assert not res.converged
        assert not res.valid

    def test_empty_cloud_fails_gracefully(self, rng):
        empty = PointCloud(np.empty((0, 3)))
        full = PointCloud(rng.normal(size=(30, 3)))
        res = align(empty, full)
        assert not res.converged and not res.valid

    @pytest.mark.parametrize("method", ALL_METHODS)
    @pytest.mark.parametrize("n_points", [1, 2, 9])
    def test_cloud_below_min_correspondences_fails(self, rng, method,
                                                   n_points):
        # the guess comes back, before any covariance is computed
        tiny = PointCloud(rng.normal(size=(n_points, 3)))
        full = PointCloud(rng.normal(size=(30, 3)))
        guess = random_pose(rng, 0.5, 0.1)
        for source, target in ((tiny, full), (full, tiny)):
            res = align(source, target, guess,
                        RegistrationConfig(method=method))
            assert not res.converged and not res.valid
            assert res.transform is guess and res.iterations_used == 0
        assert not hasattr(tiny, "_derived_cache")

    def test_unknown_method_raises(self):
        for method in ("WHAT", "ICP_P2PLANE"):
            with pytest.raises(ValueError, match="unknown registration method"):
                RegistrationConfig(method=method)

    def test_overlap_and_capped_fitness(self, rng):
        # half the source has no counterpart: overlap ~0.5 and the fitness
        # is pulled up by the cap on unmatched points
        target = box_surface_cloud(rng, n=400)
        far = PointCloud(np.vstack([target.points,
                                    rng.normal(size=(400, 3)) + 50.0]))
        cfg = RegistrationConfig(method=ICP_P2P, max_iterations=1,
                                 transformation_epsilon=1e-9,
                                 max_correspondence_distance=2.0)
        res = align(far, target, cfg=cfg)
        fitness, overlap = score_alignment(far, target, res.transform,
                                           cfg.max_correspondence_distance)
        assert overlap == pytest.approx(0.5, abs=0.05)
        assert fitness >= 0.4 * cfg.max_correspondence_distance ** 2

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
        res = align(source, target, truth, tight_config(GICP))
        assert res.transform is truth
        assert res.converged and res.valid and res.iterations_used == 1
        assert score_alignment(source, target, truth, 2.0)[0] < 1e-12

    def test_singular_system_ends_the_match(self, rng):
        # every source point at the origin: the rotation block of H is zero
        source = PointCloud(np.zeros((50, 3)))
        target = box_surface_cloud(rng, n=300)
        res = align(source, target, cfg=tight_config(GICP))
        assert np.isfinite(res.transform.matrix()).all()
        assert not res.converged and res.iterations_used == 1
        assert res.valid
        assert np.isfinite(score_alignment(source, target, res.transform,
                                           2.0)[0])


class TestBoundedSearch:
    """align's correspondence search is bounded at the maximum
    correspondence distance, inclusive; it must find what an unbounded one
    finds."""

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
        # the three boundary points: inside, at and just outside max_d
        boundary, _ = reference.query(source.points[-3:])
        assert list(boundary <= max_d) == [True, True, False]
        for transform in (Pose.identity(), random_pose(rng, 0.5, 0.2)):
            moved = transform.apply(source.points)
            ref_dist, ref_idx = reference.query(moved)
            ref_mask = ref_dist <= max_d
            idx, dist = cloud_kdtree(target).query_batch(
                moved, max_distance=max_d)
            mask = dist <= max_d
            np.testing.assert_array_equal(mask, ref_mask)
            np.testing.assert_array_equal(idx[mask], ref_idx[ref_mask])
            np.testing.assert_array_equal(dist[mask], ref_dist[ref_mask])
            fitness, overlap = score_alignment(source, target, transform,
                                               max_d)
            assert fitness == float(np.mean(np.minimum(ref_dist, max_d) ** 2))
            assert overlap == float(np.mean(ref_mask))


class TestFinalCheck:
    """align's last step: at least MIN_CORRESPONDENCES source points must
    match at the final estimate."""

    def test_final_estimate_without_matches_fails(self, rng, monkeypatch):
        source, target, _ = make_pair(rng)
        monkeypatch.setattr(registration_module, "rigid_align_pairs",
                            lambda src, dst: Pose(np.eye(3), [100.0, 0, 0]))
        cfg = RegistrationConfig(method=ICP_P2P, max_iterations=1)
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
        res = align(source, target, cfg=tight_config(ICP_P2P))
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
        res = align(source, target, cfg=tight_config(ICP_P2P))
        assert res.valid
        assert sizes[-2:] == [prefix, len(source) - prefix]


class TestGicpInternals:
    def test_covariances_are_disc_shaped(self, rng):
        # flat plane: smallest eigenvalue epsilon along z, ones in plane
        xy = rng.uniform(-5, 5, size=(400, 2))
        cloud = PointCloud(np.column_stack([xy, np.zeros(400)]))
        cov = compute_gicp_covariances(cloud, k=15)
        vals, vecs = np.linalg.eigh(cov)
        np.testing.assert_allclose(vals[:, 0], 1e-3, atol=1e-9)
        np.testing.assert_allclose(vals[:, 1:], 1.0, atol=1e-9)
        np.testing.assert_allclose(np.abs(vecs[:, 2, 0]), 1.0, atol=1e-9)

    def test_covariances_cached_per_cloud(self, rng):
        # the normals are cached; the covariances are rebuilt from them on
        # every call, so two calls give equal arrays, not one object
        cloud = box_surface_cloud(rng, n=200)
        assert compute_gicp_normals(cloud, k=15) is \
            compute_gicp_normals(cloud, k=15)
        a = compute_gicp_covariances(cloud, k=15)
        b = compute_gicp_covariances(cloud, k=15)
        assert a is not b
        np.testing.assert_array_equal(a, b)


def broadcast_gicp_covariances(cloud, k):
    """Reference: k-NN normals, then I - (1 - eps) n n^T by broadcasting,
    as the covariances were built when each cloud cached them."""
    k = min(k, len(cloud))
    idx, _ = KdTree(cloud.points).query_batch(cloud.points, k=k)
    _, normal = eigen_symmetric_3x3(neighborhood_covariances(cloud.points,
                                                             idx))
    out = (GICP_EPSILON - 1.0) * (normal[:, :, None] * normal[:, None, :])
    out[:, [0, 1, 2], [0, 1, 2]] += 1.0
    return out


def cached_arrays(cloud):
    """The numpy arrays cached on ``cloud``, each as the array that owns
    its memory, so a view cannot hide a larger buffer."""
    out = []
    for value in getattr(cloud, "_derived_cache", {}).values():
        if isinstance(value, np.ndarray):
            while isinstance(value.base, np.ndarray):
                value = value.base
            out.append(value)
    return out


class TestAlignmentState:
    """A cloud keeps its kd-tree and (N, 3) normals for alignment, never
    its (N, 3, 3) covariances."""

    @pytest.mark.parametrize("k", [3, 10, 15, 40])
    def test_covariances_equal_broadcast_reference(self, rng, k):
        xy = rng.uniform(-5, 5, size=(300, 2))
        for cloud in (box_surface_cloud(rng, n=300),
                      PointCloud(np.column_stack([xy, 0.01 * xy[:, 0]])),
                      PointCloud(rng.normal(size=(25, 3)))):
            assert np.array_equal(compute_gicp_covariances(cloud, k=k),
                                  broadcast_gicp_covariances(cloud, k))

    def test_prepared_cloud_caches_tree_and_normals(self, rng):
        source, target, _ = make_pair(rng)
        cfg = RegistrationConfig()
        for cloud in (source, target):
            prepare_alignment(cloud, cfg)
        assert align(source, target, cfg=cfg).valid
        for cloud in (source, target):
            cache = cloud._derived_cache
            assert isinstance(cache["kdtree"], KdTree)
            arrays = [v for v in cache.values() if isinstance(v, np.ndarray)]
            assert len(arrays) == 1 and len(cache) == 2
            assert arrays[0].shape == (len(cloud), 3)
            assert arrays[0].dtype == np.float64
            assert not any(a.ndim == 3 for a in cached_arrays(cloud))

    def test_keyframes_keep_no_more_than_their_points(self):
        traj = straight_then_curve_trajectory(straight=8.0, curve_radius=40.0,
                                              curve_angle=0.05, step=1.0)
        xy = np.array([[t.translation[0], t.translation[1]] for _, t in traj])
        clouds, _ = render_sequence(make_world(xy, seed=2, corridor=12.0),
                                    traj, max_range=30.0)
        pipeline = SlamPipeline()
        pipeline.run_batch(clouds)
        assert len(pipeline.keyframes) >= 2
        for kf in pipeline.keyframes:
            held = cached_arrays(kf.cloud)
            assert held
            assert sum(a.nbytes for a in held) <= kf.cloud.points.nbytes


def reference_normal_equations(src, dst, cov_src, cov_dst, transform):
    """GICP H, g, cost by per-pair linear solves, without forming M."""
    r, t = transform.rotation, transform.translation
    p = src @ r.T + t
    d = p - dst
    a = cov_dst + np.einsum("ij,njk,lk->nil", r, cov_src, r)
    u = np.linalg.solve(a, d[..., None])[..., 0]
    cost = float(np.einsum("ni,ni->", d, u))
    jac = np.zeros((len(src), 3, 6))
    jac[:, :, :3] = np.eye(3)
    jac[:, 0, 4] = p[:, 2]
    jac[:, 0, 5] = -p[:, 1]
    jac[:, 1, 3] = -p[:, 2]
    jac[:, 1, 5] = p[:, 0]
    jac[:, 2, 3] = p[:, 1]
    jac[:, 2, 4] = -p[:, 0]
    m_jac = np.linalg.solve(a, jac)
    h = np.einsum("nij,nik->jk", jac, m_jac)
    g = np.einsum("nij,ni->j", jac, u)
    return h, g, cost


def noisy_pair(rng, n=300):
    """Box cloud, a noisy copy, their covariances and a small transform."""
    cloud_a = box_surface_cloud(rng, n=n)
    cloud_b = PointCloud(cloud_a.points + rng.normal(scale=0.05, size=(n, 3)))
    cov_a = compute_gicp_covariances(cloud_a, k=10)
    cov_b = compute_gicp_covariances(cloud_b, k=10)
    return (cloud_a.points, cloud_b.points, cov_a, cov_b,
            random_pose(rng, 0.3, 0.1))


def relative_error(a, b):
    return np.max(np.abs(np.asarray(a) - b)) / np.max(np.abs(b))


class TestGicpKernel:
    def test_closed_form_inverse_matches_linalg(self, rng):
        # combined GICP covariances: sums of two rotated (eps, 1, 1) discs
        discs = []
        for _ in range(2):
            rots = np.array([random_rotation(rng, np.pi) for _ in range(200)])
            discs.append(rots @ np.diag([1e-3, 1.0, 1.0])
                         @ rots.transpose(0, 2, 1))
        a = discs[0] + discs[1]
        inv = _inverse_symmetric_3x3(a)
        np.testing.assert_allclose(inv, np.linalg.inv(a), rtol=1e-10,
                                   atol=1e-10)

    def test_rotated_covariances_match_matmul(self, rng):
        cov = compute_gicp_covariances(box_surface_cloud(rng, n=300), k=10)
        cov = cov * rng.uniform(0.1, 10.0, size=(len(cov), 1, 1))
        for _ in range(5):
            r = random_rotation(rng, np.pi)
            np.testing.assert_allclose(_rotate_covariances(cov, r),
                                       np.matmul(r @ cov, r.T),
                                       rtol=0, atol=1e-14)

    def test_singular_matrix_gets_zero_inverse(self):
        a = np.stack([np.diag([1.0, 1.0, 0.0]), np.eye(3)])
        inv = _inverse_symmetric_3x3(a)
        np.testing.assert_array_equal(inv[0], np.zeros((3, 3)))
        np.testing.assert_allclose(inv[1], np.eye(3))

    def test_covariances_match_eigen_reconstruction(self, rng):
        # reference: V diag(eps, 1, 1) V^T from the k-NN covariance's
        # eigenvectors V
        cloud = box_surface_cloud(rng, n=300)
        cov = compute_gicp_covariances(cloud, k=10)
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
            h_ref, g_ref, cost_ref = reference_normal_equations(*args)
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
            src, dst, cov_a, cov_b, transform = noisy_pair(rng)
            _, g, _ = _gicp_normal_equations(src, dst, cov_a, cov_b,
                                             transform)
            step = 1e-6
            fd = np.zeros(3)
            for j in range(3):
                delta = np.zeros(6)
                delta[j] = step
                plus = _gicp_cost(src, dst, cov_a, cov_b,
                                  se3_exp(delta) @ transform)
                minus = _gicp_cost(src, dst, cov_a, cov_b,
                                   se3_exp(-delta) @ transform)
                fd[j] = (plus - minus) / (2.0 * step)
            assert np.max(np.abs(2.0 * g[:3] - fd)) < \
                1e-5 * max(1.0, np.max(np.abs(fd)))
