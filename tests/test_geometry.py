"""Core geometry: poses, Lie-group maps, k-NN, and the 3x3 eigen-solver."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lidar_graph_slam.geometry import (KdTree, PointCloud, Pose,
                                       _se3_exp_rt, _se3_jacobian,
                                       _se3_log_rt, _so3_left_jacobian,
                                       _so3_left_jacobian_inv, _se3_q_matrix,
                                       eigen_symmetric_3x3, orthonormalize,
                                       se3_adjoint, se3_exp,
                                       se3_left_jacobian_inv,
                                       se3_right_jacobian_inv, se3_log,
                                       so3_exp, so3_log)

from conftest import is_valid_pose, random_pose, random_rotation


def se3_left_jacobian(twist: np.ndarray) -> np.ndarray:
    """Left Jacobian of SE(3) at ``twist`` (6x6, translation block first):
    the reference that ``se3_left_jacobian_inv`` inverts."""
    twist = np.asarray(twist, dtype=np.float64)
    rho, omega = twist[..., :3], twist[..., 3:]
    return _se3_jacobian(_so3_left_jacobian(omega), _se3_q_matrix(rho, omega))


finite_twists = st.lists(
    st.floats(-2.0, 2.0, allow_nan=False), min_size=6, max_size=6)


class TestPose:
    def test_identity_is_neutral(self, rng):
        p = random_pose(rng, 5.0, 1.0)
        for q in (Pose.identity() @ p, p @ Pose.identity()):
            np.testing.assert_allclose(q.matrix(), p.matrix(), atol=1e-15)

    def test_inverse_composes_to_identity(self, rng):
        p = random_pose(rng, 5.0, 1.0)
        np.testing.assert_allclose((p @ p.inverse()).matrix(), np.eye(4),
                                   atol=1e-12)
        np.testing.assert_allclose((p.inverse() @ p).matrix(), np.eye(4),
                                   atol=1e-12)

    def test_compose_matches_matrix_product(self, rng):
        a = random_pose(rng, 5.0, 1.0)
        b = random_pose(rng, 5.0, 1.0)
        np.testing.assert_allclose((a @ b).matrix(), a.matrix() @ b.matrix(),
                                   atol=1e-12)

    def test_apply_single_and_batch(self, rng):
        p = random_pose(rng, 5.0, 1.0)
        pts = rng.normal(size=(7, 3))
        batch = p.apply(pts)
        assert batch.shape == (7, 3)
        single = p.apply(pts[0])
        assert single.shape == (3,)
        np.testing.assert_allclose(single, batch[0])
        np.testing.assert_allclose(batch,
                                   pts @ p.rotation.T + p.translation)

    def test_repeated_composition_stays_on_so3(self, rng):
        # 20 squarings = ~10^6 elementary compositions; orthonormality must
        # survive the accumulated floating-point error
        p = random_pose(rng, 0.001, 1e-4)
        for _ in range(20):
            p = (p @ p).orthonormalized()
        assert is_valid_pose(p)

    def test_orthonormalized_projects_back(self, rng):
        p = random_pose(rng, 1.0, 1.0)
        noisy = Pose(p.rotation + rng.normal(scale=1e-4, size=(3, 3)),
                     p.translation)
        assert not is_valid_pose(noisy)
        fixed = noisy.orthonormalized()
        assert is_valid_pose(fixed)
        assert np.linalg.norm(fixed.rotation - p.rotation) < 1e-3

    def test_rotation_angle(self):
        r = so3_exp([0.0, 0.0, 0.3])
        assert Pose(r, np.zeros(3)).rotation_angle() == pytest.approx(0.3)
        assert Pose.identity().rotation_angle() == 0.0

    def test_from_matrix_roundtrip(self, rng):
        p = random_pose(rng, 5.0, 1.0)
        np.testing.assert_allclose(Pose.from_matrix(p.matrix()).matrix(),
                                   p.matrix())


class TestSo3:
    def test_exp_log_roundtrip(self, rng):
        for _ in range(50):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            omega = axis * rng.uniform(1e-8, np.pi - 0.01)
            np.testing.assert_allclose(so3_log(so3_exp(omega)), omega,
                                       atol=1e-9)

    def test_small_angle_branch(self):
        omega = np.array([1e-12, -2e-12, 1e-12])
        np.testing.assert_allclose(so3_log(so3_exp(omega)), omega, atol=1e-15)

    def test_log_near_pi_raises(self):
        with pytest.raises(ValueError):
            so3_log(so3_exp([np.pi - 1e-9, 0.0, 0.0]))

    def test_exp_is_rotation(self, rng):
        r = so3_exp(rng.normal(size=3))
        np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0)


class TestSe3:
    @settings(max_examples=50, deadline=None)
    @given(finite_twists)
    @example([-1.958, 0.386, 1.855, -6.99e-9, -1.21e-9, -7.18e-9])
    def test_exp_log_roundtrip(self, twist):
        # |omega| reaches 2*sqrt(3) > pi here, where log returns the
        # principal-branch twist rather than the input, so the round trip is
        # checked on poses.  A rotation by pi has no unique log.
        twist = np.asarray(twist)
        assume(abs(np.linalg.norm(twist[3:]) - np.pi) > 1e-3)
        pose = se3_exp(twist)
        np.testing.assert_allclose(se3_exp(se3_log(pose)).matrix(),
                                   pose.matrix(), atol=1e-8)

    def test_exp_zero_is_identity(self):
        np.testing.assert_allclose(se3_exp(np.zeros(6)).matrix(), np.eye(4))

    def test_left_jacobian_inverse_pair(self, rng):
        for _ in range(20):
            twist = rng.normal(scale=1.0, size=6)
            j = se3_left_jacobian(twist)
            ji = se3_left_jacobian_inv(twist)
            np.testing.assert_allclose(j @ ji, np.eye(6), atol=1e-9)

    def test_left_jacobian_finite_difference(self, rng):
        # Jl(x) column j ~ log(exp(x + h e_j) exp(x)^-1) / h
        twist = rng.normal(scale=0.5, size=6)
        j = se3_left_jacobian(twist)
        h = 1e-6
        num = np.zeros((6, 6))
        base_inv = se3_exp(twist).inverse()
        for col in range(6):
            bumped = twist.copy()
            bumped[col] += h
            num[:, col] = se3_log(se3_exp(bumped) @ base_inv) / h
        np.testing.assert_allclose(j, num, atol=1e-5)

    def test_adjoint_moves_twists_between_frames(self, rng):
        # exp(Ad_T x) = T exp(x) T^-1
        pose = random_pose(rng, 3.0, 1.0)
        twist = rng.normal(scale=0.3, size=6)
        lhs = se3_exp(se3_adjoint(pose.rotation, pose.translation)
                      @ twist).matrix()
        rhs = (pose @ se3_exp(twist) @ pose.inverse()).matrix()
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


class TestBatchedHelpers:
    """Each SE(3) helper on a stack equals the helper called row by row."""

    @staticmethod
    def twists(rng):
        # rotation angles on every branch: exactly 0, below the 1e-10 small
        # angle, below the 1e-4 series switch, and the closed forms up to
        # just short of pi
        angles = [0.0, 1e-12, 1e-7, 1e-3, 0.5, 2.0, np.pi - 1e-3]
        out = []
        for angle in angles:
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            out.append(np.concatenate([rng.normal(scale=2.0, size=3),
                                       angle * axis]))
        return np.array(out)

    @staticmethod
    def assert_rows_match(batched, single, rows):
        assert batched.shape == (len(rows),) + np.shape(single(rows[0]))
        for row, value in zip(rows, batched):
            np.testing.assert_array_equal(value, single(row))

    def test_twist_helpers(self, rng):
        x = self.twists(rng)
        for fn in (se3_left_jacobian, se3_left_jacobian_inv,
                   se3_right_jacobian_inv):
            self.assert_rows_match(fn(x), fn, x)
        w = x[:, 3:]
        for fn in (so3_exp, _so3_left_jacobian, _so3_left_jacobian_inv):
            self.assert_rows_match(fn(w), fn, w)
        self.assert_rows_match(_se3_q_matrix(x[:, :3], w),
                               lambda t: _se3_q_matrix(t[:3], t[3:]), x)
        rot, trans = _se3_exp_rt(x)
        self.assert_rows_match(rot, lambda t: se3_exp(t).rotation, x)
        self.assert_rows_match(trans, lambda t: se3_exp(t).translation, x)
        self.assert_rows_match(
            _se3_log_rt(rot, trans), lambda t: se3_log(se3_exp(t)), x)

    def test_rotation_helpers(self, rng):
        x = self.twists(rng)
        rot = so3_exp(x[:, 3:])
        self.assert_rows_match(so3_log(rot), so3_log, rot)
        self.assert_rows_match(se3_adjoint(rot, x[:, :3]),
                               lambda t: se3_adjoint(so3_exp(t[3:]), t[:3]),
                               x)
        # one reflection among the rows takes the determinant fix
        noisy = rot + rng.normal(scale=1e-3, size=rot.shape)
        noisy[2] = -noisy[2]
        self.assert_rows_match(orthonormalize(noisy), orthonormalize, noisy)
        for r in orthonormalize(noisy):
            assert np.linalg.det(r) == pytest.approx(1.0)

    def test_log_raises_if_any_row_is_near_pi(self, rng):
        rot = so3_exp(self.twists(rng)[:, 3:])
        rot[3] = so3_exp([0.0, 0.0, np.pi])
        with pytest.raises(ValueError, match="near pi"):
            so3_log(rot)


class TestPointCloud:
    def test_coerces_to_float64(self):
        c = PointCloud(np.zeros((4, 3), dtype=np.float32))
        assert c.points.dtype == np.float64
        assert len(c) == 4

    def test_normals_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((4, 3)), normals=np.zeros((3, 3)))

    @pytest.mark.parametrize("bad", [1.5, np.nan, np.inf])
    def test_normals_longer_than_unit_or_non_finite_raise(self, bad):
        # align matches a cloud with the normals it carries; one longer
        # than unit would make GICP's per-pair 2x2 system indefinite
        normals = np.zeros((4, 3))
        normals[:3, 2] = 1.0       # unit normals and a zero one are fine
        PointCloud(np.zeros((4, 3)), normals)
        normals[3] = [0.0, 0.0, bad]
        with pytest.raises(ValueError, match="at most unit length"):
            PointCloud(np.zeros((4, 3)), normals)

    def test_transformed_matches_pose_apply(self, rng):
        pose = random_pose(rng, 2.0, 1.0)
        pts = rng.normal(size=(10, 3))
        nrm = rng.normal(size=(10, 3))
        nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
        c = PointCloud(pts, nrm, timestamp=1.5, frame_id="f")
        out = c.transformed(pose)
        np.testing.assert_allclose(out.points, pose.apply(pts))
        np.testing.assert_allclose(out.normals, nrm @ pose.rotation.T)
        assert out.timestamp == 1.5 and out.frame_id == "f"


class TestKdTree:
    def test_matches_brute_force(self, rng):
        # 3-D clouds and 20-D ring keys alike
        for dim in (3, 20):
            pts = rng.normal(size=(200, dim))
            queries = rng.normal(size=(20, dim))
            tree = KdTree(pts)
            idx, dist = tree.query_batch(queries, k=3)
            for q, i_row, d_row in zip(queries, idx, dist):
                brute = np.linalg.norm(pts - q, axis=1)
                order = np.argsort(brute)[:3]
                np.testing.assert_array_equal(i_row, order)
                np.testing.assert_allclose(d_row, brute[order])

    @pytest.mark.parametrize("max_d", [0.7, 1.3, 2.0])
    def test_max_distance_is_inclusive(self, max_d):
        # one query per target, each target alone within 10 m of it: at
        # max_d, an ulp inside it and an ulp outside it
        offsets = [max_d, np.nextafter(max_d, 0.0), np.nextafter(max_d, 4.0)]
        queries = np.array([[0.0, 20.0 * j, 0.0] for j in range(3)])
        targets = queries + np.array([[d, 0.0, 0.0] for d in offsets])
        idx, dist = KdTree(targets).query_batch(queries, max_distance=max_d)
        np.testing.assert_array_equal(idx, [0, 1, 3])
        assert dist[0] == max_d and dist[1] < max_d and dist[2] == np.inf

    def test_empty_cloud_raises(self):
        with pytest.raises(ValueError):
            KdTree(np.empty((0, 3)))

    @pytest.mark.parametrize("radius", [0.7, 1.3, 2.0])
    def test_pairs_within_is_inclusive(self, radius):
        # three pairs, each alone within 10 m of the others: at the radius,
        # an ulp inside it and an ulp outside it
        offsets = [radius, np.nextafter(radius, 0.0),
                   np.nextafter(radius, 4.0)]
        firsts = np.array([[0.0, 20.0 * j, 0.0] for j in range(3)])
        seconds = firsts + np.array([[d, 0.0, 0.0] for d in offsets])
        pairs = KdTree(np.vstack([firsts, seconds])).pairs_within(radius)
        assert sorted(map(tuple, pairs.tolist())) == [(0, 3), (1, 4)]

    def test_pairs_within_counts_duplicates(self):
        pts = np.array([[1.0, 2.0, 3.0]] * 3 + [[9.0, 9.0, 9.0]])
        pairs = KdTree(pts).pairs_within(0.5)
        assert sorted(map(tuple, pairs.tolist())) == [(0, 1), (0, 2), (1, 2)]

    def test_pairs_within_matches_brute_force(self, rng):
        for radius in (0.3, 0.8, 1.5):
            pts = rng.uniform(-3.0, 3.0, size=(600, 3))
            pts[::50] = pts[1::50]          # some duplicates too
            diff = pts[:, None, :] - pts[None, :, :]
            sq = (diff[..., 0] ** 2 + diff[..., 1] ** 2) + diff[..., 2] ** 2
            i, j = np.nonzero(np.triu(sq <= radius * radius, k=1))
            pairs = KdTree(pts).pairs_within(radius)
            assert pairs.dtype.kind == "i" and pairs.shape[1] == 2
            assert np.all(pairs[:, 0] < pairs[:, 1])
            assert sorted(map(tuple, pairs.tolist())) == \
                sorted(zip(i.tolist(), j.tolist()))


def neighbourhood_covariances(rng, spread, scale=1.0, n=300, k=15):
    """Covariances of n k-point neighbourhoods drawn with axis standard
    deviations ``spread``, each rotated at random and moved off the origin,
    all scaled by ``scale``."""
    pts = rng.normal(size=(n, k, 3)) * np.asarray(spread, dtype=float)
    rots = np.array([random_rotation(rng, np.pi) for _ in range(n)])
    pts = (pts @ rots.transpose(0, 2, 1) + rng.normal(size=(n, 1, 3)) * 10.0)
    centered = (pts - pts.mean(axis=1, keepdims=True)) * scale
    return np.einsum("nki,nkj->nij", centered, centered) / k


class TestEigenSymmetric3x3:
    """The closed-form solver against LAPACK's ``eigh``."""

    SHAPES = {"planar": [1.0, 1.0, 0.0], "linear": [1.0, 0.0, 0.0],
              "isotropic": [1.0, 1.0, 1.0], "disc": [1.0, 1.0, 1e-3],
              "needle": [1.0, 1e-3, 1e-3], "zero": [0.0, 0.0, 0.0],
              "elongated_plane": [1.0, 0.3, 0.01]}

    @pytest.mark.parametrize("scale", [1.0, 1e-6, 1e3])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_matches_eigh(self, rng, shape, scale):
        cov = neighbourhood_covariances(rng, self.SHAPES[shape], scale)
        values, vector = eigen_symmetric_3x3(cov)
        ref_values, ref_vectors = np.linalg.eigh(cov)
        size = np.maximum(np.abs(ref_values).max(axis=1, keepdims=True),
                          np.finfo(float).tiny)
        np.testing.assert_allclose((values - ref_values) / size, 0.0,
                                   atol=1e-14)
        np.testing.assert_allclose(np.linalg.norm(vector, axis=1), 1.0,
                                   atol=1e-15)
        # an eigenvector of the smallest eigenvalue, whatever its multiplicity
        residual = (cov @ vector[:, :, None])[:, :, 0] - values[:, :1] * vector
        np.testing.assert_allclose(np.linalg.norm(residual, axis=1)
                                   / size[:, 0], 0.0, atol=1e-14)
        # where it is simple, the same vector as eigh's up to sign
        simple = ref_values[:, 1] - ref_values[:, 0] > 1e-6 * size[:, 0]
        dots = np.abs(np.einsum("ni,ni->n", vector, ref_vectors[:, :, 0]))
        np.testing.assert_allclose(dots[simple], 1.0, rtol=0, atol=1e-14)

    def test_repeated_eigenvalues(self):
        cov = np.array([np.diag([1.0, 1.0, 2.0]), np.diag([2.0, 1.0, 1.0]),
                        np.diag([1.0, 2.0, 2.0]), 3.0 * np.eye(3),
                        np.zeros((3, 3)), np.diag([0.0, 0.0, 1.0])])
        values, vector = eigen_symmetric_3x3(cov)
        np.testing.assert_allclose(values, np.sort(np.diagonal(
            cov, axis1=1, axis2=2), axis=1), rtol=0, atol=1e-15)
        residual = (cov @ vector[:, :, None])[:, :, 0] - values[:, :1] * vector
        np.testing.assert_allclose(residual, 0.0, atol=1e-15)
        np.testing.assert_allclose(np.abs(vector[2]), [1.0, 0.0, 0.0],
                                   atol=1e-15)

    def test_reads_only_the_upper_triangle(self, rng):
        cov = neighbourhood_covariances(rng, [1.0, 0.5, 0.1], n=20)
        upper = np.triu(cov)
        for a, b in zip(eigen_symmetric_3x3(cov), eigen_symmetric_3x3(upper)):
            np.testing.assert_array_equal(a, b)
