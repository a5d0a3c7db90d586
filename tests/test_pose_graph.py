"""Pose-graph construction and nonlinear least-squares optimization."""

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.spatial.transform import Rotation

from lidar_graph_slam.floor import FloorCoefficients
from lidar_graph_slam.geometry import (PointCloud, Pose, _hat, se3_adjoint,
                                       se3_exp, se3_log,
                                       se3_right_jacobian_inv, so3_exp)
from lidar_graph_slam.loop_closure import LoopCandidate
from lidar_graph_slam.pose_graph import (EDGE_FLOOR, EDGE_LOOP, EDGE_ODOMETRY,
                                         FLOOR_PLANE_ID, LOOP_HUBER_DELTA,
                                         PoseGraph, _EdgeBatch,
                                         _plane_tangent_basis,
                                         default_information)
from lidar_graph_slam.tracker import Keyframe

from conftest import is_valid_pose, pose_error, random_pose


def g2o_pose(fields):
    """A pose from g2o's "tx ty tz qx qy qz qw" text fields."""
    values = [float(v) for v in fields]
    return Pose(Rotation.from_quat(values[3:]).as_matrix(), values[:3])


def dummy_kf(index, pose):
    return Keyframe(PointCloud(np.zeros((1, 3))), pose, float(index),
                    float(index), index)


def ring_poses(n=20, radius=10.0):
    """Ground-truth poses around a circle, heading tangent to it."""
    out = []
    for i in range(n):
        a = 2.0 * np.pi * i / n
        rot = so3_exp([0.0, 0.0, a + np.pi / 2])
        out.append(Pose(rot, [radius * np.cos(a), radius * np.sin(a), 0.0]))
    return out


def build_drifted_ring(n=20, drift_twist=None):
    """Chain the true ring odometry perturbed by a constant twist error."""
    truth = ring_poses(n)
    if drift_twist is None:
        drift_twist = np.array([0.01, 0.0, 0.0, 0.0, 0.0, 0.015])
    graph = PoseGraph()
    graph.add_keyframe(dummy_kf(0, truth[0]))
    for i in range(1, n):
        rel = truth[i - 1].inverse() @ truth[i]
        noisy = rel @ se3_exp(drift_twist)
        graph.add_keyframe(dummy_kf(i, Pose.identity()), odometry_rel=noisy)
    return graph, truth


class TestConstruction:
    def test_odometry_chain(self):
        graph, truth = build_drifted_ring()
        assert len(graph.keyframe_node_ids) == 20
        assert len(graph.edges) == 19
        assert all(e.kind == EDGE_ODOMETRY for e in graph.edges)
        # node poses come from chaining the measurements, so the endpoint
        # has drifted away from the truth
        endpoint_err, _ = pose_error(graph.keyframe_poses()[-1], truth[-1])
        assert endpoint_err > 0.1

    def test_loop_edge_and_deduplication(self):
        graph, truth = build_drifted_ring()
        rel = truth[0].inverse() @ truth[19]
        loop = LoopCandidate(19, 0, 0.0, rel, fitness=0.05)
        assert graph.add_loop(loop) is not None
        assert graph.add_loop(loop) is None
        loops = [e for e in graph.edges if e.kind == EDGE_LOOP]
        assert len(loops) == 1
        assert loops[0].from_id == graph.keyframe_node_ids[0]
        assert loops[0].to_id == graph.keyframe_node_ids[19]
        # without an information matrix, the fitness sets it
        np.testing.assert_array_equal(
            loops[0].information, default_information(EDGE_LOOP, loop.fitness))

    def test_unverified_loop_rejected(self):
        graph, _ = build_drifted_ring()
        with pytest.raises(ValueError):
            graph.add_loop(LoopCandidate(19, 0, 0.0, None))

    def test_node_ids_are_keyframe_indices(self):
        graph, _ = build_drifted_ring(n=4)
        graph.add_floor(0, FloorCoefficients(0.0, 0.0, 1.0, 1.7))
        assert graph.keyframe_node_ids == [0, 1, 2, 3]
        # the floor plane is a constant, not a node
        assert len(graph.nodes) == 4
        assert graph.floor_plane is not None
        assert [e.id for e in graph.edges] == list(range(len(graph.edges)))

    @pytest.mark.parametrize("query, candidate", [
        (2, -1),     # a negative index would name the last keyframe
        (4, 0),      # one past the last keyframe
        (-1, -2)])
    def test_loop_with_unknown_keyframe_refused(self, query, candidate):
        graph, _ = build_drifted_ring(n=4)
        loop = LoopCandidate(query, candidate, 0.0, Pose.identity(),
                             fitness=0.05)
        with pytest.raises(ValueError, match="unknown keyframe"):
            graph.add_loop(loop)
        assert len(graph.edges) == 3

    @pytest.mark.parametrize("node_id", [
        99, 4, -2,
        FLOOR_PLANE_ID])     # the plane's id is no keyframe's
    def test_floor_on_unknown_keyframe_refused(self, node_id):
        graph, _ = build_drifted_ring(n=4)
        with pytest.raises(ValueError, match="unknown keyframe"):
            graph.add_floor(node_id, FloorCoefficients(0.0, 0.0, 1.0, 1.7))
        assert len(graph.edges) == 3
        assert graph.floor_plane is None

    def test_floor_edges_share_one_fixed_plane(self):
        # the first floor places the plane; later floors only add edges
        graph, _ = build_drifted_ring()
        pose = graph.keyframe_poses()[1]
        coeffs = FloorCoefficients(0.0, 0.0, 1.0, 1.7)
        for node_id in graph.keyframe_node_ids[1:4]:
            assert graph.add_floor(node_id, coeffs) is not None
        floors = [e for e in graph.edges if e.kind == EDGE_FLOOR]
        assert [(e.from_id, e.to_id) for e in floors] == \
            [(1, FLOOR_PLANE_ID), (2, FLOOR_PLANE_ID), (3, FLOOR_PLANE_ID)]
        n_w = pose.rotation @ coeffs.normal
        np.testing.assert_allclose(
            graph.floor_plane, np.append(n_w, 1.7 - n_w @ pose.translation),
            atol=1e-12)
        assert graph.keyframe_node_ids == list(range(20))

    def test_invalid_floor_ignored(self):
        graph, _ = build_drifted_ring()
        bad = FloorCoefficients(0.0, 0.0, 1.0, 0.0, valid=False)
        assert graph.add_floor(graph.keyframe_node_ids[0], bad) is None

    def test_incline_transition_suppressed(self):
        graph, _ = build_drifted_ring()
        flat = FloorCoefficients(0.0, 0.0, 1.0, 1.7)
        tilted_n = np.array([np.sin(0.2), 0.0, np.cos(0.2)])  # ~11 degrees
        tilted = FloorCoefficients(*tilted_n, 1.7)
        ids = graph.keyframe_node_ids
        assert graph.add_floor(ids[0], flat) is not None
        assert graph.add_floor(ids[1], tilted) is None     # slope transition
        assert graph.add_floor(ids[2], tilted) is not None  # stable again

    def test_default_information(self):
        odo = default_information(EDGE_ODOMETRY)
        assert odo.shape == (6, 6)
        loop_clean = default_information(EDGE_LOOP, fitness=0.05)
        loop_poor = default_information(EDGE_LOOP, fitness=0.45)
        assert loop_clean[0, 0] > loop_poor[0, 0]
        assert loop_clean[0, 0] == 4.0 * odo[0, 0]   # capped at 4x
        assert default_information(EDGE_FLOOR).shape == (3, 3)
        with pytest.raises(ValueError):
            default_information("MYSTERY")

    @pytest.mark.parametrize("fitness, scale", [
        (None, 1.0),     # no fitness: the plain loop weight
        (0.0, 4.0),      # a perfect match gets the cap, not the plain weight
        (0.05, 4.0), (0.25, 4.0), (0.5, 2.0), (2.0, 0.5)])
    def test_loop_information_scale(self, fitness, scale):
        odo = default_information(EDGE_ODOMETRY)
        np.testing.assert_array_equal(
            default_information(EDGE_LOOP, fitness=fitness), scale * odo)


class TestOptimization:
    def test_ring_closes_after_loop_edge(self):
        graph, truth = build_drifted_ring()
        before, _ = pose_error(graph.keyframe_poses()[-1], truth[-1])
        fixed_id = graph.keyframe_node_ids[0]
        fixed_bytes = (graph.nodes[fixed_id].pose.rotation.tobytes(),
                       graph.nodes[fixed_id].pose.translation.tobytes())

        rel = truth[0].inverse() @ truth[19]
        graph.add_loop(LoopCandidate(19, 0, 0.0, rel, fitness=0.05))
        report = graph.optimize(max_iterations=50)

        after, _ = pose_error(graph.keyframe_poses()[-1], truth[-1])
        assert after < 0.1 * before
        assert report.final_chi2 <= report.initial_chi2
        # chi2 non-increasing across accepted steps
        assert all(b <= a + 1e-9 for a, b in
                   zip(report.chi2_trace, report.chi2_trace[1:]))
        # the gauge-fixing node is bit-for-bit unchanged
        node = graph.nodes[fixed_id]
        assert node.pose.rotation.tobytes() == fixed_bytes[0]
        assert node.pose.translation.tobytes() == fixed_bytes[1]

    def test_perfect_graph_stays_put(self):
        truth = ring_poses()
        graph = PoseGraph()
        graph.add_keyframe(dummy_kf(0, truth[0]))
        for i in range(1, len(truth)):
            graph.add_keyframe(dummy_kf(i, truth[i]),
                               odometry_rel=truth[i - 1].inverse() @ truth[i])
        report = graph.optimize()
        assert report.final_chi2 < 1e-12
        for pose, true_pose in zip(graph.keyframe_poses(), truth):
            terr, rerr = pose_error(pose, true_pose)
            assert terr < 1e-6 and rerr < 1e-4

    def test_floor_constraint_levels_the_chain(self):
        # odometry drifts upward while the path doubles back over the same
        # ground; the floor edges squeeze the height drift out
        graph = PoseGraph()
        flat = FloorCoefficients(0.0, 0.0, 1.0, 1.7)
        graph.add_keyframe(dummy_kf(0, Pose.identity()))
        graph.add_floor(graph.keyframe_node_ids[0], flat)
        out = Pose(np.eye(3), np.array([2.0, 0.0, 0.08]))
        back = Pose(np.eye(3), np.array([-2.0, 0.0, 0.08]))
        for i in range(1, 10):
            graph.add_keyframe(dummy_kf(i, Pose.identity()),
                               odometry_rel=out if i <= 5 else back)
            graph.add_floor(graph.keyframe_node_ids[i], flat)
        z_before = abs(graph.keyframe_poses()[-1].translation[2])
        graph.optimize(max_iterations=50)
        z_after = abs(graph.keyframe_poses()[-1].translation[2])
        assert z_before > 0.5
        assert z_after < 0.25 * z_before

    def test_fixed_floor_levels_a_straight_path(self):
        # on a path that never doubles back, a free plane could tilt to fit
        # the height ramp; the fixed plane cannot, so the drift goes
        graph = PoseGraph()
        flat = FloorCoefficients(0.0, 0.0, 1.0, 1.7)
        start = Pose(so3_exp([0.0, 0.0, 0.3]), np.array([1.0, -2.0, 0.5]))
        graph.add_keyframe(dummy_kf(0, start))
        graph.add_floor(0, flat)
        step = Pose(np.eye(3), np.array([2.0, 0.0, 0.08]))
        for i in range(1, 10):
            graph.add_keyframe(dummy_kf(i, Pose.identity()),
                               odometry_rel=step)
            graph.add_floor(i, flat)
        n_w = start.rotation @ flat.normal
        expected = np.append(n_w, flat.d - n_w @ start.translation)
        np.testing.assert_allclose(graph.floor_plane, expected, atol=1e-12)
        plane_bytes = graph.floor_plane.tobytes()
        z_before = abs(graph.keyframe_poses()[-1].translation[2] - 0.5)
        graph.optimize(max_iterations=50)
        z_after = abs(graph.keyframe_poses()[-1].translation[2] - 0.5)
        assert z_before > 0.5
        assert z_after < 0.25 * z_before
        assert graph.floor_plane.tobytes() == plane_bytes

    def test_empty_graph_raises(self):
        with pytest.raises(ValueError):
            PoseGraph().optimize()

    def test_single_fixed_node_is_trivial(self):
        graph = PoseGraph()
        graph.add_keyframe(dummy_kf(0, Pose.identity()))
        report = graph.optimize()
        assert report.converged and report.final_chi2 == 0.0


def reachable_from_gauge(graph):
    """Node ids joined to keyframe 0 through ``graph.edges``' pose edges;
    floor edges are unary and join nothing."""
    adjacency = {nid: set() for nid in graph.keyframe_node_ids}
    for e in graph.edges:
        if e.kind == EDGE_FLOOR:
            assert e.from_id in adjacency and e.to_id == FLOOR_PLANE_ID
            continue
        adjacency[e.from_id].add(e.to_id)
        adjacency[e.to_id].add(e.from_id)
    seen, stack = {0}, [0]
    while stack:
        for nb in adjacency[stack.pop()] - seen:
            seen.add(nb)
            stack.append(nb)
    return seen


class TestConnectedByConstruction:
    """Whatever sequence of calls built it, the graph is connected to the
    gauge: a loop or floor edge that names an unknown keyframe is refused
    and appends nothing."""

    FLAT = FloorCoefficients(0.0, 0.0, 1.0, 1.7)
    TILTED = FloorCoefficients(np.sin(0.2), 0.0, np.cos(0.2), 1.7)
    INVALID = FloorCoefficients(0.0, 0.0, 1.0, 0.0, valid=False)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_construction(self, seed):
        rng = np.random.default_rng(seed)
        graph = PoseGraph()
        graph.add_keyframe(dummy_kf(0, Pose.identity()))
        step = Pose(so3_exp([0.0, 0.0, 0.1]), [1.0, 0.0, 0.0])
        offered = []     # valid loops, offered again as duplicates
        refused = duplicates = 0
        for _ in range(40):
            count = len(graph.keyframe_node_ids)
            edges = len(graph.edges)
            op = rng.integers(4)
            if op == 0:
                graph.add_keyframe(
                    dummy_kf(count, Pose.identity()),
                    odometry_rel=step @ random_pose(rng, 0.1, 0.05))
                continue
            if op == 1 and offered:
                assert graph.add_loop(offered[rng.integers(len(offered))]) \
                    is None
                duplicates += 1
            elif op == 1 or op == 2:
                query = int(rng.integers(-1, count + 1))
                cand = int(rng.integers(-2, query))
                valid = 0 <= cand and query < count
                rel = Pose.identity()
                if valid:
                    poses = graph.keyframe_poses()
                    rel = poses[cand].inverse() @ poses[query] \
                        @ random_pose(rng, 0.5, 0.1)
                loop = LoopCandidate(query, cand, 0.0, rel, fitness=0.1)
                if valid:
                    if graph.add_loop(loop) is not None:
                        offered.append(loop)
                    continue
                with pytest.raises(ValueError, match="unknown keyframe"):
                    graph.add_loop(loop)
                refused += 1
            else:
                node = int(rng.choice([rng.integers(count), rng.integers(count),
                                       -2, FLOOR_PLANE_ID, count, 99]))
                coeffs = [self.FLAT, self.TILTED, self.INVALID][
                    rng.integers(3)]
                if 0 <= node < count:
                    graph.add_floor(node, coeffs)
                    continue
                with pytest.raises(ValueError, match="unknown keyframe"):
                    graph.add_floor(node, coeffs)
                refused += 1
            assert len(graph.edges) == edges
        assert refused and duplicates
        assert reachable_from_gauge(graph) == set(graph.keyframe_node_ids)
        report = graph.optimize(max_iterations=5)
        assert np.isfinite(report.final_chi2)


class TestLoopEdgeNearPi:
    """A loop edge that contradicts the chain by a half turn about z."""

    @staticmethod
    def twisted_loop(graph, angle):
        poses = graph.keyframe_poses()
        twist = Pose(so3_exp([0.0, 0.0, angle]), np.zeros(3))
        measured = poses[0].inverse() @ poses[19] @ twist
        err = measured.inverse() @ poses[0].inverse() @ poses[19]
        assert err.rotation_angle() == pytest.approx(angle, abs=1e-9)
        return LoopCandidate(19, 0, 0.0, measured, fitness=0.05)

    def test_loop_at_pi_is_rejected(self):
        # the log of a half turn has no unique axis; the edge stays out of
        # the graph, which then optimizes as if it had never been offered
        graph, _ = build_drifted_ring()
        assert graph.add_loop(self.twisted_loop(graph, np.pi)) is None
        assert not [e for e in graph.edges if e.kind == EDGE_LOOP]
        report = graph.optimize(max_iterations=50)
        assert np.isfinite(report.final_chi2)

    def test_error_rotation_at_pi_raises(self):
        # an edge that was fine when added can still reach pi if a node is
        # moved; optimize refuses rather than return NaN poses
        graph, _ = build_drifted_ring()
        assert graph.add_loop(self.twisted_loop(graph, 0.0)) is not None
        node = graph.nodes[graph.keyframe_node_ids[19]]
        node.pose = node.pose @ Pose(so3_exp([0.0, 0.0, np.pi]), np.zeros(3))
        with pytest.raises(ValueError, match="near pi"):
            graph.optimize(max_iterations=50)

    def test_error_rotation_just_below_pi_optimizes(self):
        graph, _ = build_drifted_ring()
        assert graph.add_loop(self.twisted_loop(graph, np.pi - 0.05)) \
            is not None
        report = graph.optimize(max_iterations=50)
        assert np.isfinite(report.final_chi2)
        assert report.final_chi2 <= report.initial_chi2
        for pose in graph.keyframe_poses():
            assert np.isfinite(pose.matrix()).all()
            assert is_valid_pose(pose)


# -- per-edge reference -------------------------------------------------------
#
# The solver evaluates all edges at once.  These are the per-edge formulas
# and the scalar-by-scalar assembly it replaced, kept as the reference.

def ref_tangent_basis(normal):
    ref = np.array([1.0, 0.0, 0.0])
    if abs(normal[0]) > 0.9:
        ref = np.array([0.0, 1.0, 0.0])
    b1 = np.cross(normal, ref)
    b1 /= np.linalg.norm(b1)
    b2 = np.cross(normal, b1)
    return np.column_stack([b1, b2])


def ref_pose_edge_terms(graph, edge):
    """Residual and [(keyframe, Jacobian block)] for both endpoints."""
    xi = graph.nodes[edge.from_id].pose
    xj = graph.nodes[edge.to_id].pose
    m = edge.measurement
    r = se3_log(m.inverse() @ xi.inverse() @ xj)
    jr_inv = se3_right_jacobian_inv(r)
    rel = xj.inverse() @ xi
    ji = -jr_inv @ se3_adjoint(rel.rotation, rel.translation)
    return r, [(edge.from_id, ji), (edge.to_id, jr_inv)]


def ref_floor_edge_terms(graph, edge):
    """Residual and [(keyframe, Jacobian block)]: the plane is fixed."""
    node = graph.nodes[edge.from_id]
    r_mat, t = node.pose.rotation, node.pose.translation
    n_w, d_w = graph.floor_plane[:3], graph.floor_plane[3]
    meas = edge.measurement
    n_m = meas.normal / np.linalg.norm(meas.normal)
    n_s = r_mat.T @ n_w
    b_m = ref_tangent_basis(n_m)
    resid = np.empty(3)
    resid[:2] = b_m.T @ (n_s - n_m)
    resid[2] = n_w @ t + d_w - meas.d
    j_pose = np.zeros((3, 6))
    j_pose[:2, 3:] = b_m.T @ _hat(n_s)
    j_pose[2, :3] = n_s
    return resid, [(edge.from_id, j_pose)]


def ref_terms(graph, edge):
    if edge.kind == EDGE_FLOOR:
        return ref_floor_edge_terms(graph, edge)
    return ref_pose_edge_terms(graph, edge)


def ref_huber(chi2, delta):
    if chi2 <= delta * delta:
        return chi2, 1.0
    s = np.sqrt(chi2)
    return 2.0 * delta * s - delta * delta, delta / s


def ref_normal_equations(graph):
    """H, rhs and chi2 over keyframes 1..K-1; keyframe k's 6 coordinates
    start at 6 (k - 1), and keyframe 0, the gauge, has none."""
    dim = 6 * (len(graph.nodes) - 1)
    rows, cols, vals = [], [], []
    rhs = np.zeros(dim)
    chi2 = 0.0
    for edge in graph.edges:
        r, jacobians = ref_terms(graph, edge)
        omega = edge.information
        c = float(r @ omega @ r)
        w = 1.0
        if edge.kind == EDGE_LOOP:
            c, w = ref_huber(c, LOOP_HUBER_DELTA)
        chi2 += c
        omega_w = w * omega
        blocks = [(6 * (k - 1), j) for k, j in jacobians if k]
        for off_a, ja in blocks:
            rhs[off_a:off_a + ja.shape[1]] -= ja.T @ omega_w @ r
            for off_b, jb in blocks:
                h = ja.T @ omega_w @ jb
                for a in range(h.shape[0]):
                    for b in range(h.shape[1]):
                        rows.append(off_a + a)
                        cols.append(off_b + b)
                        vals.append(h[a, b])
    hmat = coo_matrix((vals, (rows, cols)), shape=(dim, dim)).toarray()
    return hmat, rhs, chi2


def batch_terms(graph):
    """Batched (pose residuals, Jacobians), (floor residuals, Jacobians)."""
    batch = _EdgeBatch(graph)
    return (batch.pose_terms(batch.initial, True),
            batch.floor_terms(batch.initial, True))


def kernel_graph(rng):
    """Eight keyframes with odometry, Huber loop and floor edges.

    Odometry error rotations are 0, 1e-7, 1e-3 and 0.2 rad, so every branch
    of the log, the inverse left Jacobian and the Q matrix is taken.  One
    loop's robust cost lies inside the Huber threshold and one outside.  The
    fixed plane is node 0's floor mapped through its random pose, so it is
    tilted in the world; node 0 is the gauge and carries an odometry, a
    loop and a floor edge.
    """
    truth = [random_pose(rng, 5.0, 1.0) for _ in range(8)]

    def error(angle, trans):
        axis = rng.normal(size=3)
        return se3_exp(np.concatenate([rng.normal(scale=trans, size=3),
                                       angle * axis / np.linalg.norm(axis)]))

    graph = PoseGraph()
    graph.add_keyframe(dummy_kf(0, truth[0]))
    odometry = [(0.0, 0.0), (1e-7, 0.0), (1e-3, 0.01), (0.2, 0.1),
                (0.0, 0.05), (1e-7, 1e-7), (1e-3, 0.0)]
    for i, (angle, trans) in enumerate(odometry, start=1):
        rel = truth[i - 1].inverse() @ truth[i]
        graph.add_keyframe(dummy_kf(i, Pose.identity()),
                           odometry_rel=rel @ error(angle, trans))
        graph.nodes[graph.keyframe_node_ids[i]].pose = truth[i]
    for query, cand, angle, trans in ((5, 0, 1e-3, 1e-3), (7, 2, 0.3, 0.5)):
        rel = truth[cand].inverse() @ truth[query]
        assert graph.add_loop(LoopCandidate(query, cand, 0.0,
                                            rel @ error(angle, trans),
                                            fitness=0.05)) is not None
    ids = graph.keyframe_node_ids
    for node, tilt in ((0, 0.0), (2, 0.01), (3, 0.02), (6, -0.02)):
        n = np.array([np.sin(tilt), 0.5 * tilt, np.cos(tilt)])
        assert graph.add_floor(ids[node],
                               FloorCoefficients(*n, 1.6 + tilt)) is not None
    return graph


def rel_err(actual, expected):
    return np.linalg.norm(actual - expected) / np.linalg.norm(expected)


class TestBatchedKernel:
    """The batched solver against the per-edge reference above."""

    def test_graph_covers_every_case(self, rng):
        graph = kernel_graph(rng)
        residuals = [(ref_terms(graph, e)[0], e.information)
                     for e in graph.edges if e.kind == EDGE_LOOP]
        costs = [r @ info @ r for r, info in residuals]
        assert min(costs) < 1.0 < max(costs)      # Huber inside and outside
        angles = [se3_log(e.measurement.inverse()
                          @ graph.nodes[e.from_id].pose.inverse()
                          @ graph.nodes[e.to_id].pose)[3:]
                  for e in graph.edges if e.kind == EDGE_ODOMETRY]
        angles = np.linalg.norm(angles, axis=1)
        assert angles.min() < 1e-10
        assert ((angles > 1e-10) & (angles < 1e-4)).any()
        assert ((angles > 1e-4) & (angles < 1e-2)).any()
        fixed = graph.keyframe_node_ids[0]
        assert {e.kind for e in graph.edges if fixed in (e.from_id, e.to_id)} \
            == {EDGE_ODOMETRY, EDGE_LOOP, EDGE_FLOOR}

    def test_residuals_and_jacobians(self, rng):
        graph = kernel_graph(rng)
        (rp, jp), (rf, jf) = batch_terms(graph)
        pose_edges = [e for e in graph.edges if e.kind != EDGE_FLOOR]
        floor_edges = [e for e in graph.edges if e.kind == EDGE_FLOOR]
        ref_p = [ref_terms(graph, e) for e in pose_edges]
        ref_f = [ref_terms(graph, e) for e in floor_edges]
        assert rel_err(rp, np.array([r for r, _ in ref_p])) < 1e-9
        assert rel_err(rf, np.array([r for r, _ in ref_f])) < 1e-9
        for j, (_, blocks) in zip(list(jp) + list(jf), ref_p + ref_f):
            assert rel_err(j, np.hstack([b for _, b in blocks])) < 1e-9

    def test_normal_equations_and_chi2(self, rng):
        graph = kernel_graph(rng)
        h_ref, rhs_ref, chi2_ref = ref_normal_equations(graph)
        batch = _EdgeBatch(graph)
        hmat, rhs, chi2 = batch.normal_equations(batch.initial)
        assert rel_err(hmat.toarray(), h_ref) < 1e-9
        assert rel_err(rhs, rhs_ref) < 1e-9
        assert chi2 == pytest.approx(chi2_ref, rel=1e-9)
        assert batch.cost(batch.initial) == pytest.approx(chi2_ref, rel=1e-9)

    def test_tangent_basis_matches_per_row(self, rng):
        normals = rng.normal(size=(50, 3))
        normals[:5] = [[1.0, 0.1, 0.0], [-0.95, 0.0, 0.3], [0.0, 0.0, 1.0],
                       [0.0, 1.0, 0.0], [0.91, 0.4, 0.0]]
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        batched = _plane_tangent_basis(normals)
        for n, b in zip(normals, batched):
            np.testing.assert_allclose(b, ref_tangent_basis(n), atol=1e-15)

    def test_optimize_matches_reference_step(self, rng):
        # the first LM step (accepted at the initial damping) equals the
        # reference solution applied keyframe by keyframe as x exp(inc);
        # the gauge and the plane stay put
        graph = kernel_graph(rng)
        h_ref, rhs_ref, chi2_ref = ref_normal_equations(graph)
        delta = np.linalg.solve(h_ref + 1e-6 * np.eye(len(rhs_ref)), rhs_ref)
        expected = {k: (graph.nodes[k].pose @ se3_exp(inc))
                    .orthonormalized().matrix()
                    for k, inc in enumerate(delta.reshape(-1, 6), start=1)}
        expected[0] = graph.nodes[0].pose.matrix()
        plane = graph.floor_plane.copy()
        report = graph.optimize(max_iterations=1)
        assert report.iterations == 1
        assert report.final_chi2 < chi2_ref
        for k, value in expected.items():
            np.testing.assert_allclose(graph.nodes[k].pose.matrix(), value,
                                       atol=1e-9)
        np.testing.assert_array_equal(graph.floor_plane, plane)


class TestJacobians:
    def test_pose_edge_jacobian_matches_finite_differences(self, rng):
        graph = PoseGraph()
        pa, pb = random_pose(rng, 3.0, 0.8), random_pose(rng, 3.0, 0.8)
        graph.add_keyframe(dummy_kf(0, pa))
        graph.add_keyframe(dummy_kf(1, Pose.identity()),
                           odometry_rel=random_pose(rng, 1.0, 0.3))
        graph.nodes[graph.keyframe_node_ids[1]].pose = pb
        (r0, jac), _ = batch_terms(graph)
        h = 1e-7
        for node_idx in (0, 1):
            node = graph.nodes[graph.keyframe_node_ids[node_idx]]
            base = node.pose
            num = np.zeros((6, 6))
            for col in range(6):
                delta = np.zeros(6)
                delta[col] = h
                node.pose = base @ se3_exp(delta)
                (r1, _), _ = batch_terms(graph)
                num[:, col] = (r1[0] - r0[0]) / h
                node.pose = base
            np.testing.assert_allclose(
                jac[0][:, 6 * node_idx:6 * node_idx + 6], num, atol=1e-5)

    def test_floor_edge_jacobian_matches_finite_differences(self, rng):
        graph = PoseGraph()
        graph.add_keyframe(dummy_kf(0, random_pose(rng, 2.0, 0.3)))
        graph.add_keyframe(dummy_kf(1, random_pose(rng, 2.0, 0.3)))
        coeffs = FloorCoefficients(0.05, -0.02, 0.998, 1.6)
        node_id = graph.keyframe_node_ids[1]
        graph.add_floor(node_id, coeffs)
        _, (r0, jac) = batch_terms(graph)
        node = graph.nodes[node_id]
        base = node.pose
        h = 1e-7
        num = np.zeros((3, 6))
        for col in range(6):
            delta = np.zeros(6)
            delta[col] = h
            node.pose = base @ se3_exp(delta)
            _, (r1, _) = batch_terms(graph)
            num[:, col] = (r1[0] - r0[0]) / h
            node.pose = base
        np.testing.assert_allclose(jac[0][:, :6], num, atol=1e-5)


class TestExport:
    def test_g2o_format(self, tmp_path):
        graph, truth = build_drifted_ring(n=5)
        rel = truth[0].inverse() @ truth[4]
        graph.add_loop(LoopCandidate(4, 0, 0.0, rel, fitness=0.1))
        coeffs = FloorCoefficients(0.0, 0.0, 1.0, 1.7)
        # the floor plane exists and is not written
        assert graph.add_floor(graph.keyframe_node_ids[0], coeffs) is not None
        assert graph.floor_plane is not None
        path = tmp_path / "graph.g2o"
        graph.export_g2o(path)
        lines = path.read_text().strip().splitlines()
        vertices = [l for l in lines if l.startswith("VERTEX_SE3:QUAT ")]
        edges = [l for l in lines if l.startswith("EDGE_SE3:QUAT ")]
        assert len(vertices) == 5
        assert len(edges) == 5           # 4 odometry + 1 loop, no floor rows
        for v in vertices:
            assert len(v.split()) == 1 + 1 + 7
        vertex_ids = [int(v.split()[1]) for v in vertices]
        assert vertex_ids == list(range(5))
        for e in edges:
            fields = e.split()
            assert len(fields) == 1 + 2 + 7 + 21
            assert {int(fields[1]), int(fields[2])} <= set(vertex_ids)
            quat = np.array([float(x) for x in fields[6:10]])
            assert np.linalg.norm(quat) == pytest.approx(1.0, abs=1e-6)

    def test_g2o_information_weighs_g2o_error_as_ours(self, rng, tmp_path):
        # g2o's error is (t, q_xyz), q_xyz ~ phi / 2: the written matrices
        # are scaled so that its chi2 of the written graph matches ours
        graph, truth = build_drifted_ring(n=150)
        for node in graph.nodes[1:]:
            node.pose = node.pose @ se3_exp(rng.normal(scale=0.02, size=6))
        for a, b in [(0, 140), (10, 145), (20, 149), (5, 120)]:
            rel = graph.nodes[a].pose.inverse() @ graph.nodes[b].pose
            noisy = rel @ se3_exp(rng.normal(scale=0.005, size=6))
            assert graph.add_loop(LoopCandidate(b, a, 0.0, noisy)) is not None
        batch = _EdgeBatch(graph)
        r, _ = batch.pose_terms(batch.initial, False)
        sq = np.einsum("ni,nij,nj->n", r, batch.pose_weights.info, r)
        # below the Huber threshold, our chi2 is the plain sum
        assert np.all(sq[batch.pose_weights.huber] < LOOP_HUBER_DELTA ** 2)
        ours = batch.cost(batch.initial)
        assert ours == pytest.approx(sq.sum(), rel=1e-12)

        path = tmp_path / "graph.g2o"
        graph.export_g2o(path)
        vertices, theirs = {}, 0.0
        for line in path.read_text().splitlines():
            tag, *fields = line.split()
            if tag == "VERTEX_SE3:QUAT":
                vertices[int(fields[0])] = g2o_pose(fields[1:8])
                continue
            i, j = int(fields[0]), int(fields[1])
            values = [float(v) for v in fields[9:]]
            info = np.zeros((6, 6))
            info[np.triu_indices(6)] = values
            info = info + np.triu(info, 1).T
            delta = g2o_pose(fields[2:9]).inverse() \
                @ vertices[i].inverse() @ vertices[j]
            q = Rotation.from_matrix(delta.rotation).as_quat()
            e = np.concatenate([delta.translation,
                                q[:3] if q[3] >= 0 else -q[:3]])
            theirs += e @ info @ e
        assert len(vertices) == 150
        assert theirs == pytest.approx(ours, rel=1e-3)

