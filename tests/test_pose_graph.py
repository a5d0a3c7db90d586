"""Pose-graph construction and nonlinear least-squares optimization."""

import numpy as np
import pytest

from lidar_graph_slam.floor import FloorCoefficients
from lidar_graph_slam.geometry import PointCloud, Pose, se3_exp, so3_exp
from lidar_graph_slam.loop_closure import LoopCandidate
from lidar_graph_slam.pose_graph import (EDGE_FLOOR, EDGE_LOOP, EDGE_ODOMETRY,
                                         DisconnectedGraphError, PoseGraph,
                                         default_information)
from lidar_graph_slam.tracker import Keyframe

from conftest import pose_error, random_pose


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

    def test_first_node_fixed(self):
        graph, _ = build_drifted_ring()
        nodes = [graph.nodes[i] for i in graph.keyframe_node_ids]
        assert nodes[0].fixed and not any(n.fixed for n in nodes[1:])

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

    def test_unverified_loop_rejected(self):
        graph, _ = build_drifted_ring()
        with pytest.raises(ValueError):
            graph.add_loop(LoopCandidate(19, 0, 0.0, None))

    def test_floor_edges_share_one_plane_node(self):
        graph, _ = build_drifted_ring()
        coeffs = FloorCoefficients(0.0, 0.0, 1.0, 1.7)
        for node_id in graph.keyframe_node_ids[:3]:
            assert graph.add_floor(node_id, coeffs) is not None
        plane_nodes = [n for n in graph.nodes.values()
                       if n.kind == "FLOOR_PLANE"]
        assert len(plane_nodes) == 1
        assert len([e for e in graph.edges if e.kind == EDGE_FLOOR]) == 3

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

    def test_floor_constraint_levels_the_chain(self, rng):
        # odometry drifts upward while the path doubles back over the same
        # ground; a single plane cannot explain two heights at one spot, so
        # stiff floor edges squeeze the height drift out.  (On a path that
        # never doubles back, a height ramp is indistinguishable from a
        # tilted floor and the optimizer rightly tilts the plane instead.)
        graph = PoseGraph()
        flat = FloorCoefficients(0.0, 0.0, 1.0, 1.7)
        stiff = np.diag([100.0, 100.0, 10_000.0])
        graph.add_keyframe(dummy_kf(0, Pose.identity()))
        graph.add_floor(graph.keyframe_node_ids[0], flat, information=stiff)
        out = Pose(np.eye(3), np.array([2.0, 0.0, 0.08]))
        back = Pose(np.eye(3), np.array([-2.0, 0.0, 0.08]))
        for i in range(1, 10):
            graph.add_keyframe(dummy_kf(i, Pose.identity()),
                               odometry_rel=out if i <= 5 else back)
            graph.add_floor(graph.keyframe_node_ids[i], flat,
                            information=stiff)
        z_before = abs(graph.keyframe_poses()[-1].translation[2])
        graph.optimize(max_iterations=50)
        z_after = abs(graph.keyframe_poses()[-1].translation[2])
        assert z_before > 0.5
        assert z_after < 0.25 * z_before

    def test_empty_graph_raises(self):
        with pytest.raises(ValueError):
            PoseGraph().optimize()

    def test_single_fixed_node_is_trivial(self):
        graph = PoseGraph()
        graph.add_keyframe(dummy_kf(0, Pose.identity()))
        report = graph.optimize()
        assert report.converged and report.final_chi2 == 0.0

    def test_disconnected_graph_detected(self):
        graph = PoseGraph()
        graph.add_keyframe(dummy_kf(0, Pose.identity()))
        # a floating node with no edge to the fixed component
        from lidar_graph_slam.pose_graph import NODE_KEYFRAME, GraphNode
        graph.nodes[99] = GraphNode(99, NODE_KEYFRAME, pose=Pose.identity())
        with pytest.raises(DisconnectedGraphError) as err:
            graph.optimize()
        assert 99 in err.value.node_ids


class TestLoopEdgeNearPi:
    """A loop edge that contradicts the chain by a half turn about z."""

    @staticmethod
    def graph_with_twisted_loop(angle):
        graph, _ = build_drifted_ring()
        poses = graph.keyframe_poses()
        twist = Pose(so3_exp([0.0, 0.0, angle]), np.zeros(3))
        measured = poses[0].inverse() @ poses[19] @ twist
        graph.add_loop(LoopCandidate(19, 0, 0.0, measured, fitness=0.05))
        loop = graph.edges[-1]
        xi = graph.nodes[loop.from_id].pose
        xj = graph.nodes[loop.to_id].pose
        err = loop.measurement.inverse() @ xi.inverse() @ xj
        assert err.rotation_angle() == pytest.approx(angle, abs=1e-9)
        return graph

    def test_error_rotation_at_pi_raises(self):
        # the log of a half turn has no unique axis; optimize must refuse
        # rather than return NaN poses
        graph = self.graph_with_twisted_loop(np.pi)
        with pytest.raises(ValueError, match="near pi"):
            graph.optimize(max_iterations=50)

    def test_error_rotation_just_below_pi_optimizes(self):
        graph = self.graph_with_twisted_loop(np.pi - 0.05)
        report = graph.optimize(max_iterations=50)
        assert np.isfinite(report.final_chi2)
        assert report.final_chi2 <= report.initial_chi2
        for pose in graph.keyframe_poses():
            assert np.isfinite(pose.matrix()).all()
            assert pose.is_valid()


class TestJacobians:
    def test_pose_edge_jacobian_matches_finite_differences(self, rng):
        graph = PoseGraph()
        pa, pb = random_pose(rng, 3.0, 0.8), random_pose(rng, 3.0, 0.8)
        graph.add_keyframe(dummy_kf(0, pa))
        graph.add_keyframe(dummy_kf(1, Pose.identity()),
                           odometry_rel=random_pose(rng, 1.0, 0.3))
        graph.nodes[graph.keyframe_node_ids[1]].pose = pb
        edge = graph.edges[0]
        r0, ji, jj = graph._pose_edge_terms(edge)
        h = 1e-7
        for node_idx, jac in ((0, ji), (1, jj)):
            node = graph.nodes[graph.keyframe_node_ids[node_idx]]
            base = node.pose
            num = np.zeros((6, 6))
            for col in range(6):
                delta = np.zeros(6)
                delta[col] = h
                node.pose = base @ se3_exp(delta)
                r1, _, _ = graph._pose_edge_terms(edge)
                num[:, col] = (r1 - r0) / h
                node.pose = base
            np.testing.assert_allclose(jac, num, atol=1e-5)

    def test_floor_edge_jacobian_matches_finite_differences(self, rng):
        graph = PoseGraph()
        graph.add_keyframe(dummy_kf(0, random_pose(rng, 2.0, 0.3)))
        graph.add_keyframe(dummy_kf(1, random_pose(rng, 2.0, 0.3)))
        coeffs = FloorCoefficients(0.05, -0.02, 0.998, 1.6)
        node_id = graph.keyframe_node_ids[1]
        graph.add_floor(node_id, coeffs)
        edge = [e for e in graph.edges if e.kind == EDGE_FLOOR][0]
        r0, j_pose, j_plane = graph._floor_edge_terms(edge)
        node = graph.nodes[node_id]
        base = node.pose
        h = 1e-7
        num = np.zeros((3, 6))
        for col in range(6):
            delta = np.zeros(6)
            delta[col] = h
            node.pose = base @ se3_exp(delta)
            r1, _, _ = graph._floor_edge_terms(edge)
            num[:, col] = (r1 - r0) / h
            node.pose = base
        np.testing.assert_allclose(j_pose, num, atol=1e-5)


class TestExport:
    def test_g2o_format(self, tmp_path):
        graph, truth = build_drifted_ring(n=5)
        rel = truth[0].inverse() @ truth[4]
        graph.add_loop(LoopCandidate(4, 0, 0.0, rel, fitness=0.1))
        coeffs = FloorCoefficients(0.0, 0.0, 1.0, 1.7)
        graph.add_floor(graph.keyframe_node_ids[0], coeffs)
        path = tmp_path / "graph.g2o"
        graph.export_g2o(path)
        lines = path.read_text().strip().splitlines()
        vertices = [l for l in lines if l.startswith("VERTEX_SE3:QUAT ")]
        edges = [l for l in lines if l.startswith("EDGE_SE3:QUAT ")]
        assert len(vertices) == 5
        assert len(edges) == 5           # 4 odometry + 1 loop, no floor rows
        for v in vertices:
            assert len(v.split()) == 1 + 1 + 7
        for e in edges:
            fields = e.split()
            assert len(fields) == 1 + 2 + 7 + 21
            quat = np.array([float(x) for x in fields[6:10]])
            assert np.linalg.norm(quat) == pytest.approx(1.0, abs=1e-6)
