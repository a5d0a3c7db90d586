"""Pose graph construction and Levenberg-Marquardt optimization on SE(3).

Keyframe poses are nodes; odometry, loop, and floor measurements are edges.
The floor constraints share one global plane node.  The solver works on
se(3) increments (right multiplication) with analytic Jacobians, sparse
normal equations, adaptive damping, and optional Huber weighting on loop
edges.  The first keyframe node is held fixed to pin the gauge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import splu

from .floor import FloorCoefficients
from .geometry import (Pose, se3_adjoint, se3_exp, se3_log,
                       se3_right_jacobian_inv, _hat)
from .loop_closure import LoopCandidate
from .tracker import Keyframe

NODE_KEYFRAME = "KEYFRAME"
NODE_FLOOR_PLANE = "FLOOR_PLANE"

EDGE_ODOMETRY = "ODOMETRY"
EDGE_LOOP = "LOOP"
EDGE_FLOOR = "FLOOR"

KERNEL_NONE = "NONE"
KERNEL_HUBER = "HUBER"


@dataclass
class GraphNode:
    id: int
    kind: str
    pose: Optional[Pose] = None          # KEYFRAME state
    plane: Optional[np.ndarray] = None   # FLOOR_PLANE state (a, b, c, d)
    fixed: bool = False


@dataclass
class GraphEdge:
    id: int
    kind: str
    from_id: int
    to_id: int
    measurement: Union[Pose, FloorCoefficients]
    information: np.ndarray
    robust_kernel: str = KERNEL_NONE
    kernel_scale: float = 1.0


@dataclass
class OptimizationReport:
    initial_chi2: float
    final_chi2: float
    iterations: int
    converged: bool
    chi2_trace: List[float] = field(default_factory=list)


class DisconnectedGraphError(RuntimeError):
    def __init__(self, node_ids: Sequence[int]):
        self.node_ids = list(node_ids)
        super().__init__(
            "pose graph is under-constrained; nodes not connected to the "
            f"fixed node: {sorted(self.node_ids)}")


def _plane_tangent_basis(normal: np.ndarray) -> np.ndarray:
    """3x2 orthonormal basis of the plane orthogonal to ``normal``."""
    ref = np.array([1.0, 0.0, 0.0])
    if abs(normal[0]) > 0.9:
        ref = np.array([0.0, 1.0, 0.0])
    b1 = np.cross(normal, ref)
    b1 /= np.linalg.norm(b1)
    b2 = np.cross(normal, b1)
    return np.column_stack([b1, b2])


def default_information(kind: str, fitness: Optional[float] = None) -> np.ndarray:
    """Edge information matrices (inverse covariances).

    Odometry: diag(100 m^-2, 400 rad^-2) blocks.  Loop edges are scaled by
    1/fitness (capped at 4x) so cleaner matches constrain harder.  Floor:
    diag(100, 100, 25) over (2 normal angles, offset).
    """
    if kind == EDGE_ODOMETRY:
        return np.diag([100.0, 100.0, 100.0, 400.0, 400.0, 400.0])
    if kind == EDGE_LOOP:
        scale = 1.0
        if fitness is not None and fitness > 0:
            scale = min(1.0 / fitness, 4.0)
        return scale * np.diag([100.0, 100.0, 100.0, 400.0, 400.0, 400.0])
    if kind == EDGE_FLOOR:
        return np.diag([100.0, 100.0, 25.0])
    raise ValueError(f"unknown edge kind {kind!r}")


class PoseGraph:
    """Keyframe pose graph with odometry, loop, and floor constraints."""

    def __init__(self, incline_threshold: float = np.deg2rad(5.0)):
        self.nodes: Dict[int, GraphNode] = {}
        self.edges: List[GraphEdge] = []
        self._next_node_id = 0
        self._next_edge_id = 0
        self._keyframe_node_ids: List[int] = []
        self._floor_node_id: Optional[int] = None
        self._loop_pairs: Set[Tuple[int, int]] = set()
        self._last_floor_normal: Optional[np.ndarray] = None
        self.incline_threshold = incline_threshold

    # -- construction -------------------------------------------------------

    def add_keyframe(self, kf: Keyframe, odometry_rel: Optional[Pose] = None,
                     information: Optional[np.ndarray] = None) -> int:
        """Append a keyframe node chained to the previous one by odometry."""
        node_id = self._next_node_id
        self._next_node_id += 1
        first = not self._keyframe_node_ids
        if first:
            pose = kf.pose
        else:
            prev = self.nodes[self._keyframe_node_ids[-1]]
            rel = odometry_rel if odometry_rel is not None else (
                prev.pose.inverse() @ kf.pose)
            pose = prev.pose @ rel
        node = GraphNode(node_id, NODE_KEYFRAME, pose=pose, fixed=first)
        self.nodes[node_id] = node
        if not first:
            prev_id = self._keyframe_node_ids[-1]
            rel = odometry_rel if odometry_rel is not None else (
                self.nodes[prev_id].pose.inverse() @ kf.pose)
            info = information if information is not None else \
                default_information(EDGE_ODOMETRY)
            self.edges.append(GraphEdge(self._next_edge_id, EDGE_ODOMETRY,
                                        prev_id, node_id, rel, info))
            self._next_edge_id += 1
        self._keyframe_node_ids.append(node_id)
        return node_id

    def add_loop(self, loop: LoopCandidate,
                 information: Optional[np.ndarray] = None) -> Optional[int]:
        """Add a loop edge: measurement maps the query frame into the
        candidate frame.  Duplicates and self-loops are rejected."""
        if loop.verified_transform is None:
            raise ValueError("loop candidate is not verified")
        if loop.query_index == loop.candidate_index:
            return None
        pair = (loop.query_index, loop.candidate_index)
        if pair in self._loop_pairs:
            return None
        try:
            from_id = self._keyframe_node_ids[loop.candidate_index]
            to_id = self._keyframe_node_ids[loop.query_index]
        except IndexError:
            raise ValueError("loop references unknown keyframe index")
        info = information if information is not None else \
            default_information(EDGE_LOOP, loop.fitness)
        edge = GraphEdge(self._next_edge_id, EDGE_LOOP, from_id, to_id,
                         loop.verified_transform, info,
                         robust_kernel=KERNEL_HUBER, kernel_scale=1.0)
        self._next_edge_id += 1
        self.edges.append(edge)
        self._loop_pairs.add(pair)
        return edge.id

    def add_floor(self, kf_node_id: int, coeffs: FloorCoefficients,
                  information: Optional[np.ndarray] = None) -> Optional[int]:
        """Constrain a keyframe against the global floor plane.

        A clear change in the detected vertical direction between
        consecutive keyframes indicates a slope transition; the constraint
        is suppressed for that keyframe.
        """
        if not coeffs.valid:
            return None
        normal = coeffs.normal / np.linalg.norm(coeffs.normal)
        prev_normal = self._last_floor_normal
        self._last_floor_normal = normal
        if prev_normal is not None:
            angle = np.arccos(np.clip(prev_normal @ normal, -1.0, 1.0))
            if angle > self.incline_threshold:
                return None
        if self._floor_node_id is None:
            node_id = self._next_node_id
            self._next_node_id += 1
            self.nodes[node_id] = GraphNode(
                node_id, NODE_FLOOR_PLANE,
                plane=np.array([0.0, 0.0, 1.0, 0.0]))
            self._floor_node_id = node_id
        info = information if information is not None else \
            default_information(EDGE_FLOOR)
        edge = GraphEdge(self._next_edge_id, EDGE_FLOOR,
                         kf_node_id, self._floor_node_id, coeffs, info)
        self._next_edge_id += 1
        self.edges.append(edge)
        return edge.id

    @property
    def keyframe_node_ids(self) -> List[int]:
        return list(self._keyframe_node_ids)

    @property
    def floor_node_id(self) -> Optional[int]:
        return self._floor_node_id

    def keyframe_poses(self) -> List[Pose]:
        return [self.nodes[i].pose for i in self._keyframe_node_ids]

    # -- residuals and Jacobians -------------------------------------------

    def _pose_edge_terms(self, edge: GraphEdge):
        xi = self.nodes[edge.from_id].pose
        xj = self.nodes[edge.to_id].pose
        m: Pose = edge.measurement
        err_pose = m.inverse() @ xi.inverse() @ xj
        r = se3_log(err_pose)
        jr_inv = se3_right_jacobian_inv(r)
        jj = jr_inv
        ji = -jr_inv @ se3_adjoint(xj.inverse() @ xi)
        return r, ji, jj

    def _floor_edge_terms(self, edge: GraphEdge):
        node = self.nodes[edge.from_id]
        plane_node = self.nodes[edge.to_id]
        r_mat, t = node.pose.rotation, node.pose.translation
        n_w = plane_node.plane[:3]
        d_w = plane_node.plane[3]
        meas: FloorCoefficients = edge.measurement
        n_m = meas.normal / np.linalg.norm(meas.normal)
        d_m = meas.d
        n_s = r_mat.T @ n_w
        d_s = n_w @ t + d_w
        b_m = _plane_tangent_basis(n_m)
        resid = np.empty(3)
        resid[:2] = b_m.T @ (n_s - n_m)
        resid[2] = d_s - d_m
        # pose perturbation (right): rho, phi
        j_pose = np.zeros((3, 6))
        j_pose[:2, 3:] = b_m.T @ _hat(n_s)
        j_pose[2, :3] = n_s
        # plane perturbation: 2 tangent + offset
        b_w = _plane_tangent_basis(n_w)
        j_plane = np.zeros((3, 3))
        j_plane[:2, :2] = b_m.T @ (r_mat.T @ b_w)
        j_plane[2, :2] = t @ b_w
        j_plane[2, 2] = 1.0
        return resid, j_pose, j_plane

    @staticmethod
    def _huber_weight(chi2: float, delta: float) -> Tuple[float, float]:
        """Returns (robust chi2, IRLS weight) for squared error chi2."""
        if chi2 <= delta * delta:
            return chi2, 1.0
        s = np.sqrt(chi2)
        return 2.0 * delta * s - delta * delta, delta / s

    def chi2(self) -> float:
        total = 0.0
        for edge in self.edges:
            if edge.kind in (EDGE_ODOMETRY, EDGE_LOOP):
                r, _, _ = self._pose_edge_terms(edge)
            else:
                r, _, _ = self._floor_edge_terms(edge)
            c = float(r @ edge.information @ r)
            if edge.robust_kernel == KERNEL_HUBER:
                c, _ = self._huber_weight(c, edge.kernel_scale)
            total += c
        return total

    # -- optimization -------------------------------------------------------

    def _state_index(self):
        """Map node id -> (offset, dof) for free nodes."""
        index = {}
        offset = 0
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            if node.fixed:
                continue
            dof = 6 if node.kind == NODE_KEYFRAME else 3
            index[node_id] = (offset, dof)
            offset += dof
        return index, offset

    def _check_connectivity(self):
        fixed = [n.id for n in self.nodes.values() if n.fixed]
        if len(fixed) != 1:
            raise ValueError(f"exactly one fixed node required, got {len(fixed)}")
        adjacency: Dict[int, Set[int]] = {nid: set() for nid in self.nodes}
        for e in self.edges:
            adjacency[e.from_id].add(e.to_id)
            adjacency[e.to_id].add(e.from_id)
        seen = {fixed[0]}
        stack = [fixed[0]]
        while stack:
            nid = stack.pop()
            for nb in adjacency[nid]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        missing = set(self.nodes) - seen
        if missing:
            raise DisconnectedGraphError(missing)

    def _apply_update(self, index, delta):
        for node_id, (off, dof) in index.items():
            node = self.nodes[node_id]
            if node.kind == NODE_KEYFRAME:
                inc = delta[off:off + 6]
                node.pose = (node.pose @ se3_exp(inc)).orthonormalized()
            else:
                inc = delta[off:off + 3]
                n = node.plane[:3]
                b = _plane_tangent_basis(n)
                n_new = n + b @ inc[:2]
                n_new /= np.linalg.norm(n_new)
                node.plane = np.concatenate([n_new, [node.plane[3] + inc[2]]])

    def _snapshot(self, index):
        return {nid: (self.nodes[nid].pose if self.nodes[nid].kind == NODE_KEYFRAME
                      else self.nodes[nid].plane.copy())
                for nid in index}

    def _restore(self, snapshot):
        for nid, state in snapshot.items():
            node = self.nodes[nid]
            if node.kind == NODE_KEYFRAME:
                node.pose = state
            else:
                node.plane = state

    def _build_normal_equations(self, index, dim):
        rows, cols, vals = [], [], []
        rhs = np.zeros(dim)
        chi2 = 0.0
        for edge in self.edges:
            if edge.kind in (EDGE_ODOMETRY, EDGE_LOOP):
                r, ji, jj = self._pose_edge_terms(edge)
            else:
                r, ji, jj = self._floor_edge_terms(edge)
            omega = edge.information
            c = float(r @ omega @ r)
            w = 1.0
            if edge.robust_kernel == KERNEL_HUBER:
                c, w = self._huber_weight(c, edge.kernel_scale)
            chi2 += c
            omega_w = w * omega
            blocks = []
            if edge.from_id in index:
                blocks.append((index[edge.from_id][0], ji))
            if edge.to_id in index:
                blocks.append((index[edge.to_id][0], jj))
            for off_a, ja in blocks:
                rhs[off_a:off_a + ja.shape[1]] -= ja.T @ omega_w @ r
                for off_b, jb in blocks:
                    h = ja.T @ omega_w @ jb
                    for a in range(h.shape[0]):
                        for b in range(h.shape[1]):
                            rows.append(off_a + a)
                            cols.append(off_b + b)
                            vals.append(h[a, b])
        hmat = coo_matrix((vals, (rows, cols)), shape=(dim, dim)).tocsc()
        return hmat, rhs, chi2

    def optimize(self, max_iterations: int = 20,
                 chi2_rel_tol: float = 1e-6,
                 update_tol: float = 1e-8) -> OptimizationReport:
        """Levenberg-Marquardt with x10 / /10 damping adaptation."""
        if not self.nodes:
            raise ValueError("cannot optimize an empty graph")
        self._check_connectivity()
        index, dim = self._state_index()
        if dim == 0 or not self.edges:
            c = self.chi2() if self.edges else 0.0
            return OptimizationReport(c, c, 0, True, [c])

        lam = 1e-6
        hmat, rhs, chi2 = self._build_normal_equations(index, dim)
        initial_chi2 = chi2
        trace = [chi2]
        converged = False
        iterations = 0
        for iterations in range(1, max_iterations + 1):
            stepped = False
            for _ in range(10):
                damped = (hmat + lam * _sparse_identity(dim)).tocsc()
                try:
                    delta = splu(damped).solve(rhs)
                except RuntimeError as exc:
                    raise DisconnectedGraphError(list(index)) from exc
                snapshot = self._snapshot(index)
                self._apply_update(index, delta)
                new_chi2 = self.chi2()
                if new_chi2 <= chi2:
                    lam = max(lam / 10.0, 1e-12)
                    stepped = True
                    break
                self._restore(snapshot)
                lam *= 10.0
            if not stepped:
                converged = True
                break
            prev = chi2
            hmat, rhs, chi2 = self._build_normal_equations(index, dim)
            trace.append(chi2)
            if np.linalg.norm(delta) < update_tol:
                converged = True
                break
            if prev > 0 and (prev - chi2) / prev < chi2_rel_tol:
                converged = True
                break
        return OptimizationReport(initial_chi2, chi2, iterations,
                                  converged, trace)

    # -- export -------------------------------------------------------------

    def export_g2o(self, path):
        """Write keyframe nodes and pose edges in g2o text format."""
        from scipy.spatial.transform import Rotation

        lines = []
        for node_id in self._keyframe_node_ids:
            node = self.nodes[node_id]
            q = Rotation.from_matrix(node.pose.rotation).as_quat()  # x y z w
            t = node.pose.translation
            lines.append(
                "VERTEX_SE3:QUAT {} {:.9f} {:.9f} {:.9f} {:.9f} {:.9f} {:.9f} {:.9f}"
                .format(node_id, t[0], t[1], t[2], q[0], q[1], q[2], q[3]))
        for edge in self.edges:
            if edge.kind not in (EDGE_ODOMETRY, EDGE_LOOP):
                continue
            m: Pose = edge.measurement
            q = Rotation.from_matrix(m.rotation).as_quat()
            t = m.translation
            upper = [edge.information[a][b] for a in range(6)
                     for b in range(a, 6)]
            lines.append(
                "EDGE_SE3:QUAT {} {} {:.9f} {:.9f} {:.9f} {:.9f} {:.9f} {:.9f} {:.9f} "
                .format(edge.from_id, edge.to_id, t[0], t[1], t[2],
                        q[0], q[1], q[2], q[3])
                + " ".join(f"{v:.9f}" for v in upper))
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")


def _sparse_identity(dim):
    from scipy.sparse import identity
    return identity(dim, format="csc")
