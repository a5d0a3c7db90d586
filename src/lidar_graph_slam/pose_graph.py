"""Pose graph construction and Levenberg-Marquardt optimization on SE(3).

Keyframe poses are nodes; odometry, loop, and floor measurements are edges.
The floor constraints share one global plane node.  The solver works on
se(3) increments (right multiplication) with analytic Jacobians, sparse
normal equations, adaptive damping, and Huber weighting on loop edges.
The first keyframe node is held fixed to pin the gauge.

Each ``optimize`` call stacks node states and edge measurements into arrays
once (:class:`_EdgeBatch`), together with the sparse position of every
Hessian block.  Each LM iteration then evaluates the residuals and
Jacobians of all edges in a fixed number of numpy operations and scatters
the per-edge blocks into the sparse Hessian through those positions; a
trial step is judged by the cost alone.  Optimized poses are written back
to the nodes when the call returns.

The logarithm of a half turn has no unique axis, so a loop edge whose error
rotation lies within ``SO3_LOG_PI_MARGIN`` of pi is rejected when it is
added; a node moved into that band later makes ``optimize`` raise
``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple, Union

import numpy as np
from scipy.sparse import coo_matrix, identity
from scipy.sparse.linalg import splu

from .floor import FloorCoefficients
from .geometry import (SO3_LOG_PI_MARGIN, Pose, _hat, _se3_exp_rt,
                       _se3_log_rt, orthonormalize, se3_adjoint,
                       se3_right_jacobian_inv)
from .loop_closure import LoopCandidate
from .tracker import Keyframe

NODE_KEYFRAME = "KEYFRAME"
NODE_FLOOR_PLANE = "FLOOR_PLANE"

EDGE_ODOMETRY = "ODOMETRY"
EDGE_LOOP = "LOOP"
EDGE_FLOOR = "FLOOR"

# Huber threshold on the error norm of a loop edge; no other edge is robust
LOOP_HUBER_DELTA = 1.0

# LM stops when chi2 falls by less than this fraction, or the step is shorter
_CHI2_REL_TOL = 1e-6
_UPDATE_TOL = 1e-8


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
    """(..., 3, 2) orthonormal bases of the planes orthogonal to ``normal``."""
    normal = np.asarray(normal, dtype=np.float64)
    ref = np.where(np.abs(normal[..., :1]) > 0.9,
                   [0.0, 1.0, 0.0], [1.0, 0.0, 0.0])
    b1 = np.cross(normal, ref)
    b1 /= np.linalg.norm(b1, axis=-1, keepdims=True)
    b2 = np.cross(normal, b1)
    return np.stack([b1, b2], axis=-1)


def default_information(kind: str, fitness: Optional[float] = None) -> np.ndarray:
    """Edge information matrices (inverse covariances).

    Odometry: diag(100 m^-2, 400 rad^-2) blocks.  Loop edges are scaled by
    1/fitness, capped at 4x (reached at fitness 0.25 and below, a perfect
    match of 0 included), so cleaner matches constrain harder; without a
    fitness the scale is 1.  Floor: diag(100, 100, 25) over (2 normal
    angles, offset).
    """
    if kind == EDGE_ODOMETRY:
        return np.diag([100.0, 100.0, 100.0, 400.0, 400.0, 400.0])
    if kind == EDGE_LOOP:
        scale = 1.0 if fitness is None else 1.0 / max(fitness, 0.25)
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
        pose = kf.pose
        if not first:
            prev_id = self._keyframe_node_ids[-1]
            prev = self.nodes[prev_id].pose
            rel = odometry_rel if odometry_rel is not None else (
                prev.inverse() @ kf.pose)
            pose = prev @ rel
            info = information if information is not None else \
                default_information(EDGE_ODOMETRY)
            self.edges.append(GraphEdge(self._next_edge_id, EDGE_ODOMETRY,
                                        prev_id, node_id, rel, info))
            self._next_edge_id += 1
        self.nodes[node_id] = GraphNode(node_id, NODE_KEYFRAME, pose=pose,
                                        fixed=first)
        self._keyframe_node_ids.append(node_id)
        return node_id

    def add_loop(self, loop: LoopCandidate,
                 information: Optional[np.ndarray] = None) -> Optional[int]:
        """Add a loop edge: measurement maps the query frame into the
        candidate frame.  Returns the edge id, or None for a rejected edge:
        a duplicate, or one whose error rotation at the current estimate
        lies within ``SO3_LOG_PI_MARGIN`` of pi, where the logarithm the
        solver needs is ambiguous."""
        if loop.verified_transform is None:
            raise ValueError("loop candidate is not verified")
        pair = (loop.query_index, loop.candidate_index)
        if pair in self._loop_pairs:
            return None
        try:
            from_id = self._keyframe_node_ids[loop.candidate_index]
            to_id = self._keyframe_node_ids[loop.query_index]
        except IndexError:
            raise ValueError("loop references unknown keyframe index")
        err = (loop.verified_transform.inverse()
               @ self.nodes[from_id].pose.inverse() @ self.nodes[to_id].pose)
        if err.rotation_angle() > np.pi - SO3_LOG_PI_MARGIN:
            return None
        info = information if information is not None else \
            default_information(EDGE_LOOP, loop.fitness)
        edge = GraphEdge(self._next_edge_id, EDGE_LOOP, from_id, to_id,
                         loop.verified_transform, info)
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

    def chi2(self) -> float:
        """Total robust chi2 of all edges at the current node states."""
        batch = _EdgeBatch(self, self._state_index()[0])
        return batch.cost(batch.initial)

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

    def optimize(self, max_iterations: int = 20) -> OptimizationReport:
        """Levenberg-Marquardt with x10 / /10 damping adaptation."""
        if not self.nodes:
            raise ValueError("cannot optimize an empty graph")
        self._check_connectivity()
        index, dim = self._state_index()
        batch = _EdgeBatch(self, index)
        state = batch.initial
        if dim == 0 or not self.edges:
            c = batch.cost(state)
            return OptimizationReport(c, c, 0, True, [c])

        eye = identity(dim, format="csc")
        lam = 1e-6
        hmat, rhs, chi2 = batch.normal_equations(state)
        initial_chi2 = chi2
        trace = [chi2]
        converged = False
        iterations = 0
        for iterations in range(1, max_iterations + 1):
            stepped = False
            for _ in range(10):
                try:
                    delta = splu((hmat + lam * eye).tocsc()).solve(rhs)
                except RuntimeError as exc:
                    raise DisconnectedGraphError(list(index)) from exc
                trial = batch.step(state, delta)
                if batch.cost(trial) <= chi2:
                    state = trial
                    lam = max(lam / 10.0, 1e-12)
                    stepped = True
                    break
                lam *= 10.0
            if not stepped:
                converged = True
                break
            prev = chi2
            hmat, rhs, chi2 = batch.normal_equations(state)
            trace.append(chi2)
            if np.linalg.norm(delta) < _UPDATE_TOL:
                converged = True
                break
            if prev > 0 and (prev - chi2) / prev < _CHI2_REL_TOL:
                converged = True
                break
        batch.write_back(self, state)
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


class _State(NamedTuple):
    """Node states of one optimize call, rows in sorted node-id order."""

    rot: np.ndarray      # (K, 3, 3) keyframe rotations
    trans: np.ndarray    # (K, 3) keyframe translations
    planes: np.ndarray   # (P, 4) floor planes (a, b, c, d)


class _EdgeWeights(NamedTuple):
    """Information and robust kernel of each edge of one kind."""

    info: np.ndarray     # (N, d, d) information matrices
    huber: np.ndarray    # (N,) Huber kernel flags: the loop edges


def _swap(a: np.ndarray) -> np.ndarray:
    """Transpose the last two axes."""
    return np.swapaxes(a, -1, -2)


def _edge_weights(edges: Sequence[GraphEdge], d: int) -> _EdgeWeights:
    return _EdgeWeights(
        np.array([e.information for e in edges], dtype=np.float64)
        .reshape(-1, d, d),
        np.array([e.kind == EDGE_LOOP for e in edges], dtype=bool))


def _columns(*blocks) -> np.ndarray:
    """(N, sum of dofs) state index of each Jacobian column of N edges, given
    (node offsets, dof) per endpoint; -1 marks the columns of a fixed node."""
    cols = [np.where(off[:, None] >= 0, off[:, None] + np.arange(dof), -1)
            for off, dof in blocks]
    return np.concatenate(cols, axis=1)


def _sq_errors(r: np.ndarray, info: np.ndarray):
    """Per-edge r^T info r and info r (as (N, d, 1))."""
    info_r = info @ r[..., None]
    return (r[:, None, :] @ info_r)[:, 0, 0], info_r


def _robust(c: np.ndarray, w: _EdgeWeights):
    """Per-edge (robust chi2, IRLS weight) for squared errors ``c``."""
    delta = LOOP_HUBER_DELTA
    outside = w.huber & (c > delta * delta)
    s = np.sqrt(np.where(outside, c, 1.0))
    return (np.where(outside, 2.0 * delta * s - delta * delta, c),
            np.where(outside, delta / s, 1.0))


def _weighted_blocks(r: np.ndarray, j: np.ndarray, w: _EdgeWeights):
    """Robust costs, J^T W J blocks and -J^T W r gradients of stacked edges."""
    c, info_r = _sq_errors(r, w.info)
    cost, weight = _robust(c, w)
    jt = _swap(j)
    h = weight[:, None, None] * (jt @ w.info @ j)
    g = -weight[:, None] * (jt @ info_r)[..., 0]
    return cost, h, g


class _EdgeBatch:
    """A pose graph's nodes and edges stacked into arrays for one optimize.

    Pose edges (odometry and loop) and floor edges each keep their order in
    ``graph.edges``.  A pose edge's Jacobian columns are (from node, to node),
    a floor edge's (keyframe, plane).  ``index`` is the free-node layout of
    ``PoseGraph._state_index``; the COO position of every Hessian entry and
    gradient entry that touches a free node is computed here once.
    """

    def __init__(self, graph: PoseGraph, index):
        nodes = graph.nodes
        self.kf_ids = [i for i in sorted(nodes)
                       if nodes[i].kind == NODE_KEYFRAME]
        self.plane_ids = [i for i in sorted(nodes)
                          if nodes[i].kind == NODE_FLOOR_PLANE]
        row = {nid: k for k, nid in enumerate(self.kf_ids)}
        row.update({nid: p for p, nid in enumerate(self.plane_ids)})
        self.initial = _State(
            np.array([nodes[i].pose.rotation for i in self.kf_ids])
            .reshape(-1, 3, 3),
            np.array([nodes[i].pose.translation for i in self.kf_ids])
            .reshape(-1, 3),
            np.array([nodes[i].plane for i in self.plane_ids],
                     dtype=np.float64).reshape(-1, 4))
        kf_off = np.array([index[i][0] if i in index else -1
                           for i in self.kf_ids], dtype=np.intp)
        plane_off = np.array([index[i][0] if i in index else -1
                              for i in self.plane_ids], dtype=np.intp)
        self.kf_free = np.flatnonzero(kf_off >= 0)
        self.kf_cols = kf_off[self.kf_free, None] + np.arange(6)
        self.plane_free = np.flatnonzero(plane_off >= 0)
        self.plane_cols = plane_off[self.plane_free, None] + np.arange(3)

        pose = [e for e in graph.edges if e.kind in (EDGE_ODOMETRY, EDGE_LOOP)]
        self.pose_i = np.array([row[e.from_id] for e in pose], dtype=np.intp)
        self.pose_j = np.array([row[e.to_id] for e in pose], dtype=np.intp)
        self.meas_rot_t = _swap(np.array(
            [e.measurement.rotation for e in pose]).reshape(-1, 3, 3))
        self.meas_trans = np.array(
            [e.measurement.translation for e in pose]).reshape(-1, 3)
        self.pose_weights = _edge_weights(pose, 6)

        floor = [e for e in graph.edges if e.kind == EDGE_FLOOR]
        self.floor_k = np.array([row[e.from_id] for e in floor], dtype=np.intp)
        self.floor_p = np.array([row[e.to_id] for e in floor], dtype=np.intp)
        normals = np.array([e.measurement.normal for e in floor]) \
            .reshape(-1, 3)
        self.floor_normal = normals / np.linalg.norm(normals, axis=-1,
                                                     keepdims=True)
        self.floor_d = np.array([e.measurement.d for e in floor],
                                dtype=np.float64)
        self.floor_basis_t = _swap(_plane_tangent_basis(self.floor_normal))
        self.floor_weights = _edge_weights(floor, 3)

        # Hessian and gradient entries are taken, in this order, from the
        # flattened pose-edge blocks followed by the flattened floor blocks.
        cols = [_columns((kf_off[self.pose_i], 6), (kf_off[self.pose_j], 6)),
                _columns((kf_off[self.floor_k], 6),
                         (plane_off[self.floor_p], 3))]
        blocks = [c.shape + c.shape[1:] for c in cols]
        h_rows = np.concatenate([np.broadcast_to(c[:, :, None], b).ravel()
                                 for c, b in zip(cols, blocks)])
        h_cols = np.concatenate([np.broadcast_to(c[:, None, :], b).ravel()
                                 for c, b in zip(cols, blocks)])
        self.h_take = np.flatnonzero((h_rows >= 0) & (h_cols >= 0))
        self.h_rows, self.h_cols = h_rows[self.h_take], h_cols[self.h_take]
        g_rows = np.concatenate([c.ravel() for c in cols])
        self.g_take = np.flatnonzero(g_rows >= 0)
        self.g_rows = g_rows[self.g_take]
        self.dim = sum(dof for _, dof in index.values())

    def pose_terms(self, s: _State, jacobians: bool):
        """Residuals (E, 6) of the pose edges and, if asked, their
        Jacobians (E, 6, 12) with respect to both endpoints."""
        ri, ti = s.rot[self.pose_i], s.trans[self.pose_i]
        rj, tj = s.rot[self.pose_j], s.trans[self.pose_j]
        ri_t = _swap(ri)
        # error pose m^-1 xi^-1 xj
        err_rot = self.meas_rot_t @ ri_t @ rj
        err_t = self.meas_rot_t @ (ri_t @ (tj - ti)[..., None]
                                   - self.meas_trans[..., None])
        r = _se3_log_rt(err_rot, err_t[..., 0])
        if not jacobians:
            return r, None
        jr_inv = se3_right_jacobian_inv(r)
        rj_t = _swap(rj)
        # d r / d xi = -Jr^-1 Ad(xj^-1 xi);  d r / d xj = Jr^-1
        ji = -jr_inv @ se3_adjoint(rj_t @ ri,
                                   (rj_t @ (ti - tj)[..., None])[..., 0])
        return r, np.concatenate([ji, jr_inv], axis=-1)

    def floor_terms(self, s: _State, jacobians: bool):
        """Residuals (F, 3) of the floor edges, (2 tangent components of the
        normal error, offset error) and, if asked, their Jacobians (F, 3, 9)
        with respect to (keyframe rho, phi; plane tangent, offset)."""
        rk_t = _swap(s.rot[self.floor_k])
        tk = s.trans[self.floor_k]
        plane = s.planes[self.floor_p]
        n_w = plane[:, :3]
        n_s = (rk_t @ n_w[..., None])[..., 0]
        d_s = np.sum(n_w * tk, axis=-1) + plane[:, 3]
        bt = self.floor_basis_t
        r = np.concatenate(
            [(bt @ (n_s - self.floor_normal)[..., None])[..., 0],
             (d_s - self.floor_d)[:, None]], axis=-1)
        if not jacobians:
            return r, None
        b_w = _plane_tangent_basis(n_w)
        j = np.zeros((len(r), 3, 9))
        j[:, :2, 3:6] = bt @ _hat(n_s)
        j[:, 2, :3] = n_s
        j[:, :2, 6:8] = bt @ (rk_t @ b_w)
        j[:, 2, 6:8] = (tk[:, None, :] @ b_w)[:, 0]
        j[:, 2, 8] = 1.0
        return r, j

    def cost(self, s: _State) -> float:
        """Total robust chi2 of all edges."""
        total = 0.0
        for (r, _), w in ((self.pose_terms(s, False), self.pose_weights),
                          (self.floor_terms(s, False), self.floor_weights)):
            total += _robust(_sq_errors(r, w.info)[0], w)[0].sum()
        return float(total)

    def normal_equations(self, s: _State):
        """Sparse Gauss-Newton Hessian (CSC), right-hand side -J^T W r and
        total robust chi2 over the free nodes."""
        cp, hp, gp = _weighted_blocks(*self.pose_terms(s, True),
                                      self.pose_weights)
        cf, hf, gf = _weighted_blocks(*self.floor_terms(s, True),
                                      self.floor_weights)
        vals = np.concatenate([hp.ravel(), hf.ravel()])[self.h_take]
        hmat = coo_matrix((vals, (self.h_rows, self.h_cols)),
                          shape=(self.dim, self.dim)).tocsc()
        rhs = np.zeros(self.dim)
        np.add.at(rhs, self.g_rows,
                  np.concatenate([gp.ravel(), gf.ravel()])[self.g_take])
        return hmat, rhs, float(cp.sum() + cf.sum())

    def step(self, s: _State, delta: np.ndarray) -> _State:
        """State after the increment ``delta``: x exp(inc) for keyframes,
        re-orthonormalized; a tangent step on the unit normal for planes."""
        rot, trans, planes = s.rot.copy(), s.trans.copy(), s.planes.copy()
        k = self.kf_free
        d_rot, d_trans = _se3_exp_rt(delta[self.kf_cols])
        trans[k] += (rot[k] @ d_trans[..., None])[..., 0]
        rot[k] = orthonormalize(rot[k] @ d_rot)
        p = self.plane_free
        inc = delta[self.plane_cols]
        n = planes[p, :3]
        n_new = n + (_plane_tangent_basis(n) @ inc[:, :2, None])[..., 0]
        planes[p, :3] = n_new / np.linalg.norm(n_new, axis=-1, keepdims=True)
        planes[p, 3] += inc[:, 2]
        return _State(rot, trans, planes)

    def write_back(self, graph: PoseGraph, s: _State):
        """Store the free nodes' states in ``graph``; fixed nodes keep
        theirs untouched."""
        for k in self.kf_free:
            graph.nodes[self.kf_ids[k]].pose = Pose(s.rot[k].copy(),
                                                    s.trans[k].copy())
        for p in self.plane_free:
            graph.nodes[self.plane_ids[p]].plane = s.planes[p].copy()
