"""Pose graph construction and Levenberg-Marquardt optimization on SE(3).

Keyframe poses are nodes; odometry, loop, and floor measurements are edges.
A keyframe's node id is its keyframe index, 0..K-1.  The world floor plane
is a constant, as in HDL graph SLAM: the first valid floor ``add_floor``
accepts, mapped into the world through its keyframe's pose at that moment,
becomes ``PoseGraph.floor_plane``, and no ``optimize`` moves it.  Floor
edges are unary; their ``to_id``, ``FLOOR_PLANE_ID``, names that plane.
Odometry chains each keyframe to the one before, and a loop or floor edge
that names an unknown keyframe is refused when it is added, so the graph is
connected by construction.  The first keyframe is held fixed to pin the
gauge, so the state is keyframes 1..K-1.  The solver works on se(3)
increments (right multiplication) with analytic Jacobians, sparse normal
equations, adaptive damping, and Huber weighting on loop edges.

Each ``optimize`` call stacks keyframe poses and edge measurements into
arrays once (:class:`_EdgeBatch`), together with the sparse position of
every Hessian block.  Each LM iteration then evaluates the residuals and
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

EDGE_ODOMETRY = "ODOMETRY"
EDGE_LOOP = "LOOP"
EDGE_FLOOR = "FLOOR"

# to_id of every floor edge: the fixed world plane, outside the keyframe ids
FLOOR_PLANE_ID = -1

# Huber threshold on the error norm of a loop edge; no other edge is robust.
# Without it, 1-3 wrong loops left keyframe ATE at 10-13 m, not 1.0-4.5 m
LOOP_HUBER_DELTA = 1.0

# LM stops when chi2 falls by less than this fraction, or the step is shorter
_CHI2_REL_TOL = 1e-6
_UPDATE_TOL = 1e-8


@dataclass
class GraphNode:
    id: int
    pose: Pose


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
        self._loop_pairs: Set[Tuple[int, int]] = set()
        self._last_floor_normal: Optional[np.ndarray] = None
        # world (a, b, c, d) of the floor, set by the first floor edge
        self.floor_plane: Optional[np.ndarray] = None
        self.incline_threshold = incline_threshold

    # -- construction -------------------------------------------------------

    def _check_keyframes(self, *indices: int):
        count = len(self.nodes)
        if not all(0 <= i < count for i in indices):
            raise ValueError(f"unknown keyframe index in {indices}; the "
                             f"graph has keyframes 0..{count - 1}")

    def _add_edge(self, kind: str, from_id: int, to_id: int, measurement,
                  information: np.ndarray) -> int:
        edge_id = len(self.edges)
        self.edges.append(GraphEdge(edge_id, kind, from_id, to_id,
                                    measurement, information))
        return edge_id

    def add_keyframe(self, kf: Keyframe,
                     odometry_rel: Optional[Pose] = None) -> int:
        """Append a keyframe node chained to the previous one by odometry;
        its node id is its keyframe index."""
        node_id = len(self.nodes)
        pose = kf.pose
        if node_id:
            prev = self.nodes[node_id - 1].pose
            rel = odometry_rel if odometry_rel is not None else (
                prev.inverse() @ kf.pose)
            pose = prev @ rel
            self._add_edge(EDGE_ODOMETRY, node_id - 1, node_id, rel,
                           default_information(EDGE_ODOMETRY))
        self.nodes[node_id] = GraphNode(node_id, pose=pose)
        return node_id

    def add_loop(self, loop: LoopCandidate,
                 information: Optional[np.ndarray] = None) -> Optional[int]:
        """Add a loop edge: measurement maps the query frame into the
        candidate frame.  Returns the edge id, or None for a rejected edge:
        a duplicate, or one whose error rotation at the current estimate
        lies within ``SO3_LOG_PI_MARGIN`` of pi, where the logarithm the
        solver needs is ambiguous.  Raises ``ValueError`` for an unverified
        loop or one that names an unknown keyframe."""
        if loop.verified_transform is None:
            raise ValueError("loop candidate is not verified")
        from_id, to_id = loop.candidate_index, loop.query_index
        self._check_keyframes(from_id, to_id)
        pair = (from_id, to_id)
        if pair in self._loop_pairs:
            return None
        err = (loop.verified_transform.inverse()
               @ self.nodes[from_id].pose.inverse() @ self.nodes[to_id].pose)
        if err.rotation_angle() > np.pi - SO3_LOG_PI_MARGIN:
            return None
        info = information if information is not None else \
            default_information(EDGE_LOOP, loop.fitness)
        self._loop_pairs.add(pair)
        return self._add_edge(EDGE_LOOP, from_id, to_id,
                              loop.verified_transform, info)

    def add_floor(self, kf_node_id: int,
                  coeffs: FloorCoefficients) -> Optional[int]:
        """Constrain a keyframe against the world floor plane.

        The first floor accepted fixes the plane: its coefficients mapped
        into the world through the keyframe's current pose.  A clear change
        in the detected vertical direction between consecutive keyframes
        indicates a slope transition; the constraint is suppressed for that
        keyframe.  Raises ``ValueError`` for an unknown keyframe.
        """
        self._check_keyframes(kf_node_id)
        if not coeffs.valid:
            return None
        normal = coeffs.normal / np.linalg.norm(coeffs.normal)
        prev_normal = self._last_floor_normal
        self._last_floor_normal = normal
        if prev_normal is not None:
            angle = np.arccos(np.clip(prev_normal @ normal, -1.0, 1.0))
            if angle > self.incline_threshold:
                return None
        if self.floor_plane is None:
            pose = self.nodes[kf_node_id].pose
            n_w = pose.rotation @ normal
            self.floor_plane = np.append(n_w,
                                         coeffs.d - n_w @ pose.translation)
        return self._add_edge(EDGE_FLOOR, kf_node_id, FLOOR_PLANE_ID, coeffs,
                              default_information(EDGE_FLOOR))

    @property
    def keyframe_node_ids(self) -> List[int]:
        return list(range(len(self.nodes)))

    def keyframe_poses(self) -> List[Pose]:
        return [self.nodes[i].pose for i in range(len(self.nodes))]

    # -- optimization -------------------------------------------------------

    def optimize(self, max_iterations: int = 20) -> OptimizationReport:
        """Levenberg-Marquardt with x10 / /10 damping adaptation."""
        if not self.nodes:
            raise ValueError("cannot optimize an empty graph")
        batch = _EdgeBatch(self)
        dim = batch.dim
        state = batch.initial
        if dim == 0:
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
                delta = splu((hmat + lam * eye).tocsc()).solve(rhs)
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
        for node_id in self.keyframe_node_ids:
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
    """Keyframe poses of one optimize call, in keyframe index order."""

    rot: np.ndarray      # (K, 3, 3) keyframe rotations
    trans: np.ndarray    # (K, 3) keyframe translations


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


def _columns(*keyframes: np.ndarray) -> np.ndarray:
    """(N, 6 per endpoint) coordinate of each Jacobian column of N edges,
    given the keyframe index of each endpoint; keyframe k owns 6k..6k+5."""
    return np.concatenate([6 * k[:, None] + np.arange(6) for k in keyframes],
                          axis=1)


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
    """A pose graph's keyframes and edges stacked into arrays for one
    optimize.

    Pose edges (odometry and loop) and floor edges each keep their order in
    ``graph.edges``.  A pose edge's Jacobian columns are (from keyframe, to
    keyframe), a floor edge's its keyframe's; the floor plane is a constant.
    The Hessian and gradient are assembled over all 6K keyframe coordinates
    through COO positions computed here once, and keyframe 0's rows and
    columns are cut, so the state is keyframes 1..K-1 at 6 dof each.
    """

    def __init__(self, graph: PoseGraph):
        poses = graph.keyframe_poses()
        self.dim = 6 * (len(poses) - 1)
        self.initial = _State(np.array([p.rotation for p in poses]),
                              np.array([p.translation for p in poses]))

        pose = [e for e in graph.edges if e.kind in (EDGE_ODOMETRY, EDGE_LOOP)]
        self.pose_i = np.array([e.from_id for e in pose], dtype=np.intp)
        self.pose_j = np.array([e.to_id for e in pose], dtype=np.intp)
        self.meas_rot_t = _swap(np.array(
            [e.measurement.rotation for e in pose]).reshape(-1, 3, 3))
        self.meas_trans = np.array(
            [e.measurement.translation for e in pose]).reshape(-1, 3)
        self.pose_weights = _edge_weights(pose, 6)

        floor = [e for e in graph.edges if e.kind == EDGE_FLOOR]
        self.floor_k = np.array([e.from_id for e in floor], dtype=np.intp)
        self.plane = np.zeros(4) if graph.floor_plane is None \
            else graph.floor_plane
        normals = np.array([e.measurement.normal for e in floor]) \
            .reshape(-1, 3)
        self.floor_normal = normals / np.linalg.norm(normals, axis=-1,
                                                     keepdims=True)
        self.floor_d = np.array([e.measurement.d for e in floor],
                                dtype=np.float64)
        self.floor_basis_t = _swap(_plane_tangent_basis(self.floor_normal))
        self.floor_weights = _edge_weights(floor, 3)

        # Hessian and gradient entries come, in this order, from the
        # flattened pose-edge blocks followed by the flattened floor blocks.
        cols = [_columns(self.pose_i, self.pose_j), _columns(self.floor_k)]
        blocks = [c.shape + c.shape[1:] for c in cols]
        self.h_rows = np.concatenate([np.broadcast_to(c[:, :, None], b).ravel()
                                      for c, b in zip(cols, blocks)])
        self.h_cols = np.concatenate([np.broadcast_to(c[:, None, :], b).ravel()
                                      for c, b in zip(cols, blocks)])
        self.g_rows = np.concatenate([c.ravel() for c in cols])

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
        # exact: I or I + ad(r)/2 end LM at a higher chi2 after wrong loops
        jr_inv = se3_right_jacobian_inv(r)
        rj_t = _swap(rj)
        # d r / d xi = -Jr^-1 Ad(xj^-1 xi);  d r / d xj = Jr^-1
        ji = -jr_inv @ se3_adjoint(rj_t @ ri,
                                   (rj_t @ (ti - tj)[..., None])[..., 0])
        return r, np.concatenate([ji, jr_inv], axis=-1)

    def floor_terms(self, s: _State, jacobians: bool):
        """Residuals (F, 3) of the floor edges, (2 tangent components of the
        normal error, offset error) and, if asked, their Jacobians (F, 3, 6)
        with respect to the keyframe's (rho, phi)."""
        rk_t = _swap(s.rot[self.floor_k])
        tk = s.trans[self.floor_k]
        n_w = self.plane[:3]
        n_s = rk_t @ n_w
        d_s = tk @ n_w + self.plane[3]
        bt = self.floor_basis_t
        r = np.concatenate(
            [(bt @ (n_s - self.floor_normal)[..., None])[..., 0],
             (d_s - self.floor_d)[:, None]], axis=-1)
        if not jacobians:
            return r, None
        j = np.zeros((len(r), 3, 6))
        j[:, :2, 3:] = bt @ _hat(n_s)
        j[:, 2, :3] = n_s
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
        total robust chi2 over keyframes 1..K-1."""
        cp, hp, gp = _weighted_blocks(*self.pose_terms(s, True),
                                      self.pose_weights)
        cf, hf, gf = _weighted_blocks(*self.floor_terms(s, True),
                                      self.floor_weights)
        full = self.dim + 6
        hmat = coo_matrix((np.concatenate([hp.ravel(), hf.ravel()]),
                           (self.h_rows, self.h_cols)),
                          shape=(full, full)).tocsc()[6:, 6:]
        rhs = np.bincount(self.g_rows,
                          np.concatenate([gp.ravel(), gf.ravel()]), full)[6:]
        return hmat, rhs, float(cp.sum() + cf.sum())

    def step(self, s: _State, delta: np.ndarray) -> _State:
        """State after the increment ``delta``: x exp(inc) for keyframes
        1..K-1, re-orthonormalized; keyframe 0 stays put."""
        rot, trans = s.rot.copy(), s.trans.copy()
        d_rot, d_trans = _se3_exp_rt(delta.reshape(-1, 6))
        trans[1:] += (rot[1:] @ d_trans[..., None])[..., 0]
        rot[1:] = orthonormalize(rot[1:] @ d_rot)
        return _State(rot, trans)

    def write_back(self, graph: PoseGraph, s: _State):
        """Store keyframes 1..K-1's poses in ``graph``; the gauge keyframe
        keeps its pose untouched."""
        for k in range(1, len(s.rot)):
            graph.nodes[k].pose = Pose(s.rot[k].copy(), s.trans[k].copy())
