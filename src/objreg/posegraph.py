"""Sequence registration: pairwise solves become pose graph edges, loop
closures are vetted and robustly optimized with per-edge line-process
switches (Choi-style), and the result is a gauge-fixed trajectory."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np
from scipy.linalg.lapack import dpbsv

from .geometry import (
    RigidPose,
    _frozen,
    _is_int,
    _is_real,
    _squared_norms,
    _EYE3,
    apply_rigid,
    invert,
    skew,
    so3_exp,
    so3_log,
)
from .joint_solver import (
    ACCEPT_SLACK,
    DAMPING_TRIES,
    LAMBDA_FLOOR,
    LAMBDA_START,
    MIN_KEYPOINT_PAIRS,
    PairResult,
    SolverConfig,
    SolveReport,
    register_pair,
    register_pairs,
)
from .matching import MatchConfig
from .metrics import Trajectory
from .observations import FrameSet, ValidationError
from .procrustes import FilterConfig

__all__ = [
    "GraphEdge",
    "GraphConfig",
    "PoseGraph",
    "GraphSolution",
    "build_graph",
    "reject_loop_closure",
    "optimize_graph",
    "register_sequence",
    "SequenceResult",
]

# Robust solve limit: up to MAX_ITERATIONS reweighted steps, each one damped
# Gauss-Newton step under the current switches followed by a switch update
# (IRLS). A criterion 08 ring takes ~6 steps per solve, a 40-frame loop 3-4.
MAX_ITERATIONS = 150
MAX_KEYFRAMES = 14  # loop-closure candidates pair at most this many keyframes
# keypoint filters of the consecutive (odometry) pairs and of the loop pairs
ODOMETRY_KEYPOINT_FILTER = FilterConfig(0.30, min_pairs=MIN_KEYPOINT_PAIRS)
LOOP_KEYPOINT_FILTER = FilterConfig(0.15, min_pairs=MIN_KEYPOINT_PAIRS)


_EDGE_KINDS = ("odometry", "loop_closure")


@dataclass(slots=True)
class GraphEdge:
    i: int
    j: int
    relative_pose: RigidPose  # frame j expressed in frame i's coordinates
    information_weight: float
    uncertain: bool
    kind: str  # "odometry" | "loop_closure"

    def __post_init__(self):
        i, j, weight = self.i, self.j, self.information_weight
        if not (_is_int(i) and _is_int(j)):
            problem = f"nodes must be ints, got {type(i).__name__} and {type(j).__name__}"
        elif not 0 <= i < j:
            problem = "nodes must satisfy 0 <= i < j"
        elif not (_is_real(weight) and math.isfinite(weight) and weight >= 0):
            problem = f"information_weight must be a finite real >= 0, got {weight!r}"
        elif not isinstance(self.uncertain, (bool, np.bool_)):
            problem = f"uncertain must be a bool, got {self.uncertain!r}"
        elif self.kind not in _EDGE_KINDS:
            problem = f"kind must be one of {_EDGE_KINDS}, got {self.kind!r}"
        elif not isinstance(self.relative_pose, RigidPose):
            problem = f"relative_pose must be a RigidPose, got {type(self.relative_pose).__name__}"
        else:
            return
        raise ValueError(f"edge ({i!r}, {j!r}): {problem}")


@dataclass
class GraphConfig:
    edge_prune_threshold: float = 0.45
    restructure_uncertain_dist: float = 0.50  # 0.40 TUM / 0.50 ScanNet
    restructure_certain_dist: float = 0.045
    lc_near_window: int = 20
    lc_near_max_trans: float = 0.60
    lc_far_max_trans: float = 1.5
    lc_object_max_depth: float = 2.15
    lc_min_scale: float = 0.05
    line_process_mu: float = 100.0

    def __post_init__(self):
        # a zero switches these rules off
        zero_ok = ("restructure_certain_dist", "lc_min_scale")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "lc_near_window":  # a frame count
                ok, want = _is_int(value) and value >= 0, "an int >= 0"
            elif not _is_real(value):
                ok, want = False, "a real number"
            elif f.name == "edge_prune_threshold":
                ok, want = 0 <= value <= 1, "in [0, 1]"
            elif f.name in zero_ok:
                ok, want = 0 <= value < np.inf, "finite and nonnegative"
            else:
                ok, want = 0 < value < np.inf, "finite and positive"
            if not ok:
                raise ValueError(f"{f.name} must be {want}, got {value!r}")


@dataclass
class PoseGraph:
    num_nodes: int
    edges: list[GraphEdge]

    def __post_init__(self):
        if not (_is_int(self.num_nodes) and self.num_nodes >= 1):
            raise ValueError(f"num_nodes must be an int >= 1, got {self.num_nodes!r}")


@dataclass(eq=False)  # compares by identity: a field-wise == of arrays raises
class GraphSolution:
    """The optimized node poses as read-only arrays, node 0 the identity,
    with each uncertain edge's final switch and the pruned edges."""

    rotations: np.ndarray  # (n, 3, 3)
    translations: np.ndarray  # (n, 3)
    switches: dict  # (i, j) -> final line-process value for uncertain edges
    pruned: list[tuple[int, int]]

    @property
    def poses(self) -> list[RigidPose]:
        """The node poses, built afresh on each call."""
        return [RigidPose._of(r, t.copy()) for r, t in zip(self.rotations, self.translations)]


def _depth_in_range(zs, cfg: GraphConfig, margin: float = 0.0) -> bool:
    """Whether an object's camera-local depths put it in range of a camera:
    some depth in (-margin, lc_object_max_depth + margin)."""
    return any(-margin < z < cfg.lc_object_max_depth + margin for z in zs)


def reject_loop_closure(
    result: PairResult, pair: tuple[int, int], cfg: GraphConfig
) -> tuple[bool, str]:
    """Vet a non-consecutive pairwise registration for use as a loop edge.

    Object-supported closures must have a matched object, with no near-zero
    optimized scale dimension, whose camera-local depth lies in (0, 2.15) m
    in at least one frame. Keypoint-only closures must keep their relative
    translation under 0.60 m (within 20 frames) or 1.5 m (farther apart).
    """
    i, j = pair
    if not result.success or result.report is None:
        return False, "pair_failed"
    report = result.report
    if report.object_poses:
        ok_objects = [
            o for o in report.object_poses if np.all(o.scale >= cfg.lc_min_scale)
        ]
        if not ok_objects:
            return False, "degenerate_scale"
        cam_invs = [invert(c) for c in report.camera_poses]
        for obj in ok_objects:
            zs = [
                float(apply_rigid(ci, obj.translation[None, :])[0, 2]) for ci in cam_invs
            ]
            if _depth_in_range(zs, cfg):
                return True, "object_supported"
        return False, "object_depth_out_of_range"
    trans = float(np.linalg.norm(report.camera_poses[1].translation))
    limit = cfg.lc_near_max_trans if abs(i - j) <= cfg.lc_near_window else cfg.lc_far_max_trans
    if trans > limit:
        return False, f"translation_{trans:.3f}_exceeds_{limit:.2f}"
    return True, "keypoint_supported"


def _edge_weight(report: SolveReport) -> float:
    return float(sum(s.active for s in report.block_stats))


def build_graph(
    pair_results: dict[tuple[int, int], PairResult],
    num_frames: int,
    cfg: GraphConfig | None = None,
) -> PoseGraph:
    """Assemble odometry and vetted loop-closure edges with restructuring:
    long consecutive edges become uncertain, very short non-consecutive
    edges become certain."""
    cfg = cfg or GraphConfig()
    edges = []
    breaks = [
        i
        for i in range(num_frames - 1)
        if (i, i + 1) not in pair_results or not pair_results[(i, i + 1)].success
    ]
    if breaks:
        raise ValueError(f"odometry chain broken at consecutive pairs {breaks}")
    for (i, j), result in sorted(pair_results.items()):
        if not result.success or result.report is None:
            continue
        rel = result.report.camera_poses[1]
        trans = float(np.linalg.norm(rel.translation))
        if j == i + 1:
            uncertain = trans > cfg.restructure_uncertain_dist
            edges.append(
                GraphEdge(i, j, rel, _edge_weight(result.report), uncertain, "odometry")
            )
        else:
            accepted, _ = reject_loop_closure(result, (i, j), cfg)
            if not accepted:
                continue
            certain = trans < cfg.restructure_certain_dist
            edges.append(
                GraphEdge(
                    i, j, rel, _edge_weight(result.report), not certain, "loop_closure"
                )
            )
    return PoseGraph(num_frames, edges)


def _band_order(num_nodes: int, ii, jj) -> list[int]:
    """Nodes 1..num_nodes-1 in reverse Cuthill-McKee order over the edges
    between them (node 0, the gauge, left out): breadth-first from an
    unvisited node of least degree, each node's unvisited neighbours taken
    by increasing degree, the whole order reversed."""
    neighbours = [[] for _ in range(num_nodes)]
    for i, j in zip(ii.tolist(), jj.tolist()):
        if i > 0:
            neighbours[i].append(j)
            neighbours[j].append(i)
    degree = [len(nb) for nb in neighbours]
    for nb in neighbours:
        nb.sort(key=degree.__getitem__)
    seen = [True] + [False] * (num_nodes - 1)
    order = []
    for seed in sorted(range(1, num_nodes), key=degree.__getitem__):
        if seen[seed]:
            continue
        seen[seed] = True
        queue = [seed]
        for node in queue:  # grows while it is read
            for nb in neighbours[node]:
                if not seen[nb]:
                    seen[nb] = True
                    queue.append(nb)
        order += queue
    return order[::-1]


class _EdgeTable:
    """One robust solve's edges as arrays aligned with ``graph.edges``: node
    indices (``ij``, rows i and j), relative poses (with R_delta^T and
    [t_delta]x, which the Jacobians read), weights ``max(information_weight,
    1)``, the uncertain mask, and how the ``size`` normal equations over
    nodes 1..n-1 are laid out as a symmetric band matrix.

    ``order`` lists nodes 1..n-1 in :func:`_band_order`; node ``order[p]``
    owns unknowns ``6p .. 6p + 5``, (phi, dt), and ``step_index`` gathers
    node k's six from a tangent vector at row k - 1. The bandwidth is
    ``band = 6 max |p_i - p_j| + 5`` over the edges between nodes 1..n-1 (5,
    the diagonal blocks, without such edges). ``index`` scatters each edge's
    (12, 12) J^T W J block and then each edge's (12,) J^T W e block, columns
    (phi, dt) of node i and then of node j, into one vector: the lower band
    storage ``(band + 1, size)`` raveled (entry (r, c), r >= c, at
    ``[r - c, c]``), then the (size,) gradient. It covers only the entries
    that ``used`` picks from those blocks raveled: entries above the
    diagonal and entries on node 0 are left out."""

    def __init__(self, graph: PoseGraph):
        edges = graph.edges
        self.ij = np.array([(e.i, e.j) for e in edges], dtype=int).reshape(-1, 2).T
        self.ii, self.jj = self.ij
        self.d_rot = np.array([e.relative_pose.rotation for e in edges]).reshape(-1, 3, 3)
        self.d_trans = np.array([e.relative_pose.translation for e in edges]).reshape(-1, 3)
        self.d_rot_t, self.d_skew = self.d_rot.swapaxes(1, 2), skew(self.d_trans)
        self.weight = np.array([max(e.information_weight, 1.0) for e in edges])
        self.uncertain = np.array([e.uncertain for e in edges], dtype=bool)
        self.size = size = 6 * (graph.num_nodes - 1)
        self.order = np.array(_band_order(graph.num_nodes, self.ii, self.jj), dtype=int)
        pos = np.zeros(graph.num_nodes, dtype=int)
        pos[self.order] = np.arange(len(self.order))
        self.step_index = 6 * pos[1:, None] + np.arange(6)
        inner = self.ii > 0
        gaps = np.abs(pos[self.ii[inner]] - pos[self.jj[inner]])
        self.band = band = 6 * int(gaps.max(initial=0)) + 5
        self.h_size = h_size = (band + 1) * size
        node = np.repeat(self.ij.T, 6, axis=1)  # (E, 12)
        coord = 6 * pos[node] + np.tile(np.arange(6), 2)
        gauge = node == 0
        # row - column, below 0 above the diagonal and on node 0's rows and
        # columns (whose coordinates become -size and size)
        below = np.where(gauge, -size, coord)[:, :, None] - np.where(gauge, size, coord)[:, None, :]
        h_index = below * size + coord[:, None, :]
        index = np.concatenate([h_index.ravel(), coord.ravel() + h_size])
        self.used = np.flatnonzero(np.concatenate([below.ravel() >= 0, ~gauge.ravel()]))
        self.index = index.take(self.used)


def _edge_errors(rot, trans, table: _EdgeTable):
    """Errors of all edges at node poses (rot (n, 3, 3), trans (n, 3)).

    Edge k's error is T_j^-1 T_i T_delta, returned as the rows
    ``[Log(R_j^T R_i R_delta), R_j^T (R_i t_delta + t_i - t_j)]`` of an
    (E, 6) array, together with the (E, 3, 3) stacks that
    :func:`_edge_jacobians` reads: the error rotations, R_j^T and R_j^T R_i.
    """
    rot_i, rot_j = rot.take(table.ij, axis=0)
    trans_i, trans_j = trans.take(table.ij, axis=0)
    rj_t = rot_j.swapaxes(1, 2)
    rel_rot = rj_t @ rot_i
    err_rot = rel_rot @ table.d_rot
    moved = (rot_i @ table.d_trans[:, :, None])[:, :, 0] + trans_i - trans_j
    err_trans = (rj_t @ moved[:, :, None])[:, :, 0]
    return np.concatenate([so3_log(err_rot), err_trans], axis=1), err_rot, rj_t, rel_rot


def _edge_jacobians(table: _EdgeTable, err, err_rot, rj_t, rel_rot):
    """Closed-form derivatives of the edge errors with respect to (phi, dt)
    of node i and then of node j, for the retraction
    ``R <- R Exp(phi), t <- t + dt``, as one (E, 6, 12) array.

    With rho = Log(E_R) and tau the translation error:
    d rho/d phi_i = J_r^-1(rho) R_delta^T, d rho/d phi_j = -J_r^-1(rho) E_R^T,
    d tau/d phi_i = -R_j^T R_i [t_delta]x, d tau/d phi_j = [tau]x,
    d tau/d t_i = R_j^T = -d tau/d t_j.
    The arguments after ``table`` are what :func:`_edge_errors` returns.
    """
    k, k_tau = skew(err.reshape(-1, 2, 3)).swapaxes(0, 1)  # [rho]x, [tau]x
    # J_r^-1 = I + [rho]x / 2 + c [rho]x^2, with c -> 1/12 as theta -> 0;
    # theta = |rho| as np.linalg.norm takes it
    rho = err[:, :3]
    theta = np.sqrt(np.add.reduce(rho * rho, axis=1))
    small = theta < 1e-4
    series = small.any()  # the limit, only where some theta needs it
    big = np.where(small, 1.0, theta) if series else theta
    half = big / 2
    c = 1 / big**2 - np.cos(half) / (2 * big * np.sin(half))
    if series:
        c = np.where(small, 1 / 12, c)
    jr_inv = _EYE3 + 0.5 * k + c[:, None, None] * (k @ k)
    jac = np.zeros((len(err), 6, 12))
    np.matmul(jr_inv, table.d_rot_t, out=jac[:, :3, :3])
    np.matmul(-jr_inv, err_rot.swapaxes(1, 2), out=jac[:, :3, 6:9])
    np.negative(np.matmul(rel_rot, table.d_skew, out=jac[:, 3:, :3]), out=jac[:, 3:, :3])
    jac[:, 3:, 3:6] = rj_t
    jac[:, 3:, 6:9] = k_tau
    np.negative(rj_t, out=jac[:, 3:, 9:])
    return jac


def _normal_equations(jac, err, w, table: _EdgeTable):
    """``(J^T W J, J^T W e)`` over nodes 1..n-1 in the table's band order,
    J^T W J as its lower band storage ``(table.band + 1, table.size)``,
    summed one edge at a time: edge k adds ``J_k^T w_k J_k`` and
    ``J_k^T w_k e_k`` for its (6, 12) block J_k = ``jac[k]``, the used
    entries of both scattered by the table's one index in a single
    ``bincount`` (their bins are disjoint)."""
    jac_tw = jac.swapaxes(1, 2) * w[:, None, None]
    values = np.concatenate([(jac_tw @ jac).ravel(), (jac_tw @ err[:, :, None]).ravel()])
    hg = np.bincount(table.index, values.take(table.used), table.h_size + table.size)
    return hg[: table.h_size].reshape(table.band + 1, table.size), hg[table.h_size :]


def damped_step(ab, jtr, lam, cost, trial, tries):
    """Levenberg-damped Gauss-Newton step of the pose graph: solve
    ``(J^T J + lam I) delta = -J^T r`` by banded Cholesky (LAPACK ``pbsv``,
    called directly: ``scipy.linalg.solveh_banded`` without its wrapper),
    J^T J given as its lower band storage ``ab`` (row 0 the diagonal), score
    ``trial(delta) -> (candidate, cost)``, and damp by ``joint_solver``'s
    rule (a system that is not positive definite is a rejected try). Returns
    ``(candidate, cost, lam)`` or, after ``tries``, ``(None, None, lam)``.

    The damping is added to ``ab`` in place: pass a temporary, whose
    diagonal is overwritten."""
    diag, rhs = ab[0].copy(), -jtr
    for _ in range(tries):
        ab[0] = diag + lam
        _, delta, info = dpbsv(ab, rhs, lower=1)
        if info < 0:
            raise ValueError(f"illegal value in {-info}th argument of internal pbsv")
        if info > 0:  # not positive definite: solveh_banded's LinAlgError
            lam *= 10
            continue
        candidate, cost_new = trial(delta)
        if math.isfinite(cost_new) and cost_new <= cost + ACCEPT_SLACK:
            return candidate, cost_new, max(lam / 10, LAMBDA_FLOOR)
        lam *= 10
    return None, None, lam


def _chain_odometry(graph: PoseGraph) -> tuple[np.ndarray, np.ndarray]:
    """Node poses (rotations (n, 3, 3), translations (n, 3)) from composing
    the odometry edges from node 0, the identity: T_{i+1} = T_i T_delta."""
    odo = {(e.i, e.j): e.relative_pose for e in graph.edges if e.kind == "odometry"}
    r, t = _EYE3, np.zeros(3)
    rot, trans = [r], [t]
    for i in range(graph.num_nodes - 1):
        step = odo[(i, i + 1)]
        r, t = r @ step.rotation, r @ step.translation + t
        rot.append(r)
        trans.append(t)
    return np.array(rot), np.array(trans)


def _update_switches(table: _EdgeTable, err, cfg) -> np.ndarray:
    """Per-edge line-process values at edge errors ``err``: 1.0 on certain
    edges; on uncertain ones the minimizer of s w |r|^2 + mu (sqrt(s) - 1)^2,
    w the raw weight (correspondence count) that mu = 100 is calibrated to."""
    mu = cfg.line_process_mu
    u = mu / (table.weight * _squared_norms(err) + mu)
    return np.where(table.uncertain, u * u, 1.0)


def _certain_union_find(graph: PoseGraph):
    """Parent list and ``find`` of a union-find over the graph's nodes in
    which the two nodes of every certain edge are joined."""
    root = list(range(graph.num_nodes))

    def find(a):
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        return a

    for e in graph.edges:
        if not e.uncertain:
            root[find(e.i)] = find(e.j)
    return root, find


def _keep_bridges_certain(graph: PoseGraph) -> tuple[PoseGraph, list[tuple[int, int]]]:
    """Make certain each uncertain odometry edge that joins two components of
    the certain edges, so that one long step cannot cut the graph apart.
    Returns the graph (unchanged when it has no such edge) and those edges."""
    root, find = _certain_union_find(graph)
    edges, bridges = [], []
    for e in graph.edges:
        if e.uncertain and e.kind == "odometry" and find(e.i) != find(e.j):
            root[find(e.i)] = find(e.j)
            e = replace(e, uncertain=False)
            bridges.append((e.i, e.j))
        edges.append(e)
    return (PoseGraph(graph.num_nodes, edges) if bridges else graph), bridges


def _check_graph(graph: PoseGraph) -> None:
    """Raise a ValueError naming the first bad edge (a node out of range, a
    repeated pair, a missing odometry step) or saying the certain edges do not
    connect the graph."""
    n, seen = graph.num_nodes, set()
    for e in graph.edges:
        if e.j >= n:
            raise ValueError(f"edge ({e.i}, {e.j}): node {e.j} out of range for {n} nodes")
        if (e.i, e.j) in seen:
            raise ValueError(f"edge ({e.i}, {e.j}): repeats an earlier edge's node pair")
        seen.add((e.i, e.j))
    odometry = {(e.i, e.j) for e in graph.edges if e.kind == "odometry"}
    for i in range(n - 1):
        if (i, i + 1) not in odometry:
            raise ValueError(f"edge ({i}, {i + 1}): odometry step missing")
    _, find = _certain_union_find(graph)
    if len({find(a) for a in range(n)}) != 1:
        raise ValueError("graph is not connected via certain edges")


def optimize_graph(graph: PoseGraph, cfg: GraphConfig | None = None) -> GraphSolution:
    """Robust pose graph optimization with line-process switches on
    uncertain edges; after convergence, uncertain edges with switch values
    below the prune threshold are dropped and the survivors re-solved. Each
    solve is one IRLS loop: a damped Gauss-Newton step with the switches
    fixed, then the switches in closed form at the new edge errors, until
    the cost changes by less than 1e-12 of itself; this is the fixed point
    of solving the poses to convergence between switch updates.
    Raises ValueError on a malformed graph (see ``_check_graph``)."""
    cfg = cfg or GraphConfig()
    _check_graph(graph)

    def robust_solve(g: PoseGraph, rot, trans):
        # seed switches from the initial trajectory (closed form given poses)
        # so edges wildly inconsistent with the init start down-weighted
        table = _EdgeTable(g)
        edge = _edge_errors(rot, trans, table)
        switches = _update_switches(table, edge[0], cfg)
        if not len(table.weight):  # a lone node, pinned
            return rot, trans, switches, table
        scale = table.weight / table.weight.mean()

        # both read the loop's current poses and weights
        def cost_of(err):
            r = (sqrt_w * err).ravel()
            return float(r @ r)

        def trial(delta):
            step = delta.take(table.step_index)  # nodes 1..n-1; node 0 stays put
            rot_new = np.concatenate([rot[:1], rot[1:] @ so3_exp(step[:, :3])])
            trans_new = np.concatenate([trans[:1], trans[1:] + step[:, 3:]])
            edge_new = _edge_errors(rot_new, trans_new, table)
            return (rot_new, trans_new, edge_new), cost_of(edge_new[0])

        # IRLS: one damped step with the switches fixed, then the switches at
        # the new errors. Node rotations are retracted by right-multiplied
        # increments, translations additively; the tangent vector packs
        # (phi, dt) per node 1..n-1 in the table's band order.
        lam, cost = LAMBDA_START, np.inf
        for _ in range(MAX_ITERATIONS):
            w = scale * switches
            sqrt_w = np.sqrt(w)[:, None]
            h, grad = _normal_equations(_edge_jacobians(table, *edge), edge[0], w, table)
            new, new_cost, lam = damped_step(h, grad, lam, cost_of(edge[0]), trial, DAMPING_TRIES)
            if new is None:
                break
            rot, trans, edge = new
            switches = _update_switches(table, edge[0], cfg)
            if abs(cost - new_cost) < 1e-12 * max(cost, 1.0):
                break
            cost = new_cost
        return rot, trans, switches, table

    rot, trans, switches, table = robust_solve(graph, *_chain_odometry(graph))

    keep = ~(table.uncertain & (switches < cfg.edge_prune_threshold))
    pruned = [(e.i, e.j) for e, kept in zip(graph.edges, keep) if not kept]
    if pruned:
        graph = PoseGraph(graph.num_nodes, [e for e, kept in zip(graph.edges, keep) if kept])
        rot, trans, switches, _ = robust_solve(graph, rot, trans)
    final = {(e.i, e.j): float(s) for e, s in zip(graph.edges, switches) if e.uncertain}
    return GraphSolution(_frozen(rot), _frozen(trans), final, pruned)


def _screened_out(pair, fits, scfg: SolverConfig, gcfg: GraphConfig) -> bool:
    """Whether loop pair ``pair`` can be rejected before it is solved, given
    the ``noc_fit`` pair of each of its object matches' observations: every
    matched object's depth in both frames lies outside the range
    ``reject_loop_closure`` accepts, by the margin ``scfg.residual_prune``.
    Decides only loop pairs whose solve would be vetted on objects: objects
    weighted, some matched, and every matched observation fitted."""
    i, j = pair
    if j == i + 1 or scfg.w_o == 0 or not fits:
        return False
    if any(f is None for both in fits for f in both):
        return False
    return not any(
        _depth_in_range([f.pose.translation[2] for f in both], gcfg, scfg.residual_prune)
        for both in fits
    )


@dataclass
class SequenceResult:
    trajectory: Trajectory
    graph: PoseGraph
    solution: GraphSolution
    pair_results: dict
    diagnostics: dict = field(default_factory=dict)


def candidate_loop_pairs(num_frames: int) -> list[tuple[int, int]]:
    """Every pair (i, j), j - i >= 2, of the keyframes 0, s, 2s, ... with
    s = ceil(num_frames / MAX_KEYFRAMES): all non-consecutive pairs up to
    MAX_KEYFRAMES frames, and at most C(MAX_KEYFRAMES, 2) pairs at any length."""
    keyframes = range(0, num_frames, max(1, -(-num_frames // MAX_KEYFRAMES)))
    return [(i, j) for i in keyframes for j in keyframes if j - i >= 2]


def register_sequence(
    fs: FrameSet,
    mcfg: MatchConfig | None = None,
    scfg: SolverConfig | None = None,
    gcfg: GraphConfig | None = None,
    jobs: int = 1,
) -> SequenceResult:
    """Register a sequence: pairwise solves on consecutive pairs
    (``ODOMETRY_KEYPOINT_FILTER``) and candidate loop pairs
    (``LOOP_KEYPOINT_FILTER``, object matches at
    ``mcfg.sequence_loop_threshold``), then robust graph optimization. No
    pair is ICP-polished: every edge keeps its joint Gauss-Newton pose, as
    the paper registers a pair, because ICP within ``scfg.residual_prune``
    made the pair poses and the trajectory worse. Loop candidates pair at
    most ``MAX_KEYFRAMES`` keyframes (:func:`candidate_loop_pairs`): for 40
    frames, the 91 pairs of keyframes 0, 3, ..., 39. A loop pair whose
    matched objects are all out of depth range by ``scfg.residual_prune`` on
    their cached ``noc_fit`` poses (:func:`_screened_out`) is not
    solved; such pairs have no ``pair_results`` entry and are listed in
    ``diagnostics["screened_pairs"]``. An odometry step too long to be
    certain stays certain where it is the only certain link between two
    parts of the graph; ``diagnostics["certain_bridges"]`` lists those
    steps. Frame timestamps (the frame index where missing) must strictly
    increase; a frame that breaks this raises a ``ValidationError`` before
    any pair is solved.

    Every pair goes through one pair stage, :func:`register_pairs`, which
    ``register_pair`` runs on its one pair: one batched call each matches
    every pair, screens the loop pairs and builds the problems, and solves
    them in lockstep, each pair getting what it would get alone. A pair
    whose problem cannot be built or solved keeps its own failed result and
    reason. ``jobs`` is accepted for compatibility and has no effect: a
    thread pool over the pairs was slower than a serial loop on 2 cores."""
    fs.validate()
    if fs.num_frames < 2:
        raise ValueError("need at least 2 frames")
    timestamps = np.array(
        [f.timestamp if f.timestamp is not None else float(f.index) for f in fs.frames]
    )
    stalled = np.flatnonzero(np.diff(timestamps) <= 0)
    if len(stalled):
        k = int(stalled[0]) + 1
        now, before = float(timestamps[k]), float(timestamps[k - 1])
        raise ValidationError(
            f"frame {k}: timestamp {now!r} does not exceed frame {k - 1}'s {before!r}; "
            "timestamps must strictly increase"
        )
    mcfg = mcfg or MatchConfig()
    scfg = scfg or SolverConfig()
    gcfg = gcfg or GraphConfig()

    odo_pairs = [(i, i + 1) for i in range(fs.num_frames - 1)]
    loop_pairs = candidate_loop_pairs(fs.num_frames)

    loop_mcfg = replace(mcfg, embed_threshold=mcfg.sequence_loop_threshold)
    plan = {pair: (mcfg, ODOMETRY_KEYPOINT_FILTER) for pair in odo_pairs}
    plan.update({pair: (loop_mcfg, LOOP_KEYPOINT_FILTER) for pair in loop_pairs})
    results = register_pairs(
        fs, plan, scfg, False, screen=lambda pair, fits: _screened_out(pair, fits, scfg, gcfg)
    )
    screened = [pair for pair in plan if pair not in results]

    failed_odo = [p for p in odo_pairs if not results[p].success]
    if failed_odo:
        raise ValueError(
            "odometry registration failed for pairs "
            + ", ".join(f"{p}: {results[p].reason}" for p in failed_odo)
        )

    graph, bridges = _keep_bridges_certain(build_graph(results, fs.num_frames, gcfg))
    solution = optimize_graph(graph, gcfg)
    traj = Trajectory(timestamps, solution.poses)
    diag = {
        "num_edges": len(graph.edges),
        "num_loop_edges": sum(1 for e in graph.edges if e.kind == "loop_closure"),
        "pruned_edges": solution.pruned,
        "certain_bridges": bridges,
        "failed_pairs": {p: r.reason for p, r in results.items() if not r.success},
        "screened_pairs": screened,
    }
    return SequenceResult(traj, graph, solution, results, diag)
