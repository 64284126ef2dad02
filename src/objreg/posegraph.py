"""Sequence registration: pairwise solves become pose graph edges, loop
closures are vetted and robustly optimized with per-edge line-process
switches (Choi-style), and the result is a gauge-fixed trajectory."""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import (
    RigidPose,
    apply_rigid,
    compose,
    invert,
    skew,
    so3_exp,
    so3_log,
)
from .joint_solver import (
    PairResult,
    SolverConfig,
    SolveReport,
    damped_step,
    default_keypoint_filter,
    pair_matches,
    register_pair,
)
from .matching import MatchConfig
from .metrics import Trajectory
from .observations import Frame, FrameSet, KeypointMatch, ValidationError

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

# Robust solve limits: up to MAX_OUTER_ITERATIONS rounds of {solve the poses
# with the switches fixed, update the switches}, each pose solve taking up to
# MAX_INNER_ITERATIONS damped Gauss-Newton steps.
MAX_OUTER_ITERATIONS = 15
MAX_INNER_ITERATIONS = 10
MAX_KEYFRAMES = 14  # loop-closure candidates pair at most this many keyframes


@dataclass
class GraphEdge:
    i: int
    j: int
    relative_pose: RigidPose  # frame j expressed in frame i's coordinates
    information_weight: float
    uncertain: bool
    kind: str  # "odometry" | "loop_closure"

    def __post_init__(self):
        if not 0 <= self.i < self.j:
            raise ValueError(f"edge ({self.i}, {self.j}): nodes must satisfy 0 <= i < j")
        if not (np.isfinite(self.information_weight) and self.information_weight >= 0):
            raise ValueError(f"edge ({self.i}, {self.j}): information_weight must be finite, >= 0")


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


@dataclass
class PoseGraph:
    num_nodes: int
    edges: list[GraphEdge]


@dataclass
class GraphSolution:
    poses: list[RigidPose]
    switches: dict  # (i, j) -> final line-process value for uncertain edges
    pruned: list[tuple[int, int]]


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
    return float(sum(s["active"] for s in report.block_stats))


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


class _EdgeTable:
    """One robust solve's edges as arrays aligned with ``graph.edges``: node
    indices, relative poses, weights ``max(information_weight, 1)``, the
    uncertain mask, and the flat indices that scatter each edge's (12, 12)
    J^T W J and (12,) J^T W e blocks into the ``size`` normal equations over
    nodes 1..n-1: columns (phi, dt) of node i, then of node j, with entries
    on node 0 (the gauge) sent to one bin past the end."""

    def __init__(self, graph: PoseGraph):
        self.ii = np.array([e.i for e in graph.edges], dtype=int)
        self.jj = np.array([e.j for e in graph.edges], dtype=int)
        self.d_rot = np.array([e.relative_pose.rotation for e in graph.edges]).reshape(-1, 3, 3)
        self.d_trans = np.array([e.relative_pose.translation for e in graph.edges]).reshape(-1, 3)
        self.weight = np.array([max(e.information_weight, 1.0) for e in graph.edges])
        self.uncertain = np.array([e.uncertain for e in graph.edges], dtype=bool)
        self.size = size = 6 * (graph.num_nodes - 1)
        node = np.repeat(np.stack([self.ii, self.jj], axis=1), 6, axis=1)  # (E, 12)
        coord = 6 * (node - 1) + np.tile(np.arange(6), 2)
        gauge = node == 0
        h_index = coord[:, :, None] * size + coord[:, None, :]
        h_index[gauge[:, :, None] | gauge[:, None, :]] = size * size
        self.h_index, self.g_index = h_index.ravel(), np.where(gauge, size, coord).ravel()


def _edge_errors(rot, trans, table: _EdgeTable):
    """Errors of all edges at node poses (rot (n, 3, 3), trans (n, 3)).

    Edge k's error is T_j^-1 T_i T_delta, returned as the rows
    ``[Log(R_j^T R_i R_delta), R_j^T (R_i t_delta + t_i - t_j)]`` of an
    (E, 6) array, together with the error rotations (E, 3, 3).
    """
    ii, jj = table.ii, table.jj
    rj_t = np.swapaxes(rot[jj], 1, 2)
    err_rot = rj_t @ rot[ii] @ table.d_rot
    moved = (rot[ii] @ table.d_trans[:, :, None])[:, :, 0] + trans[ii] - trans[jj]
    err_trans = (rj_t @ moved[:, :, None])[:, :, 0]
    return np.hstack([so3_log(err_rot), err_trans]), err_rot


def _edge_jacobians(rot, table: _EdgeTable, err, err_rot):
    """Closed-form (E, 6, 6) derivatives of the edge errors with respect to
    (phi, dt) of node i and of node j, for the retraction
    ``R <- R Exp(phi), t <- t + dt``.

    With rho = Log(E_R) and tau the translation error:
    d rho/d phi_i = J_r^-1(rho) R_delta^T, d rho/d phi_j = -J_r^-1(rho) E_R^T,
    d tau/d phi_i = -R_j^T R_i [t_delta]x, d tau/d phi_j = [tau]x,
    d tau/d t_i = R_j^T = -d tau/d t_j.
    """
    rho, tau = err[:, :3], err[:, 3:]
    # J_r^-1 = I + [rho]x / 2 + c [rho]x^2, with c -> 1/12 as theta -> 0
    theta = np.linalg.norm(rho, axis=1)
    big = np.where(theta < 1e-4, 1.0, theta)
    c = np.where(theta < 1e-4, 1 / 12, 1 / big**2 - np.cos(big / 2) / (2 * big * np.sin(big / 2)))
    k = skew(rho)
    jr_inv = np.eye(3) + 0.5 * k + c[:, None, None] * (k @ k)
    rj_t = np.swapaxes(rot[table.jj], 1, 2)
    jac_i, jac_j = np.zeros((2, len(err), 6, 6))
    jac_i[:, :3, :3] = jr_inv @ np.swapaxes(table.d_rot, 1, 2)
    jac_j[:, :3, :3] = -jr_inv @ np.swapaxes(err_rot, 1, 2)
    jac_i[:, 3:, :3] = -rj_t @ rot[table.ii] @ skew(table.d_trans)
    jac_j[:, 3:, :3] = skew(tau)
    jac_i[:, 3:, 3:] = rj_t
    jac_j[:, 3:, 3:] = -rj_t
    return jac_i, jac_j


def _normal_equations(jac_i, jac_j, err, w, table: _EdgeTable):
    """``(J^T W J, J^T W e)`` over nodes 1..n-1, summed one edge at a time:
    edge k adds ``[A B]^T w_k [A B]`` and ``[A B]^T w_k e_k`` for its blocks
    A = ``jac_i[k]``, B = ``jac_j[k]``, scattered by the table's indices."""
    size = table.size
    jac = np.concatenate([jac_i, jac_j], axis=2)  # (E, 6, 12)
    jac_tw = np.swapaxes(jac, 1, 2) * w[:, None, None]
    h = np.bincount(table.h_index, (jac_tw @ jac).ravel(), size * size + 1)[:-1]
    g = np.bincount(table.g_index, (jac_tw @ err[:, :, None]).ravel(), size + 1)[:-1]
    return h.reshape(size, size), g


def _chain_odometry(graph: PoseGraph) -> list[RigidPose]:
    poses = [RigidPose.identity() for _ in range(graph.num_nodes)]
    odo = {(e.i, e.j): e for e in graph.edges if e.kind == "odometry"}
    for i in range(graph.num_nodes - 1):
        poses[i + 1] = compose(poses[i], odo[(i, i + 1)].relative_pose)
    return poses


def _solve_poses(table: _EdgeTable, rot, trans, err, err_rot, switches):
    """Damped GN over node poses with fixed per-edge ``switches``; node 0
    pinned. ``(err, err_rot)`` are the edge errors at ``(rot, trans)``.
    Returns the final poses, their cost and their edge errors.

    Node rotations are retracted by right-multiplied increments, translations
    additively; the tangent vector packs (phi, dt) per node 1..n-1."""
    if not len(table.weight):  # a lone node, pinned
        return rot, trans, 0.0, err, err_rot
    w = table.weight / table.weight.mean() * switches
    sqrt_w = np.sqrt(w)

    def cost_of(err):
        r = (sqrt_w[:, None] * err).ravel()
        return float(r @ r)

    def trial(delta):
        step = np.vstack([np.zeros(6), delta.reshape(-1, 6)])  # node 0 stays put
        rot_new, trans_new = rot @ so3_exp(step[:, :3]), trans + step[:, 3:]
        err_new, err_rot_new = _edge_errors(rot_new, trans_new, table)
        return (rot_new, trans_new, err_new, err_rot_new), cost_of(err_new)

    lam = 1e-6
    cost = cost_of(err)
    for _ in range(MAX_INNER_ITERATIONS):
        h, g = _normal_equations(*_edge_jacobians(rot, table, err, err_rot), err, w, table)
        new, cost_new, lam = damped_step(h, g, lam, cost, trial, 8)
        if new is None:
            break
        rel_decrease = (cost - cost_new) / max(cost, 1e-30)
        (rot, trans, err, err_rot), cost = new, cost_new
        if rel_decrease < 1e-10:
            break
    return rot, trans, cost, err, err_rot


def _update_switches(table: _EdgeTable, err, cfg) -> np.ndarray:
    """Per-edge line-process values at edge errors ``err``: 1.0 on certain
    edges; on uncertain ones the minimizer of s w |r|^2 + mu (sqrt(s) - 1)^2,
    w the raw weight (correspondence count) that mu = 100 is calibrated to."""
    mu = cfg.line_process_mu
    switches = np.ones(len(err))
    for k in np.flatnonzero(table.uncertain):
        u = mu / (table.weight[k] * float(err[k] @ err[k]) + mu)
        switches[k] = u * u
    return switches


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
    below the prune threshold are dropped and the survivors re-solved.
    Raises ValueError on a malformed graph (see ``_check_graph``)."""
    cfg = cfg or GraphConfig()
    _check_graph(graph)

    def robust_solve(g: PoseGraph, rot, trans):
        # seed switches from the initial trajectory (closed form given poses)
        # so edges wildly inconsistent with the init start down-weighted
        table = _EdgeTable(g)
        err, err_rot = _edge_errors(rot, trans, table)
        switches = _update_switches(table, err, cfg)
        cost = np.inf
        for _ in range(MAX_OUTER_ITERATIONS):
            rot, trans, new_cost, err, err_rot = _solve_poses(
                table, rot, trans, err, err_rot, switches
            )
            switches = _update_switches(table, err, cfg)
            if abs(cost - new_cost) < 1e-12 * max(cost, 1.0):
                break
            cost = new_cost
        return rot, trans, switches, table

    init = _chain_odometry(graph)
    rot, trans = np.array([p.rotation for p in init]), np.array([p.translation for p in init])
    rot, trans, switches, table = robust_solve(graph, rot, trans)

    keep = ~(table.uncertain & (switches < cfg.edge_prune_threshold))
    pruned = [(e.i, e.j) for e, kept in zip(graph.edges, keep) if not kept]
    if pruned:
        graph = PoseGraph(graph.num_nodes, [e for e, kept in zip(graph.edges, keep) if kept])
        rot, trans, switches, _ = robust_solve(graph, rot, trans)
    poses = [RigidPose.from_rotation(r, t) for r, t in zip(rot, trans)]
    final = {(e.i, e.j): float(s) for e, s in zip(graph.edges, switches) if e.uncertain}
    return GraphSolution(poses, final, pruned)


def _match_index(fs: FrameSet) -> dict:
    """Keypoint matches keyed by unordered frame pair ``(lo, hi)``, each list
    in file order."""
    index = {}
    for km in fs.keypoint_matches:
        index.setdefault(tuple(sorted((km.frame_i, km.frame_j))), []).append(km)
    return index


def _pair_frameset(fs: FrameSet, i: int, j: int, match_index: dict) -> FrameSet:
    """Frames i, j of ``fs`` as a 2-frame set (i becomes 0, j becomes 1);
    ``match_index`` is ``_match_index(fs)``."""
    frames = [Frame(0, fs.frames[i].intrinsics, fs.frames[i].timestamp),
              Frame(1, fs.frames[j].intrinsics, fs.frames[j].timestamp)]
    matches = []
    for km in match_index.get(tuple(sorted((i, j))), ()):
        if km.frame_i == i:
            matches.append(KeypointMatch(0, 1, km.points_i, km.points_j))
        else:
            matches.append(KeypointMatch(0, 1, km.points_j, km.points_i))
    obs = []
    for o in fs.observations:
        if o.frame in (i, j):
            # shallow copy: shares the arrays and any cached noc_fit
            pair_obs = copy.copy(o)
            pair_obs.frame = 0 if o.frame == i else 1
            obs.append(pair_obs)
    return FrameSet(frames, matches, obs)


def _screened_out(sub: FrameSet, matches, scfg: SolverConfig, gcfg: GraphConfig) -> bool:
    """Whether loop pair ``sub`` can be rejected before it is solved: every
    matched object's ``noc_fit`` depth in both frames lies outside the range
    ``reject_loop_closure`` accepts, by the margin ``scfg.residual_prune``.
    Decides only pairs whose solve would be vetted on objects: objects
    weighted, some matched, and every matched observation fitted."""
    if scfg.w_o == 0 or not matches:
        return False
    obs_a, obs_b = sub.observations_in_frame(0), sub.observations_in_frame(1)
    fits = [(obs_a[m.index_a].noc_fit, obs_b[m.index_b].noc_fit) for m in matches]
    if any(f is None for pair in fits for f in pair):
        return False
    return not any(
        _depth_in_range([f.pose.translation[2] for f in pair], gcfg, scfg.residual_prune)
        for pair in fits
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
    icp: bool = True,
    jobs: int = 1,
) -> SequenceResult:
    """Register a sequence: pairwise solves on consecutive pairs (0.30 m
    keypoint filter) and candidate loop pairs (0.15 m filter, 0.04 object
    match threshold), then robust graph optimization. Loop candidates pair
    at most ``MAX_KEYFRAMES`` keyframes (:func:`candidate_loop_pairs`): for 40
    frames, the 91 pairs of keyframes 0, 3, ..., 39. A loop pair whose
    matched objects are all out of depth range by ``scfg.residual_prune``
    on their cached ``noc_fit`` poses is not solved; such pairs have no
    ``pair_results`` entry and are listed in
    ``diagnostics["screened_pairs"]``. An odometry step too long to be
    certain stays certain where it is the only certain link between two
    parts of the graph; ``diagnostics["certain_bridges"]`` lists those
    steps. Frame timestamps (the frame index where missing) must strictly
    increase; a frame that breaks this raises a ``ValidationError`` before
    any pair is solved.

    Pairs are solved one after another. ``jobs`` is accepted for
    compatibility and has no effect: a thread pool over the pairs was slower
    than this loop on 2 cores."""
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
    # fit every observation once, here: the shallow pair copies made below
    # then share the cached fit instead of each fitting its own
    for o in fs.observations:
        o.noc_fit
    match_index = _match_index(fs)

    results, screened = {}, []
    for i, j in odo_pairs + loop_pairs:
        sub = _pair_frameset(fs, i, j, match_index)
        if j == i + 1:
            results[(i, j)] = register_pair(
                sub, mcfg, scfg, icp=icp, keypoint_filter=default_keypoint_filter(0.30)
            )
            continue
        matches = pair_matches(sub, loop_mcfg)
        if _screened_out(sub, matches, scfg, gcfg):
            screened.append((i, j))
            continue
        results[(i, j)] = register_pair(
            sub,
            loop_mcfg,
            scfg,
            icp=icp,
            keypoint_filter=default_keypoint_filter(0.15),
            matches=matches,
        )

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
