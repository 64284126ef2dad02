"""Sequence registration: pairwise solves become pose graph edges, loop
closures are vetted and robustly optimized with per-edge line-process
switches (Choi-style), and the result is a gauge-fixed trajectory."""

from __future__ import annotations

import copy
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import (
    RigidPose,
    apply_rigid,
    compose,
    euler_from_rotation,
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
    register_pair,
)
from .matching import MatchConfig
from .metrics import Trajectory
from .observations import Frame, FrameSet, KeypointMatch

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


@dataclass
class GraphEdge:
    i: int
    j: int
    relative_pose: RigidPose  # frame j expressed in frame i's coordinates
    information_weight: float
    uncertain: bool
    kind: str  # "odometry" | "loop_closure"

    def __post_init__(self):
        if not self.i < self.j:
            raise ValueError("edge must satisfy i < j")
        if self.information_weight < 0:
            raise ValueError("information_weight must be nonnegative")


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
    max_outer_iterations: int = 15
    max_inner_iterations: int = 10


@dataclass
class PoseGraph:
    num_nodes: int
    edges: list[GraphEdge]


@dataclass
class GraphSolution:
    poses: list[RigidPose]
    switches: dict  # (i, j) -> final line-process value for uncertain edges
    pruned: list[tuple[int, int]]
    warning: str | None = None


def reject_loop_closure(
    result: PairResult, pair: tuple[int, int], cfg: GraphConfig
) -> tuple[bool, str]:
    """Vet a non-consecutive pairwise registration for use as a loop edge.

    Object-supported closures must have a matched object whose camera-local
    depth is < 2.15 m in at least one frame, positive z in at least one
    frame, and no near-zero optimized scale dimension. Keypoint-only
    closures must keep their relative translation under 0.60 m (within 20
    frames) or 1.5 m (farther apart).
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
            if any(z > 0 for z in zs) and any(0 < z < cfg.lc_object_max_depth for z in zs):
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


def _edge_arrays(graph: PoseGraph):
    """Node indices i, j and relative rotations/translations of all edges."""
    ii = np.array([e.i for e in graph.edges])
    jj = np.array([e.j for e in graph.edges])
    d_rot = np.array([e.relative_pose.rotation for e in graph.edges]).reshape(-1, 3, 3)
    d_trans = np.array([e.relative_pose.translation for e in graph.edges]).reshape(-1, 3)
    return ii, jj, d_rot, d_trans


def _edge_errors(rot, trans, edges):
    """Errors of all edges at node poses (rot (n, 3, 3), trans (n, 3)).

    Edge k's error is T_j^-1 T_i T_delta, returned as the rows
    ``[Log(R_j^T R_i R_delta), R_j^T (R_i t_delta + t_i - t_j)]`` of an
    (E, 6) array, together with the error rotations (E, 3, 3).
    """
    ii, jj, d_rot, d_trans = edges
    rj_t = np.swapaxes(rot[jj], 1, 2)
    err_rot = rj_t @ rot[ii] @ d_rot
    moved = (rot[ii] @ d_trans[:, :, None])[:, :, 0] + trans[ii] - trans[jj]
    err_trans = (rj_t @ moved[:, :, None])[:, :, 0]
    return np.hstack([so3_log(err_rot), err_trans]), err_rot


def _edge_jacobians(rot, edges, err, err_rot):
    """Closed-form (E, 6, 6) derivatives of the edge errors with respect to
    (phi, dt) of node i and of node j, for the retraction
    ``R <- R Exp(phi), t <- t + dt``.

    With rho = Log(E_R) and tau the translation error:
    d rho/d phi_i = J_r^-1(rho) R_delta^T, d rho/d phi_j = -J_r^-1(rho) E_R^T,
    d tau/d phi_i = -R_j^T R_i [t_delta]x, d tau/d phi_j = [tau]x,
    d tau/d t_i = R_j^T = -d tau/d t_j.
    """
    ii, jj, d_rot, d_trans = edges
    rho, tau = err[:, :3], err[:, 3:]
    # J_r^-1 = I + [rho]x / 2 + c [rho]x^2, with c -> 1/12 as theta -> 0
    theta = np.linalg.norm(rho, axis=1)
    big = np.where(theta < 1e-4, 1.0, theta)
    c = np.where(theta < 1e-4, 1 / 12, 1 / big**2 - np.cos(big / 2) / (2 * big * np.sin(big / 2)))
    k = skew(rho)
    jr_inv = np.eye(3) + 0.5 * k + c[:, None, None] * (k @ k)
    rj_t = np.swapaxes(rot[jj], 1, 2)
    jac_i, jac_j = np.zeros((2, len(err), 6, 6))
    jac_i[:, :3, :3] = jr_inv @ np.swapaxes(d_rot, 1, 2)
    jac_j[:, :3, :3] = -jr_inv @ np.swapaxes(err_rot, 1, 2)
    jac_i[:, 3:, :3] = -rj_t @ rot[ii] @ skew(d_trans)
    jac_j[:, 3:, :3] = skew(tau)
    jac_i[:, 3:, 3:] = rj_t
    jac_j[:, 3:, 3:] = -rj_t
    return jac_i, jac_j


def _chain_odometry(graph: PoseGraph) -> list[RigidPose]:
    poses = [RigidPose.identity() for _ in range(graph.num_nodes)]
    odo = {(e.i, e.j): e for e in graph.edges if e.kind == "odometry"}
    for i in range(graph.num_nodes - 1):
        poses[i + 1] = compose(poses[i], odo[(i, i + 1)].relative_pose)
    return poses


def _solve_poses(graph, rot, trans, switches, cfg):
    """Damped GN over node poses with fixed switch weights; node 0 pinned.

    Node rotations are retracted by right-multiplied increments, translations
    additively; the tangent vector packs (phi, dt) per node 1..n-1."""
    n, m = graph.num_nodes, len(graph.edges)
    edges = _edge_arrays(graph)
    weights = np.array([max(e.information_weight, 1.0) for e in graph.edges])
    sqrt_w = np.sqrt(
        weights / weights.mean() * np.array([switches.get((e.i, e.j), 1.0) for e in graph.edges])
    )
    # row/column indices of each edge's two 6x6 Jacobian blocks
    rows = 6 * np.arange(m)[:, None, None] + np.arange(6)[None, :, None]
    cols = [6 * (node - 1)[:, None, None] + np.arange(6)[None, None, :] for node in edges[:2]]

    def evaluate(rot, trans):
        err, err_rot = _edge_errors(rot, trans, edges)
        r = (sqrt_w[:, None] * err).ravel()
        return (rot, trans, err, err_rot, r), float(r @ r)

    def trial(delta):
        step = np.vstack([np.zeros(6), delta.reshape(-1, 6)])  # node 0 stays put
        return evaluate(rot @ so3_exp(step[:, :3]), trans + step[:, 3:])

    lam = 1e-6
    (rot, trans, err, err_rot, r), cost = evaluate(rot, trans)
    for _ in range(cfg.max_inner_iterations):
        jac = np.zeros((6 * m, 6 * (n - 1)))
        for node, col, block in zip(edges[:2], cols, _edge_jacobians(rot, edges, err, err_rot)):
            sel = node > 0
            jac[rows[sel], col[sel]] = sqrt_w[sel, None, None] * block[sel]
        new, cost_new, lam = damped_step(jac.T @ jac, jac.T @ r, lam, cost, trial, 8)
        if new is None:
            break
        rel_decrease = (cost - cost_new) / max(cost, 1e-30)
        (rot, trans, err, err_rot, r), cost = new, cost_new
        if rel_decrease < 1e-10:
            break
    return rot, trans, cost


def _update_switches(graph, rot, trans, cfg) -> dict:
    # closed-form minimizer of s * w * ||r||^2 + mu * (sqrt(s) - 1)^2; the
    # weight is the raw correspondence count, which sets the scale mu = 100
    # is calibrated against
    mu = cfg.line_process_mu
    err, _ = _edge_errors(rot, trans, _edge_arrays(graph))
    switches = {}
    for e, row in zip(graph.edges, err):
        if e.uncertain:
            u = mu / (max(e.information_weight, 1.0) * float(row @ row) + mu)
            switches[(e.i, e.j)] = u * u
    return switches


def _certain_connected(graph: PoseGraph) -> bool:
    adj = {i: set() for i in range(graph.num_nodes)}
    for e in graph.edges:
        if not e.uncertain:
            adj[e.i].add(e.j)
            adj[e.j].add(e.i)
    seen = {0}
    stack = [0]
    while stack:
        for n in adj[stack.pop()]:
            if n not in seen:
                seen.add(n)
                stack.append(n)
    return len(seen) == graph.num_nodes


def optimize_graph(graph: PoseGraph, cfg: GraphConfig | None = None) -> GraphSolution:
    """Robust pose graph optimization with line-process switches on
    uncertain edges; after convergence, uncertain edges with switch values
    below the prune threshold are dropped and the survivors re-solved."""
    cfg = cfg or GraphConfig()
    if not _certain_connected(graph):
        raise ValueError("graph is not connected via certain edges")

    def robust_solve(g: PoseGraph, rot, trans):
        # seed switches from the initial trajectory (closed form given poses)
        # so edges wildly inconsistent with the init start down-weighted
        switches = _update_switches(g, rot, trans, cfg)
        cost = np.inf
        for _ in range(cfg.max_outer_iterations):
            rot, trans, new_cost = _solve_poses(g, rot, trans, switches, cfg)
            switches = _update_switches(g, rot, trans, cfg)
            if abs(cost - new_cost) < 1e-12 * max(cost, 1.0):
                cost = new_cost
                break
            cost = new_cost
        return rot, trans, switches

    init = _chain_odometry(graph)
    rot, trans = np.array([p.rotation for p in init]), np.array([p.translation for p in init])
    rot, trans, switches = robust_solve(graph, rot, trans)

    pruned = [
        (e.i, e.j)
        for e in graph.edges
        if e.uncertain and switches.get((e.i, e.j), 1.0) < cfg.edge_prune_threshold
    ]
    if pruned:
        survivors = PoseGraph(
            graph.num_nodes, [e for e in graph.edges if (e.i, e.j) not in set(pruned)]
        )
        rot, trans, switches = robust_solve(survivors, rot, trans)
    poses = [RigidPose(euler_from_rotation(r), t) for r, t in zip(rot, trans)]
    return GraphSolution(poses, switches, pruned)


def _pair_frameset(fs: FrameSet, i: int, j: int) -> FrameSet:
    frames = [Frame(0, fs.frames[i].intrinsics, fs.frames[i].timestamp),
              Frame(1, fs.frames[j].intrinsics, fs.frames[j].timestamp)]
    matches = []
    for km in fs.keypoint_matches:
        if {km.frame_i, km.frame_j} == {i, j}:
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


@dataclass
class SequenceResult:
    trajectory: Trajectory
    graph: PoseGraph
    solution: GraphSolution
    pair_results: dict
    diagnostics: dict = field(default_factory=dict)


def candidate_loop_pairs(num_frames: int, max_all_pairs: int = 60) -> list[tuple[int, int]]:
    """All non-consecutive pairs for short sequences, stride-subsampled
    beyond max_all_pairs frames."""
    stride = 1 if num_frames <= max_all_pairs else int(np.ceil(num_frames / max_all_pairs))
    pairs = []
    for i in range(0, num_frames, stride):
        for j in range(i + 2, num_frames, stride):
            pairs.append((i, j))
    return pairs


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
    match threshold), then robust graph optimization."""
    if fs.num_frames < 2:
        raise ValueError("need at least 2 frames")
    mcfg = mcfg or MatchConfig()
    scfg = scfg or SolverConfig()
    gcfg = gcfg or GraphConfig()

    odo_pairs = [(i, i + 1) for i in range(fs.num_frames - 1)]
    loop_pairs = candidate_loop_pairs(fs.num_frames)

    loop_mcfg = replace(mcfg, embed_threshold=mcfg.sequence_loop_threshold)
    # fit every observation once, before the pair copies share it; worker
    # threads then only read the cached fits
    for o in fs.observations:
        o.noc_fit

    def solve_one(pair):
        i, j = pair
        sub = _pair_frameset(fs, i, j)
        if j == i + 1:
            return pair, register_pair(
                sub, mcfg, scfg, icp=icp, keypoint_filter=default_keypoint_filter(0.30)
            )
        return pair, register_pair(
            sub,
            loop_mcfg,
            scfg,
            icp=icp,
            keypoint_filter=default_keypoint_filter(0.15),
        )

    all_pairs = odo_pairs + loop_pairs
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = dict(pool.map(solve_one, all_pairs))
    else:
        results = dict(map(solve_one, all_pairs))

    failed_odo = [p for p in odo_pairs if not results[p].success]
    if failed_odo:
        raise ValueError(
            "odometry registration failed for pairs "
            + ", ".join(f"{p}: {results[p].reason}" for p in failed_odo)
        )

    graph = build_graph(results, fs.num_frames, gcfg)
    solution = optimize_graph(graph, gcfg)
    timestamps = np.array(
        [f.timestamp if f.timestamp is not None else float(f.index) for f in fs.frames]
    )
    traj = Trajectory(timestamps, solution.poses)
    diag = {
        "num_edges": len(graph.edges),
        "num_loop_edges": sum(1 for e in graph.edges if e.kind == "loop_closure"),
        "pruned_edges": solution.pruned,
        "failed_pairs": {p: r.reason for p, r in results.items() if not r.success},
    }
    return SequenceResult(traj, graph, solution, results, diag)
