"""Reference computations and scenes the tests check the package against.
The package itself does not use them: the closed-form Kabsch alignment of
one point set, the object transform of canonical points, the distance of two
embeddings, the joint solver's normal equations against finite differences,
its reports built one problem at a time, the ICP polish accepting pair by
pair, dense forms of the pose graph's band-stored normal equations, the pose
graph step's kernels in their first, plainer forms (which the package's must
match bit for bit), the robust pose graph solve as alternating loops on
those kernels, acceptance criterion 08's ring graphs, and the pair path's
kernels (Kabsch filter, ICP, the joint solver's lockstep Gauss-Newton) in
their first forms, which the package's must also match bit for bit, and the
problem writer's array field rounded one value at a time."""

import math

import numpy as np

from objreg import joint_solver, procrustes
from objreg.geometry import (
    ObjectPose,
    RigidPose,
    _frozen,
    _norms,
    _pose_builders,
    _squares,
    apply_rigid,
    compose,
    invert,
    rotation_angle,
    so3_exp,
)
from objreg.joint_solver import (
    _GAUGE,
    BlockStat,
    RegistrationProblem,
    SolveReport,
    UnsolvableProblemError,
    _normal_equations,
    _Poses,
    _prune,
    _residual,
    _solve_each,
    _Stack,
    _weighted_blocks,
)
from objreg.metrics import pose_error
from objreg.observations import _fmt
from objreg.posegraph import (
    GraphConfig,
    GraphEdge,
    GraphSolution,
    PoseGraph,
    _chain_odometry,
    _check_graph,
    _EdgeTable,
    damped_step,
)
from objreg.procrustes import (
    _COLLINEAR,
    _TINY,
    AlignmentResult,
    DegenerateAlignmentError,
    _rank_deficient,
    _too_few,
)


def kabsch_solve(source, target) -> AlignmentResult:
    """Least-squares rigid alignment of paired point sets (source onto target).

    Raises DegenerateAlignmentError for < 3 pairs or (near-)collinear
    configurations where the rotation is not unique.
    """
    source = np.asarray(source, dtype=float).reshape(-1, 3)
    target = np.asarray(target, dtype=float).reshape(-1, 3)
    if len(source) != len(target):
        raise ValueError("source/target length mismatch")
    if len(source) < 3:
        raise DegenerateAlignmentError(f"need >= 3 pairs, got {len(source)}")
    # the unweighted closed form: centre both sets on their means, then the
    # SVD of the cross-covariance with a reflection turned into a rotation
    n = float(len(source))
    mu_s = source.sum(axis=0) / n
    mu_t = target.sum(axis=0) / n
    u, svals, vt = np.linalg.svd((target - mu_t).T @ (source - mu_s))
    u[:, 2] *= np.sign(np.linalg.det(u @ vt))  # u @ diag(1, 1, d)
    rot = u @ vt
    t = mu_t - (rot @ mu_s[:, None])[:, 0]
    if _rank_deficient(svals):
        raise DegenerateAlignmentError(_COLLINEAR)
    pose = RigidPose.from_rotation(rot, t)
    res = apply_rigid(pose, source) - target
    rms = float(np.sqrt(np.mean(np.sum(res**2, axis=1))))
    return AlignmentResult(pose, rms, np.ones(len(source), dtype=bool))


def apply_object(p: ObjectPose, noc: np.ndarray) -> np.ndarray:
    """Apply R (x * s) + t to an (N, 3) array of canonical points."""
    noc = np.asarray(noc, dtype=float).reshape(-1, 3)
    return (noc * p.scale) @ p.rotation.T + p.translation


def embedding_distance(a, b) -> float:
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.shape != b.shape:
        raise ValueError(f"embedding length mismatch: {len(a)} vs {len(b)}")
    return float(np.linalg.norm(a - b))


def numeric_jacobian_check(problem: RegistrationProblem) -> float:
    """The solver's normal equations against finite differences at the
    problem's initial state, after the solver's first prune there (at
    ``problem.config.residual_prune``): ``J^T W J`` and ``J^T W r`` of
    :func:`_normal_equations` against those of a central-difference
    Jacobian (step 1e-6) of the weighted residuals of the active rows,
    perturbed through the solver's retraction. Returns the largest error,
    entry (p, q) of J^T W J relative to ``sqrt(H_pp H_qq)`` and entry p of
    J^T W r to ``sqrt(H_pp) |r|``, the bounds Cauchy-Schwarz puts on them."""
    h = 1e-6
    problem = _weighted_blocks(problem)
    stack = _Stack([problem])
    poses = _Poses.initial([problem])
    d = _residual(stack, poses)
    _prune(stack, _squares(d))
    hess, grad = (x[0] for x in _normal_equations(stack, poses, d))
    weight = np.sqrt(stack.a[0, stack.active[0]])[:, None]

    def residual(delta):
        return (weight * _residual(stack, poses.retract(delta[None]))[0, stack.active[0]]).ravel()

    size = len(grad)
    jac = np.empty((3 * int(stack.active.sum()), size))
    for p in range(size):
        step = np.zeros(size)
        step[p] = h
        jac[:, p] = (residual(step) - residual(-step)) / (2 * h)
    r = residual(np.zeros(size))
    hess_num, grad_num = jac.T @ jac, jac.T @ r
    scale = np.sqrt(np.maximum(hess.diagonal(), hess_num.diagonal()))
    errors = []
    for err, bound in (
        (np.abs(hess - hess_num), np.outer(scale, scale)),
        (np.abs(grad - grad_num), scale * np.linalg.norm(r)),
    ):
        errors.append(np.divide(err, bound, out=np.zeros_like(err), where=bound > 0))
    return float(max(e.max() for e in errors))


def report(problem, stack: _Stack, poses: _Poses, sq, j, iterations, cost, pruned) -> SolveReport:
    """Problem ``j`` of the stack's report, built alone, each pose by its
    checked constructor from its own copy; ``sq`` holds the |d|^2 of its
    final rows."""
    norms = np.sqrt(sq[j])
    active = stack.active[j]
    # a block's rows: the keypoint pairs have alpha = -1, object b's slot_b = 1
    blocks = []
    if problem.keypoints is not None:
        blocks.append(("keypoint", problem.keypoints, stack.features[j, :, 0] < 0))
    blocks += [
        ("object", blk, stack.features[j, :, 4 + 4 * b] > 0)
        for b, blk in enumerate(problem.object_blocks)
    ]
    stats = []
    for kind, blk, rows in blocks:
        mask = active & rows
        if kind == "keypoint":
            stats.append(BlockStat(kind, None, int(mask.sum()), len(blk), rms(norms[mask])))
        else:
            stats.append(BlockStat(kind, blk.track_id, int(mask.sum()), blk.total_pairs(),
                                   rms(norms[mask])))
    rot, trans, scale = poses.rot[j], poses.trans[j].copy(), poses.scale[j].copy()
    cameras = [_GAUGE, RigidPose.from_rotation(rot[0], trans[0])]
    objects = [
        ObjectPose.from_rotation(rot[b + 1], trans[b + 1], scale[b])
        for b in range(len(problem.object_blocks))
    ]
    track_ids = [b.track_id for b in problem.object_blocks]
    return SolveReport(cameras, objects, track_ids, int(iterations), float(cost), int(pruned), stats)


def rms(norms) -> float:
    """Root mean square of a block's residual norms, in row order; 0.0 for
    none."""
    if not len(norms):
        return 0.0
    return float(np.sqrt((norms * norms).sum() / len(norms)))


def icp_polish(index, pairs, reports, scfg) -> None:
    """``joint_solver.icp_polish`` accepting pair by pair, each correction
    measured by ``metrics.pose_error``."""
    sets = []
    for (i, j), rep in zip(pairs, reports):
        src, tgt = index.frame_points(j, (i, j)), index.frame_points(i, (i, j))
        if len(src) and len(tgt):
            sets.append((src, tgt, rep))
    results = joint_solver.icp_refine_sets(
        [s for s, _, _ in sets], [t for _, t, _ in sets],
        [r.camera_poses[1] for _, _, r in sets], scfg.residual_prune,
    )
    for (_, _, rep), res in zip(sets, results):
        if res.converged:
            drot, dtrans = pose_error(res.pose, rep.camera_poses[1])
            if dtrans <= scfg.residual_prune and drot <= 10.0:
                rep.camera_poses[1] = res.pose


def lower_band(dense, band):
    """Lower band storage ``(band + 1, size)`` of a symmetric matrix: entry
    (r, c), r >= c, at ``[r - c, c]``; the unused tail of each row zero."""
    size = len(dense)
    ab = np.zeros((band + 1, size))
    for d in range(band + 1):
        ab[d, : size - d] = dense.diagonal(-d)
    return ab


def dense_from_band(ab):
    """The symmetric matrix whose lower band storage is ``ab``."""
    size = ab.shape[1]
    lower = np.zeros((size, size))
    for d in range(ab.shape[0]):
        lower += np.diag(ab[d, : size - d], -d)
    return lower + np.tril(lower, -1).T


def node_coordinates(table):
    """For each unknown of a pose graph ``_EdgeTable``'s band order, its
    index in node order: node k's (phi, dt) at ``6 (k - 1) .. 6 (k - 1) + 5``."""
    return (6 * (table.order[:, None] - 1) + np.arange(6)).ravel()


def node_order_system(ab, g, table):
    """Band-stored ``(J^T W J, J^T W e)`` in a table's band order, as a dense
    matrix and a vector in node order."""
    coords = node_coordinates(table)
    h = np.zeros((table.size, table.size))
    h[np.ix_(coords, coords)] = dense_from_band(ab)
    g_nodes = np.zeros(table.size)
    g_nodes[coords] = g
    return h, g_nodes


# The pose graph step's kernels as first written: every Taylor ``where``
# taken, one gather per operand, the Jacobian as two (E, 6, 6) halves, and
# two scatters into the band. The package's leaner kernels must give the
# same bytes.


def ref_skew(v):
    """[v]x by ``np.cross``, whose signed zeros ``geometry.skew`` keeps."""
    v = np.asarray(v, dtype=float)
    return np.cross(np.eye(3), v[..., None, :])


def ref_so3_exp(phi):
    phi = np.asarray(phi, dtype=float)
    t2 = np.add.reduce(phi * phi, axis=-1)[..., None, None]
    small = t2 < 1e-8
    t = np.sqrt(np.where(small, 1.0, t2))
    a = np.where(small, 1.0 - t2 / 6.0, np.sin(t) / t)
    half = np.sin(0.5 * t) / t
    b = np.where(small, 0.5 - t2 / 24.0, 2.0 * half * half)
    k = ref_skew(phi)
    return np.eye(3) + a * k + b * (k @ k)


_MARKLEY = np.array([[0, 3, 4, 6], [3, 1, 5, 7], [4, 5, 2, 8], [6, 7, 8, 9]])


def ref_so3_log(rot):
    rot = np.asarray(rot, dtype=float)
    m = rot.reshape(-1, 9)
    diag = m[:, ::4]
    trace = diag.sum(axis=1, keepdims=True)
    entries = np.concatenate(
        [
            1.0 - trace + 2.0 * diag,
            m[:, [1, 2, 5]] + m[:, [3, 6, 7]],
            m[:, [7, 2, 3]] - m[:, [5, 6, 1]],
            1.0 + trace,
        ],
        axis=1,
    )
    choice = np.concatenate([diag, trace], axis=1).argmax(axis=1)
    quat = np.take_along_axis(entries, _MARKLEY[choice], axis=1)
    norm = np.sqrt(np.add.reduce(quat * quat, axis=1, keepdims=True))
    quat /= np.where(quat[:, 3:] < 0, -norm, norm)
    xyz = quat[:, :3]
    angle = 2.0 * np.arctan2(np.sqrt(np.add.reduce(xyz * xyz, axis=1)), quat[:, 3])
    small = angle <= 1e-3
    a2 = angle * angle
    series = 2.0 + a2 / 12.0 + 7.0 * a2 * a2 / 2880.0
    scale = np.where(small, series, angle / np.sin(np.where(small, 1.0, angle / 2.0)))
    return (scale[:, None] * xyz).reshape(rot.shape[:-2] + (3,))


def ref_edge_errors(rot, trans, table):
    """``(err, err_rot, rj_t, rel_rot)`` as ``posegraph._edge_errors`` returns them."""
    ii, jj = table.ii, table.jj
    rj_t = np.swapaxes(rot[jj], 1, 2)
    rel_rot = rj_t @ rot[ii]
    err_rot = rel_rot @ table.d_rot
    moved = (rot[ii] @ table.d_trans[:, :, None])[:, :, 0] + trans[ii] - trans[jj]
    err_trans = (rj_t @ moved[:, :, None])[:, :, 0]
    return np.hstack([ref_so3_log(err_rot), err_trans]), err_rot, rj_t, rel_rot


def ref_edge_jacobians(table, err, err_rot, rj_t, rel_rot):
    """The (E, 6, 6) halves (node i, node j) of ``posegraph._edge_jacobians``."""
    rho, tau = err[:, :3], err[:, 3:]
    theta = np.linalg.norm(rho, axis=1)
    big = np.where(theta < 1e-4, 1.0, theta)
    c = np.where(theta < 1e-4, 1 / 12, 1 / big**2 - np.cos(big / 2) / (2 * big * np.sin(big / 2)))
    k = ref_skew(rho)
    jr_inv = np.eye(3) + 0.5 * k + c[:, None, None] * (k @ k)
    jac_i, jac_j = np.zeros((2, len(err), 6, 6))
    jac_i[:, :3, :3] = jr_inv @ table.d_rot_t
    jac_j[:, :3, :3] = -jr_inv @ np.swapaxes(err_rot, 1, 2)
    jac_i[:, 3:, :3] = -(rel_rot @ table.d_skew)
    jac_j[:, 3:, :3] = ref_skew(tau)
    jac_i[:, 3:, 3:] = rj_t
    jac_j[:, 3:, 3:] = -rj_t
    return jac_i, jac_j


def band_indices(table):
    """Where each edge's (12, 12) J^T W J and (12,) J^T W e entries go in the
    raveled band storage and gradient of a table's system: entries above the
    diagonal and on node 0 to one bin past the end of each."""
    size, band = table.size, table.band
    pos = np.zeros(size // 6 + 1, dtype=int)
    pos[table.order] = np.arange(len(table.order))
    node = np.repeat(np.stack([table.ii, table.jj], axis=1), 6, axis=1)
    coord = 6 * pos[node] + np.tile(np.arange(6), 2)
    gauge = node == 0
    below = coord[:, :, None] - coord[:, None, :]
    h_index = below * size + coord[:, None, :]
    h_index[(below < 0) | gauge[:, :, None] | gauge[:, None, :]] = (band + 1) * size
    return h_index.ravel(), np.where(gauge, size, coord).ravel()


def ref_normal_equations(jac_i, jac_j, err, w, table):
    """``posegraph._normal_equations`` from the Jacobian's two halves."""
    size, rows = table.size, table.band + 1
    h_index, g_index = band_indices(table)
    jac = np.concatenate([jac_i, jac_j], axis=2)
    jac_tw = np.swapaxes(jac, 1, 2) * w[:, None, None]
    h = np.bincount(h_index, (jac_tw @ jac).ravel(), rows * size + 1)[:-1]
    g = np.bincount(g_index, (jac_tw @ err[:, :, None]).ravel(), size + 1)[:-1]
    return h.reshape(rows, size), g


def chained_poses(graph):
    """``posegraph._chain_odometry``'s node poses as ``RigidPose`` objects."""
    return [RigidPose.from_rotation(r, t) for r, t in zip(*_chain_odometry(graph))]


def ref_chain_odometry(graph):
    """The odometry edges composed from node 0, one ``RigidPose`` per node."""
    poses = [RigidPose.identity() for _ in range(graph.num_nodes)]
    odo = {(e.i, e.j): e for e in graph.edges if e.kind == "odometry"}
    for i in range(graph.num_nodes - 1):
        poses[i + 1] = compose(poses[i], odo[(i, i + 1)].relative_pose)
    return poses


# the alternating solve's limits: up to MAX_OUTER_ITERATIONS rounds of
# {solve the poses with the switches fixed, update the switches}, each pose
# solve taking up to MAX_INNER_ITERATIONS damped Gauss-Newton steps
MAX_OUTER_ITERATIONS = 15
MAX_INNER_ITERATIONS = 10


def update_switches(table, err, cfg) -> np.ndarray:
    """Per-edge line-process values at edge errors ``err``, one uncertain
    edge at a time: 1.0 on certain edges; on uncertain ones the minimizer of
    s w |r|^2 + mu (sqrt(s) - 1)^2, w the raw weight."""
    mu = cfg.line_process_mu
    switches = np.ones(len(err))
    for k in np.flatnonzero(table.uncertain):
        u = mu / (table.weight[k] * float(err[k] @ err[k]) + mu)
        switches[k] = u * u
    return switches


def solve_poses(table, rot, trans, edge, switches):
    """Damped GN over node poses with fixed per-edge ``switches``; node 0
    pinned, each solve starting from lam = 1e-6 and stopping once a step
    lowers the cost by a relative 1e-10 or less. ``edge`` is what
    ``ref_edge_errors`` returns at ``(rot, trans)``. Returns the final
    poses, their cost and their ``edge``."""
    if not len(table.weight):  # a lone node, pinned
        return rot, trans, 0.0, edge
    w = table.weight / table.weight.mean() * switches
    sqrt_w = np.sqrt(w)

    def cost_of(err):
        r = (sqrt_w[:, None] * err).ravel()
        return float(r @ r)

    def trial(delta):
        step = np.zeros((len(rot), 6))  # node 0 stays put
        step[table.order] = delta.reshape(-1, 6)
        rot_new, trans_new = rot @ ref_so3_exp(step[:, :3]), trans + step[:, 3:]
        edge_new = ref_edge_errors(rot_new, trans_new, table)
        return (rot_new, trans_new, edge_new), cost_of(edge_new[0])

    lam = 1e-6
    cost = cost_of(edge[0])
    for _ in range(MAX_INNER_ITERATIONS):
        h, g = ref_normal_equations(*ref_edge_jacobians(table, *edge), edge[0], w, table)
        new, cost_new, lam = damped_step(h, g, lam, cost, trial, 8)
        if new is None:
            break
        rel_decrease = (cost - cost_new) / max(cost, 1e-30)
        (rot, trans, edge), cost = new, cost_new
        if rel_decrease < 1e-10:
            break
    return rot, trans, cost, edge


def alternating_optimize_graph(graph: PoseGraph, cfg: GraphConfig | None = None) -> GraphSolution:
    """``optimize_graph`` as the line process of Choi, Zhou and Koltun (CVPR
    2015) states it: solve the poses to convergence with the switches fixed,
    update the switches, repeat until the cost stops changing; then prune
    and re-solve the same way. It runs on the ``ref_`` kernels above."""
    cfg = cfg or GraphConfig()
    _check_graph(graph)

    def robust_solve(g: PoseGraph, rot, trans):
        table = _EdgeTable(g)
        edge = ref_edge_errors(rot, trans, table)
        switches = update_switches(table, edge[0], cfg)
        cost = np.inf
        for _ in range(MAX_OUTER_ITERATIONS):
            rot, trans, new_cost, edge = solve_poses(table, rot, trans, edge, switches)
            switches = update_switches(table, edge[0], cfg)
            if abs(cost - new_cost) < 1e-12 * max(cost, 1.0):
                break
            cost = new_cost
        return rot, trans, switches, table

    init = ref_chain_odometry(graph)
    rot, trans = np.array([p.rotation for p in init]), np.array([p.translation for p in init])
    rot, trans, switches, table = robust_solve(graph, rot, trans)

    keep = ~(table.uncertain & (switches < cfg.edge_prune_threshold))
    pruned = [(e.i, e.j) for e, kept in zip(graph.edges, keep) if not kept]
    if pruned:
        graph = PoseGraph(graph.num_nodes, [e for e, kept in zip(graph.edges, keep) if kept])
        rot, trans, switches, _ = robust_solve(graph, rot, trans)
    final = {(e.i, e.j): float(s) for e, s in zip(graph.edges, switches) if e.uncertain}
    return GraphSolution(_frozen(rot), _frozen(trans), final, pruned)


def ring_graph(rng, n=30, sigma_t=0.01, sigma_r=np.deg2rad(0.5), weight=1000.0):
    """Acceptance criterion 08's ring: noisy odometry around a 2 m circle and
    three exact, uncertain loop closures; returns the graph and the ground
    truth poses."""
    gt = []
    for k in range(n):
        a = 2 * np.pi * k / n
        gt.append(RigidPose(np.array([0.0, 0.0, a]),
                            np.array([2.0 * np.cos(a), 2.0 * np.sin(a), 0.0])))
    t0 = invert(gt[0])
    gt = [compose(t0, p) for p in gt]
    edges = []
    for i in range(n - 1):
        rel = compose(invert(gt[i]), gt[i + 1])
        noisy = RigidPose(rel.angles + rng.normal(0, sigma_r, 3),
                          rel.translation + rng.normal(0, sigma_t, 3))
        edges.append(GraphEdge(i, i + 1, noisy, weight, False, "odometry"))
    for i, j in ((0, 15), (7, 22), (2, 28)):
        rel = compose(invert(gt[i]), gt[j])
        edges.append(GraphEdge(i, j, rel, weight, True, "loop_closure"))
    return PoseGraph(n, edges), gt


def with_false_closure(graph, gt):
    """``graph`` plus criterion 08's planted (4, 19) loop closure, 1 m off."""
    false_rel = compose(
        compose(invert(gt[4]), gt[19]),
        RigidPose(np.zeros(3), np.array([1.0, 0.0, 0.0])),
    )
    bad = GraphEdge(4, 19, false_rel, 1000.0, True, "loop_closure")
    return PoseGraph(graph.num_nodes, graph.edges + [bad])


# The pair path's kernels as first written: each set padded on its own into a
# (K, N, 3) stack, unit weights multiplied in, gathers and scatters of the
# problems or sets that take part even when all do, the row norms recomputed
# wherever they are read, and each constant built per call. The package's
# leaner kernels must give the same bytes.


def ref_kabsch(source, target, weights=None):
    """``procrustes._kabsch``: weights (..., N), all ones when None."""
    w = np.ones(source.shape[:-1]) if weights is None else np.asarray(weights, dtype=float)
    wsum = np.maximum(w.sum(axis=-1), _TINY)[..., None]
    w = w[..., None]
    mu_s = (w * source).sum(axis=-2) / wsum
    mu_t = (w * target).sum(axis=-2) / wsum
    cov = np.swapaxes(w * (target - mu_t[..., None, :]), -1, -2) @ (source - mu_s[..., None, :])
    u, s, vt = np.linalg.svd(cov)
    u[..., 2] *= np.sign(np.linalg.det(u @ vt))[..., None]
    rot = u @ vt
    t = mu_t - (rot @ mu_s[..., None])[..., 0]
    return rot, t, s


def ref_padded(sets):
    """(N_k, 3) sets as a zero-padded (K, N, 3) stack and its (K, N) row mask."""
    sizes = np.array([len(s) for s in sets])
    rows = np.arange(sizes.max()) < sizes[:, None]
    stack = np.zeros(rows.shape + (3,))
    for k, s in enumerate(sets):
        stack[k, : len(s)] = s
    return stack, rows


def ref_kabsch_filter_sets(sources, targets, cfg):
    """``procrustes.kabsch_filter_sets``."""
    sources = [np.asarray(s, dtype=float).reshape(-1, 3) for s in sources]
    targets = [np.asarray(t, dtype=float).reshape(-1, 3) for t in targets]
    sizes = [len(s) for s in sources]
    if not sizes:
        return []
    num = len(sizes)
    src, inliers = ref_padded(sources)
    tgt, _ = ref_padded(targets)
    count = np.array(sizes)
    out = [None] * num
    live = np.ones(num, dtype=bool)
    for _ in range(procrustes.FILTER_MAX_ROUNDS):
        rot, trans, svals = ref_kabsch(src, tgt, inliers)
        short = count < cfg.min_pairs
        failed = live & (short | _rank_deficient(svals))
        if failed.any():
            for k in np.flatnonzero(failed):
                out[k] = _too_few(count[k], cfg) if short[k] else DegenerateAlignmentError(_COLLINEAR)
            live &= ~failed
        res = np.linalg.norm(src @ np.swapaxes(rot, -1, -2) + trans[:, None] - tgt, axis=-1)
        inliers &= res <= cfg.distance_threshold
        kept = inliers.sum(axis=1)
        live &= kept < count
        count = kept
        if not live.any():
            break
    for k in np.flatnonzero(live & (count < cfg.min_pairs)):
        out[k] = _too_few(count[k], cfg)
    fitted = [k for k in range(num) if out[k] is None]
    rigid, _ = _pose_builders(rot[fitted], trans[fitted])
    for k in fitted:
        flags = inliers[k, : sizes[k]].copy()
        sq = res[k, : sizes[k]][flags] ** 2
        rms = math.sqrt(sq.sum() / len(sq))
        out[k] = AlignmentResult(rigid(rot[k], trans[k]), rms, flags)
    return out


def ref_icp_refine_sets(sources, targets, inits, max_corr_dist):
    """``procrustes.icp_refine_sets``."""
    from scipy.spatial import cKDTree

    sources = [np.asarray(s, dtype=float).reshape(-1, 3) for s in sources]
    targets = [np.asarray(t, dtype=float).reshape(-1, 3) for t in targets]
    num = len(sources)
    trees = [cKDTree(t) for t in targets]
    inits = [init or RigidPose.identity() for init in inits]
    rot = np.array([p.rotation for p in inits])
    trans = np.array([p.translation for p in inits])
    best_rot, best_trans = rot.copy(), trans.copy()
    best_rms = [math.inf] * num
    flags = [np.zeros(len(s), dtype=bool) for s in sources]
    history = [[] for _ in range(num)]
    unmatched = [False] * num
    live = list(range(num))
    for _ in range(procrustes.ICP_MAX_ITERATIONS):
        stepping, src, tgt = [], [], []
        for k in live:
            moved = sources[k] @ rot[k].T + trans[k]
            dist, idx = trees[k].query(moved, distance_upper_bound=max_corr_dist)
            matched = np.isfinite(dist)
            count = np.count_nonzero(matched)
            if count < 3:
                unmatched[k] = best_rms[k] == math.inf
                continue
            rms = math.sqrt((dist[matched] ** 2).sum() / count)
            if rms > best_rms[k] - 1e-12:
                continue
            history[k].append(rms)
            best_rms[k], flags[k] = rms, matched
            stepping.append(k)
            src.append(moved[matched])
            tgt.append(targets[k][idx[matched]])
        if not stepping:
            break
        (src, weights), (tgt, _) = ref_padded(src), ref_padded(tgt)
        upd_rot, upd_trans, svals = ref_kabsch(src, tgt, weights)
        best_rot[stepping], best_trans[stepping] = rot[stepping], trans[stepping]
        rot[stepping] = upd_rot @ rot[stepping]
        trans[stepping] = (upd_rot @ trans[stepping][..., None])[..., 0] + upd_trans
        degenerate = _rank_deficient(svals)
        done = rotation_angle(upd_rot) + _norms(upd_trans) < 1e-6
        tiny = np.array(stepping)[done & ~degenerate]
        best_rot[tiny], best_trans[tiny] = rot[tiny], trans[tiny]
        live = [k for k, stop in zip(stepping, done | degenerate) if not stop]
    out = []
    rigid, _ = _pose_builders(best_rot, best_trans)
    for k in range(num):
        pose = rigid(best_rot[k].copy(), best_trans[k].copy())
        if unmatched[k]:
            out.append(AlignmentResult(pose, np.inf, flags[k], converged=False))
        else:
            out.append(AlignmentResult(pose, best_rms[k], flags[k], rms_history=history[k]))
    return out


class RefStack:
    """``joint_solver._Stack``'s fields: features, fixed, segment, active,
    a, floor, first, threshold, pad (zeros when no slot is padded) and
    moments."""

    def __init__(self, problems):
        num = len(problems)
        slots = max(len(p.object_blocks) for p in problems)
        rows = max(
            len(p.keypoints or ()) + sum(b.total_pairs() for b in p.object_blocks) for p in problems
        )
        self.features = np.zeros((num, rows, 4 + 4 * slots))
        self.fixed = np.zeros((num, rows, 3))
        segs, runs, self.first = [], [], []
        for k, problem in enumerate(problems):
            cfg, start = problem.config, 0
            features, fixed = self.features[k], self.fixed[k]
            self.first.append(len(segs))
            blk = problem.keypoints
            if blk is not None:
                start = len(blk)
                features[:start, 1:4], fixed[:start] = -blk.points_j, blk.points_i
                runs.append((len(segs), start))
                segs.append((-1.0, -1, cfg.w_c / start, joint_solver.MIN_KEYPOINT_PAIRS))
            for b, blk in enumerate(problem.object_blocks):
                col = 5 + 4 * b
                for alpha, noc, depth in zip((0.0, 1.0), blk.noc_points, blk.depth_points):
                    span = slice(start, start + len(noc))
                    if alpha:
                        features[span, 1:4] = depth
                    else:
                        fixed[span] = depth
                    features[span, col : col + 3] = noc
                    runs.append((len(segs), len(noc)))
                    segs.append((alpha, b, cfg.w_o / blk.total_pairs(), joint_solver.NOC_FILTER.min_pairs))
                    start = span.stop
            runs.append((-1, rows - start))
        alpha, slot, weight, floor = (np.array(c) for c in zip(*segs, (0.0, -1, 0.0, rows + 1)))
        ids, sizes = np.array(runs).T
        ids[ids < 0] = len(segs)
        self.segment = np.repeat(ids, sizes).reshape(num, rows)
        self.active = self.segment < len(segs)
        self.features[..., 0] = alpha[self.segment]
        slot = slot[self.segment]
        for b in range(slots):
            self.features[..., 4 + 4 * b] = slot == b
        self.a = weight[self.segment]
        self.floor = floor
        self.threshold = np.array([p.config.residual_prune for p in problems])
        blocks = np.array([len(p.object_blocks) for p in problems])
        self.pad = (np.arange(6 + 9 * slots) >= 6 + 9 * blocks[:, None]).astype(float)
        self.weigh()

    def weigh(self):
        self.a[~self.active] = 0.0
        self.moments = np.swapaxes(self.features * self.a[..., None], 1, 2) @ self.features


def ref_initial_poses(problems) -> _Poses:
    """``joint_solver._Poses.initial``."""
    slots = max(len(p.object_blocks) for p in problems)
    rot = np.tile(np.eye(3), (len(problems), slots + 1, 1, 1))
    trans = np.zeros((len(problems), slots + 1, 3))
    logs = np.zeros((len(problems), slots, 3))
    for k, problem in enumerate(problems):
        rot[k, 0], trans[k, 0] = problem.initial_camera.rotation, problem.initial_camera.translation
        for b, blk in enumerate(problem.object_blocks, 1):
            pose = blk.init_pose
            rot[k, b], trans[k, b], logs[k, b - 1] = pose.rotation, pose.translation, np.log(pose.scale)
    return _Poses(rot, trans, logs)


def ref_retract(poses: _Poses, delta) -> _Poses:
    """``joint_solver._Poses.retract``."""
    slots = poses.logs.shape[1]
    rigid = np.vstack([np.arange(6), 6 + 9 * np.arange(slots)[:, None] + np.arange(6)])
    stretch = 12 + 9 * np.arange(slots)[:, None] + np.arange(3)
    step = delta[:, rigid]
    return _Poses(
        poses.rot @ so3_exp(step[:, :, :3]),
        poses.trans + step[:, :, 3:],
        np.maximum(poses.logs + delta[:, stretch], joint_solver._LOG_SCALE_FLOOR),
    )


def ref_residual(stack, poses: _Poses):
    """``joint_solver._residual``."""
    num, slots = poses.logs.shape[:2]
    coef = np.empty((num, slots + 1, 4, 3))
    coef[:, :, 0] = poses.trans
    coef[:, 0, 1:] = np.swapaxes(poses.rot[:, 0], -1, -2)
    coef[:, 1:, 1:] = np.swapaxes(poses.rot[:, 1:] * poses.scale[:, :, None], -1, -2)
    coef[:, 1:] *= -1.0
    d = stack.features @ coef.reshape(num, -1, 3)
    d += stack.fixed
    return d


def ref_cost(stack, d):
    """``joint_solver._cost`` of residual rows."""
    return (_squares(d) * stack.a).sum(axis=-1)


def ref_jacobian_map(poses: _Poses):
    """``joint_solver._jacobian_map``, a fresh array."""
    num, slots = poses.logs.shape[:2]
    lin = np.repeat(joint_solver._constant_map(slots)[None], num, axis=0)
    turn = (poses.rot @ joint_solver._SKEW_BASIS).reshape(num, slots + 1, 3, 3, 3)
    turn[:, 0] *= -1.0
    turn[:, 1:] *= poses.scale[:, :, None, :, None]
    turn = turn.transpose(0, 1, 4, 2, 3)
    stretch = np.swapaxes(poses.rot[:, 1:] * poses.scale[:, :, None, :], -1, -2)
    stretch = -stretch[..., None] * np.eye(3)[:, None, :]
    lin[:, :3, :, 1:4] = turn[:, 0]
    for b in range(slots):
        p, f = 6 + 9 * b, 4 + 4 * b
        lin[:, p : p + 3, :, f + 1 : f + 4] = turn[:, b + 1]
        lin[:, p + 6 : p + 9, :, f + 1 : f + 4] = stretch[:, b]
    return lin


def ref_pair_normal_equations(stack, poses: _Poses, d):
    """``joint_solver._normal_equations``."""
    lin = ref_jacobian_map(poses)
    num, size, _, width = lin.shape
    flat = lin.reshape(num, size, 3 * width)
    hess = (lin.reshape(num, 3 * size, width) @ stack.moments).reshape(num, size, -1)
    hess = hess @ np.swapaxes(flat, 1, 2)
    grad = flat @ (np.swapaxes(d * stack.a[..., None], 1, 2) @ stack.features).reshape(num, -1, 1)
    hess.reshape(num, -1)[:, :: size + 1] += stack.pad
    return hess, grad[..., 0]


def ref_prune(stack, d):
    """``joint_solver._prune`` of residual rows."""
    over = stack.active & (np.sqrt(_squares(d)) > stack.threshold[:, None])
    if not over.any():
        return np.zeros(len(d), dtype=int)
    bins = len(stack.floor)
    bad = np.bincount(stack.segment[over], minlength=bins)
    kept = np.bincount(stack.segment[stack.active], minlength=bins) - bad
    drop = over & ((bad > 0) & (kept >= stack.floor))[stack.segment]
    stack.active &= ~drop
    stack.weigh()
    return drop.sum(axis=1)


def ref_damped_steps(stack, poses: _Poses, d, hess, grad, lam, cost, search):
    """``joint_solver._damped_steps``: (accepted, poses, d, cost)."""
    accepted = np.zeros(len(cost), dtype=bool)
    eye = np.eye(hess.shape[1])
    for _ in range(joint_solver.DAMPING_TRIES):
        if not len(search):
            break
        step, ok = _solve_each(hess[search] + lam[search, None, None] * eye, -grad[search])
        delta = np.zeros(grad.shape)
        delta[search] = step
        with np.errstate(over="ignore", invalid="ignore"):
            trial = ref_retract(poses, delta)
            rows = ref_residual(stack, trial)
            trial_cost = ref_cost(stack, rows)
        good = ok & np.isfinite(trial_cost[search]) & (trial_cost[search] <= cost[search] + joint_solver.ACCEPT_SLACK)
        lam[search] = np.where(good, np.maximum(lam[search] / 10, joint_solver.LAMBDA_FLOOR), lam[search] * 10)
        accepted[search[good]] = True
        lost = search[~good]
        if len(lost):
            trial.put(lost, poses.take(lost))
            rows[lost], trial_cost[lost] = d[lost], cost[lost]
        poses, d, cost, search = trial, rows, trial_cost, lost
    return accepted, poses, d, cost


def ref_reports(problems, stack, poses: _Poses, d, idx, iterations, cost, pruned):
    """``joint_solver._reports`` from the final residual rows ``d``."""
    rot, trans, scale = poses.rot, poses.trans, poses.scale
    rigid, placed = _pose_builders(rot, trans, scale)
    held = np.bincount(stack.segment[stack.active], minlength=len(stack.floor)).tolist()
    chosen = np.zeros(len(stack.active), dtype=bool)
    chosen[idx] = True
    norms = np.sqrt(_squares(d)[stack.active & chosen[:, None]])
    squares = norms * norms
    end = 0

    def block_rms(n):
        nonlocal end
        end += n
        return math.sqrt(float(np.add.reduce(squares[end - n : end])) / n) if n else 0.0

    out = []
    for j, final, total in zip(idx, cost[idx].tolist(), pruned[idx].tolist()):
        problem, seg, stats = problems[j], stack.first[j], []
        if problem.keypoints is not None:
            n, seg = held[seg], seg + 1
            stats.append(BlockStat("keypoint", None, n, len(problem.keypoints), block_rms(n)))
        for blk in problem.object_blocks:
            n, seg = held[seg] + held[seg + 1], seg + 2
            stats.append(BlockStat("object", blk.track_id, n, blk.total_pairs(), block_rms(n)))
        slots = range(1, len(problem.object_blocks) + 1)
        cameras = [_GAUGE, rigid(rot[j, 0].copy(), trans[j, 0].copy())]
        objects = [placed(rot[j, b].copy(), trans[j, b].copy(), scale[j, b - 1].copy()) for b in slots]
        track_ids = [blk.track_id for blk in problem.object_blocks]
        out.append(SolveReport(cameras, objects, track_ids, iterations, final, total, stats))
    return out


def ref_lockstep(problems):
    """``joint_solver._lockstep`` on the kernels above."""
    stack = RefStack(problems)
    poses = ref_initial_poses(problems)
    running = np.ones(len(problems), dtype=bool)
    lam = np.full(len(problems), joint_solver.LAMBDA_START)
    pruned = np.zeros(len(problems), dtype=int)
    d = ref_residual(stack, poses)
    cost = ref_cost(stack, d)
    reports = [None] * len(problems)
    iterations = 0
    while True:
        if iterations == joint_solver.MAX_ITERATIONS:
            stop = running
        else:
            iterations += 1
            newly = ref_prune(stack, d)
            if newly.any():
                pruned += newly
                cost = ref_cost(stack, d)
            stop = running & (cost < 1e-28)
            hess, grad = ref_pair_normal_equations(stack, poses, d)
            before = cost
            accepted, poses, d, cost = ref_damped_steps(
                stack, poses, d, hess, grad, lam, cost, np.flatnonzero(running & ~stop)
            )
            converged = before - cost <= joint_solver.CONVERGENCE_TOL * np.maximum(before, 1e-30)
            stop |= running & (~accepted | converged)
        idx = np.flatnonzero(stop)
        if len(idx):
            for j, rep in zip(idx, ref_reports(problems, stack, poses, d, idx, iterations, cost, pruned)):
                reports[j] = rep
        running = running & ~stop
        if not running.any():
            return reports
        stack.threshold[stop] = np.inf


def ref_gauss_newton_solve_batch(problems):
    """``joint_solver.gauss_newton_solve_batch`` on :func:`ref_lockstep`."""
    problems = [_weighted_blocks(p) for p in problems]
    out = [
        None if p.keypoints is not None or p.object_blocks else UnsolvableProblemError("problem has no blocks")
        for p in problems
    ]
    todo = [k for k, entry in enumerate(out) if entry is None]
    for start in range(0, len(todo), joint_solver.LOCKSTEP_GROUP):
        chunk = todo[start : start + joint_solver.LOCKSTEP_GROUP]
        for k, rep in zip(chunk, ref_lockstep([problems[k] for k in chunk])):
            out[k] = rep
    return out


def ref_icp_polish(index, pairs, reports, scfg) -> None:
    """``joint_solver.icp_polish``, every converged correction tested in one
    pass over four stacked pose arrays."""
    sets = []
    for (i, j), rep in zip(pairs, reports):
        src, tgt = index.frame_points(j, (i, j)), index.frame_points(i, (i, j))
        if len(src) and len(tgt):
            sets.append((src, tgt, rep))
    results = joint_solver.icp_refine_sets(
        [s for s, _, _ in sets], [t for _, t, _ in sets],
        [r.camera_poses[1] for _, _, r in sets], scfg.residual_prune,
    )
    done = [(rep, res.pose) for (_, _, rep), res in zip(sets, results) if res.converged]
    if not done:
        return
    after = [pose for _, pose in done]
    before = [rep.camera_poses[1] for rep, _ in done]
    rot = np.array([p.rotation for p in after]).swapaxes(1, 2) @ np.array([p.rotation for p in before])
    shift = _norms(np.array([p.translation for p in after]) - np.array([p.translation for p in before]))
    close = (shift <= scfg.residual_prune) & (np.degrees(rotation_angle(rot)) <= 10.0)
    for (rep, pose), keep in zip(done, close.tolist()):
        if keep:
            rep.camera_poses[1] = pose


def ref_hex(a: np.ndarray) -> str:
    """An array field as ``save_problem`` writes it, in its first form: the
    hex of its row-major little-endian float64 bytes, each value first
    rounded by ``_fmt`` on its own."""
    return np.array([_fmt(v) for v in a.ravel().tolist()], "<f8").tobytes().hex()
