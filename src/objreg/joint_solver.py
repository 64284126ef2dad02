"""Joint Gauss-Newton optimization of camera poses and global object poses.

The energy is w_c * E_c + w_o * E_o, where E_c sums squared distances between
world-transformed matched keypoints and E_o sums squared distances between
world-transformed depth points and object-transformed canonical points. Frame
0 is gauge-fixed to identity; object scales are optimized in log space.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import (
    ObjectPose,
    RigidPose,
    apply_object,
    apply_rigid,
    compose,
    euler_from_rotation,
    invert,
    skew,
    so3_exp,
)
from .matching import MatchConfig, ObjectTrack, PairMatch, match_pair
from .metrics import pose_error
from .observations import NOC_FILTER, FrameSet
from .procrustes import (
    DegenerateAlignmentError,
    FilterConfig,
    kabsch_filter,
    kabsch_solve,
    icp_refine,
)

__all__ = [
    "SolverConfig",
    "RegistrationProblem",
    "SolveReport",
    "PairResult",
    "UnsolvableProblemError",
    "build_problem",
    "object_residuals",
    "keypoint_residuals",
    "gauss_newton_solve",
    "numeric_jacobian_check",
    "register_pair",
]

MIN_KEYPOINT_PAIRS = 5
_LOG_SCALE_FLOOR = np.log(1e-3)


class UnsolvableProblemError(ValueError):
    """No usable constraint blocks remain after filtering."""


@dataclass
class SolverConfig:
    w_c: float = 1.0
    w_o: float = 1.0
    residual_prune: float = 0.15
    max_iterations: int = 50
    convergence_tol: float = 1e-9
    step_halvings: int = 8

    def __post_init__(self):
        if self.w_c < 0 or self.w_o < 0 or (self.w_c == 0 and self.w_o == 0):
            raise ValueError("weights must be nonnegative and not both zero")
        if self.residual_prune <= 0:
            raise ValueError("residual_prune must be positive")


@dataclass
class KeypointBlock:
    frame_i: int
    frame_j: int
    points_i: np.ndarray
    points_j: np.ndarray
    init_relative: RigidPose  # G with G p_i ~ p_j, i.e. T_j^-1 T_i

    def __len__(self):
        return len(self.points_i)


@dataclass
class ObjectBlock:
    track_id: int
    frames: list[int]
    noc_points: list[np.ndarray]  # per frame, (n, 3)
    depth_points: list[np.ndarray]
    init_pose: ObjectPose
    local_poses: list[RigidPose] = field(default_factory=list)  # per-frame Procrustes

    def total_pairs(self):
        return sum(len(p) for p in self.noc_points)


@dataclass
class RegistrationProblem:
    num_frames: int
    keypoint_blocks: list[KeypointBlock]
    object_blocks: list[ObjectBlock]
    config: SolverConfig
    initial_cameras: list[RigidPose] = field(default_factory=list)
    underconstrained_frames: list[int] = field(default_factory=list)


@dataclass
class SolveReport:
    camera_poses: list[RigidPose]
    object_poses: list[ObjectPose]
    track_ids: list[int]
    iterations: int
    final_cost: float
    pruned_count: int
    block_stats: list[dict]
    success: bool = True


@dataclass
class PairResult:
    success: bool
    reason: str | None = None
    report: SolveReport | None = None
    matches: list[PairMatch] = field(default_factory=list)


def default_keypoint_filter(threshold: float = 0.20) -> FilterConfig:
    return FilterConfig(threshold, min_pairs=MIN_KEYPOINT_PAIRS)


def build_problem(
    fs: FrameSet,
    tracks: list[ObjectTrack],
    cfg: SolverConfig | None = None,
    keypoint_filter: FilterConfig | None = None,
) -> RegistrationProblem:
    """Filter raw constraints into solver blocks and initialize variables.

    Keypoint matches are Kabsch-filtered per frame pair (dropped below 5
    survivors); each object observation contributes the inliers of its
    intra-frame ``noc_fit`` (dropped below 15 survivors); tracks observed in
    fewer than 2 surviving frames are dropped.
    """
    cfg = cfg or SolverConfig()
    keypoint_filter = keypoint_filter or default_keypoint_filter()

    kp_blocks = []
    grouped: dict[tuple[int, int], list] = {}
    for km in fs.keypoint_matches:
        i, j = km.frame_i, km.frame_j
        pi, pj = km.points_i, km.points_j
        if i > j:
            i, j, pi, pj = j, i, pj, pi
        grouped.setdefault((i, j), []).append((pi, pj))
    for (i, j), chunks in sorted(grouped.items()):
        pi = np.vstack([c[0] for c in chunks])
        pj = np.vstack([c[1] for c in chunks])
        try:
            res = kabsch_filter(pi, pj, keypoint_filter)
        except DegenerateAlignmentError:
            continue
        keep = res.inlier_flags
        if keep.sum() < MIN_KEYPOINT_PAIRS:
            continue
        kp_blocks.append(KeypointBlock(i, j, pi[keep], pj[keep], res.pose))

    obs_index = {(o.frame, o.detection_id): o for o in fs.observations}
    obj_blocks = []
    for track in tracks:
        frames, nocs, depths, local_poses, scales = [], [], [], [], []
        for frame, det in sorted(track.members):
            obs = obs_index[(frame, det)]
            fit = obs.noc_fit
            if fit is None:
                continue
            keep = fit.inlier_flags
            frames.append(frame)
            nocs.append(obs.noc_points[keep])
            depths.append(obs.depth_points[keep])
            local_poses.append(fit.pose)
            scales.append(obs.scale_estimate)
        if len(frames) < 2:
            continue
        obj_blocks.append(
            ObjectBlock(
                track.track_id,
                frames,
                nocs,
                depths,
                # global pose seeded below once camera initialization is known
                ObjectPose(local_poses[0].angles, local_poses[0].translation, scales[0]),
                local_poses,
            )
        )

    if not kp_blocks and not obj_blocks:
        raise UnsolvableProblemError("no keypoint or object blocks survive filtering")

    # chain camera initialization from frame 0: over keypoint blocks, and
    # (for frames with no keypoint path) indirectly through shared objects
    # via their per-frame local Procrustes poses
    cams = [RigidPose.identity() for _ in range(fs.num_frames)]
    known = {0}
    changed = True
    while changed:
        changed = False
        for blk in kp_blocks:
            g = blk.init_relative  # T_j^-1 T_i
            if blk.frame_i in known and blk.frame_j not in known:
                cams[blk.frame_j] = compose(cams[blk.frame_i], invert(g))
                known.add(blk.frame_j)
                changed = True
            elif blk.frame_j in known and blk.frame_i not in known:
                cams[blk.frame_i] = compose(cams[blk.frame_j], g)
                known.add(blk.frame_i)
                changed = True
        for blk in obj_blocks:
            anchored = [k for k, f in enumerate(blk.frames) if f in known]
            if not anchored:
                continue
            a = anchored[0]
            obj_world = compose(cams[blk.frames[a]], blk.local_poses[a])
            for k, f in enumerate(blk.frames):
                if f not in known:
                    cams[f] = compose(obj_world, invert(blk.local_poses[k]))
                    known.add(f)
                    changed = True

    for blk in obj_blocks:
        local = RigidPose(blk.init_pose.angles, blk.init_pose.translation)
        world = compose(cams[blk.frames[0]], local)
        blk.init_pose = ObjectPose(world.angles, world.translation, blk.init_pose.scale)

    constrained = {0}
    for blk in kp_blocks:
        constrained.update((blk.frame_i, blk.frame_j))
    for blk in obj_blocks:
        constrained.update(blk.frames)
    under = sorted(set(range(fs.num_frames)) - constrained)

    return RegistrationProblem(
        fs.num_frames, kp_blocks, obj_blocks, cfg, cams, underconstrained_frames=under
    )


def object_residuals(cameras, objects, block: ObjectBlock, active=None) -> np.ndarray:
    """Unweighted residual vectors T_c p_depth - T_o p_noc, stacked (N, 3)."""
    rows = []
    for k, frame in enumerate(block.frames):
        depth = block.depth_points[k]
        noc = block.noc_points[k]
        if active is not None:
            depth = depth[active[k]]
            noc = noc[active[k]]
        obj = objects if isinstance(objects, ObjectPose) else objects[block.track_id]
        rows.append(apply_rigid(cameras[frame], depth) - apply_object(obj, noc))
    return np.vstack(rows) if rows else np.zeros((0, 3))


def keypoint_residuals(cameras, block: KeypointBlock, active=None) -> np.ndarray:
    """Unweighted residual vectors T_i p_i - T_j p_j, stacked (N, 3)."""
    pi, pj = block.points_i, block.points_j
    if active is not None:
        pi, pj = pi[active], pj[active]
    return apply_rigid(cameras[block.frame_i], pi) - apply_rigid(cameras[block.frame_j], pj)


def damped_step(jtj, jtr, lam, cost, trial, tries):
    """Levenberg-damped Gauss-Newton step shared by both solvers: solve
    ``(J^T J + lam I) delta = -J^T r``, score ``trial(delta) -> (candidate,
    cost)``, grow lam 10x on a singular system or a cost increase. Returns
    ``(candidate, cost, lam / 10)``, or ``(None, None, lam)`` after ``tries``."""
    eye = np.eye(len(jtr))
    for _ in range(tries):
        try:
            delta = np.linalg.solve(jtj + lam * eye, -jtr)
        except np.linalg.LinAlgError:
            lam *= 10
            continue
        candidate, cost_new = trial(delta)
        if np.isfinite(cost_new) and cost_new <= cost + 1e-15:
            return candidate, cost_new, max(lam / 10, 1e-12)
        lam *= 10
    return None, None, lam


class _State:
    """Camera poses (frame 0 stays the identity) and object rotations,
    translations and log-scales. Rotations are matrices retracted by
    right-multiplied increments ``R @ Exp(phi)``; the rest is additive,
    log-scales clamped from below. A tangent vector packs (phi, dt) per
    camera 1..K-1, then (phi, dt, d log s) per object."""

    def __init__(self, cam_rot, cam_t, obj_rot, obj_t, obj_logs):
        self.cam_rot, self.cam_t = cam_rot, cam_t
        self.obj_rot, self.obj_t, self.obj_logs = obj_rot, obj_t, obj_logs
        self.obj_scale = np.exp(obj_logs)
        self.n_cam = 6 * (len(cam_rot) - 1)
        self.size = self.n_cam + 9 * len(obj_rot)

    @classmethod
    def initial(cls, problem: RegistrationProblem) -> "_State":
        cams = [RigidPose.identity()] + problem.initial_cameras[1:]  # frame 0 is the gauge
        objs = [b.init_pose for b in problem.object_blocks]
        return cls(
            np.array([c.rotation for c in cams]),
            np.array([c.translation for c in cams]),
            np.array([o.rotation for o in objs]).reshape(-1, 3, 3),
            np.array([o.translation for o in objs]).reshape(-1, 3),
            np.log(np.array([o.scale for o in objs]).reshape(-1, 3)),
        )

    def retract(self, delta) -> "_State":
        cam, obj = delta[: self.n_cam].reshape(-1, 6), delta[self.n_cam :].reshape(-1, 9)
        rot = so3_exp(np.vstack([np.zeros(3), cam[:, :3], obj[:, :3]]))
        k = len(self.cam_rot)
        return _State(
            self.cam_rot @ rot[:k],
            self.cam_t + np.vstack([np.zeros(3), cam[:, 3:]]),
            self.obj_rot @ rot[k:],
            self.obj_t + obj[:, 3:6],
            np.maximum(self.obj_logs + obj[:, 6:], _LOG_SCALE_FLOOR),
        )

    def cam_offset(self, frame: int) -> int | None:
        return None if frame == 0 else 6 * (frame - 1)

    def obj_offset(self, block_index: int) -> int:
        return self.n_cam + 9 * block_index

    def to_world(self, frame: int, pts: np.ndarray) -> np.ndarray:
        return pts @ self.cam_rot[frame].T + self.cam_t[frame]

    def object_points(self, b: int, noc: np.ndarray) -> np.ndarray:
        return (noc * self.obj_scale[b]) @ self.obj_rot[b].T + self.obj_t[b]

    def cameras(self) -> list[RigidPose]:
        return [RigidPose(euler_from_rotation(r), t) for r, t in zip(self.cam_rot, self.cam_t)]

    def objects(self) -> list[ObjectPose]:
        return [
            ObjectPose(euler_from_rotation(r), t, s)
            for r, t, s in zip(self.obj_rot, self.obj_t, self.obj_scale)
        ]


def _assemble(problem: RegistrationProblem, state: _State, active_kp, active_obj, jac: bool):
    """Weighted residual vector and (optionally) its Jacobian with respect to
    the state's tangent vector: d(R Exp(phi) p)/dphi = -R [p]x."""
    cfg = problem.config
    r_parts, j_parts = [], []
    nvar = state.size
    eye = np.eye(3)

    for b, blk in enumerate(problem.keypoint_blocks):
        mask = active_kp[b]
        n = mask.sum()
        if n == 0 or cfg.w_c == 0:
            continue
        w = np.sqrt(cfg.w_c / len(blk))
        pi, pj = blk.points_i[mask], blk.points_j[mask]
        res = w * (state.to_world(blk.frame_i, pi) - state.to_world(blk.frame_j, pj))
        r_parts.append(res.ravel())
        if jac:
            jb = np.zeros((n, 3, nvar))
            for frame, pts, sign in ((blk.frame_i, pi, w), (blk.frame_j, pj, -w)):
                off = state.cam_offset(frame)
                if off is None:
                    continue
                jb[:, :, off : off + 3] = -sign * (state.cam_rot[frame] @ skew(pts))
                jb[:, :, off + 3 : off + 6] = sign * eye
            j_parts.append(jb.reshape(3 * n, nvar))

    for b, blk in enumerate(problem.object_blocks):
        if cfg.w_o == 0:
            continue
        ro = state.obj_rot[b]
        w = np.sqrt(cfg.w_o / blk.total_pairs())
        ooff = state.obj_offset(b)
        for k, frame in enumerate(blk.frames):
            mask = active_obj[b][k]
            n = mask.sum()
            if n == 0:
                continue
            depth = blk.depth_points[k][mask]
            noc = blk.noc_points[k][mask]
            res = w * (state.to_world(frame, depth) - state.object_points(b, noc))
            r_parts.append(res.ravel())
            if jac:
                scaled = noc * state.obj_scale[b]
                jb = np.zeros((n, 3, nvar))
                coff = state.cam_offset(frame)
                if coff is not None:
                    jb[:, :, coff : coff + 3] = -w * (state.cam_rot[frame] @ skew(depth))
                    jb[:, :, coff + 3 : coff + 6] = w * eye
                jb[:, :, ooff : ooff + 3] = w * (ro @ skew(scaled))
                jb[:, :, ooff + 3 : ooff + 6] = -w * eye
                # d/d log(s_a) of -R (p * s) = -s_a p_a R[:, a]
                jb[:, :, ooff + 6 : ooff + 9] = -w * scaled[:, None, :] * ro
                j_parts.append(jb.reshape(3 * n, nvar))

    r = np.concatenate(r_parts) if r_parts else np.zeros(0)
    if not jac:
        return r, None
    j = np.vstack(j_parts) if j_parts else np.zeros((0, nvar))
    return r, j


def _prune(problem, state, active_kp, active_obj, threshold):
    """Deactivate correspondences whose current residual norm exceeds the
    threshold. Returns the number newly pruned; sets are monotone."""
    pruned = 0
    for b, blk in enumerate(problem.keypoint_blocks):
        res = state.to_world(blk.frame_i, blk.points_i) - state.to_world(blk.frame_j, blk.points_j)
        bad = active_kp[b] & (np.linalg.norm(res, axis=1) > threshold)
        # never let a block drop below the survivable minimum
        if (active_kp[b].sum() - bad.sum()) >= MIN_KEYPOINT_PAIRS:
            pruned += int(bad.sum())
            active_kp[b] &= ~bad
    for b, blk in enumerate(problem.object_blocks):
        for k, frame in enumerate(blk.frames):
            res = state.to_world(frame, blk.depth_points[k]) - state.object_points(
                b, blk.noc_points[k]
            )
            bad = active_obj[b][k] & (np.linalg.norm(res, axis=1) > threshold)
            if (active_obj[b][k].sum() - bad.sum()) >= NOC_FILTER.min_pairs:
                pruned += int(bad.sum())
                active_obj[b][k] &= ~bad
    return pruned


def gauss_newton_solve(problem: RegistrationProblem) -> SolveReport:
    """Damped Gauss-Newton solve of the joint energy with per-iteration
    residual pruning (monotone active set)."""
    cfg = problem.config
    if cfg.w_o == 0 and problem.object_blocks:
        problem = replace(problem, object_blocks=[])
    if cfg.w_c == 0 and problem.keypoint_blocks:
        problem = replace(problem, keypoint_blocks=[])
    if not problem.keypoint_blocks and not problem.object_blocks:
        raise UnsolvableProblemError("problem has no blocks")
    state = _State.initial(problem)
    active_kp = [np.ones(len(b), dtype=bool) for b in problem.keypoint_blocks]
    active_obj = [
        [np.ones(len(p), dtype=bool) for p in b.noc_points] for b in problem.object_blocks
    ]

    def trial(delta):
        new = state.retract(delta)
        with np.errstate(over="ignore", invalid="ignore"):
            r_new, _ = _assemble(problem, new, active_kp, active_obj, jac=False)
        return new, float(r_new @ r_new)

    lam = 1e-6
    total_pruned = 0
    iterations = 0
    cost = None
    for it in range(cfg.max_iterations):
        iterations = it + 1
        total_pruned += _prune(problem, state, active_kp, active_obj, cfg.residual_prune)
        r, j = _assemble(problem, state, active_kp, active_obj, jac=True)
        cost = float(r @ r)
        if cost < 1e-28:
            break
        new, cost_new, lam = damped_step(j.T @ j, j.T @ r, lam, cost, trial, cfg.step_halvings)
        if new is None:
            break
        state = new
        if cost - cost_new <= cfg.convergence_tol * max(cost, 1e-30):
            cost = cost_new
            break
        cost = cost_new

    if cost is None:
        r, _ = _assemble(problem, state, active_kp, active_obj, jac=False)
        cost = float(r @ r)

    cams = state.cameras()
    objs = state.objects()
    track_ids = [b.track_id for b in problem.object_blocks]
    stats = []
    for b, blk in enumerate(problem.keypoint_blocks):
        norms = np.linalg.norm(keypoint_residuals(cams, blk, active_kp[b]), axis=1)
        stats.append(
            {
                "kind": "keypoint",
                "frames": (blk.frame_i, blk.frame_j),
                "active": int(active_kp[b].sum()),
                "total": len(blk),
                "rms": float(np.sqrt(np.mean(norms**2))) if len(norms) else 0.0,
            }
        )
    for b, blk in enumerate(problem.object_blocks):
        norms = np.linalg.norm(
            object_residuals(cams, objs[b], blk, active_obj[b]), axis=1
        )
        stats.append(
            {
                "kind": "object",
                "track_id": blk.track_id,
                "frames": tuple(blk.frames),
                "active": int(sum(m.sum() for m in active_obj[b])),
                "total": blk.total_pairs(),
                "rms": float(np.sqrt(np.mean(norms**2))) if len(norms) else 0.0,
            }
        )
    return SolveReport(
        cams, objs, track_ids, iterations, cost, total_pruned, stats
    )


def numeric_jacobian_check(problem: RegistrationProblem, h: float = 1e-6) -> float:
    """Max relative error between analytic and central finite-difference
    Jacobians at the problem's initial state, perturbing through the
    solver's retraction."""
    state = _State.initial(problem)
    active_kp = [np.ones(len(b), dtype=bool) for b in problem.keypoint_blocks]
    active_obj = [
        [np.ones(len(p), dtype=bool) for p in b.noc_points] for b in problem.object_blocks
    ]
    _, j_analytic = _assemble(problem, state, active_kp, active_obj, jac=True)
    j_num = np.zeros_like(j_analytic)
    for k in range(state.size):
        step = np.zeros(state.size)
        step[k] = h
        rp, _ = _assemble(problem, state.retract(step), active_kp, active_obj, jac=False)
        rm, _ = _assemble(problem, state.retract(-step), active_kp, active_obj, jac=False)
        j_num[:, k] = (rp - rm) / (2 * h)
    mag = np.maximum(np.abs(j_analytic), np.abs(j_num))
    mask = mag > 1e-8
    if not mask.any():
        return 0.0
    return float(np.max(np.abs(j_analytic - j_num)[mask] / mag[mask]))


def register_pair(
    fs: FrameSet,
    mcfg: MatchConfig | None = None,
    scfg: SolverConfig | None = None,
    icp: bool = True,
    use_objects: bool = True,
    use_keypoints: bool = True,
    keypoint_filter: FilterConfig | None = None,
) -> PairResult:
    """Full pairwise registration: object matching, joint solve, optional ICP."""
    if fs.num_frames != 2:
        raise ValueError("register_pair expects exactly 2 frames")
    mcfg = mcfg or MatchConfig()
    scfg = scfg or SolverConfig()

    keypoints = [km for km in fs.keypoint_matches if len(km)] if use_keypoints else []
    obs_a = fs.observations_in_frame(0)
    obs_b = fs.observations_in_frame(1)
    matches = []
    if use_objects:
        matches = match_pair(obs_a, obs_b, mcfg, bool(keypoints))
    if not keypoints and not matches:
        return PairResult(False, "no keypoint matches and no object matches")

    tracks = []
    for t, m in enumerate(matches):
        tracks.append(
            ObjectTrack(
                t,
                obs_a[m.index_a].class_label,
                [(0, obs_a[m.index_a].detection_id), (1, obs_b[m.index_b].detection_id)],
            )
        )
    sub = FrameSet(fs.frames, keypoints, fs.observations, fs.ground_truth)
    try:
        problem = build_problem(sub, tracks, scfg, keypoint_filter)
        report = gauss_newton_solve(problem)
    except (UnsolvableProblemError, DegenerateAlignmentError) as e:
        return PairResult(False, str(e), matches=matches)

    if icp:
        pts = {0: [], 1: []}
        for o in fs.observations:
            pts[o.frame].append(o.depth_points)
        for km in keypoints:
            pts[km.frame_i].append(km.points_i)
            pts[km.frame_j].append(km.points_j)
        if pts[0] and pts[1]:
            src = np.vstack(pts[1])
            tgt = np.vstack(pts[0])
            res = icp_refine(
                src, tgt, report.camera_poses[1], max_corr_dist=scfg.residual_prune
            )
            # accept only small corrections: an "improvement" that moves the
            # pose beyond the association radius means ICP slid disjoint
            # surfaces onto each other (common at near-zero overlap)
            if res.converged:
                drot, dtrans = pose_error(res.pose, report.camera_poses[1])
                if dtrans <= scfg.residual_prune and drot <= 10.0:
                    report.camera_poses[1] = res.pose
    return PairResult(True, None, report, matches)
