"""Joint Gauss-Newton registration of a frame pair: camera 1's pose and the
global poses of the objects both frames see.

The energy is w_c * E_c + w_o * E_o, where E_c sums squared distances between
world-transformed matched keypoints and E_o sums squared distances between
world-transformed depth points and object-transformed canonical points. Frame
0 is the gauge, fixed at the identity, so camera 1 is the only camera
variable; object scales are optimized in log space. Sequences are stitched
from pairs by :mod:`objreg.posegraph`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import ObjectPose, RigidPose, compose, invert, skew, so3_exp
from .matching import MatchConfig, ObjectTrack, PairMatch, match_pair
from .metrics import pose_error
from .observations import NOC_FILTER, FrameSet, fit_noc
from .procrustes import (
    DegenerateAlignmentError,
    FilterConfig,
    kabsch_filter,
    icp_refine,
)

__all__ = [
    "SolverConfig",
    "RegistrationProblem",
    "SolveReport",
    "PairResult",
    "UnsolvableProblemError",
    "build_problem",
    "gauss_newton_solve",
    "numeric_jacobian_check",
    "pair_matches",
    "register_pair",
]

MIN_KEYPOINT_PAIRS = 5
# the pairwise keypoint filter: a liberal 0.20 m residual threshold
KEYPOINT_FILTER = FilterConfig(0.20, min_pairs=MIN_KEYPOINT_PAIRS)
_LOG_SCALE_FLOOR = np.log(1e-3)

# Gauss-Newton iteration limits: the solve stops after MAX_ITERATIONS steps,
# once a step lowers the cost by no more than CONVERGENCE_TOL of it, or when
# DAMPING_TRIES Levenberg dampings in a row fail to lower it.
MAX_ITERATIONS = 50
CONVERGENCE_TOL = 1e-9
DAMPING_TRIES = 8


class UnsolvableProblemError(ValueError):
    """No usable constraint blocks remain after filtering."""


@dataclass
class SolverConfig:
    w_c: float = 1.0
    w_o: float = 1.0
    residual_prune: float = 0.15

    def __post_init__(self):
        if self.w_c < 0 or self.w_o < 0 or (self.w_c == 0 and self.w_o == 0):
            raise ValueError("weights must be nonnegative and not both zero")
        if self.residual_prune <= 0:
            raise ValueError("residual_prune must be positive")


@dataclass
class KeypointBlock:
    points_i: np.ndarray  # frame 0
    points_j: np.ndarray  # frame 1
    init_relative: RigidPose  # G with G p_i ~ p_j, i.e. camera 1's pose inverted

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
    keypoint_blocks: list[KeypointBlock]  # at most one
    object_blocks: list[ObjectBlock]
    config: SolverConfig
    initial_camera: RigidPose  # camera 1; camera 0 is the identity


@dataclass
class SolveReport:
    camera_poses: list[RigidPose]
    object_poses: list[ObjectPose]
    track_ids: list[int]
    iterations: int
    final_cost: float
    pruned_count: int
    block_stats: list[dict]


@dataclass
class PairResult:
    success: bool
    reason: str | None = None
    report: SolveReport | None = None
    matches: list[PairMatch] = field(default_factory=list)


def build_problem(
    fs: FrameSet,
    tracks: list[ObjectTrack],
    cfg: SolverConfig | None = None,
    keypoint_filter: FilterConfig | None = None,
) -> RegistrationProblem:
    """Filter a 2-frame set's raw constraints into solver blocks and
    initialize the variables; ValueError for any other frame count.

    The non-empty keypoint matches, oriented 0 -> 1, are stacked into one
    Kabsch-filtered block (dropped below 5 survivors); each object
    observation contributes the inliers of its intra-frame ``noc_fit``
    (dropped below 15 survivors); tracks observed in fewer than 2 surviving
    frames are dropped. Camera 1 starts at the keypoint block's Kabsch pose,
    else at the pose the first object block's two local poses imply; each
    object starts at its local pose in frame 0.
    """
    if fs.num_frames != 2:
        raise ValueError("build_problem expects exactly 2 frames")
    cfg = cfg or SolverConfig()
    keypoint_filter = keypoint_filter or KEYPOINT_FILTER

    kp_blocks = []
    oriented = [
        (km.points_i, km.points_j) if km.frame_i < km.frame_j else (km.points_j, km.points_i)
        for km in fs.keypoint_matches
        if len(km)
    ]
    if oriented:
        pi, pj = (np.vstack(side) for side in zip(*oriented))
        try:
            res = kabsch_filter(pi, pj, keypoint_filter)
        except DegenerateAlignmentError:
            res = None
        if res is not None and res.inlier_flags.sum() >= MIN_KEYPOINT_PAIRS:
            keep = res.inlier_flags
            kp_blocks.append(KeypointBlock(pi[keep], pj[keep], res.pose))

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
        init = ObjectPose.from_rotation(
            local_poses[0].rotation, local_poses[0].translation, scales[0]
        )
        obj_blocks.append(ObjectBlock(track.track_id, frames, nocs, depths, init, local_poses))

    if kp_blocks:
        cam1 = invert(kp_blocks[0].init_relative)
    elif obj_blocks:
        local = obj_blocks[0].local_poses
        cam1 = compose(local[0], invert(local[1]))
    else:
        raise UnsolvableProblemError("no keypoint or object blocks survive filtering")
    return RegistrationProblem(kp_blocks, obj_blocks, cfg, cam1)


def damped_step(jtj, jtr, lam, cost, trial, tries):
    """Levenberg-damped Gauss-Newton step shared by both solvers: solve
    ``(J^T J + lam I) delta = -J^T r``, score ``trial(delta) -> (candidate,
    cost)``, grow lam 10x on a singular system or a cost increase. Returns
    ``(candidate, cost, lam / 10)``, or ``(None, None, lam)`` after ``tries``.

    The damping is added to ``jtj`` in place: pass a temporary, whose
    diagonal is overwritten."""
    diag = jtj.diagonal().copy()
    for _ in range(tries):
        np.fill_diagonal(jtj, diag + lam)
        try:
            delta = np.linalg.solve(jtj, -jtr)
        except np.linalg.LinAlgError:
            lam *= 10
            continue
        candidate, cost_new = trial(delta)
        if np.isfinite(cost_new) and cost_new <= cost + 1e-15:
            return candidate, cost_new, max(lam / 10, 1e-12)
        lam *= 10
    return None, None, lam


class _State:
    """The variables of a pair problem. Frame 0 is the gauge, fixed at the
    identity, so camera 1 is the only camera variable; then each object's
    rotation, translation and log-scale. Rotations are matrices retracted by
    right-multiplied increments ``R @ Exp(phi)``; the rest is additive,
    log-scales clamped from below. A tangent vector packs camera 1's
    (phi, dt) at offset 0, then (phi, dt, d log s) per object."""

    def __init__(self, cam_rot, cam_t, obj_rot, obj_t, obj_logs):
        self.cam_rot, self.cam_t = cam_rot, cam_t
        self.obj_rot, self.obj_t, self.obj_logs = obj_rot, obj_t, obj_logs
        self.obj_scale = np.exp(obj_logs)
        self.size = 6 + 9 * len(obj_rot)

    @classmethod
    def initial(cls, problem: RegistrationProblem) -> "_State":
        cam = problem.initial_camera
        objs = [b.init_pose for b in problem.object_blocks]
        return cls(
            cam.rotation,
            cam.translation,
            np.array([o.rotation for o in objs]).reshape(-1, 3, 3),
            np.array([o.translation for o in objs]).reshape(-1, 3),
            np.log(np.array([o.scale for o in objs]).reshape(-1, 3)),
        )

    def retract(self, delta) -> "_State":
        obj = delta[6:].reshape(-1, 9)
        rot = so3_exp(np.vstack([delta[:3], obj[:, :3]]))
        return _State(
            self.cam_rot @ rot[0],
            self.cam_t + delta[3:6],
            self.obj_rot @ rot[1:],
            self.obj_t + obj[:, 3:6],
            np.maximum(self.obj_logs + obj[:, 6:], _LOG_SCALE_FLOOR),
        )

    def to_world(self, pts: np.ndarray) -> np.ndarray:
        """Camera-1 points in the world, i.e. camera 0's frame."""
        return pts @ self.cam_rot.T + self.cam_t

    def object_points(self, b: int, noc: np.ndarray) -> np.ndarray:
        return (noc * self.obj_scale[b]) @ self.obj_rot[b].T + self.obj_t[b]

    def cameras(self) -> list[RigidPose]:
        return [RigidPose.identity(), RigidPose.from_rotation(self.cam_rot, self.cam_t)]

    def objects(self) -> list[ObjectPose]:
        return [
            ObjectPose.from_rotation(r, t, s)
            for r, t, s in zip(self.obj_rot, self.obj_t, self.obj_scale)
        ]


class _Terms:
    """The active correspondences of a problem, gathered once per active-set
    change. Per keypoint block, and per object block and frame, a term holds
    its masked points, weight and span of correspondences, the skew matrices
    of its camera-1 points, and a view into one shared Jacobian buffer whose
    constant translation entries are written here; an evaluation rewrites
    only the rotation and scale entries. ``weight`` holds each
    correspondence's weight on its three rows, and ``spans`` the
    ``(block, frame or None, span)`` of each term, for :func:`_prune`."""

    def __init__(self, problem: RegistrationProblem, state: _State, active_kp, active_obj):
        cfg = problem.config
        masks = active_kp + [m for frame_masks in active_obj for m in frame_masks]
        size = sum(int(m.sum()) for m in masks)
        self.jac = np.zeros((3 * size, state.size))
        self.weight = np.empty((size, 3))
        self.keypoint, self.object, self.spans = [], [], []
        eye = np.eye(3)
        taken = 0

        def claim(n, w, block, frame):
            """Span and Jacobian view of the next n correspondences."""
            nonlocal taken
            span = slice(taken, taken + n)
            taken += n
            self.weight[span] = w
            self.spans.append((block, frame, span))
            return span, self.jac[3 * span.start : 3 * span.stop].reshape(n, 3, state.size)

        for b, blk in enumerate(problem.keypoint_blocks):
            mask = active_kp[b]
            n = int(mask.sum())
            if n == 0:
                continue
            w = np.sqrt(cfg.w_c / len(blk))
            span, view = claim(n, w, b, None)
            pi, pj = blk.points_i[mask], blk.points_j[mask]
            view[:, :, 3:6] = -w * eye
            self.keypoint.append((span, w, pi, pj, view, skew(pj)))

        for b, blk in enumerate(problem.object_blocks):
            w = np.sqrt(cfg.w_o / blk.total_pairs())
            off = 6 + 9 * b
            for k, frame in enumerate(blk.frames):
                mask = active_obj[b][k]
                n = int(mask.sum())
                if n == 0:
                    continue
                span, view = claim(n, w, b, k)
                depth, noc = blk.depth_points[k][mask], blk.noc_points[k][mask]
                view[:, :, off + 3 : off + 6] = -w * eye
                skew_depth = None  # frame 0's points do not move
                if frame == 1:
                    view[:, :, 3:6] = w * eye
                    skew_depth = skew(depth)
                self.object.append((span, w, b, depth, noc, view, off, skew_depth))


def _residual(terms: _Terms, state: _State) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of the active correspondences at ``state``: the weighted
    vector r and the unweighted rows d, one per correspondence, with
    ``r = (weight * d).ravel()``."""
    d = np.empty_like(terms.weight)
    for span, _, pi, pj, *_ in terms.keypoint:
        d[span] = pi - state.to_world(pj)
    for span, _, b, depth, noc, *_, skew_depth in terms.object:
        world = depth if skew_depth is None else state.to_world(depth)
        d[span] = world - state.object_points(b, noc)
    return (terms.weight * d).ravel(), d


def _jacobian(terms: _Terms, state: _State) -> np.ndarray:
    """Jacobian of :func:`_residual` with respect to the state's tangent
    vector, d(R Exp(phi) p)/dphi = -R [p]x, written into the terms' shared
    buffer (valid until the next call)."""
    for _, w, _, _, view, skew_pj in terms.keypoint:
        view[:, :, :3] = w * (state.cam_rot @ skew_pj)
    for _, w, b, _, noc, view, off, skew_depth in terms.object:
        ro = state.obj_rot[b]
        scaled = noc * state.obj_scale[b]
        if skew_depth is not None:
            view[:, :, :3] = -w * (state.cam_rot @ skew_depth)
        view[:, :, off : off + 3] = w * (ro @ skew(scaled))
        # d/d log(s_a) of -R (p * s) = -s_a p_a R[:, a]
        view[:, :, off + 6 : off + 9] = -w * scaled[:, None, :] * ro
    return terms.jac


def _prune(terms: _Terms, d, active_kp, active_obj, threshold):
    """Deactivate active correspondences whose residual norm exceeds the
    threshold, reading the norms from ``d``, the unweighted rows that
    :func:`_residual` gave for ``terms`` at the current state. A keypoint
    block, or an object block's frame, that would drop below its minimum
    keeps all of its pairs. Returns the number newly pruned; sets are
    monotone, and ``terms`` is stale once any is pruned."""
    over = np.linalg.norm(d, axis=1) > threshold
    if not over.any():
        return 0
    pruned = 0
    for b, k, span in terms.spans:
        bad = over[span]
        n_bad = int(np.count_nonzero(bad))
        if k is None:
            mask, floor = active_kp[b], MIN_KEYPOINT_PAIRS
        else:
            mask, floor = active_obj[b][k], NOC_FILTER.min_pairs
        if n_bad and mask.sum() - n_bad >= floor:
            mask[np.flatnonzero(mask)[bad]] = False
            pruned += n_bad
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
            r_new, d_new = _residual(terms, new)
        return (new, r_new, d_new), float(r_new @ r_new)

    lam = 1e-6
    total_pruned = 0
    iterations = 0
    terms = _Terms(problem, state, active_kp, active_obj)
    r, d = _residual(terms, state)
    cost = float(r @ r)
    for it in range(MAX_ITERATIONS):
        iterations = it + 1
        # d is the unweighted residual at state: from the evaluation above
        # or from the accepted trial
        pruned = _prune(terms, d, active_kp, active_obj, cfg.residual_prune)
        if pruned:
            total_pruned += pruned
            terms = _Terms(problem, state, active_kp, active_obj)
            r, d = _residual(terms, state)
            cost = float(r @ r)
        if cost < 1e-28:
            break
        j = _jacobian(terms, state)
        new, cost_new, lam = damped_step(j.T @ j, j.T @ r, lam, cost, trial, DAMPING_TRIES)
        if new is None:
            break
        state, r, d = new
        converged = cost - cost_new <= CONVERGENCE_TOL * max(cost, 1e-30)
        cost = cost_new
        if converged:
            break

    # every exit follows an evaluation at state or an accepted trial, so d
    # holds the final residual rows of the active set
    rows = {}
    for b, k, span in terms.spans:
        rows.setdefault((b, k is None), []).append(d[span])
    stats = []
    for b, blk in enumerate(problem.keypoint_blocks):
        stats.append(
            {
                "kind": "keypoint",
                "frames": (0, 1),
                "active": int(active_kp[b].sum()),
                "total": len(blk),
                "rms": _rms(rows.get((b, True))),
            }
        )
    for b, blk in enumerate(problem.object_blocks):
        stats.append(
            {
                "kind": "object",
                "track_id": blk.track_id,
                "frames": tuple(blk.frames),
                "active": int(sum(m.sum() for m in active_obj[b])),
                "total": blk.total_pairs(),
                "rms": _rms(rows.get((b, False))),
            }
        )
    track_ids = [b.track_id for b in problem.object_blocks]
    return SolveReport(
        state.cameras(), state.objects(), track_ids, iterations, cost, total_pruned, stats
    )


def _rms(rows) -> float:
    """Root mean square norm of a block's residual rows, in span order (a
    list of (n, 3) arrays); 0.0 for none."""
    if not rows:
        return 0.0
    norms = np.linalg.norm(np.concatenate(rows), axis=1)
    return float(np.sqrt(np.mean(norms**2)))


def numeric_jacobian_check(problem: RegistrationProblem) -> float:
    """Max relative error between analytic and central finite-difference
    Jacobians (step 1e-6) at the problem's initial state, perturbing through
    the solver's retraction."""
    h = 1e-6
    state = _State.initial(problem)
    active_kp = [np.ones(len(b), dtype=bool) for b in problem.keypoint_blocks]
    active_obj = [
        [np.ones(len(p), dtype=bool) for p in b.noc_points] for b in problem.object_blocks
    ]
    terms = _Terms(problem, state, active_kp, active_obj)
    j_analytic = _jacobian(terms, state)
    j_num = np.zeros_like(j_analytic)
    for k in range(state.size):
        step = np.zeros(state.size)
        step[k] = h
        rp = _residual(terms, state.retract(step))[0]
        rm = _residual(terms, state.retract(-step))[0]
        j_num[:, k] = (rp - rm) / (2 * h)
    mag = np.maximum(np.abs(j_analytic), np.abs(j_num))
    mask = mag > 1e-8
    if not mask.any():
        return 0.0
    return float(np.max(np.abs(j_analytic - j_num)[mask] / mag[mask]))


def pair_matches(
    fs: FrameSet, mcfg: MatchConfig | None = None, use_keypoints: bool = True
) -> list[PairMatch]:
    """Object matches between frames 0 and 1 of a 2-frame set, indexing
    ``fs.observations_in_frame(0)`` and ``(1)``. The looser fallback
    threshold applies only when no non-empty keypoint match is used."""
    keypoints_present = use_keypoints and any(len(km) for km in fs.keypoint_matches)
    return match_pair(
        fs.observations_in_frame(0), fs.observations_in_frame(1), mcfg, keypoints_present
    )


def register_pair(
    fs: FrameSet,
    mcfg: MatchConfig | None = None,
    scfg: SolverConfig | None = None,
    icp: bool = True,
    use_objects: bool = True,
    use_keypoints: bool = True,
    keypoint_filter: FilterConfig | None = None,
    matches: list[PairMatch] | None = None,
) -> PairResult:
    """Full pairwise registration: object matching, joint solve, optional ICP.
    ``matches`` are the pair's object matches if already made by
    :func:`pair_matches` with the same ``mcfg`` and ``use_keypoints``; None
    matches here. Raises ValidationError, naming the bad record, on malformed
    input and ValueError unless the set has 2 frames; only then fits every
    observation's ``noc_fit`` not yet cached, in one batch."""
    fs.validate()
    if fs.num_frames != 2:
        raise ValueError("register_pair expects exactly 2 frames")
    fit_noc(fs.observations)
    mcfg = mcfg or MatchConfig()
    scfg = scfg or SolverConfig()

    keypoints = [km for km in fs.keypoint_matches if len(km)] if use_keypoints else []
    obs_a = fs.observations_in_frame(0)
    obs_b = fs.observations_in_frame(1)
    if matches is None:
        matches = pair_matches(fs, mcfg, use_keypoints) if use_objects else []
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
        src, tgt = sub.frame_points(1), sub.frame_points(0)
        if len(src) and len(tgt):
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
