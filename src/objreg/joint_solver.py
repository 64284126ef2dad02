"""Joint Gauss-Newton registration of a frame pair: camera 1's pose and the
global poses of the objects both frames see.

The energy is w_c * E_c + w_o * E_o, where E_c sums squared distances between
world-transformed matched keypoints and E_o sums squared distances between
world-transformed depth points and object-transformed canonical points. Frame
0 is the gauge, fixed at the identity, so camera 1 is the only camera
variable; object scales are optimized in log space. Sequences are stitched
from pairs by :mod:`objreg.posegraph`.

One pair stage, :func:`register_pairs`, serves :func:`register_pair`'s one
pair and a sequence's many alike; its :func:`gauss_newton_solve_batch` steps
any number of pair problems in lockstep, each by its own damping, pruning
and stopping rules. The problems are stacked as
zero-padded correspondence rows. A row's residual and its Jacobian are both
linear in the row's features (its camera-1 point, its NOC point and their
0/1 flags), so ``J^T W J`` is formed from the feature moments ``sum a f
f^T`` of each problem, recomputed only when pruning shrinks the active
set; ``J^T W r`` and the cost are summed from the residual rows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import (
    _EYE3,
    ObjectPose,
    RigidPose,
    _is_real,
    _norms,
    _pose_builders,
    _squares,
    compose,
    invert,
    rotation_angle,
    skew,
    so3_exp,
)
from .matching import MatchConfig, PairMatch, match_pair, match_pairs
from .observations import NOC_FILTER, FrameSet, fit_noc
from .procrustes import (
    AlignmentResult,
    DegenerateAlignmentError,
    FilterConfig,
    icp_refine,
    icp_refine_sets,
    kabsch_filter,
    kabsch_filter_sets,
)

__all__ = [
    "SolverConfig",
    "RegistrationProblem",
    "SolveReport",
    "BlockStat",
    "PairResult",
    "UnsolvableProblemError",
    "PairSetup",
    "PairIndex",
    "build_problem",
    "build_problems",
    "gauss_newton_solve",
    "gauss_newton_solve_batch",
    "icp_polish",
    "register_pairs",
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
# Levenberg damping, shared with the pose graph: lam starts at LAMBDA_START. A
# try with a nonsingular system and a finite cost at most ACCEPT_SLACK above
# the cost before it lowers lam 10x, to >= LAMBDA_FLOOR; others raise it 10x.
LAMBDA_START = 1e-6
LAMBDA_FLOOR = 1e-12
ACCEPT_SLACK = 1e-15
# gauss_newton_solve_batch steps at most this many problems in lockstep at
# once: larger groups ran no faster on a 40-frame loop's 102 pair problems
# and raised the process's peak memory by their stacked arrays
LOCKSTEP_GROUP = 32


# camera 0's pose in every report: the gauge, one shared read-only identity
_GAUGE = RigidPose.identity()
_GAUGE.translation.flags.writeable = False


class UnsolvableProblemError(ValueError):
    """No usable constraint blocks remain after filtering."""


@dataclass
class SolverConfig:
    """The pair energy's block weights ``w_c`` (keypoints) and ``w_o``
    (objects), and ``residual_prune``: the distance in metres beyond which
    Gauss-Newton prunes a row, the depth margin of a sequence's loop-pair
    screen, and, on the pair path alone (:func:`register_pair` with
    ``icp``), ICP's correspondence radius and acceptance bound."""

    w_c: float = 1.0
    w_o: float = 1.0
    residual_prune: float = 0.15

    def __post_init__(self):
        for name in ("w_c", "w_o"):
            value = getattr(self, name)
            if not (_is_real(value) and 0 <= value < np.inf):
                raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")
        if self.w_c == 0 and self.w_o == 0:
            raise ValueError("w_c and w_o must not both be zero")
        if not (_is_real(self.residual_prune) and 0 < self.residual_prune < np.inf):
            raise ValueError(f"residual_prune must be finite and positive, got {self.residual_prune!r}")


@dataclass
class KeypointBlock:
    points_i: np.ndarray  # frame 0
    points_j: np.ndarray  # frame 1

    def __len__(self):
        return len(self.points_i)


@dataclass
class ObjectBlock:
    track_id: int  # the index of its match in the pair's matches
    noc_points: tuple[np.ndarray, np.ndarray]  # (frame 0, frame 1), each (n, 3)
    depth_points: tuple[np.ndarray, np.ndarray]
    init_pose: ObjectPose

    def total_pairs(self):
        return len(self.noc_points[0]) + len(self.noc_points[1])


@dataclass
class RegistrationProblem:
    keypoints: KeypointBlock | None
    object_blocks: list[ObjectBlock]
    config: SolverConfig
    initial_camera: RigidPose  # camera 1; camera 0 is the identity


@dataclass(slots=True)
class BlockStat:
    """One constraint block of a solved pair: its kind (``"keypoint"`` or
    ``"object"``), its object match's index (None on the keypoint block),
    its active and total rows, and the root mean square of its active rows'
    residual norms."""

    kind: str
    track_id: int | None
    active: int
    total: int
    rms: float


@dataclass(slots=True)
class SolveReport:
    camera_poses: list[RigidPose]
    object_poses: list[ObjectPose]
    track_ids: list[int]
    iterations: int
    final_cost: float
    pruned_count: int
    block_stats: list[BlockStat]


@dataclass(slots=True)
class PairResult:
    success: bool
    reason: str | None = None
    report: SolveReport | None = None
    matches: list[PairMatch] = field(default_factory=list)


@dataclass(slots=True)
class PairSetup:
    """One pair's front end, as :func:`build_problems` leaves it: its object
    matches, its keypoint filter's fit (None without keypoints or when the
    filter fails; its pose maps frame j's points onto frame i's), and its
    problem, or the reason none was built. A screened pair has neither."""

    matches: list[PairMatch]
    keypoint_fit: AlignmentResult | None = None
    problem: RegistrationProblem | None = None
    reason: str | None = None
    screened: bool = False


class PairIndex:
    """A FrameSet's records indexed by frame: ``frames[f]`` lists the
    positions of frame f's observations, and ``keypoints[(i, j)]``, i < j,
    the non-empty keypoint matches between frames i and j as (points in i,
    points in j), both in file order. Built once per set, it serves every
    pair stage: :func:`build_problems` and :func:`icp_polish`."""

    def __init__(self, fs: FrameSet):
        self.observations = fs.observations
        self.frames = [[] for _ in fs.frames]
        for pos, o in enumerate(fs.observations):
            self.frames[o.frame].append(pos)
        self.keypoints = {}
        for km in fs.keypoint_matches:
            if not len(km):
                continue
            if km.frame_i < km.frame_j:
                key, pts = (km.frame_i, km.frame_j), (km.points_i, km.points_j)
            else:
                key, pts = (km.frame_j, km.frame_i), (km.points_j, km.points_i)
            self.keypoints.setdefault(key, []).append(pts)

    def keypoint_pairs(self, pair) -> tuple[np.ndarray, np.ndarray]:
        """The pair's keypoint matches stacked: (points in i, points in j)."""
        found = self.keypoints.get(pair, ())
        if len(found) < 2:  # no copy of a lone match's arrays
            return found[0] if found else (np.zeros((0, 3)), np.zeros((0, 3)))
        return np.vstack([pi for pi, _ in found]), np.vstack([pj for _, pj in found])

    def frame_points(self, frame, pair) -> np.ndarray:
        """``FrameSet.frame_points`` of the pair's 2-frame set: the frame's
        observation depth points, then its points of the pair's keypoint
        matches."""
        side = 0 if frame == pair[0] else 1
        pts = [self.observations[pos].depth_points for pos in self.frames[frame]]
        pts += [km[side] for km in self.keypoints.get(pair, ())]
        return np.vstack(pts) if pts else np.zeros((0, 3))


def _problem(keypoints, fit, camera, matched, cfg: SolverConfig, inliers: dict) -> RegistrationProblem:
    """A pair's problem from its stacked keypoint pairs ``(pi, pj)``, their
    filter's ``fit`` (or None), ``camera``, the inverse of the fit's pose
    when the fit keeps at least 5 pairs (else None), and its object matches
    as (observation in frame 0, observation in frame 1): the fit's inliers
    give the keypoint block (none without ``camera``), match t gives object
    block t from the inliers of both observations' ``noc_fit`` (no block
    when either is None). Camera 1 starts at ``camera``, the keypoint
    block's Kabsch pose, else at the pose the first object block's two fits
    imply; each object starts at its fit in frame 0, with the observation's
    scale estimate. The fit is finite and the estimate validated, so that
    pose is built unchecked. Raises UnsolvableProblemError when no block
    survives.

    ``inliers`` maps ``id(observation)`` to its fit's inlier (NOC, depth)
    points; missing ones are added, so that the pairs of one build share
    each observation's arrays."""
    block, cam1 = None, camera
    if camera is not None:
        keep = fit.inlier_flags
        block = KeypointBlock(keypoints[0][keep], keypoints[1][keep])
    obj_blocks = []
    for t, (a, b) in enumerate(matched):
        fa, fb = a.noc_fit, b.noc_fit
        if fa is None or fb is None:
            continue
        for o in (a, b):
            if id(o) not in inliers:
                keep = o.noc_fit.inlier_flags
                inliers[id(o)] = o.noc_points[keep], o.depth_points[keep]
        (noc_a, depth_a), (noc_b, depth_b) = inliers[id(a)], inliers[id(b)]
        nocs, depths = (noc_a, noc_b), (depth_a, depth_b)
        init = ObjectPose._of(fa.pose.rotation, fa.pose.translation, a.scale_estimate)
        obj_blocks.append(ObjectBlock(t, nocs, depths, init))
        if cam1 is None:
            cam1 = compose(fa.pose, invert(fb.pose))
    if cam1 is None:
        raise UnsolvableProblemError("no keypoint or object blocks survive filtering")
    return RegistrationProblem(block, obj_blocks, cfg, cam1)


def build_problem(fs: FrameSet, matches: list[PairMatch], cfg: SolverConfig) -> RegistrationProblem:
    """Filter a 2-frame set's raw constraints into solver blocks and
    initialize the variables; ValueError for any other frame count. The
    one-pair plan of :func:`build_problems`, with the pairwise
    ``KEYPOINT_FILTER`` and the given object matches (indexing
    ``fs.observations_in_frame(0)`` and ``(1)``, as :func:`match_pair`
    returns them). Raises UnsolvableProblemError with the reason when no
    problem is built."""
    if fs.num_frames != 2:
        raise ValueError("build_problem expects exactly 2 frames")
    (setup,) = build_problems(PairIndex(fs), {(0, 1): (list(matches), KEYPOINT_FILTER)}, cfg).values()
    if setup.problem is None:
        raise UnsolvableProblemError(setup.reason)
    return setup.problem


def build_problems(
    index: PairIndex,
    plan: dict[tuple[int, int], tuple[MatchConfig | list[PairMatch], FilterConfig]],
    cfg: SolverConfig,
    screen=None,
) -> dict[tuple[int, int], PairSetup]:
    """The front end of every pair ``(i, j)``, i < j, of ``plan``, which
    gives the pair's object matches and keypoint filter setting: as the
    pair's 2-frame set (frame i as 0, j as 1) would have them, with no such
    set made, from the set's ``index``. See :func:`_problem` for the blocks
    and the initial values.

    A plan entry's matches are a MatchConfig, which matches the pair, or
    the pair's given PairMatch list (``[]`` matches no objects). The pairs to
    match are matched in one :func:`match_pairs` call on the set's
    observations, looser fallback threshold only for a pair without a
    non-empty keypoint match. A pair for which ``screen(pair, fits)`` holds,
    ``fits`` the ``noc_fit`` pairs of its matched observations, is screened
    and gets no problem. The other pairs' keypoints are Kabsch-filtered in
    one :func:`kabsch_filter_sets` call per filter setting. The observations
    must have their ``noc_fit`` (see :func:`fit_noc`). Results follow the
    plan's order; a pair that cannot be built keeps its reason."""
    obs = index.observations
    pairs = list(plan)
    keypoints = [index.keypoint_pairs(pair) for pair in pairs]
    requests = [(*pair, plan[pair][0], bool(len(kp[0]))) for pair, kp in zip(pairs, keypoints)]
    found = iter(match_pairs(obs, index.frames, [r for r in requests if isinstance(r[2], MatchConfig)]))
    setups, todo = {}, []
    for (i, j), kp in zip(pairs, keypoints):
        matches, setting = plan[(i, j)]
        matches = next(found) if isinstance(matches, MatchConfig) else matches
        matched = [(obs[index.frames[i][m.index_a]], obs[index.frames[j][m.index_b]]) for m in matches]
        setup = setups[(i, j)] = PairSetup(matches)
        if screen is not None and screen((i, j), [(a.noc_fit, b.noc_fit) for a, b in matched]):
            setup.screened = True
        elif not matches and not len(kp[0]):
            setup.reason = "no keypoint matches and no object matches"
        else:
            todo.append((setup, kp, matched, setting))
    groups = {}  # filter setting -> the todo entries with keypoints it filters
    for entry in todo:
        if len(entry[1][0]):
            groups.setdefault(entry[3], []).append(entry)
    for setting, group in groups.items():
        kps = [kp for _, kp, _, _ in group]
        fits = kabsch_filter_sets([pi for pi, _ in kps], [pj for _, pj in kps], setting)
        for (setup, _, _, _), fit in zip(group, fits):
            setup.keypoint_fit = None if isinstance(fit, DegenerateAlignmentError) else fit
    # camera 1 starts at the inverse of each keypoint fit that keeps a block
    fits = [s.keypoint_fit for s, *_ in todo if s.keypoint_fit is not None]
    fits = [fit for fit in fits if fit.num_inliers >= MIN_KEYPOINT_PAIRS]
    cameras = dict(zip(map(id, fits), _inverses([fit.pose for fit in fits])))
    inliers = {}
    for setup, kp, matched, _ in todo:
        fit = setup.keypoint_fit
        try:
            setup.problem = _problem(kp, fit, cameras.get(id(fit)), matched, cfg, inliers)
        except UnsolvableProblemError as e:
            setup.reason = str(e)
    return setups


def _inverses(poses: list[RigidPose]) -> list[RigidPose]:
    """``geometry.invert`` of each pose, computed together: the stacked
    ``-R^T t`` has the bits of the lone one."""
    if not poses:
        return []
    rot_t = np.array([p.rotation for p in poses]).swapaxes(1, 2)
    trans = (-rot_t @ np.array([p.translation for p in poses])[..., None])[..., 0]
    return [RigidPose._of(r, t) for r, t in zip(rot_t.copy(), trans)]


class _Stack:
    """K pair problems as zero-padded row arrays, solved in lockstep.

    Problem k's rows are its keypoint pairs, then each object block's pairs,
    frame 0's then frame 1's, padded to N rows; its objects are padded to M slots.
    Row n's features ``f = features[k, n]`` are ``[alpha, cam, slot_0,
    noc_0, ..., slot_M-1, noc_M-1]``, and its unweighted residual is

        d = alpha t_c + R_c cam + fixed - sum_b slot_b (t_b + R_b (s_b * noc_b))

    with (alpha, cam, fixed) = (-1, -p_j, p_i) on a keypoint pair, (0, 0,
    depth) on a frame-0 object pair and (1, depth, 0) on a frame-1 one;
    slot_b is 1 on object b's pairs, whose NOC points noc_b holds, and 0
    elsewhere. Both d and its Jacobian (see :func:`_jacobian_map`) are
    linear in f, so ``J^T W J`` needs only the feature moments ``sum a f
    f^T`` of each problem, with ``a`` = w^2 on active rows and 0 elsewhere:
    ``weigh`` refreshes both whenever the active set shrinks.

    ``segment`` numbers the keypoint block and each object block's frames
    across the batch, padding rows in the last segment; ``floor`` is each
    segment's pruning minimum, and ``first[k]`` problem k's first segment.
    ``pad`` is 1 on the tangent entries of padded object slots, None when
    every problem fills every slot. ``lin`` holds :func:`_jacobian_map`'s
    entries that no pose changes, which each call fills in around. Only the
    points are copied block by block; every other field is gathered from
    per-segment values in one pass."""

    def __init__(self, problems: list[RegistrationProblem]):
        num = len(problems)
        slots = max(len(p.object_blocks) for p in problems)
        rows = max(
            len(p.keypoints or ()) + sum(b.total_pairs() for b in p.object_blocks)
            for p in problems
        )
        self.features = np.zeros((num, rows, 4 + 4 * slots))
        self.fixed = np.zeros((num, rows, 3))
        # per segment: (alpha, object slot or -1, a, floor); and the runs of
        # rows, problem by problem, as (segment, size), padding as (-1, size)
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
                segs.append((-1.0, -1, cfg.w_c / start, MIN_KEYPOINT_PAIRS))
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
                    segs.append((alpha, b, cfg.w_o / blk.total_pairs(), NOC_FILTER.min_pairs))
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
        blocks = [len(p.object_blocks) for p in problems]
        self.pad = None
        if min(blocks) < slots:
            self.pad = (np.arange(6 + 9 * slots) >= 6 + 9 * np.array(blocks)[:, None]).astype(float)
        self.lin = np.repeat(_constant_map(slots)[None], num, axis=0)
        self.moments = self._moments()  # a is 0 on the padding rows, the only inactive ones

    def weigh(self):
        """Zero ``a`` off the active rows and refresh the moments."""
        self.a[~self.active] = 0.0
        self.moments = self._moments()

    def _moments(self) -> np.ndarray:
        """``sum a f f^T`` of each problem's rows, (K, F, F)."""
        return (self.features * self.a[..., None]).swapaxes(1, 2) @ self.features


@functools.cache
def _tangent_index(slots: int) -> np.ndarray:
    """Where a tangent vector holds each pose's (phi, dt), 6 (1 + M) entries,
    then each object's d log s, 3 M entries."""
    rigid = np.vstack([np.arange(6), 6 + 9 * np.arange(slots)[:, None] + np.arange(6)])
    stretch = 12 + 9 * np.arange(slots)[:, None] + np.arange(3)
    index = np.concatenate([rigid.ravel(), stretch.ravel()])
    index.flags.writeable = False  # shared by every caller
    return index


class _Poses:
    """The variables of K stacked pair problems: ``rot`` (K, 1 + M, 3, 3)
    and ``trans`` (K, 1 + M, 3) hold camera 1's pose, then each object
    slot's; ``logs`` (K, M, 3) the objects' log-scales and ``scale`` their
    exponentials. Frame 0 is the gauge, fixed at the identity. Rotations
    are retracted by right-multiplied increments ``R @ Exp(phi)``; the rest
    is additive, log-scales clamped from below. A tangent vector packs
    camera 1's (phi, dt) at offset 0, then (phi, dt, d log s) per slot."""

    FIELDS = ("rot", "trans", "logs", "scale")

    def __init__(self, rot, trans, logs):
        self.rot, self.trans, self.logs = rot, trans, logs
        self.scale = np.exp(logs)

    @classmethod
    def initial(cls, problems: list[RegistrationProblem]) -> "_Poses":
        """Each problem's initial values; padded slots at the identity."""
        slots = max(len(p.object_blocks) for p in problems)
        rot = np.empty((len(problems), slots + 1, 3, 3))
        rot[:] = _EYE3
        trans = np.zeros((len(problems), slots + 1, 3))
        scale = np.ones((len(problems), slots, 3))  # log 1 = 0 on padded slots
        for k, problem in enumerate(problems):
            rot[k, 0], trans[k, 0] = problem.initial_camera.rotation, problem.initial_camera.translation
            for b, blk in enumerate(problem.object_blocks, 1):
                pose = blk.init_pose
                rot[k, b], trans[k, b], scale[k, b - 1] = pose.rotation, pose.translation, pose.scale
        return cls(rot, trans, np.log(scale))

    def retract(self, delta) -> "_Poses":
        num, slots = self.logs.shape[:2]
        step = delta[:, _tangent_index(slots)]  # (phi, dt) per pose, then d log s per slot
        rigid = step[:, : 6 * slots + 6].reshape(num, slots + 1, 6)
        return _Poses(
            self.rot @ so3_exp(rigid[:, :, :3]),
            self.trans + rigid[:, :, 3:],
            np.maximum(self.logs + step[:, 6 * slots + 6 :].reshape(num, slots, 3), _LOG_SCALE_FLOOR),
        )

    def take(self, idx) -> "_Poses":
        sub = object.__new__(_Poses)
        for name in self.FIELDS:
            setattr(sub, name, getattr(self, name)[idx])
        return sub

    def put(self, idx, other: "_Poses"):
        """Overwrite problems ``idx`` with ``other``'s values."""
        for name in self.FIELDS:
            getattr(self, name)[idx] = getattr(other, name)


def _residual(stack: _Stack, poses: _Poses) -> np.ndarray:
    """The unweighted residual rows d, (K, N, 3), of every row at ``poses``,
    active or not: ``d = fixed + f @ B`` with f the row's features and B's
    rows, per pose, ``[t, R^T]`` for camera 1 and ``-[t_b, (R_b diag s_b)^T]``
    for object b."""
    num, slots = poses.logs.shape[:2]
    coef = np.empty((num, slots + 1, 4, 3))
    coef[:, :, 0] = poses.trans
    coef[:, :, 1:] = poses.rot.swapaxes(-1, -2)
    coef[:, 1:, 1:] *= poses.scale[..., None]  # row v of R_b^T times s_bv
    coef[:, 1:] *= -1.0
    d = stack.features @ coef.reshape(num, -1, 3)
    d += stack.fixed
    return d


def _cost(stack: _Stack, sq) -> np.ndarray:
    """Each problem's cost ``sum a |d|^2`` over its rows, from ``sq``, the
    rows' |d|^2 (``geometry._squares`` of the rows)."""
    return (sq * stack.a).sum(axis=-1)


# [e_u]x as a (3, 9) matrix: column 3u + i holds column i of [e_u]x
_SKEW_BASIS = np.swapaxes(skew(np.eye(3)), 0, 1).reshape(3, 9)


@functools.cache
def _constant_map(slots: int) -> np.ndarray:
    """The entries of :func:`_jacobian_map` that no pose changes: alpha I on
    camera 1's dt, -slot_b I on object b's dt."""
    lin = np.zeros((6 + 9 * slots, 3, 4 + 4 * slots))
    lin[3:6, :, 0] = np.eye(3)
    for b in range(slots):
        lin[6 + 9 * b + 3 : 6 + 9 * b + 6, :, 4 + 4 * b] = -np.eye(3)
    lin.flags.writeable = False  # shared by every caller
    return lin


# -I spread over (v, r, u) as -[u == v], the stretch entries' pattern
_NEG_DIAG = -_EYE3[:, None, :]


def _jacobian_map(stack: _Stack, poses: _Poses) -> np.ndarray:
    """The (K, P, 3, F) map L, P = 6 + 9M tangent entries and F = 4 + 4M
    features, with ``dd_r / dx_p = sum_u L[p, r, u] f_u`` on every row of
    :class:`_Stack`. With d(R Exp(phi) p)/dphi = -R [p]x and [p]x =
    sum_u p_u [e_u]x:

    - camera 1: dd/dphi_c = -R_c [cam]x, dd/dt_c = alpha I;
    - object b: dd/dphi_b = R_b [s_b * noc_b]x, dd/dt_b = -slot_b I, and
      dd/d log(s_b)_v = -s_bv noc_bv R_b[:, v].

    It is the stack's ``lin``, with the entries that the poses set written
    over the last call's.
    """
    num, slots = poses.logs.shape[:2]
    lin = stack.lin
    # turn[k, s, r, u, i] = (R_s [e_u]x)[r, i], scaled by -1 for the camera
    # and by s_u for an object, then ordered [k, s, i, r, u]
    turn = (poses.rot @ _SKEW_BASIS).reshape(num, slots + 1, 3, 3, 3)
    turn[:, 0] *= -1.0
    turn[:, 1:] *= poses.scale[:, :, None, :, None]
    turn = turn.transpose(0, 1, 4, 2, 3)
    # stretch[k, b, v, r, u] = -s_v R_b[r, v] where u == v
    stretch = (poses.rot[:, 1:] * poses.scale[:, :, None, :]).swapaxes(-1, -2)
    stretch = stretch[..., None] * _NEG_DIAG
    lin[:, :3, :, 1:4] = turn[:, 0]
    for b in range(slots):
        p, f = 6 + 9 * b, 4 + 4 * b
        lin[:, p : p + 3, :, f + 1 : f + 4] = turn[:, b + 1]
        lin[:, p + 6 : p + 9, :, f + 1 : f + 4] = stretch[:, b]
    return lin


def _normal_equations(stack: _Stack, poses: _Poses, d) -> tuple[np.ndarray, np.ndarray]:
    """``(J^T W J, J^T W r)`` of every problem at ``poses``, (K, P, P) and
    (K, P), with W = diag(a) and ``d`` the residual rows there: J^T W J
    from the feature moments, ``sum_r L_r A L_r^T`` per problem; J^T W r
    from the rows, as ``sum_r L_r (a d_r f)``, since its moment form
    cancels near convergence. Padded slots get an identity block."""
    lin = _jacobian_map(stack, poses)
    num, size, _, width = lin.shape
    flat = lin.reshape(num, size, 3 * width)
    hess = (lin.reshape(num, 3 * size, width) @ stack.moments).reshape(num, size, -1)
    hess = hess @ flat.swapaxes(1, 2)
    grad = flat @ ((d * stack.a[..., None]).swapaxes(1, 2) @ stack.features).reshape(num, -1, 1)
    if stack.pad is not None:
        hess.reshape(num, -1)[:, :: size + 1] += stack.pad
    return hess, grad[..., 0]


def _prune(stack: _Stack, sq) -> np.ndarray:
    """Deactivate active rows whose residual norm exceeds their problem's
    threshold, reading the norms from ``sq``, the |d|^2 of the rows
    :func:`_residual` gave at the current poses. A keypoint block, or an
    object block's frame, that would drop below its minimum keeps all of its
    pairs. Returns the number newly pruned per problem; active sets are
    monotone, and the moments are refreshed when any row is pruned."""
    over = stack.active & (np.sqrt(sq) > stack.threshold[:, None])
    if not over.any():
        return np.zeros(len(sq), dtype=int)
    bins = len(stack.floor)
    bad = np.bincount(stack.segment[over], minlength=bins)
    kept = np.bincount(stack.segment[stack.active], minlength=bins) - bad
    drop = over & ((bad > 0) & (kept >= stack.floor))[stack.segment]
    stack.active &= ~drop
    stack.weigh()
    return drop.sum(axis=1)


def _solve_each(mats, rhs) -> tuple[np.ndarray, np.ndarray]:
    """Solutions of ``mats[k] x = rhs[k]`` and a mask of the nonsingular
    systems; a singular one gets x = 0. One stacked solve unless some
    system is singular, which makes the stacked solve raise for all."""
    try:
        return np.linalg.solve(mats, rhs[..., None])[..., 0], np.ones(len(rhs), dtype=bool)
    except np.linalg.LinAlgError:
        out, ok = np.zeros_like(rhs), np.ones(len(rhs), dtype=bool)
        for k, (mat, vec) in enumerate(zip(mats, rhs)):
            try:
                out[k] = np.linalg.solve(mat, vec)
            except np.linalg.LinAlgError:
                ok[k] = False
        return out, ok


@functools.cache
def _eye(size: int) -> np.ndarray:
    """The (size, size) identity."""
    eye = np.eye(size)
    eye.flags.writeable = False  # shared by every caller
    return eye


def _damped_steps(stack: _Stack, poses: _Poses, d, sq, hess, grad, lam, cost, search):
    """One Levenberg-damped Gauss-Newton step of each problem in ``search``
    (indices), in lockstep. Per problem, up to DAMPING_TRIES times: solve
    ``(J^T J + lam I) delta = -J^T r`` and update lam by the damping rule
    (``LAMBDA_START``); a singular system is a rejected try. ``lam`` is
    updated in place. Each try evaluates the whole stack, the problems not
    tried at a zero step, and the next try is made by the problems whose
    try was rejected, from their values before it. Returns the accepted
    mask and the poses, residual rows ``d``, their ``sq`` (|d|^2) and the
    costs after the step. A try of every problem reads and writes whole
    arrays instead of gathering and scattering its problems' entries."""
    accepted = np.zeros(len(cost), dtype=bool)
    eye = _eye(hess.shape[1])
    for _ in range(DAMPING_TRIES):
        if not len(search):
            break
        tried = slice(None) if len(search) == len(cost) else search
        step, ok = _solve_each(hess[tried] + lam[tried, None, None] * eye, -grad[tried])
        delta = np.zeros(grad.shape)
        delta[tried] = step
        with np.errstate(over="ignore", invalid="ignore"):
            trial = poses.retract(delta)
            rows = _residual(stack, trial)
            trial_sq = _squares(rows)
            trial_cost = _cost(stack, trial_sq)
        new = trial_cost[tried]
        good = ok & np.isfinite(new) & (new <= cost[tried] + ACCEPT_SLACK)
        lam[tried] = np.where(good, np.maximum(lam[tried] / 10, LAMBDA_FLOOR), lam[tried] * 10)
        accepted[tried] = good  # a problem is tried until its first accepted try
        lost = search[~good]
        if len(lost):
            trial.put(lost, poses.take(lost))
            rows[lost], trial_sq[lost], trial_cost[lost] = d[lost], sq[lost], cost[lost]
        poses, d, sq, cost, search = trial, rows, trial_sq, trial_cost, lost
    return accepted, poses, d, sq, cost


def _weighted_blocks(problem: RegistrationProblem) -> RegistrationProblem:
    """The problem without the blocks of a zero weight."""
    cfg = problem.config
    if cfg.w_o == 0 and problem.object_blocks:
        problem = replace(problem, object_blocks=[])
    if cfg.w_c == 0 and problem.keypoints is not None:
        problem = replace(problem, keypoints=None)
    return problem


def gauss_newton_solve_batch(
    problems: list[RegistrationProblem],
) -> list[SolveReport | UnsolvableProblemError]:
    """Damped Gauss-Newton solves of the joint energies of ``problems``, in
    lockstep: each iteration prunes, forms the normal equations and takes a
    damped step for every problem still running, as one stacked computation.
    Each problem follows its own rules exactly as if it were solved alone:
    residual pruning to a monotone active set with per-block floors, the
    damping lam and its tries, the acceptance and convergence tests and
    MAX_ITERATIONS. Entry k is problem k's report, or the
    UnsolvableProblemError of a problem with no weighted block (returned,
    not raised)."""
    problems = [_weighted_blocks(p) for p in problems]
    out: list = [
        None if p.keypoints is not None or p.object_blocks else UnsolvableProblemError("problem has no blocks")
        for p in problems
    ]
    todo = [k for k, entry in enumerate(out) if entry is None]
    for start in range(0, len(todo), LOCKSTEP_GROUP):
        chunk = todo[start : start + LOCKSTEP_GROUP]
        for k, report in zip(chunk, _lockstep([problems[k] for k in chunk])):
            out[k] = report
    return out


def gauss_newton_solve(problem: RegistrationProblem) -> SolveReport:
    """:func:`gauss_newton_solve_batch` of one problem; raises its
    UnsolvableProblemError."""
    (report,) = gauss_newton_solve_batch([problem])
    if isinstance(report, UnsolvableProblemError):
        raise report
    return report


def _lockstep(problems: list[RegistrationProblem]) -> list[SolveReport]:
    """The lockstep solve of problems that each have a block. A problem that
    stops is reported, and its threshold set to infinity so that it prunes
    no more; it stays in the stack, but takes no more steps."""
    stack = _Stack(problems)
    poses = _Poses.initial(problems)
    running = np.ones(len(problems), dtype=bool)
    lam = np.full(len(problems), LAMBDA_START)
    pruned = np.zeros(len(problems), dtype=int)
    d = _residual(stack, poses)
    sq = _squares(d)
    cost = _cost(stack, sq)
    reports = [None] * len(problems)
    iterations = 0
    while True:
        if iterations == MAX_ITERATIONS:
            stop = running
        else:
            iterations += 1
            newly = _prune(stack, sq)
            if newly.any():
                pruned += newly
                cost = _cost(stack, sq)
            stop = running & (cost < 1e-28)
            hess, grad = _normal_equations(stack, poses, d)
            before = cost
            accepted, poses, d, sq, cost = _damped_steps(
                stack, poses, d, sq, hess, grad, lam, cost, (running & ~stop).nonzero()[0]
            )
            converged = before - cost <= CONVERGENCE_TOL * np.maximum(before, 1e-30)
            stop |= running & (~accepted | converged)
        idx = stop.nonzero()[0]
        if len(idx):
            for j, report in zip(idx, _reports(problems, stack, poses, sq, idx, iterations, cost, pruned)):
                reports[j] = report
        running = running & ~stop
        if not running.any():
            return reports
        stack.threshold[stop] = np.inf


def _reports(problems, stack: _Stack, poses: _Poses, sq, idx, iterations, cost, pruned) -> list[SolveReport]:
    """The reports of the stack's problems ``idx``, built together; ``sq``
    holds the |d|^2 of their final rows. One test over the values of every
    pose of the stack picks the pose builders: unchecked when all are finite
    (a scale, the exponential of a log-scale, is then positive), else the
    checked constructors, which raise as for a lone pose. Each pose owns copies of
    its slot's arrays: a report outlives the batch, and a view would keep
    the batch's buffer alive at the cost of a whole array object. Each
    block's rms is the root mean square of its active rows' residual norms,
    summed block by block in row order."""
    rot, trans, scale = poses.rot, poses.trans, poses.scale
    rigid, placed = _pose_builders(rot, trans, scale)
    # each segment's active rows; in row order a problem's rows run segment
    # by segment, so the squared norms of the active rows of problems
    # ``idx``, gathered in order, hold each block's as one run
    held = np.bincount(stack.segment[stack.active], minlength=len(stack.floor)).tolist()
    rows = stack.active
    if len(idx) < len(rows):  # else every problem is reported: no mask
        chosen = np.zeros(len(rows), dtype=bool)
        chosen[idx] = True
        rows = rows & chosen[:, None]
    norms = np.sqrt(sq[rows])
    squares = norms * norms
    end = 0

    def rms(n):  # of the next n squares
        nonlocal end
        end += n
        return math.sqrt(float(np.add.reduce(squares[end - n : end])) / n) if n else 0.0

    out = []
    for j, final, total in zip(idx, cost[idx].tolist(), pruned[idx].tolist()):
        problem, seg, stats = problems[j], stack.first[j], []
        if problem.keypoints is not None:
            n, seg = held[seg], seg + 1
            stats.append(BlockStat("keypoint", None, n, len(problem.keypoints), rms(n)))
        for blk in problem.object_blocks:
            n, seg = held[seg] + held[seg + 1], seg + 2
            stats.append(BlockStat("object", blk.track_id, n, blk.total_pairs(), rms(n)))
        slots = range(1, len(problem.object_blocks) + 1)
        cameras = [_GAUGE, rigid(rot[j, 0].copy(), trans[j, 0].copy())]
        objects = [placed(rot[j, b].copy(), trans[j, b].copy(), scale[j, b - 1].copy()) for b in slots]
        track_ids = [blk.track_id for blk in problem.object_blocks]
        out.append(SolveReport(cameras, objects, track_ids, iterations, final, total, stats))
    return out


def icp_polish(
    index: PairIndex, pairs: list[tuple[int, int]], reports: list[SolveReport], scfg: SolverConfig
) -> None:
    """Polish camera 1 of each pair's report by ICP, in one
    :func:`icp_refine_sets` call: pair (i, j)'s frame-j points onto its
    frame-i points, within ``scfg.residual_prune``. This is the pair path's
    last step; a sequence's pairs keep their joint pose. A frame's points are
    its observations' depth points, then its side of the pair's keypoint
    matches (``FrameSet.frame_points`` of the pair's 2-frame set). The
    refinement replaces the pose when ICP converges no further than that
    radius and 10 degrees from it; a pair with an empty side is left as
    it is. ``index`` is the set's :class:`PairIndex`."""
    sets = []
    for (i, j), report in zip(pairs, reports):
        src, tgt = index.frame_points(j, (i, j)), index.frame_points(i, (i, j))
        if len(src) and len(tgt):
            sets.append((src, tgt, report))
    results = icp_refine_sets(
        [s for s, _, _ in sets], [t for _, t, _ in sets],
        [r.camera_poses[1] for _, _, r in sets], scfg.residual_prune,
    )
    # accept only small corrections: an "improvement" that moves the pose
    # beyond the association radius means ICP slid disjoint surfaces onto
    # each other (common at near-zero overlap). The distances are
    # metrics.pose_error's, bit for bit, for all converged pairs at once
    done = [(report, res.pose) for (_, _, report), res in zip(sets, results) if res.converged]
    if not done:
        return
    # each converged pair's (after, before) rotations and translations
    rots = np.array([(pose.rotation, report.camera_poses[1].rotation) for report, pose in done])
    trans = np.array([(pose.translation, report.camera_poses[1].translation) for report, pose in done])
    rot = rots[:, 0].swapaxes(1, 2) @ rots[:, 1]
    shift = _norms(trans[:, 0] - trans[:, 1])
    close = (shift <= scfg.residual_prune) & (np.degrees(rotation_angle(rot)) <= 10.0)
    for (report, pose), keep in zip(done, close.tolist()):
        if keep:
            report.camera_poses[1] = pose


def register_pairs(
    fs: FrameSet,
    plan: dict[tuple[int, int], tuple[MatchConfig | list[PairMatch], FilterConfig]],
    scfg: SolverConfig,
    icp: bool,
    screen=None,
) -> dict[tuple[int, int], PairResult]:
    """The pair stage: every pair of ``plan`` (see :func:`build_problems`)
    registered by one :func:`build_problems`, one
    :func:`gauss_newton_solve_batch` and, if ``icp``, one :func:`icp_polish`
    call over every solved pair, on one :class:`PairIndex` of the set.
    :func:`register_pair` polishes its one pair; a sequence keeps each
    pair's joint pose. Fits every observation's ``noc_fit`` not yet cached
    first, in one batch. Results follow the plan's order; a screened pair
    gets no entry, and a pair that cannot be built or solved a failed
    result with its reason."""
    fit_noc(fs.observations)
    index = PairIndex(fs)
    setups = build_problems(index, plan, scfg, screen)
    built = [pair for pair, setup in setups.items() if setup.problem is not None]
    # a SolveReport, or the batch's UnsolvableProblemError
    reports = dict(zip(built, gauss_newton_solve_batch([setups[pair].problem for pair in built])))
    polish = [p for p in built if isinstance(reports[p], SolveReport)] if icp else []
    if polish:
        icp_polish(index, polish, [reports[p] for p in polish], scfg)
    results = {}
    for pair, setup in setups.items():
        report = reports.get(pair, setup.reason)
        if isinstance(report, SolveReport):
            results[pair] = PairResult(True, None, report, setup.matches)
        elif not setup.screened:
            results[pair] = PairResult(False, str(report), matches=setup.matches)
    return results


def register_pair(
    fs: FrameSet,
    mcfg: MatchConfig | None = None,
    scfg: SolverConfig | None = None,
    icp: bool = True,
    use_objects: bool = True,
) -> PairResult:
    """Full pairwise registration, the one-pair plan of
    :func:`register_pairs`: object matching (none unless ``use_objects``),
    the pairwise ``KEYPOINT_FILTER``, the joint solve and, if ``icp``, ICP.
    Raises ValidationError, naming the bad record, on malformed input and
    ValueError unless the set has 2 frames; only then fits every
    observation's ``noc_fit`` not yet cached, in one batch."""
    fs.validate()
    if fs.num_frames != 2:
        raise ValueError("register_pair expects exactly 2 frames")
    plan = {(0, 1): ((mcfg or MatchConfig()) if use_objects else [], KEYPOINT_FILTER)}
    return register_pairs(fs, plan, scfg or SolverConfig(), icp)[(0, 1)]
