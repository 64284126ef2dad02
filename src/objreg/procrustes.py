"""Closed-form rigid alignment (Kabsch), iterative outlier filtering, and
point-to-point ICP refinement."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .geometry import RigidPose, apply_rigid, compose, rotation_angle

__all__ = [
    "AlignmentResult",
    "FilterConfig",
    "DegenerateAlignmentError",
    "kabsch_solve",
    "kabsch_filter",
    "kabsch_filter_sets",
    "icp_refine",
]

ICP_MAX_ITERATIONS = 30  # icp_refine stops after at most this many iterations


class DegenerateAlignmentError(ValueError):
    """Too few pairs or rank-deficient geometry for a unique alignment."""


@dataclass
class AlignmentResult:
    pose: RigidPose
    rms_residual: float
    inlier_flags: np.ndarray  # bool per input pair
    converged: bool = True  # False for ICP no-op (no associations)
    rms_history: list = field(default_factory=list)  # per-iteration, ICP only

    @property
    def num_inliers(self) -> int:
        return int(np.count_nonzero(self.inlier_flags))


@dataclass
class FilterConfig:
    """Iterative Kabsch-filter settings.

    Defaults follow the pairwise setting (liberal 0.20 m threshold); the
    keypoint filters in use are ``joint_solver.KEYPOINT_FILTER`` and
    ``posegraph.ODOMETRY_KEYPOINT_FILTER`` and ``LOOP_KEYPOINT_FILTER``.
    """

    distance_threshold: float = 0.20
    min_pairs: int = 3
    max_rounds: int = 10

    def __post_init__(self):
        if self.distance_threshold <= 0:
            raise ValueError("distance_threshold must be positive")
        if self.min_pairs < 3:
            raise ValueError("min_pairs must be >= 3")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")


_TINY = np.finfo(float).tiny


def _kabsch(source, target, weights=None):
    """Rotation/translation minimizing sum w_i ||R s_i + t - t_i||^2, for one
    (N, 3) point set, or a stack (..., N, 3) of them with weights (..., N)."""
    if weights is None:  # one (N, 3) set
        n = float(len(source))
        mu_s = source.sum(axis=0) / n
        mu_t = target.sum(axis=0) / n
        cov = (target - mu_t).T @ (source - mu_s)
    else:
        w = np.asarray(weights, dtype=float)
        # all-zero weights give a zero (rank-deficient) fit, not NaN
        wsum = np.maximum(w.sum(axis=-1), _TINY)[..., None]
        w = w[..., None]
        mu_s = (w * source).sum(axis=-2) / wsum
        mu_t = (w * target).sum(axis=-2) / wsum
        cov = np.swapaxes(w * (target - mu_t[..., None, :]), -1, -2) @ (
            source - mu_s[..., None, :]
        )
    u, s, vt = np.linalg.svd(cov)
    u[..., 2] *= np.sign(np.linalg.det(u @ vt))[..., None]  # u @ diag(1, 1, d)
    rot = u @ vt
    t = mu_t - (rot @ mu_s[..., None])[..., 0]
    return rot, t, s


def _rank_deficient(svals):
    """Whether a cross-covariance with singular values ``svals`` (..., 3) has
    rank < 2, leaving rotation about the dominant axis free."""
    return svals[..., 1] / np.maximum(svals[..., 0], 1e-30) < 1e-9


_COLLINEAR = "rank-deficient cross-covariance (collinear points)"


def _kabsch_pose(source, target) -> RigidPose:
    """The pose of :func:`kabsch_solve`, without its residual."""
    if len(source) != len(target):
        raise ValueError("source/target length mismatch")
    if len(source) < 3:
        raise DegenerateAlignmentError(f"need >= 3 pairs, got {len(source)}")
    rot, t, svals = _kabsch(source, target)
    if _rank_deficient(svals):
        raise DegenerateAlignmentError(_COLLINEAR)
    return RigidPose.from_rotation(rot, t)


def kabsch_solve(source, target) -> AlignmentResult:
    """Least-squares rigid alignment of paired point sets (source onto target).

    Raises DegenerateAlignmentError for < 3 pairs or (near-)collinear
    configurations where the rotation is not unique.
    """
    source = np.asarray(source, dtype=float).reshape(-1, 3)
    target = np.asarray(target, dtype=float).reshape(-1, 3)
    pose = _kabsch_pose(source, target)
    res = apply_rigid(pose, source) - target
    rms = float(np.sqrt(np.mean(np.sum(res**2, axis=1))))
    return AlignmentResult(pose, rms, np.ones(len(source), dtype=bool))


def _too_few(count, cfg: FilterConfig) -> DegenerateAlignmentError:
    return DegenerateAlignmentError(f"{int(count)} surviving pairs < min_pairs={cfg.min_pairs}")


def kabsch_filter_sets(
    sources, targets, cfg: FilterConfig | None = None
) -> list[AlignmentResult | DegenerateAlignmentError]:
    """:func:`kabsch_filter` of every ``(sources[k], targets[k])`` pair at
    once. The sets are padded to one (K, N, 3) stack and filtered in
    lockstep, each round one batched solve on every set's inliers (as 0/1
    weights). A set that has reached its fixed point is solved again on the
    same inliers, which gives the same bits, so the last round holds every
    set's fit. Entry k is the set's result, or the DegenerateAlignmentError
    kabsch_filter raises for it (returned, not raised). Raises ValueError
    when a pair's lengths differ."""
    cfg = cfg or FilterConfig()
    sources = [np.asarray(s, dtype=float).reshape(-1, 3) for s in sources]
    targets = [np.asarray(t, dtype=float).reshape(-1, 3) for t in targets]
    sizes = [len(s) for s in sources]
    if sizes != [len(t) for t in targets]:
        raise ValueError("source/target length mismatch")
    if not sizes:
        return []
    num, width = len(sizes), max(sizes)
    src = np.zeros((num, width, 3))
    tgt = np.zeros((num, width, 3))
    for k, (s, t) in enumerate(zip(sources, targets)):
        src[k, : len(s)] = s
        tgt[k, : len(t)] = t
    count = np.array(sizes)
    inliers = np.arange(width) < count[:, None]
    out: list = [None] * num
    live = np.ones(num, dtype=bool)  # neither failed nor at a fixed point
    for _ in range(cfg.max_rounds):
        rot, trans, svals = _kabsch(src, tgt, inliers)
        short = count < cfg.min_pairs
        failed = live & (short | _rank_deficient(svals))
        if failed.any():
            for k in np.flatnonzero(failed):
                out[k] = (
                    _too_few(count[k], cfg) if short[k] else DegenerateAlignmentError(_COLLINEAR)
                )
            live &= ~failed
        res = np.linalg.norm(src @ np.swapaxes(rot, -1, -2) + trans[:, None] - tgt, axis=-1)
        inliers &= res <= cfg.distance_threshold
        kept = inliers.sum(axis=1)
        live &= kept < count
        count = kept
        if not live.any():
            break
    for k in np.flatnonzero(live & (count < cfg.min_pairs)):  # out of rounds
        out[k] = _too_few(count[k], cfg)
    for k in range(num):
        if out[k] is None:
            flags = inliers[k, : sizes[k]].copy()
            # summed over this set alone, in the order np.mean of it sums
            sq = res[k, : sizes[k]][flags] ** 2
            rms = math.sqrt(sq.sum() / len(sq))
            out[k] = AlignmentResult(RigidPose.from_rotation(rot[k], trans[k]), rms, flags)
    return out


def kabsch_filter(source, target, cfg: FilterConfig | None = None) -> AlignmentResult:
    """Iterate {solve on inliers, drop pairs above the residual threshold}
    until a fixed point or cfg.max_rounds. Outliers are never re-admitted, so
    the inlier set shrinks monotonically. The one-set case of
    :func:`kabsch_filter_sets`; raises its DegenerateAlignmentError."""
    (result,) = kabsch_filter_sets([source], [target], cfg)
    if isinstance(result, DegenerateAlignmentError):
        raise result
    return result


def icp_refine(
    source, target, init: RigidPose | None = None, max_corr_dist: float = 0.1
) -> AlignmentResult:
    """Point-to-point ICP from an initial pose.

    Associates each transformed source point with its nearest target neighbor
    within max_corr_dist, updates the pose by Kabsch, and iterates until the
    update is < 1e-6, the matched-pair rms stops decreasing or
    ICP_MAX_ITERATIONS have run. If no associations exist at the initial
    pose, returns init with converged=False.
    """
    source = np.asarray(source, dtype=float).reshape(-1, 3)
    target = np.asarray(target, dtype=float).reshape(-1, 3)
    if len(source) == 0 or len(target) == 0:
        raise ValueError("empty point set")
    pose = (init or RigidPose.identity()).copy()
    tree = cKDTree(target)
    best_rms = np.inf
    best_pose = pose
    flags = np.zeros(len(source), dtype=bool)
    history = []
    for _ in range(ICP_MAX_ITERATIONS):
        moved = source @ pose.rotation.T + pose.translation
        dist, idx = tree.query(moved, distance_upper_bound=max_corr_dist)
        matched = np.isfinite(dist)
        if matched.sum() < 3:
            if not np.isfinite(best_rms):
                return AlignmentResult(pose, np.inf, flags, converged=False)
            break
        rms = float(np.sqrt(np.mean(dist[matched] ** 2)))
        if rms > best_rms - 1e-12:
            break  # last update did not help; keep best_pose
        history.append(rms)
        best_rms = rms
        best_pose = pose
        flags = matched
        try:
            upd = _kabsch_pose(moved[matched], target[idx[matched]])
        except DegenerateAlignmentError:
            break
        pose = compose(upd, pose)
        step = rotation_angle(upd.rotation) + np.linalg.norm(upd.translation)
        if step < 1e-6:
            best_pose = pose
            break
    return AlignmentResult(
        best_pose, best_rms if np.isfinite(best_rms) else 0.0, flags, rms_history=history
    )
