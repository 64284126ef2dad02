"""Closed-form rigid alignment (Kabsch), iterative outlier filtering, and
point-to-point ICP refinement."""

from __future__ import annotations

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
    "icp_refine",
]


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

    Defaults follow the pairwise setting (liberal 0.20 m threshold); sequence
    odometry uses 0.30 m and loop closures 0.15 m.
    """

    distance_threshold: float = 0.20
    min_pairs: int = 3
    max_rounds: int = 10

    def __post_init__(self):
        if self.distance_threshold <= 0:
            raise ValueError("distance_threshold must be positive")
        if self.min_pairs < 3:
            raise ValueError("min_pairs must be >= 3")


def _kabsch(source, target, weights=None):
    """Rotation/translation minimizing sum w_i ||R s_i + t - t_i||^2."""
    source = np.asarray(source, dtype=float).reshape(-1, 3)
    target = np.asarray(target, dtype=float).reshape(-1, 3)
    if weights is None:
        n = float(len(source))
        mu_s = source.sum(axis=0) / n
        mu_t = target.sum(axis=0) / n
        cov = (target - mu_t).T @ (source - mu_s)
    else:
        w = np.asarray(weights, dtype=float)
        wsum = w.sum()
        mu_s = (w[:, None] * source).sum(axis=0) / wsum
        mu_t = (w[:, None] * target).sum(axis=0) / wsum
        cov = (w[:, None] * (target - mu_t)).T @ (source - mu_s)
    u, s, vt = np.linalg.svd(cov)
    u[:, 2] *= np.sign(np.linalg.det(u @ vt))  # u @ diag(1, 1, d)
    rot = u @ vt
    t = mu_t - rot @ mu_s
    return rot, t, s


def _kabsch_pose(source, target, weights=None) -> RigidPose:
    """The pose of :func:`kabsch_solve`, without its residual."""
    if len(source) != len(target):
        raise ValueError("source/target length mismatch")
    if len(source) < 3:
        raise DegenerateAlignmentError(f"need >= 3 pairs, got {len(source)}")
    rot, t, svals = _kabsch(source, target, weights)
    # rank < 2 cross-covariance: rotation about the dominant axis is free
    scale_ref = max(svals[0], 1e-30)
    if svals[1] / scale_ref < 1e-9:
        raise DegenerateAlignmentError("rank-deficient cross-covariance (collinear points)")
    return RigidPose.from_rotation(rot, t)


def kabsch_solve(source, target, weights=None) -> AlignmentResult:
    """Least-squares rigid alignment of paired point sets (source onto target).

    Raises DegenerateAlignmentError for < 3 pairs or (near-)collinear
    configurations where the rotation is not unique.
    """
    source = np.asarray(source, dtype=float).reshape(-1, 3)
    target = np.asarray(target, dtype=float).reshape(-1, 3)
    pose = _kabsch_pose(source, target, weights)
    res = apply_rigid(pose, source) - target
    rms = float(np.sqrt(np.mean(np.sum(res**2, axis=1))))
    return AlignmentResult(pose, rms, np.ones(len(source), dtype=bool))


def kabsch_filter(source, target, cfg: FilterConfig | None = None) -> AlignmentResult:
    """Iterate {solve on inliers, drop pairs above the residual threshold}
    until a fixed point or cfg.max_rounds. Outliers are never re-admitted, so
    the inlier set shrinks monotonically."""
    cfg = cfg or FilterConfig()
    source = np.asarray(source, dtype=float).reshape(-1, 3)
    target = np.asarray(target, dtype=float).reshape(-1, 3)
    if len(source) != len(target):
        raise ValueError("source/target length mismatch")
    inliers = np.ones(len(source), dtype=bool)
    result = None
    for _ in range(cfg.max_rounds):
        if inliers.sum() < cfg.min_pairs:
            raise DegenerateAlignmentError(
                f"{int(inliers.sum())} surviving pairs < min_pairs={cfg.min_pairs}"
            )
        pose = _kabsch_pose(source[inliers], target[inliers])
        res = np.linalg.norm(source @ pose.rotation.T + pose.translation - target, axis=1)
        keep = inliers & (res <= cfg.distance_threshold)
        result = AlignmentResult(
            pose,
            float(np.sqrt(np.mean(res[keep] ** 2))) if keep.any() else 0.0,
            keep.copy(),
        )
        if keep.sum() == inliers.sum():
            return result
        inliers = keep
    if inliers.sum() < cfg.min_pairs:
        raise DegenerateAlignmentError(
            f"{int(inliers.sum())} surviving pairs < min_pairs={cfg.min_pairs}"
        )
    return result


def icp_refine(
    source,
    target,
    init: RigidPose | None = None,
    max_corr_dist: float = 0.1,
    max_iters: int = 30,
) -> AlignmentResult:
    """Point-to-point ICP from an initial pose.

    Associates each transformed source point with its nearest target neighbor
    within max_corr_dist, updates the pose by Kabsch, and iterates until the
    update is < 1e-6 or the matched-pair rms stops decreasing. If no
    associations exist at the initial pose, returns init with converged=False.
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
    for _ in range(max_iters):
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
