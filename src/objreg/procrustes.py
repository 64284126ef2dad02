"""Closed-form rigid alignment (Kabsch), iterative outlier filtering, and
point-to-point ICP refinement."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import RigidPose, _is_int, _is_real, _norms, _pose_builders, _squares, rotation_angle

__all__ = [
    "AlignmentResult",
    "FilterConfig",
    "DegenerateAlignmentError",
    "kabsch_filter",
    "kabsch_filter_sets",
    "icp_refine",
    "icp_refine_sets",
]

FILTER_MAX_ROUNDS = 10  # a Kabsch filter stops after at most this many rounds
ICP_MAX_ITERATIONS = 30  # an ICP set stops after at most this many rounds


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


@dataclass(frozen=True)
class FilterConfig:
    """Iterative Kabsch-filter settings; the round limit is ``FILTER_MAX_ROUNDS``.

    Defaults follow the pairwise setting (liberal 0.20 m threshold); the
    keypoint filters in use are ``joint_solver.KEYPOINT_FILTER`` (one pair)
    and ``posegraph.ODOMETRY_KEYPOINT_FILTER`` and ``LOOP_KEYPOINT_FILTER``
    (a sequence's consecutive and loop pairs). Settings are frozen and
    compare and hash by value: ``joint_solver.build_problems`` filters the
    keypoints of all pairs with equal settings in one ``kabsch_filter_sets``
    call.
    """

    distance_threshold: float = 0.20
    min_pairs: int = 3

    def __post_init__(self):
        if not (_is_real(self.distance_threshold) and 0 < self.distance_threshold < np.inf):
            raise ValueError(
                f"distance_threshold must be finite and positive, got {self.distance_threshold!r}"
            )
        if not (_is_int(self.min_pairs) and self.min_pairs >= 3):
            raise ValueError(f"min_pairs must be an int >= 3, got {self.min_pairs!r}")


_TINY = np.finfo(float).tiny


def _kabsch(source, target, weights=None):
    """Rotation/translation minimizing sum w_i ||R s_i + t - t_i||^2, for one
    (N, 3) point set or a stack (..., N, 3) of them, with weights (..., N),
    all ones when None."""
    if weights is None:
        # a unit weight leaves each product as it is: the weighted form's bits
        wsum = max(float(source.shape[-2]), _TINY)
        mu_s = source.sum(axis=-2) / wsum
        mu_t = target.sum(axis=-2) / wsum
        centred = target - mu_t[..., None, :]
    else:
        w = np.asarray(weights, dtype=float)
        # all-zero weights give a zero (rank-deficient) fit, not NaN
        wsum = np.maximum(w.sum(axis=-1), _TINY)[..., None]
        w = w[..., None]
        mu_s = (w * source).sum(axis=-2) / wsum
        mu_t = (w * target).sum(axis=-2) / wsum
        centred = w * (target - mu_t[..., None, :])
    cov = centred.swapaxes(-1, -2) @ (source - mu_s[..., None, :])
    u, s, vt = np.linalg.svd(cov)
    u[..., 2] *= np.sign(np.linalg.det(u @ vt))[..., None]  # u @ diag(1, 1, d)
    rot = u @ vt
    t = mu_t - (rot @ mu_s[..., None])[..., 0]
    return rot, t, s


def _padded(sources, targets) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Paired (N_k, 3) point sets as two zero-padded (K, N, 3) stacks, N the
    largest N_k, and their (K, N) mask of each set's rows, or None when every
    set has N rows. The stacks and the mask are stored point by point, as
    (N, K, 3) and (N, K) arrays: a sum over each set's points, or a set's
    points less its mean, then runs over whole rows of K x 3 values, and
    adds in the same order as over a (K, N, 3) array."""
    sizes = [len(s) for s in sources]
    n = max(sizes)
    stack = np.zeros((2, n, len(sizes), 3))
    for k, (s, t) in enumerate(zip(sources, targets)):
        stack[0, : len(s), k] = s
        stack[1, : len(t), k] = t
    rows = None if min(sizes) == n else (np.arange(n)[:, None] < np.array(sizes)).T
    return stack[0].transpose(1, 0, 2), stack[1].transpose(1, 0, 2), rows


def _rank_deficient(svals):
    """Whether a cross-covariance with singular values ``svals`` (..., 3) has
    rank < 2, leaving rotation about the dominant axis free."""
    return svals[..., 1] / np.maximum(svals[..., 0], 1e-30) < 1e-9


_COLLINEAR = "rank-deficient cross-covariance (collinear points)"


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
    num = len(sizes)
    src, tgt, rows = _padded(sources, targets)
    # with no set padded, the first round weighs every row as unit weights would
    inliers = np.ones(src.shape[:2], dtype=bool) if rows is None else rows
    weights = None if rows is None else inliers
    count = np.array(sizes)
    out: list = [None] * num
    live = np.ones(num, dtype=bool)  # neither failed nor at a fixed point
    for _ in range(FILTER_MAX_ROUNDS):
        rot, trans, svals = _kabsch(src, tgt, weights)
        short = count < cfg.min_pairs
        failed = live & (short | _rank_deficient(svals))
        if failed.any():
            for k in np.flatnonzero(failed):
                out[k] = (
                    _too_few(count[k], cfg) if short[k] else DegenerateAlignmentError(_COLLINEAR)
                )
            live &= ~failed
        # each set's residual rows, stored point by point like the sets
        res = np.matmul(src, rot.swapaxes(-1, -2), out=np.empty_like(src))
        res += trans[:, None]
        res -= tgt
        res = np.sqrt(_squares(res))  # np.linalg.norm(..., axis=-1), bit for bit
        inliers &= res <= cfg.distance_threshold
        weights = inliers
        kept = inliers.sum(axis=1)
        live &= kept < count
        count = kept
        if not live.any():
            break
    for k in np.flatnonzero(live & (count < cfg.min_pairs)):  # out of rounds
        out[k] = _too_few(count[k], cfg)
    fitted = [k for k in range(num) if out[k] is None]
    at = slice(None) if len(fitted) == num else fitted
    rigid, _ = _pose_builders(rot[at], trans[at])
    for k in fitted:
        flags = inliers[k, : sizes[k]].copy()
        # summed over this set alone, in the order np.mean of it sums
        sq = res[k, : sizes[k]][flags] ** 2
        rms = math.sqrt(sq.sum() / len(sq))
        out[k] = AlignmentResult(rigid(rot[k], trans[k]), rms, flags)
    return out


def kabsch_filter(source, target, cfg: FilterConfig) -> AlignmentResult:
    """Iterate {solve on inliers, drop pairs above the residual threshold}
    until a fixed point or FILTER_MAX_ROUNDS. Outliers are never re-admitted,
    so the inlier set shrinks monotonically. The one-set case of
    :func:`kabsch_filter_sets`; raises its DegenerateAlignmentError."""
    (result,) = kabsch_filter_sets([source], [target], cfg)
    if isinstance(result, DegenerateAlignmentError):
        raise result
    return result


def icp_refine_sets(sources, targets, inits, max_corr_dist: float) -> list[AlignmentResult]:
    """Point-to-point ICP of every ``(sources[k], targets[k])`` pair from
    ``inits[k]`` (None for the identity), in lockstep.

    Each set follows its own rules, as if refined alone. A round associates
    each transformed source point with its nearest target neighbor within
    max_corr_dist and updates the pose by Kabsch. A set stops when it has
    fewer than 3 associations, when the matched-pair rms stops decreasing
    (it keeps its best pose), on a rank-deficient update, once the update
    is < 1e-6, or after ICP_MAX_ITERATIONS rounds. A set with no
    associations at its initial pose keeps it, with converged=False.

    Every round queries the k-d tree of each running set's own target. The
    updates are one batched Kabsch solve over the associated pairs of the
    sets that step, as zero-padded rows weighted 0/1. Raises ValueError on
    an empty set.
    """
    sources = [np.asarray(s, dtype=float).reshape(-1, 3) for s in sources]
    targets = [np.asarray(t, dtype=float).reshape(-1, 3) for t in targets]
    if any(not (len(s) and len(t)) for s, t in zip(sources, targets)):
        raise ValueError("empty point set")
    num = len(sources)
    if not num:
        return []
    # imported on first use: scipy.spatial costs ~8 MB of memory, which a
    # process that only solves pose graphs never needs
    from scipy.spatial import cKDTree

    trees = [cKDTree(t) for t in targets]
    inits = [init or RigidPose.identity() for init in inits]
    rot = np.array([p.rotation for p in inits])  # each set's current pose
    trans = np.array([p.translation for p in inits])
    best_rot, best_trans = rot.copy(), trans.copy()  # each set's pose of least rms
    best_rms = [math.inf] * num
    flags = [np.zeros(len(s), dtype=bool) for s in sources]
    history: list[list] = [[] for _ in range(num)]
    unmatched = [False] * num  # no associations at the initial pose
    live = list(range(num))  # the sets still running
    for _ in range(ICP_MAX_ITERATIONS):
        stepping, src, tgt = [], [], []
        for k in live:
            moved = sources[k] @ rot[k].T + trans[k]
            dist, idx = trees[k].query(moved, distance_upper_bound=max_corr_dist)
            matched = np.isfinite(dist)
            count = np.count_nonzero(matched)
            if count < 3:
                unmatched[k] = best_rms[k] == math.inf
                continue
            if count < len(dist):  # else every point is matched: no copies
                dist, moved, idx = dist[matched], moved[matched], idx[matched]
            # summed as np.mean of the squared distances sums them
            rms = math.sqrt((dist**2).sum() / count)
            if rms > best_rms[k] - 1e-12:
                continue  # the last update did not help: keep the best pose
            history[k].append(rms)
            best_rms[k], flags[k] = rms, matched
            stepping.append(k)
            src.append(moved)
            tgt.append(targets[k][idx])
        if not stepping:
            break
        upd_rot, upd_trans, svals = _kabsch(*_padded(src, tgt))
        at = slice(None) if len(stepping) == num else np.array(stepping)  # every set steps: no gathers
        best_rot[at], best_trans[at] = rot[at], trans[at]
        rot[at] = upd_rot @ rot[at]
        trans[at] = (upd_rot @ trans[at][..., None])[..., 0] + upd_trans
        # a rank-deficient update stops its set at its best pose, a tiny one
        # at the updated pose
        degenerate = _rank_deficient(svals)
        shift = _norms(upd_trans)
        done = shift < 1e-6  # a longer shift is no tiny update, whatever its angle
        if done.any():
            done = rotation_angle(upd_rot) + shift < 1e-6
        tiny = done & ~degenerate
        if tiny.any():
            at = np.array(stepping)[tiny]
            best_rot[at], best_trans[at] = rot[at], trans[at]
        live = [k for k, stop in zip(stepping, (done | degenerate).tolist()) if not stop]
    out = []
    rigid, _ = _pose_builders(best_rot, best_trans)
    # own copies: a refined pose may outlive every other result of the batch
    for k in range(num):
        pose = rigid(best_rot[k].copy(), best_trans[k].copy())
        if unmatched[k]:
            out.append(AlignmentResult(pose, np.inf, flags[k], converged=False))
        else:
            out.append(AlignmentResult(pose, best_rms[k], flags[k], rms_history=history[k]))
    return out


def icp_refine(source, target, init: RigidPose | None, max_corr_dist: float) -> AlignmentResult:
    """Point-to-point ICP from an initial pose: the one-set case of
    :func:`icp_refine_sets`, which gives its stopping rules."""
    (result,) = icp_refine_sets([source], [target], [init], max_corr_dist)
    return result
