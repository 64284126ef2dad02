"""Object identification across frames: Hungarian assignment on embedding
distances, gated by class label, scale ratio, symmetry and distance
thresholds, with top-1 selection by surviving constraint count."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import _is_int, _is_real, _norms
from .observations import ObjectObservation
from .procrustes import kabsch_filter  # noqa: F401  (bench/tracing.py patches this name)

__all__ = [
    "MatchConfig",
    "PairMatch",
    "hungarian",
    "match_pair",
    "match_pairs",
]


@dataclass
class MatchConfig:
    embed_threshold: float = 0.05
    fallback_threshold: float = 0.15  # used when neither keypoints nor strict matches exist
    sequence_loop_threshold: float = 0.04
    max_scale_ratio: float = 1.5
    drop_symmetric: bool = True
    top_k: int = 1

    def __post_init__(self):
        if not (_is_int(self.top_k) and self.top_k >= 0):
            raise ValueError(f"top_k must be an int >= 0 (0 keeps every match), got {self.top_k!r}")
        if not isinstance(self.drop_symmetric, (bool, np.bool_)):
            raise ValueError(f"drop_symmetric must be a bool, got {self.drop_symmetric!r}")
        if not (_is_real(self.fallback_threshold) and 0 < self.fallback_threshold < np.inf):
            raise ValueError(
                f"fallback_threshold must be finite and positive, got {self.fallback_threshold!r}"
            )
        # register_sequence matches loop pairs with sequence_loop_threshold as embed_threshold
        for name in ("embed_threshold", "sequence_loop_threshold"):
            value = getattr(self, name)
            if not (_is_real(value) and 0 < value <= self.fallback_threshold):
                raise ValueError(f"need 0 < {name} <= fallback_threshold, got {value!r}")
        if not (_is_real(self.max_scale_ratio) and 1 < self.max_scale_ratio < np.inf):
            raise ValueError(f"max_scale_ratio must be finite and exceed 1, got {self.max_scale_ratio!r}")


@dataclass(slots=True)
class PairMatch:
    """A matched observation pair between two frames."""

    index_a: int
    index_b: int
    distance: float
    surviving_pairs: int = 0  # NOC-depth constraints surviving Kabsch filtering


def hungarian(cost: np.ndarray) -> list[tuple[int, int]]:
    """Minimum-cost maximum matching on a rectangular cost matrix.

    Returns (row, col) pairs sorted by row; rows/cols beyond min(n, m) stay
    unassigned. Empty matrices yield an empty assignment. A lone row or
    column is assigned its cheapest entry, the first of equal ones, as
    ``linear_sum_assignment`` assigns it, without calling it.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.size == 0:
        return []
    if cost.size == 1:
        if not math.isfinite(cost.item()):
            raise ValueError("costs must be finite")
        return [(0, 0)]
    if not np.all(np.isfinite(cost)):
        raise ValueError("costs must be finite")
    if min(cost.shape) == 1:
        k = int(np.argmin(cost))
        return [(0, k)] if len(cost) == 1 else [(k, 0)]
    # imported on first use: scipy.optimize costs ~11 MB of memory, which a
    # sequence whose assignments are all forced never needs
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(cost)
    return sorted(zip(rows.tolist(), cols.tolist()))


def match_pairs(
    observations: list[ObjectObservation],
    frames: list[list[int]],
    requests: list[tuple[int, int, MatchConfig, bool]],
) -> list[list[PairMatch]]:
    """:func:`match_pair` of many frame pairs of one observation list.

    ``frames[f]`` lists the positions in ``observations`` of frame f's
    observations, in order. Request ``(a, b, cfg, keypoints_present)``
    matches frame a's observations against frame b's, and its PairMatch
    indices index ``frames[a]`` and ``frames[b]``. The embedding distances
    and scale ratios of every request's candidates (same class, eligible
    under its cfg) are computed in one vectorized pass, then each class is
    assigned by :func:`hungarian`. The compared embeddings must share one
    length."""
    groups = {}  # (frame, drop_symmetric) -> class -> local indices

    def classes(frame, drop_symmetric):
        key = (frame, drop_symmetric)
        if key not in groups:
            by_class = groups[key] = {}
            for k, pos in enumerate(frames[frame]):
                o = observations[pos]
                if not (drop_symmetric and o.symmetry != "non_symmetric"):
                    by_class.setdefault(o.class_label, []).append(k)
        return groups[key]

    # every request's class blocks, and the flat (a, b) entries of their costs
    blocks, left, right = [], [], []
    for a, b, cfg, _ in requests:
        ga, gb = classes(a, cfg.drop_symmetric), classes(b, cfg.drop_symmetric)
        own = []
        for cls in sorted(ga.keys() & gb.keys()):
            ca, cb = ga[cls], gb[cls]
            own.append((ca, cb, len(left)))
            left += [frames[a][k] for k in ca for _ in cb]
            right += [frames[b][k] for _ in ca for k in cb]
        blocks.append(own)
    dist = ratio = np.zeros(0)
    if left:
        embeddings = [o.embedding for o in observations]
        scales = np.array([o.scale_estimate for o in observations])
        # embedding_distance of each entry, bit for bit, and its scale ratio
        # max(max(sa / sb), max(sb / sa))
        dist = _norms(np.array([embeddings[p] for p in left]) - np.array([embeddings[p] for p in right]))
        sa, sb = scales[left], scales[right]
        ratio = np.maximum((sa / sb).max(axis=1), (sb / sa).max(axis=1))
    dist_list, ratio_list = dist.tolist(), ratio.tolist()
    inliers = {}  # position -> its noc_fit's inlier count, 0 without a fit

    def survivors(pos):
        if pos not in inliers:
            fit = observations[pos].noc_fit
            inliers[pos] = 0 if fit is None else fit.num_inliers
        return inliers[pos]

    out = []
    for (a, b, cfg, keypoints_present), own in zip(requests, blocks):
        candidates = []
        for ca, cb, start in own:
            cost = dist[start : start + len(ca) * len(cb)].reshape(len(ca), len(cb))
            for r, c in hungarian(cost):
                e = start + r * len(cb) + c
                if ratio_list[e] < cfg.max_scale_ratio:
                    candidates.append(PairMatch(ca[r], cb[c], dist_list[e]))
        matches = [m for m in candidates if m.distance < cfg.embed_threshold]
        if not matches and not keypoints_present:
            matches = [m for m in candidates if m.distance < cfg.fallback_threshold]
        for m in matches:
            m.surviving_pairs = survivors(frames[a][m.index_a]) + survivors(frames[b][m.index_b])
        if cfg.top_k >= 1 and len(matches) > cfg.top_k:
            matches = sorted(
                matches, key=lambda m: (-m.surviving_pairs, m.distance, m.index_a, m.index_b)
            )[: cfg.top_k]
            matches = sorted(matches, key=lambda m: (m.index_a, m.index_b))
        out.append(matches)
    return out


def match_pair(
    frame_a_obs: list[ObjectObservation],
    frame_b_obs: list[ObjectObservation],
    cfg: MatchConfig,
    keypoints_present: bool,
) -> list[PairMatch]:
    """Match object observations between two frames.

    Symmetric-class observations are dropped (if configured), candidates are
    partitioned by class, assigned once by the Hungarian algorithm on
    embedding distances and gated by per-axis scale ratio, then by the
    distance threshold. If nothing passes the strict threshold and no
    keypoints exist, the same candidates are gated by the looser fallback
    threshold. With top_k = 1 only the candidate with the most surviving
    NOC-depth constraints (inliers of both observations' ``noc_fit``) is
    kept. The one-pair case of :func:`match_pairs`.
    """
    observations = list(frame_a_obs) + list(frame_b_obs)
    frames = [list(range(len(frame_a_obs))), list(range(len(frame_a_obs), len(observations)))]
    (matches,) = match_pairs(observations, frames, [(0, 1, cfg, keypoints_present)])
    return matches
