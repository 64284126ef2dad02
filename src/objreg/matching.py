"""Object identification across frames: Hungarian assignment on embedding
distances, gated by class label, scale ratio, symmetry and distance
thresholds, with top-1 selection by surviving constraint count."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .observations import ObjectObservation
from .procrustes import kabsch_filter  # noqa: F401  (bench/tracing.py patches this name)

__all__ = [
    "MatchConfig",
    "PairMatch",
    "embedding_distance",
    "hungarian",
    "match_pair",
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
        if not 0 < self.fallback_threshold < np.inf:
            raise ValueError(
                f"fallback_threshold must be finite and positive, got {self.fallback_threshold!r}"
            )
        # register_sequence matches loop pairs with sequence_loop_threshold as embed_threshold
        for name in ("embed_threshold", "sequence_loop_threshold"):
            value = getattr(self, name)
            if not 0 < value <= self.fallback_threshold:
                raise ValueError(f"need 0 < {name} <= fallback_threshold, got {value!r}")
        if not 1 < self.max_scale_ratio < np.inf:
            raise ValueError(f"max_scale_ratio must be finite and exceed 1, got {self.max_scale_ratio!r}")


@dataclass(slots=True)
class PairMatch:
    """A matched observation pair between two frames."""

    index_a: int
    index_b: int
    distance: float
    surviving_pairs: int = 0  # NOC-depth constraints surviving Kabsch filtering


def embedding_distance(a, b) -> float:
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.shape != b.shape:
        raise ValueError(f"embedding length mismatch: {len(a)} vs {len(b)}")
    return float(np.linalg.norm(a - b))


def hungarian(cost: np.ndarray) -> list[tuple[int, int]]:
    """Minimum-cost maximum matching on a rectangular cost matrix.

    Returns (row, col) pairs sorted by row; rows/cols beyond min(n, m) stay
    unassigned. Empty matrices yield an empty assignment.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.size == 0:
        return []
    if not np.all(np.isfinite(cost)):
        raise ValueError("costs must be finite")
    rows, cols = linear_sum_assignment(cost)
    return sorted(zip(rows.tolist(), cols.tolist()))


def match_pair(
    frame_a_obs: list[ObjectObservation],
    frame_b_obs: list[ObjectObservation],
    cfg: MatchConfig | None = None,
    keypoints_present: bool = False,
) -> list[PairMatch]:
    """Match object observations between two frames.

    Symmetric-class observations are dropped (if configured), candidates are
    partitioned by class, assigned once by the Hungarian algorithm on
    embedding distances and gated by per-axis scale ratio, then by the
    distance threshold. If nothing passes the strict threshold and no
    keypoints exist, the same candidates are gated by the looser fallback
    threshold. With top_k = 1 only the candidate with the most surviving
    NOC-depth constraints (inliers of both observations' ``noc_fit``) is
    kept.
    """
    cfg = cfg or MatchConfig()

    def eligible(obs_list):
        return [
            k
            for k, o in enumerate(obs_list)
            if not (cfg.drop_symmetric and o.symmetry != "non_symmetric")
        ]

    idx_a, idx_b = eligible(frame_a_obs), eligible(frame_b_obs)
    classes = sorted(
        {frame_a_obs[k].class_label for k in idx_a} & {frame_b_obs[k].class_label for k in idx_b}
    )
    candidates = []
    for cls in classes:
        ca = [k for k in idx_a if frame_a_obs[k].class_label == cls]
        cb = [k for k in idx_b if frame_b_obs[k].class_label == cls]
        cost = np.array(
            [
                [embedding_distance(frame_a_obs[a].embedding, frame_b_obs[b].embedding) for b in cb]
                for a in ca
            ]
        ).reshape(len(ca), len(cb))
        for r, c in hungarian(cost):
            a, b = ca[r], cb[c]
            sa, sb = frame_a_obs[a].scale_estimate, frame_b_obs[b].scale_estimate
            if max(np.max(sa / sb), np.max(sb / sa)) < cfg.max_scale_ratio:
                candidates.append(PairMatch(a, b, float(cost[r, c])))

    matches = [m for m in candidates if m.distance < cfg.embed_threshold]
    if not matches and not keypoints_present:
        matches = [m for m in candidates if m.distance < cfg.fallback_threshold]

    for m in matches:
        fits = (frame_a_obs[m.index_a].noc_fit, frame_b_obs[m.index_b].noc_fit)
        m.surviving_pairs = sum(f.num_inliers for f in fits if f is not None)

    if cfg.top_k >= 1 and len(matches) > cfg.top_k:
        matches = sorted(
            matches, key=lambda m: (-m.surviving_pairs, m.distance, m.index_a, m.index_b)
        )[: cfg.top_k]
        matches = sorted(matches, key=lambda m: (m.index_a, m.index_b))
    return matches
