"""Object identification across frames: Hungarian assignment on embedding
distances, gated by class label, scale ratio, symmetry and distance
thresholds, with top-1 selection by surviving constraint count."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .observations import ObjectObservation
from .procrustes import kabsch_filter  # noqa: F401  (bench/tracing.py patches this name)

__all__ = [
    "MatchConfig",
    "PairMatch",
    "ObjectTrack",
    "embedding_distance",
    "hungarian",
    "match_pair",
    "build_tracks",
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
        if not 0 < self.embed_threshold <= self.fallback_threshold:
            raise ValueError("need 0 < embed_threshold <= fallback_threshold")
        if self.max_scale_ratio <= 1:
            raise ValueError("max_scale_ratio must exceed 1")


@dataclass
class PairMatch:
    """A matched observation pair between two frames."""

    index_a: int
    index_b: int
    distance: float
    surviving_pairs: int = 0  # NOC-depth constraints surviving Kabsch filtering


@dataclass
class ObjectTrack:
    """One physical object across frames: at most one observation per frame."""

    track_id: int
    class_label: int
    members: list[tuple[int, int]] = field(default_factory=list)  # (frame, detection_id)

    def frames(self):
        return sorted({f for f, _ in self.members})


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
    partitioned by class, assigned by the Hungarian algorithm on embedding
    distances, then gated by the distance threshold and per-axis scale ratio.
    If nothing passes the strict threshold and no keypoints exist, the looser
    fallback threshold is tried. With top_k = 1 only the candidate with the
    most surviving NOC-depth constraints (inliers of both observations'
    ``noc_fit``) is kept.
    """
    cfg = cfg or MatchConfig()

    def eligible(obs_list):
        return [
            k
            for k, o in enumerate(obs_list)
            if not (cfg.drop_symmetric and o.symmetry != "non_symmetric")
        ]

    idx_a, idx_b = eligible(frame_a_obs), eligible(frame_b_obs)

    def assign(threshold: float) -> list[PairMatch]:
        out = []
        classes = sorted(
            {frame_a_obs[k].class_label for k in idx_a}
            & {frame_b_obs[k].class_label for k in idx_b}
        )
        for cls in classes:
            ca = [k for k in idx_a if frame_a_obs[k].class_label == cls]
            cb = [k for k in idx_b if frame_b_obs[k].class_label == cls]
            cost = np.array(
                [
                    [
                        embedding_distance(frame_a_obs[a].embedding, frame_b_obs[b].embedding)
                        for b in cb
                    ]
                    for a in ca
                ]
            ).reshape(len(ca), len(cb))
            for r, c in hungarian(cost):
                a, b = ca[r], cb[c]
                d = cost[r, c]
                if d >= threshold:
                    continue
                sa, sb = frame_a_obs[a].scale_estimate, frame_b_obs[b].scale_estimate
                ratio = max(np.max(sa / sb), np.max(sb / sa))
                if ratio >= cfg.max_scale_ratio:
                    continue
                out.append(PairMatch(a, b, float(d)))
        return out

    matches = assign(cfg.embed_threshold)
    if not matches and not keypoints_present:
        matches = assign(cfg.fallback_threshold)

    for m in matches:
        fits = (frame_a_obs[m.index_a].noc_fit, frame_b_obs[m.index_b].noc_fit)
        m.surviving_pairs = sum(f.num_inliers for f in fits if f is not None)

    if cfg.top_k >= 1 and len(matches) > cfg.top_k:
        matches = sorted(
            matches, key=lambda m: (-m.surviving_pairs, m.distance, m.index_a, m.index_b)
        )[: cfg.top_k]
        matches = sorted(matches, key=lambda m: (m.index_a, m.index_b))
    return matches


def build_tracks(
    pair_matches: dict[tuple[int, int], list[PairMatch]],
    frame_observations: dict[int, list[ObjectObservation]],
) -> list[ObjectTrack]:
    """Lift per-pair matches to multi-frame tracks by union-find.

    Components with two detections in one frame are split by repeatedly
    dropping the highest-distance edge of a violating component until every
    component holds at most one detection per frame. Unmatched detections
    become singleton tracks.
    """
    nodes = []
    for frame in sorted(frame_observations):
        for obs in frame_observations[frame]:
            nodes.append((frame, obs.detection_id))
    node_class = {
        (frame, obs.detection_id): obs.class_label
        for frame, obs_list in frame_observations.items()
        for obs in obs_list
    }
    edges = []
    for (fi, fj), matches in sorted(pair_matches.items()):
        for m in matches:
            a = (fi, frame_observations[fi][m.index_a].detection_id)
            b = (fj, frame_observations[fj][m.index_b].detection_id)
            edges.append((m.distance, a, b))
    edges.sort(key=lambda e: (e[0], e[1], e[2]))

    def components(active_edges):
        parent = {n: n for n in nodes}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for _, a, b in active_edges:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        comps: dict = {}
        for n in nodes:
            comps.setdefault(find(n), []).append(n)
        return list(comps.values())

    active = list(edges)
    while True:
        comps = components(active)
        violating = set()
        for comp in comps:
            frames_seen = [f for f, _ in comp]
            if len(frames_seen) != len(set(frames_seen)):
                violating.update(comp)
        if not violating:
            break
        # worst edge among those touching a violating component
        worst = max(
            (e for e in active if e[1] in violating or e[2] in violating),
            key=lambda e: (e[0], e[1], e[2]),
        )
        active.remove(worst)

    tracks = []
    for tid, comp in enumerate(sorted(comps, key=lambda c: min(c))):
        comp = sorted(comp)
        tracks.append(ObjectTrack(tid, node_class[comp[0]], comp))
    return tracks
