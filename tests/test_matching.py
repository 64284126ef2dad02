import itertools
from dataclasses import fields

import numpy as np
import pytest
import scipy.optimize
from scipy.optimize import linear_sum_assignment

from objreg import matching
from objreg.geometry import RigidPose, _norms, apply_rigid
from objreg.matching import (
    MatchConfig,
    hungarian,
    match_pair,
    match_pairs,
)
from objreg.observations import ObjectObservation
from reference import embedding_distance


def brute_force_assignment(cost):
    """Exact minimum-cost assignment by permutation enumeration (<= 8x8)."""
    cost = np.asarray(cost, dtype=float)
    n, m = cost.shape
    best, best_pairs = np.inf, []
    if n <= m:
        for perm in itertools.permutations(range(m), n):
            total = sum(cost[r, c] for r, c in enumerate(perm))
            if total < best:
                best = total
                best_pairs = sorted(enumerate(perm))
    else:
        for perm in itertools.permutations(range(n), m):
            total = sum(cost[r, c] for c, r in enumerate(perm))
            if total < best:
                best = total
                best_pairs = sorted((r, c) for c, r in enumerate(perm))
    return best, best_pairs


def make_obs(frame, det, cls=0, embed=None, scale=(1.0, 1.0, 1.0), symmetry="non_symmetric",
             n=30, rng=None, clean=True):
    """Observation with internally consistent NOC-depth pairs (plus optional
    planted noise via clean=False)."""
    rng = rng or np.random.default_rng(frame * 100 + det)
    noc = rng.uniform(-0.5, 0.5, (n, 3))
    pose = RigidPose(rng.uniform(-np.pi, np.pi, 3), rng.uniform(-1, 1, 3))
    depth = apply_rigid(pose, noc * np.asarray(scale, dtype=float))
    if not clean:
        depth = depth + rng.uniform(0.5, 1.0, (n, 3))
    if embed is None:
        embed = rng.normal(size=8)
    return ObjectObservation(frame, det, cls, noc, depth, np.asarray(scale, float), np.asarray(embed, float), symmetry)


class TestEmbeddingDistance:
    def test_zero_for_equal(self):
        v = np.arange(5.0)
        assert embedding_distance(v, v) == 0.0

    def test_known_value(self):
        assert embedding_distance([0.0, 0.0], [3.0, 4.0]) == 5.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            embedding_distance(np.zeros(3), np.zeros(4))


class TestHungarian:
    def test_empty(self):
        assert hungarian(np.zeros((0, 3))) == []
        assert hungarian(np.zeros((0, 0))) == []

    def test_identity_cost(self):
        cost = 1.0 - np.eye(3)
        assert hungarian(cost) == [(0, 0), (1, 1), (2, 2)]

    def test_rectangular(self):
        cost = np.array([[1.0, 0.0, 5.0], [0.0, 1.0, 5.0]])
        assert hungarian(cost) == [(0, 1), (1, 0)]

    def test_matches_brute_force_small(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n, m = rng.integers(1, 6, 2)
            cost = rng.integers(0, 50, (n, m)).astype(float)
            got = hungarian(cost)
            best, _ = brute_force_assignment(cost)
            assert sum(cost[r, c] for r, c in got) == best

    def test_nonfinite_rejected(self):
        for cost in ([[np.inf, 1.0], [1.0, 1.0]], [[np.nan]], [[1.0, np.inf, 0.0]]):
            with pytest.raises(ValueError):
                hungarian(np.array(cost))

    def test_lone_row_or_column_as_linear_sum_assignment(self, monkeypatch):
        """A lone row or column gets linear_sum_assignment's answer, ties
        included, without calling it."""
        rng = np.random.default_rng(18)
        cases = [rng.integers(0, 3, (1, n)).astype(float) for n in range(1, 7) for _ in range(30)]
        cases += [c.T for c in cases]
        want = [sorted(zip(*(a.tolist() for a in linear_sum_assignment(c)))) for c in cases]
        monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", None)
        assert [hungarian(c) for c in cases] == want


# per MatchConfig field, values that must be rejected naming it; the default
# thresholds are embed 0.05 <= fallback 0.15
BAD_MATCH_VALUES = {
    "embed_threshold": [np.nan, np.inf, 0.0, 0.2],
    "fallback_threshold": [np.nan, np.inf, 0.0, 0.01],
    "sequence_loop_threshold": [np.nan, np.inf, 0.0, 0.2],
    "max_scale_ratio": [np.nan, np.inf, 1.0],
    "top_k": [1.5, -1, "1", True, None],
    "drop_symmetric": ["no", 1, None],
}


@pytest.mark.parametrize("name", list(BAD_MATCH_VALUES))
def test_bad_config_value_rejected(name):
    for value in BAD_MATCH_VALUES[name]:
        with pytest.raises(ValueError, match=name):
            MatchConfig(**{name: value})


def test_every_match_field_checked():
    assert set(BAD_MATCH_VALUES) == {f.name for f in fields(MatchConfig)}


def test_top_k_and_drop_symmetric_accepted():
    """top_k = 0 (keep every match) passes, and so do numpy ints and bools."""
    for top_k in (0, 2, np.int64(1)):
        MatchConfig(top_k=top_k)
    MatchConfig(drop_symmetric=np.bool_(False))


class TestMatchPair:
    def test_identical_embeddings_matched(self):
        a = [make_obs(0, 0, embed=np.zeros(8))]
        b = [make_obs(1, 0, embed=np.zeros(8))]
        out = match_pair(a, b, MatchConfig(), False)
        assert len(out) == 1 and (out[0].index_a, out[0].index_b) == (0, 0)
        assert out[0].surviving_pairs > 0

    def test_cross_class_never_matched(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = [make_obs(0, d, cls=int(rng.integers(0, 3)), embed=np.zeros(8), rng=rng) for d in range(3)]
            b = [make_obs(1, d, cls=int(rng.integers(0, 3)), embed=np.zeros(8), rng=rng) for d in range(3)]
            for m in match_pair(a, b, MatchConfig(), False):
                assert a[m.index_a].class_label == b[m.index_b].class_label

    def test_scale_ratio_gate(self):
        a = [make_obs(0, 0, embed=np.zeros(8), scale=(1.0, 1.0, 1.0))]
        b = [make_obs(1, 0, embed=np.zeros(8), scale=(1.0, 1.6, 1.0))]
        assert match_pair(a, b, MatchConfig(), False) == []
        b_ok = [make_obs(1, 0, embed=np.zeros(8), scale=(1.0, 1.4, 1.0))]
        assert len(match_pair(a, b_ok, MatchConfig(), False)) == 1

    def test_symmetric_dropped(self):
        a = [make_obs(0, 0, embed=np.zeros(8), symmetry="round")]
        b = [make_obs(1, 0, embed=np.zeros(8), symmetry="round")]
        assert match_pair(a, b, MatchConfig(), False) == []
        cfg = MatchConfig(drop_symmetric=False, top_k=5)
        assert len(match_pair(a, b, cfg, False)) == 1

    def test_strict_threshold(self):
        a = [make_obs(0, 0, embed=np.zeros(8))]
        b = [make_obs(1, 0, embed=np.full(8, 0.03))]  # distance ~0.085
        assert match_pair(a, b, MatchConfig(), keypoints_present=True) == []

    def test_fallback_only_without_keypoints(self):
        a = [make_obs(0, 0, embed=np.zeros(8))]
        b = [make_obs(1, 0, embed=np.full(8, 0.03))]  # 0.05 < d < 0.15
        assert len(match_pair(a, b, MatchConfig(), keypoints_present=False)) == 1
        assert match_pair(a, b, MatchConfig(), keypoints_present=True) == []

    def test_fallback_reuses_one_assignment_per_class(self, monkeypatch):
        """The fallback threshold re-gates the strict pass's candidates: the
        Hungarian assignment runs once per class."""
        a = [make_obs(0, 0, cls=0, embed=np.zeros(8)), make_obs(0, 1, cls=1, embed=np.zeros(8))]
        b = [
            make_obs(1, 0, cls=0, embed=np.full(8, 0.03)),  # 0.05 < d < 0.15
            make_obs(1, 1, cls=1, embed=np.full(8, 0.1)),  # d > 0.15
        ]
        calls = []

        def counted(cost):
            calls.append(cost.shape)
            return hungarian(cost)

        monkeypatch.setattr(matching, "hungarian", counted)
        out = match_pair(a, b, MatchConfig(), keypoints_present=False)
        assert [(m.index_a, m.index_b) for m in out] == [(0, 0)]
        assert calls == [(1, 1), (1, 1)]

    def test_fallback_not_used_when_strict_nonempty(self):
        near = make_obs(0, 0, embed=np.zeros(8))
        far = make_obs(0, 1, embed=np.full(8, 0.2))
        b = [make_obs(1, 0, embed=np.zeros(8)), make_obs(1, 1, embed=np.full(8, 0.235))]
        cfg = MatchConfig(top_k=5)
        out = match_pair([near, far], b, cfg, False)
        # far<->b[1] distance ~0.1 passes fallback only; strict match exists
        assert [(m.index_a, m.index_b) for m in out] == [(0, 0)]

    def test_top1_by_surviving_pairs(self):
        # two candidate matches in the same class; one has corrupted NOC-depth
        # geometry, so the clean one must win
        good_a = make_obs(0, 0, cls=0, embed=np.zeros(8), clean=True)
        bad_a = make_obs(0, 1, cls=0, embed=np.full(8, 0.5), clean=False)
        good_b = make_obs(1, 0, cls=0, embed=np.zeros(8), clean=True)
        bad_b = make_obs(1, 1, cls=0, embed=np.full(8, 0.5), clean=False)
        out = match_pair([good_a, bad_a], [good_b, bad_b], MatchConfig(top_k=1), False)
        assert len(out) == 1
        assert (out[0].index_a, out[0].index_b) == (0, 0)

    def test_empty_inputs(self):
        assert match_pair([], [], MatchConfig(), False) == []
        assert match_pair([make_obs(0, 0)], [], MatchConfig(), False) == []


def match_one_pair(frame_a_obs, frame_b_obs, cfg, keypoints_present):
    """The per-class loop match_pair ran on one frame pair before pairs were
    batched."""
    def eligible(obs_list):
        return [k for k, o in enumerate(obs_list)
                if not (cfg.drop_symmetric and o.symmetry != "non_symmetric")]

    idx_a, idx_b = eligible(frame_a_obs), eligible(frame_b_obs)
    classes = sorted({frame_a_obs[k].class_label for k in idx_a}
                     & {frame_b_obs[k].class_label for k in idx_b})
    candidates = []
    for cls in classes:
        ca = [k for k in idx_a if frame_a_obs[k].class_label == cls]
        cb = [k for k in idx_b if frame_b_obs[k].class_label == cls]
        cost = np.array([[embedding_distance(frame_a_obs[a].embedding, frame_b_obs[b].embedding)
                          for b in cb] for a in ca]).reshape(len(ca), len(cb))
        rows, cols = linear_sum_assignment(cost)
        for r, c in sorted(zip(rows.tolist(), cols.tolist())):
            a, b = ca[r], cb[c]
            sa, sb = frame_a_obs[a].scale_estimate, frame_b_obs[b].scale_estimate
            if max(np.max(sa / sb), np.max(sb / sa)) < cfg.max_scale_ratio:
                candidates.append(matching.PairMatch(a, b, float(cost[r, c])))
    matches = [m for m in candidates if m.distance < cfg.embed_threshold]
    if not matches and not keypoints_present:
        matches = [m for m in candidates if m.distance < cfg.fallback_threshold]
    for m in matches:
        fits = (frame_a_obs[m.index_a].noc_fit, frame_b_obs[m.index_b].noc_fit)
        m.surviving_pairs = sum(f.num_inliers for f in fits if f is not None)
    if cfg.top_k >= 1 and len(matches) > cfg.top_k:
        matches = sorted(matches, key=lambda m: (-m.surviving_pairs, m.distance, m.index_a, m.index_b))
        matches = sorted(matches[: cfg.top_k], key=lambda m: (m.index_a, m.index_b))
    return matches


class TestMatchPairs:
    def test_distances_equal_embedding_distance(self):
        """The batched distances are embedding_distance's, bit for bit."""
        rng = np.random.default_rng(3)
        a = rng.normal(size=(500, 8)) * 10.0 ** rng.integers(-3, 3, (500, 1))
        b = a + rng.normal(size=a.shape) * 10.0 ** rng.integers(-6, 0, (500, 1))
        want = [embedding_distance(x, y) for x, y in zip(a, b)]
        assert _norms(a - b).tolist() == want

    def test_equals_match_pair_per_request(self):
        """Each request of a batch over many frames gets match_pair's matches
        of its two frames, and those of the per-class loop match_pair ran
        before pairs were batched, whatever its config and keypoint flag."""
        rng = np.random.default_rng(4)
        centers = rng.normal(size=(4, 8))
        obs = []
        for frame in range(5):
            for det in range(int(rng.integers(0, 5))):
                o = int(rng.integers(0, 4))
                obs.append(make_obs(
                    frame, det, cls=o % 2, embed=centers[o] + rng.normal(0, 0.03, 8),
                    scale=rng.uniform(0.6, 1.4, 3), clean=bool(rng.random() < 0.8),
                    symmetry="round" if rng.random() < 0.1 else "non_symmetric", rng=rng,
                ))
        rng.shuffle(obs)
        frames = [[p for p, o in enumerate(obs) if o.frame == f] for f in range(5)]
        configs = [MatchConfig(), MatchConfig(embed_threshold=0.04, top_k=2),
                   MatchConfig(drop_symmetric=False, top_k=0)]
        requests = [(a, b, cfg, kp) for a in range(5) for b in range(5) if a != b
                    for cfg in configs for kp in (False, True)]
        got = match_pairs(obs, frames, requests)
        assert any(got) and not all(got)
        for (a, b, cfg, kp), matches in zip(requests, got):
            frame_a, frame_b = [obs[p] for p in frames[a]], [obs[p] for p in frames[b]]
            assert matches == match_pair(frame_a, frame_b, cfg, kp)
            assert matches == match_one_pair(frame_a, frame_b, cfg, kp)
