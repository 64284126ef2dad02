import itertools

import numpy as np
import pytest

from objreg import matching
from objreg.geometry import RigidPose, apply_rigid
from objreg.matching import (
    MatchConfig,
    embedding_distance,
    hungarian,
    match_pair,
)
from objreg.observations import ObjectObservation


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
        with pytest.raises(ValueError):
            hungarian(np.array([[np.inf, 1.0], [1.0, 1.0]]))


# per MatchConfig field, values that must be rejected naming it; the default
# thresholds are embed 0.05 <= fallback 0.15
BAD_MATCH_VALUES = {
    "embed_threshold": [np.nan, np.inf, 0.0, 0.2],
    "fallback_threshold": [np.nan, np.inf, 0.0, 0.01],
    "sequence_loop_threshold": [np.nan, np.inf, 0.0, 0.2],
    "max_scale_ratio": [np.nan, np.inf, 1.0],
}


@pytest.mark.parametrize("name", list(BAD_MATCH_VALUES))
def test_bad_config_value_rejected(name):
    for value in BAD_MATCH_VALUES[name]:
        with pytest.raises(ValueError, match=name):
            MatchConfig(**{name: value})


class TestMatchPair:
    def test_identical_embeddings_matched(self):
        a = [make_obs(0, 0, embed=np.zeros(8))]
        b = [make_obs(1, 0, embed=np.zeros(8))]
        out = match_pair(a, b)
        assert len(out) == 1 and (out[0].index_a, out[0].index_b) == (0, 0)
        assert out[0].surviving_pairs > 0

    def test_cross_class_never_matched(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = [make_obs(0, d, cls=int(rng.integers(0, 3)), embed=np.zeros(8), rng=rng) for d in range(3)]
            b = [make_obs(1, d, cls=int(rng.integers(0, 3)), embed=np.zeros(8), rng=rng) for d in range(3)]
            for m in match_pair(a, b):
                assert a[m.index_a].class_label == b[m.index_b].class_label

    def test_scale_ratio_gate(self):
        a = [make_obs(0, 0, embed=np.zeros(8), scale=(1.0, 1.0, 1.0))]
        b = [make_obs(1, 0, embed=np.zeros(8), scale=(1.0, 1.6, 1.0))]
        assert match_pair(a, b) == []
        b_ok = [make_obs(1, 0, embed=np.zeros(8), scale=(1.0, 1.4, 1.0))]
        assert len(match_pair(a, b_ok)) == 1

    def test_symmetric_dropped(self):
        a = [make_obs(0, 0, embed=np.zeros(8), symmetry="round")]
        b = [make_obs(1, 0, embed=np.zeros(8), symmetry="round")]
        assert match_pair(a, b) == []
        cfg = MatchConfig(drop_symmetric=False, top_k=5)
        assert len(match_pair(a, b, cfg)) == 1

    def test_strict_threshold(self):
        a = [make_obs(0, 0, embed=np.zeros(8))]
        b = [make_obs(1, 0, embed=np.full(8, 0.03))]  # distance ~0.085
        assert match_pair(a, b, keypoints_present=True) == []

    def test_fallback_only_without_keypoints(self):
        a = [make_obs(0, 0, embed=np.zeros(8))]
        b = [make_obs(1, 0, embed=np.full(8, 0.03))]  # 0.05 < d < 0.15
        assert len(match_pair(a, b, keypoints_present=False)) == 1
        assert match_pair(a, b, keypoints_present=True) == []

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
        out = match_pair(a, b, keypoints_present=False)
        assert [(m.index_a, m.index_b) for m in out] == [(0, 0)]
        assert calls == [(1, 1), (1, 1)]

    def test_fallback_not_used_when_strict_nonempty(self):
        near = make_obs(0, 0, embed=np.zeros(8))
        far = make_obs(0, 1, embed=np.full(8, 0.2))
        b = [make_obs(1, 0, embed=np.zeros(8)), make_obs(1, 1, embed=np.full(8, 0.235))]
        cfg = MatchConfig(top_k=5)
        out = match_pair([near, far], b, cfg)
        # far<->b[1] distance ~0.1 passes fallback only; strict match exists
        assert [(m.index_a, m.index_b) for m in out] == [(0, 0)]

    def test_top1_by_surviving_pairs(self):
        # two candidate matches in the same class; one has corrupted NOC-depth
        # geometry, so the clean one must win
        good_a = make_obs(0, 0, cls=0, embed=np.zeros(8), clean=True)
        bad_a = make_obs(0, 1, cls=0, embed=np.full(8, 0.5), clean=False)
        good_b = make_obs(1, 0, cls=0, embed=np.zeros(8), clean=True)
        bad_b = make_obs(1, 1, cls=0, embed=np.full(8, 0.5), clean=False)
        out = match_pair([good_a, bad_a], [good_b, bad_b], MatchConfig(top_k=1))
        assert len(out) == 1
        assert (out[0].index_a, out[0].index_b) == (0, 0)

    def test_empty_inputs(self):
        assert match_pair([], []) == []
        assert match_pair([make_obs(0, 0)], []) == []
