import re

import numpy as np
import pytest
from scipy.spatial import cKDTree

from objreg import procrustes
from objreg.geometry import RigidPose, apply_rigid, compose, rotation_angle
from objreg.procrustes import (
    FILTER_MAX_ROUNDS,
    ICP_MAX_ITERATIONS,
    AlignmentResult,
    DegenerateAlignmentError,
    FilterConfig,
    _kabsch,
    icp_refine,
    icp_refine_sets,
    kabsch_filter,
    kabsch_filter_sets,
)
from objreg.metrics import pose_error
import reference
from reference import kabsch_solve


def random_pose(rng, max_angle=np.pi, max_trans=2.0):
    return RigidPose(
        rng.uniform(-max_angle, max_angle, 3), rng.uniform(-max_trans, max_trans, 3)
    )


class TestKabschSolve:
    def test_identity_on_equal_sets(self):
        pts = np.random.default_rng(0).uniform(-1, 1, (30, 3))
        res = kabsch_solve(pts, pts)
        assert res.rms_residual < 1e-12
        assert np.abs(res.pose.to_matrix() - np.eye(4)).max() < 1e-9

    def test_recovers_constructed_transform(self):
        rng = np.random.default_rng(1)
        src = rng.uniform(-1, 1, (50, 3))
        gt = RigidPose(np.array([0.0, 0.0, np.pi / 2]), np.array([1.0, 0.0, 0.0]))
        res = kabsch_solve(src, apply_rigid(gt, src))
        assert np.abs(res.pose.to_matrix() - gt.to_matrix()).max() < 1e-9
        assert res.rms_residual < 1e-9

    def test_minimality_random_search_oracle(self):
        rng = np.random.default_rng(2)
        src = rng.uniform(-1, 1, (200, 3))
        gt = random_pose(rng)
        tgt = apply_rigid(gt, src) + rng.normal(0, 0.005, (200, 3))
        res = kabsch_solve(src, tgt)
        base = np.sum((apply_rigid(res.pose, src) - tgt) ** 2)
        for _ in range(10000):
            cand = RigidPose(
                gt.angles + rng.normal(0, 0.05, 3), gt.translation + rng.normal(0, 0.05, 3)
            )
            assert np.sum((apply_rigid(cand, src) - tgt) ** 2) >= base - 1e-12

    def test_weighted_zero_weight_ignores_outlier(self):
        """The weighted fit that kabsch_filter_sets runs on 0/1 inlier
        weights ignores a zero-weight pair."""
        rng = np.random.default_rng(3)
        src = rng.uniform(-1, 1, (20, 3))
        gt = random_pose(rng)
        tgt = apply_rigid(gt, src)
        tgt[0] += 5.0
        w = np.ones(20)
        w[0] = 0.0
        rot, t, _ = _kabsch(src, tgt, w)
        pose = RigidPose.from_rotation(rot, t)
        assert np.abs(pose.to_matrix() - gt.to_matrix()).max() < 1e-9

    def test_too_few_pairs(self):
        with pytest.raises(DegenerateAlignmentError):
            kabsch_solve(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_collinear_degenerate(self):
        line = np.outer(np.linspace(0, 1, 10), [1.0, 0.0, 0.0])
        with pytest.raises(DegenerateAlignmentError):
            kabsch_solve(line, line + [0.0, 1.0, 0.0])

    def test_left_invariance(self):
        rng = np.random.default_rng(4)
        src = rng.uniform(-1, 1, (40, 3))
        tgt = apply_rigid(random_pose(rng), src) + rng.normal(0, 0.01, (40, 3))
        base = kabsch_solve(src, tgt)
        for _ in range(20):
            g = random_pose(rng)
            res = kabsch_solve(src, apply_rigid(g, tgt))
            expect = compose(g, base.pose)
            assert np.abs(res.pose.to_matrix() - expect.to_matrix()).max() < 1e-9

    def test_orthonormality(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            src = rng.uniform(-1, 1, (10, 3))
            tgt = rng.uniform(-1, 1, (10, 3))
            r = kabsch_solve(src, tgt).pose.rotation
            assert np.abs(r.T @ r - np.eye(3)).max() < 1e-9
            assert np.linalg.det(r) > 0


class TestKabschFilter:
    def test_clean_data_all_inliers(self):
        rng = np.random.default_rng(6)
        src = rng.uniform(-1, 1, (50, 3))
        gt = random_pose(rng)
        tgt = apply_rigid(gt, src)
        res = kabsch_filter(src, tgt, FilterConfig(0.20, 3))
        assert res.inlier_flags.all()
        direct = kabsch_solve(src, tgt)
        assert np.abs(res.pose.to_matrix() - direct.pose.to_matrix()).max() < 1e-9

    def test_planted_outliers_removed(self):
        rng = np.random.default_rng(7)
        src = rng.uniform(-1, 1, (100, 3))
        gt = random_pose(rng)
        tgt = apply_rigid(gt, src) + rng.normal(0, 0.005, (100, 3))
        planted = rng.permutation(100)[:30]
        dirs = rng.normal(size=(30, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        tgt[planted] += dirs * rng.uniform(0.5, 1.0, 30)[:, None]
        res = kabsch_filter(src, tgt, FilterConfig(0.20, 3))
        flagged = ~res.inlier_flags
        assert flagged[planted].mean() >= 0.95
        rot, trans = pose_error(res.pose, gt)
        assert trans < 0.01 and rot < 0.5

    def test_min_pairs_breach(self):
        pts = np.random.default_rng(8).uniform(-1, 1, (2, 3))
        with pytest.raises(DegenerateAlignmentError):
            kabsch_filter(pts, pts, FilterConfig(0.20, 3))

    def test_inlier_set_shrinks_monotonically(self):
        # outliers are never re-admitted: final flags subset of all-ones and
        # rerunning the filter on survivors is a fixed point
        rng = np.random.default_rng(9)
        src = rng.uniform(-1, 1, (60, 3))
        tgt = apply_rigid(random_pose(rng), src)
        tgt[:10] += 0.6
        res = kabsch_filter(src, tgt, FilterConfig(0.20, 3))
        keep = res.inlier_flags
        res2 = kabsch_filter(src[keep], tgt[keep], FilterConfig(0.20, 3))
        assert res2.inlier_flags.all()


def filter_one_set(source, target, cfg):
    """The filter loop kabsch_filter ran on one set before sets were batched.
    Returns (its result, or the DegenerateAlignmentError it raised, and how
    the loop ended)."""
    inliers = np.ones(len(source), dtype=bool)
    result = None
    for rounds in range(procrustes.FILTER_MAX_ROUNDS):
        if inliers.sum() < cfg.min_pairs:
            too_few = f"{int(inliers.sum())} surviving pairs < min_pairs={cfg.min_pairs}"
            return DegenerateAlignmentError(too_few), "short" if rounds else "short at start"
        try:
            pose = kabsch_solve(source[inliers], target[inliers]).pose
        except DegenerateAlignmentError as e:
            return e, "collinear"
        res = np.linalg.norm(source @ pose.rotation.T + pose.translation - target, axis=1)
        keep = inliers & (res <= cfg.distance_threshold)
        rms = float(np.sqrt(np.mean(res[keep] ** 2))) if keep.any() else 0.0
        result = AlignmentResult(pose, rms, keep.copy())
        if keep.sum() == inliers.sum():
            return result, "fixed point"
        inliers = keep
    if inliers.sum() < cfg.min_pairs:
        too_few = f"{int(inliers.sum())} surviving pairs < min_pairs={cfg.min_pairs}"
        return DegenerateAlignmentError(too_few), "short"
    return result, "out of rounds"


def mixed_sets(rng):
    """Point-set pairs of mixed sizes: noisy rigid copies with 0-60% gross
    outliers, a collinear set, one too small to start and one that loses
    most of its pairs in the first round."""
    sources, targets = [], []
    for n in rng.integers(3, 120, 14):
        src = rng.uniform(-0.5, 0.5, (n, 3)) * rng.uniform(0.1, 1.0, 3)
        tgt = apply_rigid(random_pose(rng), src) + rng.normal(0, rng.uniform(0.001, 0.05), (n, 3))
        bad = rng.random(n) < rng.uniform(0, 0.6)
        tgt[bad] += rng.uniform(-0.6, 0.6, (bad.sum(), 3))
        sources.append(src)
        targets.append(tgt)
    line = np.outer(np.linspace(0, 1, 30), [1.0, 2.0, 3.0])
    sources.append(line)
    targets.append(line + 1.0)
    sources.append(sources[0][:2])
    targets.append(targets[0][:2])
    src = rng.uniform(-0.5, 0.5, (40, 3))
    tgt = apply_rigid(random_pose(rng), src)
    tgt[:22] += 3.0
    sources.append(src)
    targets.append(tgt)
    return sources, targets


class TestKabschFilterSets:
    def test_equals_one_set_filter(self, monkeypatch):
        """Each set of a batch gets what the one-set loop gives it: the same
        inlier flags and rms, the pose within 1e-12, and the same error
        where that loop raises; kabsch_filter agrees on its own. One
        setting runs with the round limit patched to 1, so that sets run
        out of rounds."""
        ends = set()
        settings = [
            (FilterConfig(0.20, 15), FILTER_MAX_ROUNDS),
            (FilterConfig(0.05, 5), 1),
            (FilterConfig(0.1), FILTER_MAX_ROUNDS),
        ]
        for seed in range(4):
            rng = np.random.default_rng(seed)
            sources, targets = mixed_sets(rng)
            for cfg, rounds in settings:
                monkeypatch.setattr(procrustes, "FILTER_MAX_ROUNDS", rounds)
                batch = kabsch_filter_sets(sources, targets, cfg)
                for src, tgt, got in zip(sources, targets, batch):
                    want, end = filter_one_set(src, tgt, cfg)
                    ends.add(end)
                    if isinstance(want, DegenerateAlignmentError):
                        assert isinstance(got, DegenerateAlignmentError)
                        assert str(got) == str(want)
                        with pytest.raises(DegenerateAlignmentError, match=re.escape(str(want))):
                            kabsch_filter(src, tgt, cfg)
                        continue
                    for res in (got, kabsch_filter(src, tgt, cfg)):
                        assert np.array_equal(res.inlier_flags, want.inlier_flags)
                        assert np.abs(res.pose.rotation - want.pose.rotation).max() <= 1e-12
                        assert np.abs(res.pose.translation - want.pose.translation).max() <= 1e-12
                        assert res.rms_residual == pytest.approx(want.rms_residual, rel=1e-12)
        assert ends == {"fixed point", "out of rounds", "short", "short at start", "collinear"}

    def test_poses_own_disjoint_read_only_memory(self):
        """Each fit's pose is a read-only view of the batch's result arrays,
        sharing no memory with another fit's."""
        sources, targets = mixed_sets(np.random.default_rng(0))
        fits = [f for f in kabsch_filter_sets(sources, targets) if not isinstance(f, DegenerateAlignmentError)]
        sources, targets, inits = icp_batch(np.random.default_rng(0))
        fits += icp_refine_sets(sources, targets, inits, 0.1)
        arrays = [a for f in fits for a in (f.pose.rotation, f.pose.translation)]
        for n, a in enumerate(arrays):
            assert not any(np.shares_memory(a, b) for b in arrays[n + 1 :])
        assert not any(f.pose.rotation.flags.writeable for f in fits)

    def test_input_errors(self):
        pts = np.zeros((5, 3))
        with pytest.raises(ValueError, match="length mismatch"):
            kabsch_filter_sets([pts, pts], [pts, pts[:4]])
        assert kabsch_filter_sets([], []) == []


class TestIcpRefine:
    def surface(self, rng, n=1000):
        # bumpy plane, full-rank geometry
        xy = rng.uniform(-1, 1, (n, 2))
        z = 0.1 * np.sin(3 * xy[:, 0]) + 0.08 * np.cos(4 * xy[:, 1])
        return np.column_stack([xy, z])

    def test_ground_truth_is_fixed_point(self):
        rng = np.random.default_rng(10)
        src = self.surface(rng)
        gt = random_pose(rng, max_angle=0.5, max_trans=0.5)
        tgt = apply_rigid(gt, src)
        res = icp_refine(src, tgt, gt, max_corr_dist=0.1)
        assert np.abs(res.pose.to_matrix() - gt.to_matrix()).max() < 1e-9

    def test_converges_from_small_perturbation(self):
        rng = np.random.default_rng(11)
        src = self.surface(rng)
        gt = random_pose(rng, max_angle=0.5, max_trans=0.5)
        tgt = apply_rigid(gt, src)
        init = RigidPose(
            gt.angles + np.deg2rad(2.0) * rng.uniform(-1, 1, 3) / np.sqrt(3),
            gt.translation + 0.02 * rng.uniform(-1, 1, 3) / np.sqrt(3),
        )
        res = icp_refine(src, tgt, init, max_corr_dist=0.1)
        rot, trans = pose_error(res.pose, gt)
        assert trans < 1e-3 and rot < 0.1

    def test_rms_monotone_non_increasing(self):
        rng = np.random.default_rng(12)
        src = self.surface(rng)
        gt = random_pose(rng, max_angle=0.3, max_trans=0.3)
        tgt = apply_rigid(gt, src) + rng.normal(0, 0.002, src.shape)
        init = RigidPose(gt.angles + 0.02, gt.translation + 0.02)
        res = icp_refine(src, tgt, init, max_corr_dist=0.1)
        hist = np.array(res.rms_history)
        assert np.all(np.diff(hist) <= 1e-12)

    def test_disjoint_clouds_noop(self):
        rng = np.random.default_rng(13)
        src = rng.uniform(-1, 1, (50, 3))
        tgt = src + np.array([10.0, 0.0, 0.0])
        init = RigidPose.identity()
        res = icp_refine(src, tgt, init, max_corr_dist=0.1)
        assert not res.converged
        assert np.abs(res.pose.to_matrix() - np.eye(4)).max() < 1e-12

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            icp_refine(np.zeros((0, 3)), np.ones((5, 3)), None, 0.1)


def icp_one_set(source, target, init, max_corr_dist):
    """The ICP loop icp_refine ran on one set before sets were batched: a
    3-D tree of its own target, an unweighted Kabsch per step."""
    pose, tree = init.copy(), cKDTree(target)
    best_rms, best_pose = np.inf, pose
    flags, history = np.zeros(len(source), dtype=bool), []
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
            break
        history.append(rms)
        best_rms, best_pose, flags = rms, pose, matched
        try:
            upd = kabsch_solve(moved[matched], target[idx[matched]]).pose
        except DegenerateAlignmentError:
            break
        pose = compose(upd, pose)
        if rotation_angle(upd.rotation) + np.linalg.norm(upd.translation) < 1e-6:
            best_pose = pose
            break
    return AlignmentResult(best_pose, best_rms, flags, rms_history=history)


def icp_batch(rng):
    """ICP sets of mixed sizes from mixed starts: noisy bumpy surfaces a few
    degrees and cm off, one at its exact pose, one disjoint from its target
    (no associations), and one collinear (a rank-deficient update)."""
    sources, targets, inits = [], [], []
    for n in rng.integers(20, 300, 9):
        xy = rng.uniform(-1, 1, (n, 2))
        src = np.column_stack([xy, 0.1 * np.sin(3 * xy[:, 0]) + 0.08 * np.cos(4 * xy[:, 1])])
        gt = random_pose(rng, 0.5, 0.5)
        sources.append(src)
        targets.append(apply_rigid(gt, src) + rng.normal(0, rng.uniform(0, 0.01), src.shape))
        inits.append(RigidPose(gt.angles + rng.uniform(-0.05, 0.05, 3), gt.translation + rng.uniform(-0.03, 0.03, 3)))
    inits[0] = RigidPose(inits[0].angles, inits[0].translation)
    targets[0] = apply_rigid(inits[0], sources[0])  # exact at its start
    sources.append(rng.uniform(-1, 1, (50, 3)))
    targets.append(sources[-1] + 10.0)
    inits.append(None)
    line = np.outer(np.linspace(0, 1, 30), [1.0, 2.0, 3.0])
    sources.append(line)
    targets.append(line + 0.01)
    inits.append(RigidPose.identity())
    return sources, targets, inits


class TestIcpRefineSets:
    def test_equals_one_set_refinement(self):
        """Each set of a batch gets, bit for bit, what icp_refine gives it
        alone and what the one-set loop gave it; the sets stop at different
        rounds, for every reason."""
        rounds = set()
        for seed in range(4):
            sources, targets, inits = icp_batch(np.random.default_rng(seed))
            batch = icp_refine_sets(sources, targets, inits, 0.1)
            assert not batch[-2].converged and batch[-2].rms_history == []
            assert len(batch[-1].rms_history) == 1  # stopped by its rank-deficient update
            for src, tgt, init, got in zip(sources, targets, inits, batch):
                alone = icp_refine(src, tgt, init, 0.1)
                old = icp_one_set(src, tgt, init or RigidPose.identity(), 0.1)
                for want in (alone, old):
                    assert got.pose.rotation.tobytes() == want.pose.rotation.tobytes()
                    assert got.pose.translation.tobytes() == want.pose.translation.tobytes()
                    assert got.rms_residual == want.rms_residual
                    assert got.rms_history == want.rms_history
                    assert np.array_equal(got.inlier_flags, want.inlier_flags)
                    assert got.converged == want.converged
                rounds.add(len(got.rms_history))
        assert len(rounds) >= 4

    def test_input_errors(self):
        pts = np.ones((5, 3))
        assert icp_refine_sets([], [], [], 0.1) == []
        with pytest.raises(ValueError, match="empty point set"):
            icp_refine_sets([pts, pts], [pts, np.zeros((0, 3))], [None, None], 0.1)


def same_result(got, want) -> bool:
    """Equal results bit for bit: poses, rms, flags, history and the
    convergence flag; equal errors by type and message."""
    if isinstance(want, DegenerateAlignmentError):
        return type(got) is type(want) and str(got) == str(want)
    return (
        got.pose.rotation.tobytes() == want.pose.rotation.tobytes()
        and got.pose.translation.tobytes() == want.pose.translation.tobytes()
        and np.float64(got.rms_residual).tobytes() == np.float64(want.rms_residual).tobytes()
        and got.inlier_flags.tobytes() == want.inlier_flags.tobytes()
        and got.rms_history == want.rms_history
        and got.converged == want.converged
    )


def equal_sized_sets(rng, k=5, n=60):
    """Sets of one size, none padded: noisy rigid copies with outliers, one
    of them planar with signed zeros."""
    sources, targets = [], []
    for _ in range(k):
        src = rng.uniform(-0.5, 0.5, (n, 3))
        tgt = apply_rigid(random_pose(rng), src) + rng.normal(0, 0.01, (n, 3))
        bad = rng.random(n) < 0.2
        tgt[bad] += rng.uniform(-0.6, 0.6, (bad.sum(), 3))
        sources.append(src)
        targets.append(tgt)
    sources[-1][:, 2] = np.where(rng.random(n) < 0.5, 0.0, -0.0)
    return sources, targets


class TestKernelsBitwise:
    """The filter, ICP and Kabsch kernels give the bytes of their first
    forms (``reference.ref_*``): one set at a time, sets of mixed sizes
    (gross outliers, collinear, too few pairs), sets of one size (no
    padding) and ICP sets that stop for every reason."""

    def test_kabsch(self):
        rng = np.random.default_rng(70)
        src, tgt = rng.normal(size=(2, 7, 40, 3))
        flags = rng.random((7, 40)) < 0.8
        cases = [(src[0], tgt[0], None), (src, tgt, None), (src, tgt, flags),
                 (src, tgt, flags.astype(float)), (src, tgt, rng.uniform(0, 2, (7, 40)))]
        padded = procrustes._padded(list(src[:4]) + [s[:30] for s in src[4:]],
                                    list(tgt[:4]) + [t[:30] for t in tgt[4:]])
        assert padded[2] is not None
        cases.append(padded)
        padded = procrustes._padded(list(src), list(tgt))
        assert padded[2] is None
        cases.append(padded)
        for source, target, weights in cases:
            for got, want in zip(_kabsch(source, target, weights), reference.ref_kabsch(source, target, weights),
                                 strict=True):
                assert got.tobytes() == want.tobytes()

    def test_padded(self):
        rng = np.random.default_rng(71)
        for sizes in ([5], [5, 5, 5], [3, 9, 1], [0, 4]):
            sources, targets = ([rng.normal(size=(n, 3)) for n in sizes] for _ in range(2))
            src, tgt, rows = procrustes._padded(sources, targets)
            (want_src, want_rows), (want_tgt, _) = reference.ref_padded(sources), reference.ref_padded(targets)
            assert np.array_equal(src, want_src) and np.array_equal(tgt, want_tgt)
            assert np.array_equal(want_rows if rows is None else rows, want_rows)
            assert (rows is None) == bool(want_rows.all())

    @pytest.mark.parametrize("rounds", [FILTER_MAX_ROUNDS, 1])
    def test_kabsch_filter_sets(self, monkeypatch, rounds):
        monkeypatch.setattr(procrustes, "FILTER_MAX_ROUNDS", rounds)
        for seed in range(3):
            rng = np.random.default_rng(72 + seed)
            batches = [mixed_sets(rng), equal_sized_sets(rng)]
            batches += [([s], [t]) for sources, targets in batches[:] for s, t in zip(sources, targets)]
            for sources, targets in batches:
                for cfg in (FilterConfig(0.20, 15), FilterConfig(0.05, 5), FilterConfig()):
                    got = kabsch_filter_sets(sources, targets, cfg)
                    want = reference.ref_kabsch_filter_sets(sources, targets, cfg)
                    assert all(same_result(g, w) for g, w in zip(got, want, strict=True))

    def test_icp_refine_sets(self):
        for seed in range(3):
            rng = np.random.default_rng(75 + seed)
            batches = [icp_batch(rng)]
            # sets of one size, every point matched at the start
            sources = [TestIcpRefine().surface(rng, 80) for _ in range(3)]
            gts = [random_pose(rng, 0.3, 0.3) for _ in sources]
            batches.append((sources, [apply_rigid(g, s) for g, s in zip(gts, sources)],
                            [RigidPose(g.angles + 0.01, g.translation + 0.005) for g in gts]))
            batches += [([s], [t], [i]) for batch in batches[:] for s, t, i in zip(*batch)]
            for sources, targets, inits in batches:
                for radius in (0.1, 0.5):
                    got = icp_refine_sets(sources, targets, inits, radius)
                    want = reference.ref_icp_refine_sets(sources, targets, inits, radius)
                    assert all(same_result(g, w) for g, w in zip(got, want, strict=True))


def test_filter_config_validation():
    """A finite positive threshold and an int min_pairs >= 3, naming the
    field."""
    for name, value in (
        ("distance_threshold", -1.0), ("distance_threshold", np.nan), ("distance_threshold", np.inf),
        ("min_pairs", 2), ("min_pairs", 3.5), ("min_pairs", True),
    ):
        with pytest.raises(ValueError, match=f"{name} must be"):
            FilterConfig(**{name: value})
