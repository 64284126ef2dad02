from dataclasses import astuple, replace

import numpy as np
import pytest
from scipy.linalg import LinAlgError, solveh_banded

from objreg import geometry, joint_solver
from objreg.geometry import RigidPose, apply_rigid, compose, invert
from objreg.joint_solver import (
    KEYPOINT_FILTER,
    LAMBDA_START,
    MAX_ITERATIONS,
    PairIndex,
    PairResult,
    SolveReport,
    SolverConfig,
    UnsolvableProblemError,
    _cost,
    _damped_steps,
    _normal_equations,
    _Poses,
    _prune,
    _reports,
    _residual,
    _solve_each,
    _squares,
    _Stack,
    _weighted_blocks,
    build_problem,
    build_problems,
    gauss_newton_solve,
    gauss_newton_solve_batch,
    icp_polish,
    register_pair,
    register_pairs,
)
from objreg.matching import MatchConfig, PairMatch, match_pair, match_pairs
from objreg.metrics import pose_error
from objreg.observations import Frame, FrameSet, KeypointMatch, ObjectObservation, fit_noc
from objreg.posegraph import LOOP_KEYPOINT_FILTER, ODOMETRY_KEYPOINT_FILTER, damped_step, register_sequence
from objreg.procrustes import AlignmentResult, icp_refine_sets
from objreg.synth import SynthConfig, generate
import reference
from reference import apply_object, kabsch_solve, lower_band, numeric_jacobian_check


def keypoint_only_fs(rng, n=60, noise=0.0):
    pts_i = rng.uniform(-2, 2, (n, 3))
    gt = RigidPose(rng.uniform(-0.6, 0.6, 3), rng.uniform(-1, 1, 3))
    # points live in each camera's local frame: p_j = (T_j^-1 T_i) p_i with
    # T_i = I, T_j = gt
    pts_j = apply_rigid(invert(gt), pts_i) + rng.normal(0, noise, (n, 3))
    fs = FrameSet([Frame(0), Frame(1)], [KeypointMatch(0, 1, pts_i, pts_j)])
    return fs, gt


def object_only_fs(rng, n=200, noise=0.0, scale=(0.8, 0.6, 1.0)):
    """Two frames seeing the same object, zero keypoints."""
    scale = np.asarray(scale, dtype=float)
    noc = rng.uniform(-0.5, 0.5, (n, 3))
    obj_world = RigidPose(rng.uniform(-np.pi, np.pi, 3), rng.uniform(-0.5, 0.5, 3))
    world = apply_rigid(obj_world, noc * scale)
    cam1 = RigidPose(rng.uniform(-0.5, 0.5, 3), rng.uniform(-1, 1, 3))
    sel0 = rng.random(n) < 0.7
    sel1 = rng.random(n) < 0.7
    obs = []
    for frame, cam, sel in ((0, RigidPose.identity(), sel0), (1, cam1, sel1)):
        depth = apply_rigid(invert(cam), world[sel]) + rng.normal(0, noise, (int(sel.sum()), 3))
        obs.append(
            ObjectObservation(frame, 0, 0, noc[sel], depth, scale, np.zeros(4))
        )
    fs = FrameSet([Frame(0), Frame(1)], observations=obs)
    return fs, [PairMatch(0, 0, 0.0)], cam1, obj_world, scale


class TestBuildProblem:
    def test_keypoint_init_matches_kabsch(self):
        rng = np.random.default_rng(0)
        fs, gt = keypoint_only_fs(rng)
        problem = build_problem(fs, [], SolverConfig())
        assert problem.keypoints is not None and not problem.object_blocks
        init = problem.initial_camera
        rot, trans = pose_error(init, gt)
        assert rot < 1e-6 and trans < 1e-8

    def test_object_init_from_local_poses(self):
        """Without keypoints camera 1 starts where the first object's two
        NOC fits put it: exactly on a noiseless pair."""
        rng = np.random.default_rng(3)
        fs, matches, cam1, *_ = object_only_fs(rng)
        problem = build_problem(fs, matches, SolverConfig())
        local0, local1 = (o.noc_fit.pose for o in fs.observations)
        expected = compose(local0, invert(local1))
        init = problem.initial_camera
        assert init.rotation.tobytes() == expected.rotation.tobytes()
        assert init.translation.tobytes() == expected.translation.tobytes()
        assert np.abs(init.to_matrix() - cam1.to_matrix()).max() < 1e-9

    def test_keypoint_init_preferred_over_objects(self):
        """With keypoints and an object that disagree, camera 1 starts at the
        keypoint Kabsch pose."""
        rng = np.random.default_rng(11)
        fs, matches, cam1, *_ = object_only_fs(rng)
        kp_fs, gt = keypoint_only_fs(rng)
        both = build_problem(FrameSet(fs.frames, kp_fs.keypoint_matches, fs.observations), matches, SolverConfig())
        kp_only = build_problem(kp_fs, [], SolverConfig())
        assert both.keypoints is not None and len(both.object_blocks) == 1
        assert both.initial_camera.to_matrix().tobytes() == kp_only.initial_camera.to_matrix().tobytes()
        assert pose_error(both.initial_camera, gt)[1] < 1e-8
        assert pose_error(both.initial_camera, cam1)[1] > 0.1

    def test_reversed_keypoint_match_oriented(self):
        """A match stored as frame 1 -> 0 builds the block of its 0 -> 1 mirror."""
        rng = np.random.default_rng(12)
        fs, _ = keypoint_only_fs(rng, noise=0.002)
        km = fs.keypoint_matches[0]
        mirror = FrameSet(fs.frames, [KeypointMatch(1, 0, km.points_j, km.points_i)])
        got, want = build_problem(mirror, [], SolverConfig()), build_problem(fs, [], SolverConfig())
        assert got.keypoints.points_i.tobytes() == want.keypoints.points_i.tobytes()
        assert got.keypoints.points_j.tobytes() == want.keypoints.points_j.tobytes()
        assert got.initial_camera.to_matrix().tobytes() == want.initial_camera.to_matrix().tobytes()

    def test_small_blocks_dropped(self):
        rng = np.random.default_rng(1)
        fs = FrameSet(
            [Frame(0), Frame(1)],
            [KeypointMatch(0, 1, rng.uniform(-1, 1, (4, 3)), rng.uniform(-1, 1, (4, 3)))],
        )
        with pytest.raises(UnsolvableProblemError):
            build_problem(fs, [], SolverConfig())

    def test_unsolvable_reasons(self):
        """The error names why no problem was built: nothing to build from,
        or no block left after filtering."""
        rng = np.random.default_rng(1)
        with pytest.raises(UnsolvableProblemError, match="^no keypoint matches and no object matches$"):
            build_problem(FrameSet([Frame(0), Frame(1)]), [], SolverConfig())
        small = KeypointMatch(0, 1, rng.uniform(-1, 1, (4, 3)), rng.uniform(-1, 1, (4, 3)))
        with pytest.raises(UnsolvableProblemError, match="^no keypoint or object blocks survive filtering$"):
            build_problem(FrameSet([Frame(0), Frame(1)], [small]), [], SolverConfig())

    def test_object_observation_below_min_pairs_dropped(self):
        rng = np.random.default_rng(2)
        fs, matches, *_ = object_only_fs(rng, n=18)  # ~12 visible per frame < 15
        with pytest.raises(UnsolvableProblemError):
            build_problem(fs, matches, SolverConfig())

    def test_match_without_fit_gives_no_block(self):
        """Match 0's frame-0 observation has too few NOC pairs for a fit, so
        only match 1 gives a block; the block and the report name it by its
        index in the matches, and the solve equals that of match 1 alone."""
        rng = np.random.default_rng(13)
        fs, _, cam1, *_ = object_only_fs(rng)
        obs0, obs1 = fs.observations
        few = ObjectObservation(0, 1, 0, obs0.noc_points[:10], obs0.depth_points[:10],
                                obs0.scale_estimate, np.zeros(4))
        fs = FrameSet(fs.frames, [], [obs0, few, obs1, replace(obs1, detection_id=1)])
        matches = [PairMatch(1, 1, 0.0), PairMatch(0, 0, 0.0)]
        assert few.noc_fit is None
        problem = build_problem(fs, matches, SolverConfig())
        assert [blk.track_id for blk in problem.object_blocks] == [1]
        report = gauss_newton_solve(problem)
        assert report.track_ids == [1]
        assert [s.track_id for s in report.block_stats] == [1]
        alone = gauss_newton_solve(build_problem(fs, matches[1:], SolverConfig()))
        assert alone.track_ids == [0]
        assert report.camera_poses[1].to_matrix().tobytes() == alone.camera_poses[1].to_matrix().tobytes()
        assert pose_error(report.camera_poses[1], cam1)[1] < 1e-6

    def test_three_frames_rejected(self, monkeypatch):
        """A set of any other frame count is rejected before any filtering."""
        rng = np.random.default_rng(3)
        fs, _ = keypoint_only_fs(rng)
        fs3 = FrameSet([Frame(0), Frame(1), Frame(2)], fs.keypoint_matches)

        def forbidden(*_):
            raise AssertionError("build_problem filtered a set it rejects")

        monkeypatch.setattr(joint_solver, "kabsch_filter_sets", forbidden)
        with pytest.raises(ValueError, match="exactly 2 frames"):
            build_problem(fs3, [], SolverConfig())


def fitted_scene(**overrides):
    """A noisy synthetic scene with its NOC fits cached."""
    cfg = dict(num_frames=2, num_objects=3, orbit_span=np.pi / 6, keypoints_per_pair=40,
               noise_sigma_depth=0.003, rng_seed=13)
    fs, _ = generate(SynthConfig(**{**cfg, **overrides}))
    fit_noc(fs.observations)
    return fs


class TestPairPlan:
    """A plan entry's matches are a MatchConfig, which matches the pair, or
    the pair's given PairMatch list."""

    def test_given_matches_used_as_is(self, monkeypatch):
        fs = fitted_scene()
        given = match_pair(fs.observations_in_frame(0), fs.observations_in_frame(1), MatchConfig(top_k=0), True)
        assert len(given) > 1  # more than the default MatchConfig keeps
        requests = []
        monkeypatch.setattr(
            joint_solver, "match_pairs",
            lambda obs, frames, reqs: requests.extend(reqs) or match_pairs(obs, frames, reqs),
        )
        (setup,) = build_problems(PairIndex(fs), {(0, 1): (given, KEYPOINT_FILTER)}, SolverConfig()).values()
        assert setup.matches is given and requests == []
        assert [b.track_id for b in setup.problem.object_blocks] == list(range(len(given)))
        obs_a, obs_b = fs.observations_in_frame(0), fs.observations_in_frame(1)
        for m, blk in zip(given, setup.problem.object_blocks):
            assert blk.init_pose.rotation is obs_a[m.index_a].noc_fit.pose.rotation
            assert blk.noc_points[1].tobytes() == obs_b[m.index_b].noc_points[obs_b[m.index_b].noc_fit.inlier_flags].tobytes()

    def test_no_given_matches_no_object_blocks(self):
        fs = fitted_scene()
        index, cfg = PairIndex(fs), SolverConfig()
        (matched,) = build_problems(index, {(0, 1): (MatchConfig(), KEYPOINT_FILTER)}, cfg).values()
        (setup,) = build_problems(index, {(0, 1): ([], KEYPOINT_FILTER)}, cfg).values()
        assert matched.matches and matched.problem.object_blocks
        assert setup.matches == [] and setup.problem.object_blocks == []
        assert setup.problem.keypoints.points_i.tobytes() == matched.problem.keypoints.points_i.tobytes()

    def test_mixed_plan_equals_each_pair_alone(self):
        """Each pair of a plan that mixes matched and given-match pairs, with
        ICP on every pair or on none, gets what a plan holding it alone
        gives it: the same problem, bit for bit, and the same solve up to the
        rounding of the lockstep batch (as in ``test_pairs_equal_lone_solves``)."""
        fs = fitted_scene(num_frames=5, num_objects=2, trajectory="line", orbit_radius=1.8,
                          keypoints_per_pair=20, rng_seed=8)
        index = PairIndex(fs)
        (wide,) = match_pairs(fs.observations, index.frames, [(1, 3, MatchConfig(top_k=0), True)])
        plan = {(i, i + 1): (MatchConfig(), ODOMETRY_KEYPOINT_FILTER) for i in range(4)}
        plan[(0, 2)] = ([], LOOP_KEYPOINT_FILTER)
        plan[(1, 3)] = (wide, LOOP_KEYPOINT_FILTER)
        plan[(2, 4)] = (MatchConfig(embed_threshold=0.04), LOOP_KEYPOINT_FILTER)
        scfg = SolverConfig()
        setups = build_problems(index, plan, scfg)
        for icp in (False, True):
            results = register_pairs(fs, plan, scfg, icp)
            assert list(results) == list(plan) and results[(1, 3)].matches is wide
            for pair, got in results.items():
                (alone,) = build_problems(index, {pair: plan[pair]}, scfg).values()
                assert setups[pair].matches == alone.matches == got.matches
                assert problem_bits(setups[pair].problem) == problem_bits(alone.problem)
                (want,) = register_pairs(fs, {pair: plan[pair]}, scfg, icp).values()
                assert got.success and want.success
                g, w = got.report, want.report
                assert (g.iterations, g.pruned_count, g.track_ids) == (w.iterations, w.pruned_count, w.track_ids)
                for p, q in zip(g.camera_poses + g.object_poses, w.camera_poses + w.object_poses):
                    assert np.abs(p.rotation - q.rotation).max() <= 1e-9
                    assert np.abs(p.translation - q.translation).max() <= 1e-9


def problem_bits(problem):
    """Exact bytes of a problem's blocks and initial values."""
    arrays = [problem.initial_camera.to_matrix()]
    if problem.keypoints is not None:
        arrays += [problem.keypoints.points_i, problem.keypoints.points_j]
    for blk in problem.object_blocks:
        arrays += [*blk.noc_points, *blk.depth_points, blk.init_pose.rotation, blk.init_pose.scale]
    return [blk.track_id for blk in problem.object_blocks], [a.tobytes() for a in arrays]


class TestGaussNewton:
    def test_object_only_noiseless_recovery(self):
        rng = np.random.default_rng(4)
        fs, matches, cam1, obj_world, scale = object_only_fs(rng)
        problem = build_problem(fs, matches, SolverConfig())
        report = gauss_newton_solve(problem)
        rot, trans = pose_error(report.camera_poses[1], cam1)
        assert trans < 1e-6 and np.deg2rad(rot) < 1e-6
        obj = report.object_poses[0]
        assert np.abs(obj.scale - scale).max() < 1e-6

    def test_keypoints_only_matches_kabsch(self):
        rng = np.random.default_rng(5)
        fs, gt = keypoint_only_fs(rng, noise=0.002)
        problem = build_problem(fs, [], SolverConfig())
        report = gauss_newton_solve(problem)
        km = fs.keypoint_matches[0]
        closed = kabsch_solve(km.points_j, km.points_i).pose
        rot, trans = pose_error(report.camera_poses[1], closed)
        assert trans < 1e-6 and np.deg2rad(rot) < 1e-6

    def test_joint_keypoints_and_objects(self):
        # keypoints and object constraints consistent with the same camera
        rng = np.random.default_rng(6)
        fs, matches, cam1, _, _ = object_only_fs(rng, noise=0.005)
        world_kp = rng.uniform(-2, 2, (60, 3))
        km = KeypointMatch(
            0, 1,
            world_kp + rng.normal(0, 0.005, world_kp.shape),
            apply_rigid(invert(cam1), world_kp) + rng.normal(0, 0.005, world_kp.shape),
        )
        both = FrameSet(fs.frames, [km], fs.observations)
        report = gauss_newton_solve(build_problem(both, matches, SolverConfig()))
        rot, trans = pose_error(report.camera_poses[1], cam1)
        assert rot < 1.0 and trans < 0.03
        kinds = {s.kind for s in report.block_stats}
        assert kinds == {"keypoint", "object"}

    def test_residual_pruning_removes_planted_outliers(self):
        rng = np.random.default_rng(7)
        fs, gt = keypoint_only_fs(rng, n=80, noise=0.002)
        km = fs.keypoint_matches[0]
        # residual norms between the 0.15 solver prune and the 0.20 build filter
        dirs = rng.normal(size=(8, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        km.points_j[:8] += dirs * rng.uniform(0.16, 0.19, 8)[:, None]
        problem = build_problem(fs, [], SolverConfig())
        report = gauss_newton_solve(problem)
        assert report.pruned_count >= 6
        rot, trans = pose_error(report.camera_poses[1], gt)
        assert rot < 0.5 and trans < 0.01

    def test_w_o_zero_ignores_objects(self):
        rng = np.random.default_rng(8)
        fs, matches, cam1, _, _ = object_only_fs(rng)
        kp_fs, gt = keypoint_only_fs(rng)
        both = FrameSet(fs.frames, kp_fs.keypoint_matches, fs.observations)
        cfg = SolverConfig(w_o=0.0)
        report = gauss_newton_solve(build_problem(both, matches, cfg))
        assert report.object_poses == []
        rot, trans = pose_error(report.camera_poses[1], gt)
        assert trans < 1e-6

    def test_w_c_zero_ignores_keypoints(self):
        rng = np.random.default_rng(9)
        fs, matches, cam1, _, _ = object_only_fs(rng)
        bogus = KeypointMatch(0, 1, rng.uniform(-1, 1, (30, 3)), rng.uniform(-1, 1, (30, 3)))
        both = FrameSet(fs.frames, [], fs.observations)  # bogus block wouldn't
        # survive filtering anyway; test the config path directly
        cfg = SolverConfig(w_c=0.0)
        report = gauss_newton_solve(build_problem(both, matches, cfg))
        rot, trans = pose_error(report.camera_poses[1], cam1)
        assert trans < 1e-6

    def test_both_weights_zero_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(w_c=0.0, w_o=0.0)

    @pytest.mark.parametrize("name", ["w_c", "w_o", "residual_prune"])
    def test_bad_config_value_rejected(self, name):
        """A non-finite or out-of-range value is rejected, naming its field."""
        low = 0.0 if name == "residual_prune" else -1e-9
        for value in (np.nan, np.inf, -np.inf, low):
            with pytest.raises(ValueError, match=name):
                SolverConfig(**{name: value})

    def test_cost_nonnegative_and_stats_present(self):
        rng = np.random.default_rng(10)
        fs, matches, *_ = object_only_fs(rng, noise=0.01)
        report = gauss_newton_solve(build_problem(fs, matches, SolverConfig()))
        assert report.final_cost >= 0
        kinds = {s.kind for s in report.block_stats}
        assert kinds == {"object"}


class TestJacobian:
    def test_analytic_matches_finite_difference(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            fs, matches, cam1, *_ = object_only_fs(rng, n=60, noise=0.01)
            wk = rng.uniform(-2, 2, (20, 3))
            km = KeypointMatch(
                0, 1,
                wk + rng.normal(0, 0.01, wk.shape),
                apply_rigid(invert(cam1), wk) + rng.normal(0, 0.01, wk.shape),
            )
            both = FrameSet(fs.frames, [km], fs.observations)
            problem = build_problem(both, matches, SolverConfig())
            assert numeric_jacobian_check(problem) < 1e-5

    @pytest.mark.parametrize("objects", [0, 1, 2])
    def test_pruned_masks(self, objects, monkeypatch):
        """At a prune threshold under the noise the check compares the
        normal equations of a pruned active set."""
        problem = tracked_problem(seed=21, objects=objects)
        problem = replace(problem, config=replace(problem.config, residual_prune=0.006))
        pruned = []
        monkeypatch.setattr(
            reference, "_prune", lambda stack, sq: pruned.append(_prune(stack, sq).sum()) or pruned[-1]
        )
        assert numeric_jacobian_check(problem) < 1e-5
        assert pruned[0] > 0


class PairState:
    """Problem k of stacked poses, read the way the references below read
    a state."""

    def __init__(self, poses, k=0):
        self.cam_rot, self.cam_t = poses.rot[k, 0], poses.trans[k, 0]
        self.obj_rot, self.obj_t = poses.rot[k, 1:], poses.trans[k, 1:]
        self.obj_scale = poses.scale[k]
        self.size = 6 + 9 * len(self.obj_rot)

    def to_world(self, pts):
        return pts @ self.cam_rot.T + self.cam_t

    def object_points(self, b, noc):
        return (noc * self.obj_scale[b]) @ self.obj_rot[b].T + self.obj_t[b]


def row_mask(active_kp, active_obj):
    """Per-block masks as one mask over a stacked problem's rows: keypoint
    pairs, then each object block's pairs frame by frame."""
    return np.concatenate(active_kp + [m for frames in active_obj for m in frames])


def keypoint_blocks(problem):
    """The problem's keypoint block as a list of zero or one."""
    return [] if problem.keypoints is None else [problem.keypoints]


def split_rows(problem, mask):
    """The inverse of row_mask: (active_kp, active_obj) of a row mask."""
    kp = keypoint_blocks(problem)
    sizes = [len(b) for b in kp] + [len(p) for b in problem.object_blocks for p in b.noc_points]
    parts = np.split(mask[: sum(sizes)].copy(), np.cumsum(sizes)[:-1])
    active_kp, rest = parts[: len(kp)], parts[len(kp):]
    active_obj = [rest[2 * b : 2 * b + 2] for b in range(len(problem.object_blocks))]
    return active_kp, active_obj


def single(problem):
    """A stack of one problem and its initial poses."""
    stack = _Stack([problem])
    return stack, _Poses.initial([problem])


def reference_assembly(problem, state, active_kp, active_obj):
    """Weighted residuals, Jacobian and unweighted residual rows the plain
    way: each block in its own zero-filled (n, 3, nvar) array, skew
    matrices from np.cross, everything stacked at the end. Camera 1's
    (phi, t) are columns 0-5 and object b's (phi, t, log s) columns 6 + 9b
    to 15 + 9b."""
    cfg = problem.config
    nvar = state.size
    eye = np.eye(3)

    def skew(p):
        return np.cross(np.eye(3), p[:, None, :])

    r_parts, j_parts, d_parts = [], [], []
    for b, blk in enumerate(keypoint_blocks(problem)):
        mask = active_kp[b]
        n = mask.sum()
        if n == 0 or cfg.w_c == 0:
            continue
        w = np.sqrt(cfg.w_c / len(blk))
        pi, pj = blk.points_i[mask], blk.points_j[mask]
        d_parts.append(pi - state.to_world(pj))
        r_parts.append((w * d_parts[-1]).ravel())
        jb = np.zeros((n, 3, nvar))
        jb[:, :, 0:3] = w * (state.cam_rot @ skew(pj))
        jb[:, :, 3:6] = -w * eye
        j_parts.append(jb.reshape(3 * n, nvar))
    for b, blk in enumerate(problem.object_blocks):
        ro = state.obj_rot[b]
        w = np.sqrt(cfg.w_o / blk.total_pairs())
        ooff = 6 + 9 * b
        for frame in (0, 1):
            mask = active_obj[b][frame]
            n = mask.sum()
            if n == 0:
                continue
            depth, noc = blk.depth_points[frame][mask], blk.noc_points[frame][mask]
            world = state.to_world(depth) if frame == 1 else depth
            d_parts.append(world - state.object_points(b, noc))
            r_parts.append((w * d_parts[-1]).ravel())
            scaled = noc * state.obj_scale[b]
            jb = np.zeros((n, 3, nvar))
            if frame == 1:
                jb[:, :, 0:3] = -w * (state.cam_rot @ skew(depth))
                jb[:, :, 3:6] = w * eye
            jb[:, :, ooff : ooff + 3] = w * (ro @ skew(scaled))
            jb[:, :, ooff + 3 : ooff + 6] = -w * eye
            jb[:, :, ooff + 6 : ooff + 9] = -w * scaled[:, None, :] * ro
            j_parts.append(jb.reshape(3 * n, nvar))
    return np.concatenate(r_parts), np.vstack(j_parts), np.vstack(d_parts)


def tracked_problem(seed, objects=2):
    """Synthetic pair problem with keypoints, 10% NOC outliers and
    ``objects`` objects seen in both frames, matched by detection id."""
    fs, _ = generate(
        SynthConfig(num_frames=2, num_objects=max(objects, 1), keypoints_per_pair=40,
                    orbit_span=np.pi / 8, noise_sigma_depth=0.003,
                    outlier_fraction=0.10, rng_seed=seed)
    )
    per_frame = [fs.observations_in_frame(f) for f in range(2)]
    assert all(len(obs) == max(objects, 1) for obs in per_frame)  # detection id = object
    return build_problem(fs, [PairMatch(t, t, 0.0) for t in range(objects)], SolverConfig())


class TestAssemble:
    """The residual rows against the per-block reference (to 1e-13 m) and
    the normal equations from the feature moments against the reference
    Jacobian's J^T J and J^T r (relative 1e-12), over several states of one
    active set, as in the solver. J^T r is tested at the initial state,
    where it nearly cancels, and away from it."""

    def check(self, problem, active_kp, active_obj, states):
        stack = _Stack([problem])
        mask = row_mask(active_kp, active_obj)
        stack.active[0] = mask
        stack.weigh()
        for poses in states:
            r_ref, j_ref, d_ref = reference_assembly(problem, PairState(poses), active_kp, active_obj)
            d = _residual(stack, poses)
            assert np.abs(d[0, mask] - d_ref).max() <= 1e-13  # metres, on points of metres
            hess, grad = _normal_equations(stack, poses, d)
            # each relative to the sums of absolute terms, which bound them
            h_ref, g_ref = j_ref.T @ j_ref, j_ref.T @ r_ref
            scale = np.abs(j_ref).T
            assert np.abs(hess[0] - h_ref).max() <= 1e-12 * (scale @ np.abs(j_ref)).max()
            assert np.abs(grad[0] - g_ref).max() <= 1e-12 * (scale @ np.abs(r_ref)).max()

    def all_active(self, problem):
        return (
            [np.ones(len(b), dtype=bool) for b in keypoint_blocks(problem)],
            [[np.ones(len(p), dtype=bool) for p in b.noc_points] for b in problem.object_blocks],
        )

    def test_pruned_masks(self):
        problem = tracked_problem(seed=21)
        stack, poses = single(problem)
        moved = poses.retract(np.random.default_rng(0).normal(0, 0.02, (1, 6 + 9 * 2)))
        stack.threshold[:] = 0.05
        assert _prune(stack, _squares(_residual(stack, moved)))[0] > 0
        active_kp, active_obj = split_rows(problem, stack.active[0])
        masks = active_kp + [m for block in active_obj for m in block]
        assert any(0 < m.sum() < len(m) for m in masks)
        active_obj[1][0][:] = False  # a frame with no active pairs left
        self.check(problem, active_kp, active_obj, [poses, moved])

    @pytest.mark.parametrize("objects", [0, 1, 2])
    def test_all_active(self, objects):
        problem = tracked_problem(seed=22, objects=objects)
        _, poses = single(problem)
        moved = poses.retract(np.random.default_rng(1).normal(0, 0.05, (1, 6 + 9 * objects)))
        self.check(problem, *self.all_active(problem), [poses, moved])

    def test_object_only(self):
        fs, matches, *_ = object_only_fs(np.random.default_rng(5), noise=0.01)
        problem = build_problem(fs, matches, SolverConfig())
        _, poses = single(problem)
        moved = poses.retract(np.random.default_rng(2).normal(0, 0.05, (1, 15)))
        self.check(problem, *self.all_active(problem), [poses, moved])


def reference_prune(problem, state, active_kp, active_obj, threshold):
    """Pruning by a full recompute: every correspondence's residual at the
    state, whether active or not."""
    pruned = 0
    for b, blk in enumerate(keypoint_blocks(problem)):
        res = blk.points_i - state.to_world(blk.points_j)
        bad = active_kp[b] & (np.linalg.norm(res, axis=1) > threshold)
        if active_kp[b].sum() - bad.sum() >= 5:
            pruned += int(bad.sum())
            active_kp[b] &= ~bad
    for b, blk in enumerate(problem.object_blocks):
        for frame in (0, 1):
            depth = blk.depth_points[frame]
            world = state.to_world(depth) if frame == 1 else depth
            res = world - state.object_points(b, blk.noc_points[frame])
            bad = active_obj[b][frame] & (np.linalg.norm(res, axis=1) > threshold)
            if active_obj[b][frame].sum() - bad.sum() >= 15:
                pruned += int(bad.sum())
                active_obj[b][frame] &= ~bad
    return pruned


def outlier_problem(seed):
    """Acceptance criterion 04's setting for the solver: 100 keypoint pairs
    under a random pose, 5 mm noise, 30 of them moved 0.16-0.19 m, between
    the solver's 0.15 m prune and the 0.20 m build filter."""
    rng = np.random.default_rng(seed)
    pts_i = rng.uniform(-1, 1, (100, 3))
    gt = RigidPose(rng.uniform(-np.pi, np.pi, 3), rng.uniform(-1, 1, 3))
    pts_j = apply_rigid(invert(gt), pts_i) + rng.normal(0, 0.005, (100, 3))
    dirs = rng.normal(size=(30, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pts_j[rng.permutation(100)[:30]] += dirs * rng.uniform(0.16, 0.19, 30)[:, None]
    fs = FrameSet([Frame(0), Frame(1)], [KeypointMatch(0, 1, pts_i, pts_j)])
    return build_problem(fs, [], SolverConfig())


class TestPruneFromResidual:
    """The solver prunes from the residual rows of the poses it holds; at
    every iteration that must prune exactly what a full recompute of every
    residual at those poses prunes. The poses are read where the solver
    forms its normal equations, right after each prune."""

    def solve_checked(self, problem, monkeypatch):
        pending, counts = [], []

        def prune(stack, sq):
            before = stack.active[0].copy()
            got = _prune(stack, sq)
            pending.append((before, stack.active[0].copy(), int(got[0])))
            return got

        def normal_equations(stack, poses, d):
            before, after, got = pending.pop()
            active_kp, active_obj = split_rows(problem, before)
            expected = reference_prune(
                problem, PairState(poses), active_kp, active_obj, problem.config.residual_prune
            )
            assert got == expected
            assert np.array_equal(after, row_mask(active_kp, active_obj))
            counts.append(got)
            return _normal_equations(stack, poses, d)

        monkeypatch.setattr(joint_solver, "_prune", prune)
        monkeypatch.setattr(joint_solver, "_normal_equations", normal_equations)
        report = gauss_newton_solve(problem)
        assert not pending
        assert len(counts) == report.iterations and sum(counts) == report.pruned_count
        return counts

    def test_planted_outliers(self, monkeypatch):
        for seed in range(5):
            counts = self.solve_checked(outlier_problem(400 + seed), monkeypatch)
            assert sum(counts) >= 20

    def test_tracked_problem(self, monkeypatch):
        problem = tracked_problem(seed=21)
        # nothing to prune at 0.15 m; at 0.002 m every block would drop
        # below its minimum, so all keep their pairs
        for threshold, prunes in ((0.15, False), (0.01, True), (0.006, True), (0.002, False)):
            cfg = replace(problem.config, residual_prune=threshold)
            counts = self.solve_checked(replace(problem, config=cfg), monkeypatch)
            assert (sum(counts) > 0) == prunes


def rms_of(rows):
    """The rms of residual rows, computed as the solver reports it."""
    norms = np.linalg.norm(rows, axis=1)
    return float(np.sqrt(np.mean(norms**2)))


class TestBlockStats:
    """``block_stats`` come from the residual rows the solver already holds;
    they must equal each block's residuals recomputed at the returned poses
    over its final active pairs: the counts exactly, the rms to 1e-12 (the
    solver forms each row as one product of its features, the recompute as
    a rigid and an object transform)."""

    def solve(self, problem, monkeypatch):
        """The report and the final row mask."""
        masks = []

        def prune(stack, sq):
            got = _prune(stack, sq)
            masks[:] = [stack.active[0].copy()]
            return got

        monkeypatch.setattr(joint_solver, "_prune", prune)
        return gauss_newton_solve(problem), masks[0]

    def check(self, problem, monkeypatch, blocks=None):
        """Solve ``problem`` and check its stats against the blocks of
        ``blocks`` (the problem itself by default), which hold the blocks
        the solver keeps."""
        report, mask = self.solve(problem, monkeypatch)
        problem = blocks or problem
        active_kp, active_obj = split_rows(problem, mask)
        cams = report.camera_poses
        expected = []
        for blk, m in zip(keypoint_blocks(problem), active_kp):
            rows = apply_rigid(cams[0], blk.points_i[m]) - apply_rigid(cams[1], blk.points_j[m])
            expected.append(("keypoint", int(m.sum()), len(blk), rms_of(rows)))
        for blk, frame_masks, obj in zip(problem.object_blocks, active_obj, report.object_poses):
            rows = np.vstack([
                apply_rigid(cams[f], depth[m]) - apply_object(obj, noc[m])
                for f, depth, noc, m in zip((0, 1), blk.depth_points, blk.noc_points, frame_masks)
            ])
            active = int(sum(m.sum() for m in frame_masks))
            expected.append(("object", active, blk.total_pairs(), rms_of(rows)))
        got = [(s.kind, s.active, s.total, s.rms) for s in report.block_stats]
        assert [g[:3] for g in got] == [e[:3] for e in expected]
        assert max(abs(g[3] - e[3]) / e[3] for g, e in zip(got, expected)) <= 1e-12
        return report

    def test_pruned_keypoints(self, monkeypatch):
        for seed in range(3):
            report = self.check(outlier_problem(400 + seed), monkeypatch)
            assert report.pruned_count >= 20

    @pytest.mark.parametrize("seed", [21, 22])
    def test_pruned_objects_and_keypoints(self, monkeypatch, seed):
        problem = tracked_problem(seed)
        problem = replace(problem, config=replace(problem.config, residual_prune=0.01))
        report = self.check(problem, monkeypatch)
        assert report.pruned_count > 0
        assert {s.kind for s in report.block_stats} == {"keypoint", "object"}

    @pytest.mark.parametrize("weights, kind", [({"w_c": 0.0}, "object"), ({"w_o": 0.0}, "keypoint")])
    def test_one_weight_zero(self, monkeypatch, weights, kind):
        problem = tracked_problem(seed=21)
        problem = replace(problem, config=SolverConfig(**weights))
        stripped = replace(
            problem,
            keypoints=problem.keypoints if kind == "keypoint" else None,
            object_blocks=problem.object_blocks if kind == "object" else [],
        )
        report = self.check(problem, monkeypatch, blocks=stripped)
        assert {s.kind for s in report.block_stats} == {kind}


class TestRegisterPair:
    def test_no_euler_angles_on_the_pair_path(self, monkeypatch):
        """A registration, ICP step test included, never decomposes a
        rotation into Euler angles."""
        fs, _ = generate(
            SynthConfig(num_frames=2, num_objects=2, orbit_span=np.pi / 6,
                        noise_sigma_depth=0.005, rng_seed=13)
        )
        icp_results = []

        def icp(*args):
            icp_results.extend(icp_refine_sets(*args))
            return icp_results

        def forbidden(*_):
            raise AssertionError("Euler conversion on the pair path")

        monkeypatch.setattr(joint_solver, "icp_refine_sets", icp)
        monkeypatch.setattr(geometry, "euler_from_rotation", forbidden)
        monkeypatch.setattr(geometry, "rotation_from_euler", forbidden)
        result = register_pair(fs)
        assert result.success and len(icp_results[0].rms_history) >= 2
        assert result.report.camera_poses[1] is icp_results[0].pose  # ICP accepted

    def test_synthetic_pair_with_noise(self):
        fs, gt = generate(
            SynthConfig(num_frames=2, num_objects=2, orbit_span=np.pi / 6,
                        noise_sigma_depth=0.005, rng_seed=13)
        )
        result = register_pair(fs)
        assert result.success
        rel_gt = compose(invert(gt[0]), gt[1])
        rot, trans = pose_error(result.report.camera_poses[1], rel_gt)
        assert rot < 2.0 and trans < 0.05

    def test_object_only_pair(self):
        fs, gt = generate(
            SynthConfig(num_frames=2, num_objects=1, orbit_span=np.pi / 5,
                        keypoints_per_pair=0, rng_seed=14)
        )
        result = register_pair(fs)
        assert result.success and result.matches
        rot, trans = pose_error(result.report.camera_poses[1], gt[1])
        assert rot < 1.0 and trans < 0.02

    def test_no_objects_no_keypoints_fails(self):
        fs, _ = generate(
            SynthConfig(num_frames=2, num_objects=1, orbit_span=np.pi / 6,
                        keypoints_per_pair=0, rng_seed=15)
        )
        result = register_pair(fs, use_objects=False)
        assert not result.success
        assert "no keypoint" in result.reason

    def test_wrong_frame_count(self):
        fs, _ = generate(SynthConfig(num_frames=3, orbit_span=np.pi / 6, rng_seed=16))
        with pytest.raises(ValueError):
            register_pair(fs)

    def test_wrong_frame_count_rejected_before_fitting(self, monkeypatch):
        """The frame count is checked before any NOC fit."""
        fs, _ = generate(SynthConfig(num_frames=3, orbit_span=np.pi / 6, rng_seed=16))

        def forbidden(_):
            raise AssertionError("register_pair fitted a set it rejects")

        monkeypatch.setattr(joint_solver, "fit_noc", forbidden)
        with pytest.raises(ValueError, match="exactly 2 frames"):
            register_pair(fs)

    @pytest.mark.parametrize("keypoints", [40, 0])
    def test_empty_keypoint_match_changes_nothing(self, keypoints):
        """An empty keypoint match adds nothing: register_pair gives exactly
        what it gives without it, on a scene with keypoints and on an
        object-only one (which still matches as one without keypoints)."""
        cfg = SynthConfig(num_frames=2, num_objects=2, orbit_span=np.pi / 6,
                          keypoints_per_pair=keypoints, noise_sigma_depth=0.005, rng_seed=13)
        want = register_pair(generate(cfg).frameset)
        fs, _ = generate(cfg)  # fresh observations, no cached fits
        fs.keypoint_matches.insert(0, KeypointMatch(1, 0, np.zeros((0, 3)), np.zeros((0, 3))))
        got = register_pair(fs)
        assert want.success and got.matches == want.matches
        assert solve_bits(got) == solve_bits(want)
        assert got.report.final_cost == want.report.final_cost

    @pytest.mark.parametrize("icp", [True, False])
    def test_one_pair_stage(self, monkeypatch, icp):
        """register_pair runs the pair stage on its one pair: one PairIndex,
        one build_problems and one gauss_newton_solve_batch call, one
        icp_polish call only with ICP, and none of the one-pair wrappers."""
        fs, _ = generate(
            SynthConfig(num_frames=2, num_objects=2, orbit_span=np.pi / 6,
                        noise_sigma_depth=0.005, rng_seed=13)
        )
        calls = []

        def counted(name):
            fn = getattr(joint_solver, name)
            return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)

        def forbidden(*_, **__):
            raise AssertionError("register_pair called a one-pair wrapper")

        stage = ["PairIndex", "build_problems", "gauss_newton_solve_batch", "icp_polish"]
        for name in stage:
            monkeypatch.setattr(joint_solver, name, counted(name))
        for name in ("build_problem", "match_pair", "kabsch_filter", "gauss_newton_solve"):
            monkeypatch.setattr(joint_solver, name, forbidden)
        result = register_pair(fs, icp=icp)
        assert result.success and result.matches
        assert calls == stage[: 4 if icp else 3]

    def test_icp_does_not_hurt(self):
        fs, gt = generate(
            SynthConfig(num_frames=2, num_objects=1, orbit_span=np.pi / 8,
                        noise_sigma_depth=0.003, rng_seed=17)
        )
        with_icp = register_pair(fs, icp=True)
        without = register_pair(fs, icp=False)
        _, t_icp = pose_error(with_icp.report.camera_poses[1], gt[1])
        _, t_raw = pose_error(without.report.camera_poses[1], gt[1])
        assert t_icp < t_raw + 0.01


def solve_bits(result):
    """Exact bytes of a pair result's poses, with its iterations and block stats."""
    rep = result.report
    return (
        [p.angles.tobytes() + p.translation.tobytes() for p in rep.camera_poses],
        [o.angles.tobytes() + o.translation.tobytes() + o.scale.tobytes() for o in rep.object_poses],
        rep.track_ids,
        rep.iterations,
        rep.block_stats,
    )


class TestPrecomputedMatches:
    @pytest.mark.parametrize("seed", [21, 22, 23, 24, 25, 26])
    def test_bit_identical_to_matching_inside(self, seed):
        """The one-pair steps, build_problem given match_pair's matches, the
        solve and icp_polish, give exactly what register_pair gives when it
        matches itself; odd seeds are object-only scenes."""
        object_only = seed % 2 == 1
        cfg = SynthConfig(
            num_frames=2, num_objects=3, noise_sigma_depth=0.003, outlier_fraction=0.10,
            keypoints_per_pair=0 if object_only else 40,
            orbit_span=(0.7 if object_only else 0.3) * np.pi, rng_seed=seed,
        )
        fs, _ = generate(cfg)
        reference = register_pair(fs)
        fs, _ = generate(cfg)  # fresh observations, no cached fits
        fit_noc(fs.observations)
        matches = match_pair(
            fs.observations_in_frame(0), fs.observations_in_frame(1), MatchConfig(),
            keypoints_present=not object_only,
        )
        (report,) = gauss_newton_solve_batch([build_problem(fs, matches, SolverConfig())])
        icp_polish(PairIndex(fs), [(0, 1)], [report], SolverConfig())
        given = PairResult(True, None, report, matches)
        assert reference.success
        assert given.matches == reference.matches
        assert solve_bits(given) == solve_bits(reference)


def reference_damped_step(ab, jtr, lam, cost, trial, tries):
    """damped_step with a fresh ``jtj + lam I`` in band storage on every try."""
    for _ in range(tries):
        damped = ab.copy()
        damped[0] += lam
        try:
            delta = solveh_banded(damped, -jtr, lower=True)
        except LinAlgError:
            lam *= 10
            continue
        candidate, cost_new = trial(delta)
        if np.isfinite(cost_new) and cost_new <= cost + 1e-15:
            return candidate, cost_new, max(lam / 10, 1e-12)
        lam *= 10
    return None, None, lam


class TestDampedStep:
    def run_both(self, jtj, jtr, lam, costs, tries=8):
        """Both versions on the same system, ``jtj`` in lower band storage;
        the trial returns ``costs`` in turn (the last repeated). Returns
        (result, deltas tried) of each."""
        ab = lower_band(jtj, len(jtj) - 1)
        out = []
        for step in (damped_step, reference_damped_step):
            tried = []

            def trial(delta):
                tried.append(delta)
                return len(tried), costs[min(len(tried), len(costs)) - 1]

            out.append((step(ab.copy(), jtr, lam, 1.0, trial, tries), tried))
        return out

    def assert_identical(self, got, ref):
        (result, tried), (result_ref, tried_ref) = got, ref
        assert result == result_ref
        assert len(tried) == len(tried_ref)
        for a, b in zip(tried, tried_ref):
            assert a.tobytes() == b.tobytes()

    def test_bitwise_equal_to_fresh_damping(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            j = rng.normal(size=(40, 12)) * rng.uniform(1e-3, 1e3, 12)
            got, ref = self.run_both(j.T @ j, rng.normal(size=12), 10 ** rng.uniform(-8, 2), [0.5])
            assert got[0][0] == 1
            self.assert_identical(got, ref)

    def test_singular_first_try(self):
        # lam cancels the last diagonal entry exactly: the first system is
        # not positive definite, the second (lam 10x) is
        rng = np.random.default_rng(32)
        j = rng.normal(size=(20, 5))
        jtj = np.zeros((6, 6))
        jtj[:5, :5] = j.T @ j
        jtj[5, 5] = -1e-6
        got, ref = self.run_both(jtj, rng.normal(size=6), 1e-6, [0.5])
        assert len(got[1]) == 1 and got[0][2] == pytest.approx(1e-6)  # one trial, at lam 1e-5
        self.assert_identical(got, ref)

    def test_rejected_trial(self):
        rng = np.random.default_rng(33)
        j = rng.normal(size=(30, 9))
        got, ref = self.run_both(j.T @ j, rng.normal(size=9), 1e-4, [2.0, np.nan, 0.25])
        assert len(got[1]) == 3 and got[0][:2] == (3, 0.25)
        self.assert_identical(got, ref)

    def test_every_try_rejected(self):
        rng = np.random.default_rng(34)
        j = rng.normal(size=(30, 9))
        got, ref = self.run_both(j.T @ j, rng.normal(size=9), 1e-4, [2.0], tries=4)
        assert got[0][:2] == (None, None) and len(got[1]) == 4
        self.assert_identical(got, ref)


MARK = 0.1501  # residual_prune of the problems that the hooks below single out


def singular_first_try(monkeypatch, solves):
    """Make the marked problem's damped system singular at every first
    try: row and column 0 of J^T J zeroed, entry (0, 0) set to -1e-6 (the
    damping lam starts at 1e-6 and returns to it after each accepted try
    at 1e-5) and J^T r zeroed there. ``solves`` records, per stacked solve,
    the mask of its nonsingular systems."""

    def normal_equations(stack, poses, d):
        hess, grad = _normal_equations(stack, poses, d)
        for k in np.flatnonzero(stack.threshold == MARK):
            hess[k, 0, :] = hess[k, :, 0] = 0.0
            hess[k, 0, 0], grad[k, 0] = -1e-6, 0.0
        return hess, grad

    def solve_each(mats, rhs):
        x, ok = _solve_each(mats, rhs)
        solves.append(ok)
        return x, ok

    monkeypatch.setattr(joint_solver, "_normal_equations", normal_equations)
    monkeypatch.setattr(joint_solver, "_solve_each", solve_each)


def rejected_first_try(monkeypatch):
    """Make the marked problem's first trial cost NaN at every step, so that
    its first try is rejected while the other problems accept theirs. The
    first trial cost is the first cost a damped step computes; a stopped
    problem, whose threshold is infinite, is left alone."""
    first = []

    def damped_steps(*args):
        first.append(True)
        try:
            return _damped_steps(*args)
        finally:
            first.clear()

    def cost(stack, sq):
        out = _cost(stack, sq)
        if first:
            first.clear()
            out[stack.threshold == MARK] = np.nan
        return out

    monkeypatch.setattr(joint_solver, "_damped_steps", damped_steps)
    monkeypatch.setattr(joint_solver, "_cost", cost)


def mixed_batch():
    """Problems that stop for every reason and carry 0 to 3 objects: name
    -> problem."""
    rng = np.random.default_rng(40)
    fs, _ = keypoint_only_fs(rng, noise=0.002)
    kp_only = build_problem(fs, [], SolverConfig())
    fs, matches, *_ = object_only_fs(rng, noise=0.004)
    singular = build_problem(keypoint_only_fs(rng, noise=0.003)[0], [], SolverConfig())
    return {
        "keypoint only": kp_only,
        "object only": build_problem(fs, matches, SolverConfig()),
        "one object": tracked_problem(seed=21, objects=1),
        "two objects": tracked_problem(seed=22, objects=2),
        "three objects": tracked_problem(seed=23, objects=3),
        "outliers": outlier_problem(401),
        "zero cost": build_problem(keypoint_only_fs(rng)[0], [], SolverConfig()),
        "singular": replace(singular, config=SolverConfig(residual_prune=MARK)),
        "no weighted block": replace(kp_only, config=SolverConfig(w_c=0.0)),
    }


def solvable_batch(marked=None):
    """mixed_batch() without its "singular" problem, marked there, and its
    problem that has no weighted block; the problem named ``marked`` (if
    any) is the one marked."""
    problems = {
        name: p for name, p in mixed_batch().items() if name not in ("singular", "no weighted block")
    }
    if marked is not None:
        p = problems[marked]
        problems[marked] = replace(p, config=replace(p.config, residual_prune=MARK))
    return problems


def solve_batch_and_alone(problems):
    """The batch's reports by name, each checked against its solo solve."""
    batch = dict(zip(problems, gauss_newton_solve_batch(list(problems.values()))))
    for name, problem in problems.items():
        assert_same_solve(batch[name], gauss_newton_solve(problem))
    return batch


def assert_same_solve(got, want):
    """Same iterations, prunes and block stats (rms to 1e-12 relative), and
    poses within 1e-9."""
    assert (got.iterations, got.pruned_count, got.track_ids) == (
        want.iterations, want.pruned_count, want.track_ids,
    )
    assert len(got.block_stats) == len(want.block_stats)
    for a, b in zip(got.block_stats, want.block_stats):
        assert replace(a, rms=0) == replace(b, rms=0)
        assert a.rms == pytest.approx(b.rms, rel=1e-12, abs=1e-15)
    assert got.final_cost == pytest.approx(want.final_cost, rel=1e-9, abs=1e-25)
    for p, q in zip(got.camera_poses + got.object_poses, want.camera_poses + want.object_poses):
        assert np.abs(p.rotation - q.rotation).max() <= 1e-9
        assert np.abs(p.translation - q.translation).max() <= 1e-9
    for p, q in zip(got.object_poses, want.object_poses):
        assert np.abs(p.scale - q.scale).max() <= 1e-9


class TestLockstep:
    def test_batch_equals_one_at_a_time(self, monkeypatch):
        """A mixed batch solved together gives what each problem gives when
        solved alone, whatever makes it stop: convergence, a cost of zero,
        failed damping, or no weighted block at all."""
        problems = mixed_batch()
        solves = []
        singular_first_try(monkeypatch, solves)
        batch = gauss_newton_solve_batch(list(problems.values()))
        # one stacked solve fell back to per-problem solves for the singular one
        assert any(not ok.all() for ok in solves)
        for (name, problem), got in zip(problems.items(), batch):
            if name == "no weighted block":
                assert isinstance(got, UnsolvableProblemError)
                with pytest.raises(UnsolvableProblemError):
                    gauss_newton_solve(problem)
                continue
            solves.clear()
            want = gauss_newton_solve(problem)
            assert_same_solve(got, want)
            if name == "singular":
                assert [ok.all() for ok in solves[:2]] == [False, True]
        assert batch[list(problems).index("outliers")].pruned_count >= 20
        assert batch[list(problems).index("zero cost")].iterations == 1
        assert [len(r.object_poses) for r in batch[2:5]] == [1, 2, 3]

    def test_singular_system_retried_with_more_damping(self, monkeypatch):
        """The singular system is solved again at 10x the damping, as the
        pose graph's damped step does, and the solve goes on."""
        problem = mixed_batch()["singular"]
        solves = []
        singular_first_try(monkeypatch, solves)
        report = gauss_newton_solve(problem)
        assert solves[0].tolist() == [False] and solves[1].tolist() == [True]
        assert report.iterations >= 1 and np.isfinite(report.final_cost)

    @pytest.mark.parametrize("marked", ["outliers", "one object"])
    def test_singular_try_beside_accepted_ones(self, monkeypatch, marked):
        """A problem away from its optimum whose damped system is singular
        at its first try, while the problems beside it accept theirs, is
        retried at 10x the damping and goes on: every problem solves as it
        solves alone, iteration count included."""
        solves = []
        singular_first_try(monkeypatch, solves)
        batch = solve_batch_and_alone(solvable_batch(marked))
        assert batch[marked].iterations >= 3

    def test_rejected_try_beside_accepted_ones(self, monkeypatch):
        """A problem whose first try is rejected on its non-finite cost,
        while the problems beside it accept theirs, is retried from its
        values before the try: every problem solves as it solves alone."""
        rejected_first_try(monkeypatch)
        batch = solve_batch_and_alone(solvable_batch("outliers"))
        assert batch["outliers"].iterations >= 3

    def test_iteration_limit(self, monkeypatch):
        """Problems still running after MAX_ITERATIONS steps stop there, in a
        batch as alone."""
        assert solve_batch_and_alone(solvable_batch())["outliers"].iterations > 2
        monkeypatch.setattr(joint_solver, "MAX_ITERATIONS", 2)
        batch = solve_batch_and_alone(solvable_batch())
        assert batch["outliers"].iterations == 2
        assert max(r.iterations for r in batch.values()) == 2 < MAX_ITERATIONS

    def test_order_does_not_matter(self):
        """Each problem's result is its own: reversing the batch gives the
        same solves."""
        problems = [p for name, p in mixed_batch().items() if name not in ("singular", "no weighted block")]
        forward = gauss_newton_solve_batch(problems)
        backward = gauss_newton_solve_batch(problems[::-1])[::-1]
        for got, want in zip(backward, forward):
            assert_same_solve(got, want)


def report_values(report):
    """A report's values, each with its type: poses by their bytes, block
    stats field by field."""
    poses = [(p.rotation.tobytes(), p.translation.tobytes()) for p in report.camera_poses]
    poses += [
        (p.rotation.tobytes(), p.translation.tobytes(), p.scale.tobytes()) for p in report.object_poses
    ]
    stats = [[(type(v), v) for v in astuple(s)] for s in report.block_stats]
    scalars = [(type(v), v) for v in (report.iterations, report.final_cost, report.pruned_count)]
    return poses, report.track_ids, scalars, stats


def reports_beside_reference(monkeypatch, solve):
    """Run ``solve()`` with every batch of reports also built one problem at
    a time by ``reference.report``, at the same moment; returns the pairs of
    their :func:`report_values` as built (batched, reference) and the batch
    sizes."""
    pairs, sizes = [], []

    def both(problems, stack, poses, sq, idx, iterations, cost, pruned):
        got = _reports(problems, stack, poses, sq, idx, iterations, cost, pruned)
        sizes.append(len(idx))
        for j, batched in zip(idx, got):
            want = reference.report(problems[j], stack, poses, sq, j, iterations, cost[j], pruned[j])
            pairs.append((report_values(batched), report_values(want)))
        return got

    monkeypatch.setattr(joint_solver, "_reports", both)
    solve()
    return pairs, sizes


def loop40_scene():
    """The benchmark's 40-frame loop scene (scene seed 3)."""
    cfg = SynthConfig(num_frames=40, trajectory="loop", num_objects=3, keypoints_per_pair=40,
                      noise_sigma_depth=0.003, rng_seed=3)
    fs, _ = generate(cfg)
    return fs


def report_arrays(reports):
    """Every array of the reports' poses but the shared gauge."""
    out = []
    for r in reports:
        out += [r.camera_poses[1].rotation, r.camera_poses[1].translation]
        out += [a for p in r.object_poses for a in (p.rotation, p.translation, p.scale)]
    return out


class TestBatchedReports:
    """The reports of all problems that stop at one iteration are built
    together: they equal the one-problem reference bit for bit, types
    included, own their memory and raise as it does on a non-finite pose."""

    def test_mixed_batch_equals_reference(self, monkeypatch):
        problems = [p for name, p in mixed_batch().items() if name != "no weighted block"]
        pairs, sizes = reports_beside_reference(monkeypatch, lambda: gauss_newton_solve_batch(problems))
        assert len(pairs) == len(problems) and len(sizes) > 1  # stopped at different iterations
        for got, want in pairs:
            assert got == want

    def test_loop40_equals_reference(self, monkeypatch):
        fs = loop40_scene()
        pairs, sizes = reports_beside_reference(monkeypatch, lambda: register_sequence(fs))
        assert len(pairs) == 102 and max(sizes) > 1
        for got, want in pairs:
            assert got == want

    def test_reports_own_their_memory(self):
        problems = [p for name, p in mixed_batch().items() if name != "no weighted block"]
        reports = gauss_newton_solve_batch(problems)
        arrays = report_arrays(reports)
        for n, a in enumerate(arrays):
            for b in arrays[n + 1 :]:
                assert not np.shares_memory(a, b)
        for r in reports:
            for pose in r.camera_poses + r.object_poses:
                assert not pose.rotation.flags.writeable
                with pytest.raises(ValueError):
                    pose.rotation[0, 0] = 2.0

    @pytest.mark.parametrize("field, message", [
        ("rot", "non-finite rotation"),
        ("trans", "non-finite pose parameters"),
        ("scale", "non-finite object scale"),
    ])
    def test_non_finite_final_pose_raises(self, monkeypatch, field, message):
        """A planted non-finite value in one problem's final pose makes the
        batch raise the checked constructor's ValueError, as the reference
        does."""
        problems = [tracked_problem(seed=21, objects=1), tracked_problem(seed=22, objects=2)]
        slot = 1 if field == "rot" else 0  # object 1's rotation, camera 1's translation, object 1's scale

        def planted(problems, stack, poses, sq, idx, iterations, cost, pruned):
            j = idx[-1]
            getattr(poses, field)[j, slot] = np.nan
            with pytest.raises(ValueError, match=message):
                reference.report(problems[j], stack, poses, sq, j, iterations, cost[j], pruned[j])
            return _reports(problems, stack, poses, sq, idx, iterations, cost, pruned)

        monkeypatch.setattr(joint_solver, "_reports", planted)
        with pytest.raises(ValueError, match=message):
            gauss_newton_solve_batch(problems)


def test_icp_acceptance_equals_pose_error_pair_by_pair(monkeypatch):
    """icp_polish tests every converged pair's correction at once; it keeps
    exactly the corrections that metrics.pose_error, pair by pair, puts
    within the ICP radius and 10 degrees, also at those bounds: some of the
    planted corrections measure exactly 0.15 m or exactly 10 degrees."""
    fs, _ = generate(SynthConfig(num_frames=2, orbit_span=0.3, rng_seed=1))
    scfg = SolverConfig()
    radius = scfg.residual_prune
    for start in (RigidPose.identity(), RigidPose((0.1, -0.2, 0.3), (0.5, 0.1, -0.2))):
        moves = [
            RigidPose((0.0, 0.0, np.deg2rad(deg)), (shift, 0.0, 0.0))
            for deg in (0.0, 10.0 - 1e-9, 10.0, 10.0 + 1e-9)
            for shift in (0.0, radius * (1 - 1e-12), radius, radius * (1 + 1e-12))
        ]
        results = [
            AlignmentResult(compose(start, move), 0.0, np.ones(1, dtype=bool), converged=k % 5 != 4)
            for k, move in enumerate(moves)
        ]
        monkeypatch.setattr(joint_solver, "icp_refine_sets", lambda *a: results)

        def reports():
            return [SolveReport([RigidPose.identity(), start], [], [], 1, 0.0, 0, []) for _ in moves]

        got, want, first = reports(), reports(), reports()
        icp_polish(PairIndex(fs), [(0, 1)] * len(moves), got, scfg)
        reference.icp_polish(PairIndex(fs), [(0, 1)] * len(moves), want, scfg)
        reference.ref_icp_polish(PairIndex(fs), [(0, 1)] * len(moves), first, scfg)
        kept = [g.camera_poses[1] is res.pose for g, res in zip(got, results)]
        assert kept == [w.camera_poses[1] is res.pose for w, res in zip(want, results)]
        assert kept == [f.camera_poses[1] is res.pose for f, res in zip(first, results)]
        assert 0 < sum(kept) < sum(res.converged for res in results)


def tangent_size(stack):
    """6 + 9M, the length of a stacked problem's tangent vector."""
    return 6 + 9 * (stack.features.shape[2] // 4 - 1)


def stack_fields(stack):
    """A stack's fields by name, the padding identity as zeros when None."""
    pad = stack.pad if stack.pad is not None else np.zeros((len(stack.threshold), tangent_size(stack)))
    fields = {name: getattr(stack, name) for name in ("features", "fixed", "segment", "active", "a", "floor",
                                                      "threshold", "moments")}
    return {**fields, "pad": pad, "first": np.array(stack.first)}


def same_bytes(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def assert_same_poses(got: _Poses, want: _Poses):
    for name in _Poses.FIELDS:
        assert same_bytes(getattr(got, name), getattr(want, name)), name


def kernel_batches():
    """The mixed batch solved together and each of its problems alone, with
    the problem that has no weighted block left out."""
    problems = [_weighted_blocks(p) for name, p in mixed_batch().items() if name != "no weighted block"]
    return [problems] + [[p] for p in problems]


class TestPairKernelsBitwise:
    """The lockstep solve's kernels give the bytes of their first forms
    (``reference.ref_*``, ``reference.RefStack``) on one problem and on the
    mixed batch (keypoints only, objects only, 1 to 3 objects, planted
    outliers, a zero cost), at the initial poses, after random steps and
    after steps of exact zeros; the whole solve does too, with a singular
    damped system planted and on the 102 problems of a 40-frame loop."""

    def states(self, problems, rng):
        """(stack, reference stack, poses) at the initial poses and after two
        random steps, one with some problems' steps exactly zero."""
        stack, ref = _Stack(problems), reference.RefStack(problems)
        poses = _Poses.initial(problems)
        yield stack, ref, poses
        for scale in (0.01, 0.1):
            delta = rng.normal(0, scale, (len(problems), tangent_size(stack)))
            delta[::2] = 0.0
            yield stack, ref, poses.retract(delta)

    def test_stack_and_initial_poses(self):
        for problems in kernel_batches():
            got, want = stack_fields(_Stack(problems)), stack_fields(reference.RefStack(problems))
            for name in want:
                assert same_bytes(got[name], want[name]), name
            assert_same_poses(_Poses.initial(problems), reference.ref_initial_poses(problems))

    def test_retract_residual_normal_equations_and_prune(self):
        rng = np.random.default_rng(60)
        for problems in kernel_batches():
            for stack, ref, poses in self.states(problems, rng):
                delta = rng.normal(0, 0.05, (len(problems), tangent_size(stack)))
                delta[1::3] = 0.0
                assert_same_poses(poses.retract(delta), reference.ref_retract(poses, delta))
                d = _residual(stack, poses)
                assert same_bytes(d, reference.ref_residual(ref, poses))
                sq = _squares(d)
                assert same_bytes(_cost(stack, sq), reference.ref_cost(ref, d))
                for got, want in zip(_normal_equations(stack, poses, d),
                                     reference.ref_pair_normal_equations(ref, poses, d), strict=True):
                    assert same_bytes(got, want)
                stack.threshold[:] = ref.threshold[:] = rng.choice([0.002, 0.01, 0.15], len(problems))
                assert same_bytes(_prune(stack, sq), reference.ref_prune(ref, d))
                for name in ("active", "a", "moments"):
                    assert same_bytes(getattr(stack, name), getattr(ref, name)), name

    def test_damped_steps(self):
        """Steps of every problem, of some, and of a batch where one damped
        system is singular at its first try."""
        rng = np.random.default_rng(61)
        for problems in kernel_batches():
            stack, ref = _Stack(problems), reference.RefStack(problems)
            poses = _Poses.initial(problems)
            d = _residual(stack, poses)
            hess, grad = _normal_equations(stack, poses, d)
            cost = _cost(stack, _squares(d))
            num = len(problems)
            searches = [np.arange(num), np.arange(0, num, 2), np.arange(num)]
            for n, search in enumerate(searches):
                h = hess.copy()
                if n == 2:  # problem 0 singular at lam = 1e-6
                    h[0, 0, :] = h[0, :, 0] = 0.0
                    h[0, 0, 0] = -1e-6
                lam = np.full(num, LAMBDA_START) * rng.choice([1.0, 10.0], num)
                lam_ref = lam.copy()
                got = _damped_steps(stack, poses, d, _squares(d), h, grad, lam, cost, search)
                want = reference.ref_damped_steps(ref, poses, d, h, grad, lam_ref, cost, search)
                accepted, trial, rows, sq, trial_cost = got
                assert same_bytes(accepted, want[0]) and same_bytes(lam, lam_ref)
                assert_same_poses(trial, want[1])
                assert same_bytes(rows, want[2]) and same_bytes(trial_cost, want[3])
                assert same_bytes(sq, _squares(rows))

    def assert_same_reports(self, got, want):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            if isinstance(w, UnsolvableProblemError):
                assert isinstance(g, UnsolvableProblemError) and str(g) == str(w)
            else:
                assert report_values(g) == report_values(w)

    def test_solve_batch_equals_reference(self):
        problems = list(mixed_batch().values())
        self.assert_same_reports(gauss_newton_solve_batch(problems), reference.ref_gauss_newton_solve_batch(problems))
        for p in problems:
            self.assert_same_reports(gauss_newton_solve_batch([p]), reference.ref_gauss_newton_solve_batch([p]))

    def test_singular_system_equals_reference(self, monkeypatch):
        """The marked problem's damped system is singular at every first try,
        in both solves."""

        def singular(normal_equations):
            def planted(stack, poses, d):
                hess, grad = normal_equations(stack, poses, d)
                for k in np.flatnonzero(stack.threshold == MARK):
                    hess[k, 0, :] = hess[k, :, 0] = 0.0
                    hess[k, 0, 0], grad[k, 0] = -1e-6, 0.0
                return hess, grad

            return planted

        monkeypatch.setattr(joint_solver, "_normal_equations", singular(_normal_equations))
        monkeypatch.setattr(reference, "ref_pair_normal_equations", singular(reference.ref_pair_normal_equations))
        problems = list(mixed_batch().values())
        self.assert_same_reports(gauss_newton_solve_batch(problems), reference.ref_gauss_newton_solve_batch(problems))
        singular_alone = [mixed_batch()["singular"]]
        self.assert_same_reports(gauss_newton_solve_batch(singular_alone),
                                 reference.ref_gauss_newton_solve_batch(singular_alone))

    def test_loop40_equals_reference(self, monkeypatch):
        batches = []

        def both(problems):
            got = gauss_newton_solve_batch(problems)
            self.assert_same_reports(got, reference.ref_gauss_newton_solve_batch(problems))
            batches.append(len(problems))
            return got

        monkeypatch.setattr(joint_solver, "gauss_newton_solve_batch", both)
        register_sequence(loop40_scene())
        assert batches == [102]


def test_batched_inverses_keep_invert_bits():
    """The initial camera of every pair with a keypoint block is its fit's
    pose inverted together with the others, bit for bit as ``invert``
    gives it alone; so are random poses, one at a time and 40 at once."""
    rng = np.random.default_rng(62)
    poses = [RigidPose(rng.uniform(-np.pi, np.pi, 3), rng.normal(0, 10.0 ** rng.uniform(-3, 2), 3))
             for _ in range(40)]
    for batch in ([poses[0]], poses):
        for got, pose in zip(joint_solver._inverses(batch), batch, strict=True):
            want = invert(pose)
            assert same_bytes(got.rotation, want.rotation) and same_bytes(got.translation, want.translation)
    fs = loop40_scene()
    fit_noc(fs.observations)
    plan = {(i, i + 1): (MatchConfig(), ODOMETRY_KEYPOINT_FILTER) for i in range(fs.num_frames - 1)}
    plan.update({(i, i + 5): (MatchConfig(), LOOP_KEYPOINT_FILTER) for i in range(fs.num_frames - 5)})
    checked = 0
    for setup in build_problems(PairIndex(fs), plan, SolverConfig()).values():
        if setup.problem is not None and setup.problem.keypoints is not None:
            want = invert(setup.keypoint_fit.pose)
            got = setup.problem.initial_camera
            assert same_bytes(got.rotation, want.rotation) and same_bytes(got.translation, want.translation)
            checked += 1
    assert checked > 40
