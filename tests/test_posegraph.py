import copy
import threading
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from objreg import geometry
from objreg.geometry import ObjectPose, RigidPose, apply_rigid, compose, invert, so3_exp
from objreg.joint_solver import (
    PairResult,
    SolveReport,
    SolverConfig,
    default_keypoint_filter,
    register_pair,
)
from objreg.matching import MatchConfig
from objreg.metrics import Trajectory, ate_rmse, write_tum
from objreg.posegraph import (
    MAX_KEYFRAMES,
    GraphConfig,
    GraphEdge,
    PoseGraph,
    build_graph,
    candidate_loop_pairs,
    optimize_graph,
    register_sequence,
    reject_loop_closure,
    _EdgeTable,
    _edge_errors,
    _edge_jacobians,
    _keep_bridges_certain,
    _match_index,
    _normal_equations,
    _pair_frameset,
    _solve_poses,
    _update_switches,
)
from objreg.metrics import pose_error
from objreg.observations import FrameSet, KeypointMatch, ValidationError
from objreg.synth import SynthConfig, generate

CFG = GraphConfig()


def fake_result(rel: RigidPose, objects=(), weight=100):
    """Successful PairResult with the given relative pose and object poses."""
    cams = [RigidPose.identity(), rel]
    report = SolveReport(
        cams,
        list(objects),
        list(range(len(objects))),
        iterations=3,
        final_cost=0.0,
        pruned_count=0,
        block_stats=[{"kind": "keypoint", "active": weight, "total": weight, "rms": 0.0}],
    )
    return PairResult(True, None, report)


def obj_at(translation, scale=(0.5, 0.5, 0.5)):
    return ObjectPose(np.zeros(3), np.asarray(translation, float), np.asarray(scale, float))


class TestRejectLoopClosure:
    def test_failed_pair(self):
        assert reject_loop_closure(PairResult(False, "x"), (0, 5), CFG) == (False, "pair_failed")

    def test_object_in_range_accepted(self):
        res = fake_result(RigidPose.identity(), [obj_at([0.0, 0.0, 1.5])])
        ok, reason = reject_loop_closure(res, (0, 5), CFG)
        assert ok and reason == "object_supported"

    def test_object_depth_boundary(self):
        near = fake_result(RigidPose.identity(), [obj_at([0.0, 0.0, 2.14])])
        far = fake_result(RigidPose.identity(), [obj_at([0.0, 0.0, 2.16])])
        assert reject_loop_closure(near, (0, 5), CFG)[0]
        ok, reason = reject_loop_closure(far, (0, 5), CFG)
        assert not ok and reason == "object_depth_out_of_range"

    def test_object_behind_camera_rejected(self):
        res = fake_result(RigidPose.identity(), [obj_at([0.0, 0.0, -1.0])])
        # behind both cameras (relative pose identity)
        assert not reject_loop_closure(res, (0, 5), CFG)[0]

    def test_degenerate_scale_boundary(self):
        bad = fake_result(RigidPose.identity(), [obj_at([0, 0, 1.0], scale=(0.5, 0.04, 0.5))])
        ok, reason = reject_loop_closure(bad, (0, 5), CFG)
        assert not ok and reason == "degenerate_scale"
        good = fake_result(RigidPose.identity(), [obj_at([0, 0, 1.0], scale=(0.5, 0.05, 0.5))])
        assert reject_loop_closure(good, (0, 5), CFG)[0]

    def test_keypoint_only_near_window(self):
        near_ok = fake_result(RigidPose(np.zeros(3), np.array([0.55, 0.0, 0.0])))
        assert reject_loop_closure(near_ok, (0, 20), CFG)[0]
        near_bad = fake_result(RigidPose(np.zeros(3), np.array([0.65, 0.0, 0.0])))
        assert not reject_loop_closure(near_bad, (0, 20), CFG)[0]

    def test_keypoint_only_far_window(self):
        far_ok = fake_result(RigidPose(np.zeros(3), np.array([1.2, 0.0, 0.0])))
        assert reject_loop_closure(far_ok, (0, 25), CFG)[0]
        far_bad = fake_result(RigidPose(np.zeros(3), np.array([1.6, 0.0, 0.0])))
        assert not reject_loop_closure(far_bad, (0, 25), CFG)[0]


class TestBuildGraph:
    def small(self, rel=0.2):
        step = RigidPose(np.zeros(3), np.array([rel, 0.0, 0.0]))
        return {
            (0, 1): fake_result(step),
            (1, 2): fake_result(step),
            (0, 2): fake_result(
                RigidPose(np.zeros(3), np.array([2 * rel, 0, 0])),
                [obj_at([0, 0, 1.0])],
            ),
        }

    def test_edges_and_kinds(self):
        graph = build_graph(self.small(), 3)
        kinds = sorted((e.i, e.j, e.kind) for e in graph.edges)
        assert kinds == [(0, 1, "odometry"), (0, 2, "loop_closure"), (1, 2, "odometry")]

    def test_broken_odometry_chain(self):
        results = self.small()
        results[(1, 2)] = PairResult(False, "nope")
        with pytest.raises(ValueError, match="chain broken"):
            build_graph(results, 3)

    def test_long_odometry_becomes_uncertain(self):
        results = self.small(rel=0.6)  # above restructure_uncertain_dist=0.50
        del results[(0, 2)]
        graph = build_graph(results, 3)
        assert all(e.uncertain for e in graph.edges if e.kind == "odometry")

    def test_short_loop_becomes_certain(self):
        results = {
            (0, 1): fake_result(RigidPose(np.zeros(3), np.array([0.2, 0, 0]))),
            (1, 2): fake_result(RigidPose(np.zeros(3), np.array([0.2, 0, 0]))),
            (0, 2): fake_result(
                RigidPose(np.zeros(3), np.array([0.04, 0, 0])), [obj_at([0, 0, 1.0])]
            ),
        }
        graph = build_graph(results, 3)
        loop = [e for e in graph.edges if e.kind == "loop_closure"][0]
        assert not loop.uncertain

    def test_rejected_loops_excluded(self):
        results = self.small()
        results[(0, 2)] = fake_result(RigidPose(np.zeros(3), np.array([2.0, 0, 0])))
        graph = build_graph(results, 3)
        assert all(e.kind == "odometry" for e in graph.edges)

    def test_certain_connected_graph_unchanged(self):
        graph = build_graph(self.small(), 3)
        kept, bridges = _keep_bridges_certain(graph)
        assert bridges == [] and kept.edges == graph.edges

    def test_long_steps_kept_certain_only_as_bridges(self):
        results = self.small(rel=0.6)
        # a certain loop closure (under 4.5 cm) already joins frames 0 and 2
        results[(0, 2)] = fake_result(
            RigidPose(np.zeros(3), np.array([0.04, 0, 0])), [obj_at([0, 0, 1.0])]
        )
        graph = build_graph(results, 3)
        kept, bridges = _keep_bridges_certain(graph)
        assert bridges == [(0, 1)]
        assert {(e.i, e.j): e.uncertain for e in kept.edges} == {
            (0, 1): False, (0, 2): False, (1, 2): True
        }

    def test_edge_validation(self):
        with pytest.raises(ValueError):
            GraphEdge(2, 1, RigidPose.identity(), 1.0, False, "odometry")
        with pytest.raises(ValueError):
            GraphEdge(0, 1, RigidPose.identity(), -1.0, False, "odometry")


def ring_poses(n, radius=2.0):
    poses = []
    for k in range(n):
        a = 2 * np.pi * k / n
        poses.append(RigidPose(np.array([0.0, 0.0, a]), np.array([radius * np.cos(a), radius * np.sin(a), 0.0])))
    t0 = invert(poses[0])
    return [compose(t0, p) for p in poses]


def noisy_graph(rng, n=20, sigma_t=0.01, sigma_r=np.deg2rad(0.5), loops=((0, 10), (5, 15))):
    gt = ring_poses(n)
    edges = []
    for i in range(n - 1):
        rel = compose(invert(gt[i]), gt[i + 1])
        noisy = RigidPose(rel.angles + rng.normal(0, sigma_r, 3), rel.translation + rng.normal(0, sigma_t, 3))
        edges.append(GraphEdge(i, i + 1, noisy, 1000.0, False, "odometry"))
    for i, j in loops:
        rel = compose(invert(gt[i]), gt[j])
        edges.append(GraphEdge(i, j, rel, 1000.0, True, "loop_closure"))
    return PoseGraph(n, edges), gt


def path_edge(i, j, weight=1.0, x=None):
    """Edge (i, j) of a straight path with 1 m steps (``x`` overrides the
    relative x offset): certain odometry when j == i + 1, else an uncertain
    loop closure."""
    rel = RigidPose(np.zeros(3), np.array([float(j - i) if x is None else x, 0.0, 0.0]))
    if j == i + 1:
        return GraphEdge(i, j, rel, weight, False, "odometry")
    return GraphEdge(i, j, rel, weight, True, "loop_closure")


def path_graph(n, extra=()):
    return PoseGraph(n, [path_edge(i, i + 1) for i in range(n - 1)] + list(extra))


def graph_ate(poses, gt):
    ts = np.arange(len(gt), dtype=float)
    return ate_rmse(Trajectory(ts, poses), Trajectory(ts, gt))


class TestOptimizeGraph:
    def test_noiseless_graph_exact(self):
        rng = np.random.default_rng(0)
        graph, gt = noisy_graph(rng, sigma_t=0.0, sigma_r=0.0)
        sol = optimize_graph(graph)
        assert graph_ate(sol.poses, gt) < 1e-6
        assert sol.pruned == []

    def test_loops_reduce_drift(self):
        rng = np.random.default_rng(1)
        graph, gt = noisy_graph(rng)
        odo_only = PoseGraph(graph.num_nodes, [e for e in graph.edges if e.kind == "odometry"])
        ate_odo = graph_ate(optimize_graph(odo_only).poses, gt)
        ate_full = graph_ate(optimize_graph(graph).poses, gt)
        assert ate_full < ate_odo

    def test_false_closure_pruned(self):
        rng = np.random.default_rng(2)
        graph, gt = noisy_graph(rng)
        false_rel = compose(
            compose(invert(gt[3]), gt[13]), RigidPose(np.zeros(3), np.array([1.0, 0.0, 0.0]))
        )
        bad = GraphEdge(3, 13, false_rel, 1000.0, True, "loop_closure")
        poisoned = PoseGraph(graph.num_nodes, graph.edges + [bad])
        sol = optimize_graph(poisoned)
        assert (3, 13) in sol.pruned
        assert graph_ate(sol.poses, gt) < 2 * graph_ate(optimize_graph(graph).poses, gt) + 1e-4

    def test_disconnected_certain_subgraph_rejected(self):
        edges = [GraphEdge(0, 1, RigidPose.identity(), 1.0, True, "odometry")]
        with pytest.raises(ValueError, match="not connected"):
            optimize_graph(PoseGraph(2, edges))

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: path_graph(3, extra=[path_edge(0, 2, weight=np.nan)]),
             r"edge \(0, 2\): information_weight"),
            (lambda: path_graph(3, extra=[path_edge(0, 2, weight=np.inf)]),
             r"edge \(0, 2\): information_weight"),
            (lambda: path_graph(3, extra=[path_edge(-1, 2)]), r"edge \(-1, 2\): nodes"),
            (lambda: path_graph(3, extra=[path_edge(0, 3)]), r"edge \(0, 3\): node 3 out of range"),
            (lambda: path_graph(3, extra=[path_edge(0, 2), path_edge(0, 2, x=3.0)]),
             r"edge \(0, 2\): repeats"),
            (lambda: PoseGraph(3, [path_edge(0, 1), replace(path_edge(0, 2), uncertain=False)]),
             r"edge \(1, 2\): odometry step missing"),
        ],
        ids=["nan_weight", "inf_weight", "negative_node", "node_out_of_range",
             "repeated_pair", "missing_odometry"],
    )
    def test_malformed_graph_rejected(self, build, message):
        with pytest.raises(ValueError, match=message):
            optimize_graph(build())

    def test_single_node_graph_is_identity(self):
        sol = optimize_graph(PoseGraph(1, []))
        assert len(sol.poses) == 1
        assert np.array_equal(sol.poses[0].to_matrix(), np.eye(4))
        assert sol.switches == {} and sol.pruned == []

    def test_switches_from_returned_errors(self):
        # _solve_poses hands back the edge errors at the poses it returns;
        # switches computed from them equal switches at recomputed errors
        rng = np.random.default_rng(4)
        graph, gt = noisy_graph(rng)
        false_rel = compose(
            compose(invert(gt[3]), gt[13]), RigidPose(np.zeros(3), np.array([1.0, 0.0, 0.0]))
        )
        graph.edges.append(GraphEdge(3, 13, false_rel, 1000.0, True, "loop_closure"))
        table = _EdgeTable(graph)
        rot = np.array([p.rotation for p in gt])
        trans = np.array([p.translation for p in gt]) + rng.normal(0, 0.05, (graph.num_nodes, 3))
        err, err_rot = _edge_errors(rot, trans, table)
        switches = _update_switches(table, err, CFG)
        assert switches[-1] < CFG.edge_prune_threshold  # the (3, 13) edge
        for _ in range(3):
            rot, trans, _, err, err_rot = _solve_poses(table, rot, trans, err, err_rot, switches)
            fresh, fresh_rot = _edge_errors(rot, trans, table)
            assert np.array_equal(err, fresh) and np.array_equal(err_rot, fresh_rot)
            switches = _update_switches(table, err, CFG)
            assert np.array_equal(switches, _update_switches(table, fresh, CFG))


def random_rotations(rng, count, max_angle=3.0):
    axes = rng.normal(size=(count, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    return so3_exp(axes * rng.uniform(0, max_angle, (count, 1)))


class TestEdgeJacobian:
    def test_matches_central_differences(self):
        # every node perturbed through the solver's retraction
        # R <- R Exp(phi), t <- t + dt; same error measure as criterion 03
        h, worst = 1e-6, 0.0
        for seed in range(20):
            rng = np.random.default_rng(900 + seed)
            n, m = 8, 14
            rot, trans = random_rotations(rng, n), rng.uniform(-2, 2, (n, 3))
            pairs = [tuple(sorted(rng.choice(n, 2, replace=False))) for _ in range(m)]
            rel = [
                RigidPose.from_matrix(np.block([[r, rng.uniform(-1, 1, (3, 1))], [0, 0, 0, 1]]))
                for r in random_rotations(rng, m)
            ]
            graph = PoseGraph(
                n, [GraphEdge(i, j, d, 1.0, False, "odometry") for (i, j), d in zip(pairs, rel)]
            )
            table = _EdgeTable(graph)
            err, err_rot = _edge_errors(rot, trans, table)
            jac_i, jac_j = _edge_jacobians(rot, table, err, err_rot)
            analytic = np.zeros((6 * m, 6 * n))
            for k, (i, j) in enumerate(pairs):
                analytic[6 * k : 6 * k + 6, 6 * i : 6 * i + 6] = jac_i[k]
                analytic[6 * k : 6 * k + 6, 6 * j : 6 * j + 6] = jac_j[k]
            numeric = np.zeros_like(analytic)
            for node in range(n):
                for a in range(6):
                    out = []
                    for sign in (1.0, -1.0):
                        r, t = rot.copy(), trans.copy()
                        step = np.zeros(6)
                        step[a] = sign * h
                        r[node] = r[node] @ so3_exp(step[:3])
                        t[node] += step[3:]
                        out.append(_edge_errors(r, t, table)[0].ravel())
                    numeric[:, 6 * node + a] = (out[0] - out[1]) / (2 * h)
            mag = np.maximum(np.abs(analytic), np.abs(numeric))
            mask = mag > 1e-8
            worst = max(worst, float(np.max(np.abs(analytic - numeric)[mask] / mag[mask])))
        assert worst < 1e-5


class TestNormalEquations:
    def test_block_accumulation_matches_dense_reference(self):
        # J^T W J and J^T W e summed edge by edge against the dense (6E, 6n)
        # Jacobian with node 0's columns dropped
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(950 + seed)
            n, m = 8, 14
            rot, trans = random_rotations(rng, n), rng.uniform(-2, 2, (n, 3))
            pairs = [(0, int(rng.integers(1, n)))]  # node 0 (the gauge) is always touched
            pairs += [tuple(sorted(rng.choice(n, 2, replace=False))) for _ in range(m - 1)]
            rel = [
                RigidPose.from_matrix(np.block([[r, rng.uniform(-1, 1, (3, 1))], [0, 0, 0, 1]]))
                for r in random_rotations(rng, m)
            ]
            info = rng.uniform(1, 500, m)
            switches = rng.uniform(0.01, 1, m)
            graph = PoseGraph(
                n,
                [GraphEdge(i, j, d, wt, True, "loop_closure") for (i, j), d, wt in zip(pairs, rel, info)],
            )
            w = info / info.mean() * switches
            table = _EdgeTable(graph)
            err, err_rot = _edge_errors(rot, trans, table)
            jac_i, jac_j = _edge_jacobians(rot, table, err, err_rot)
            h, g = _normal_equations(jac_i, jac_j, err, w, table)

            jac = np.zeros((6 * m, 6 * n))
            for k, (i, j) in enumerate(pairs):
                jac[6 * k : 6 * k + 6, 6 * i : 6 * i + 6] = jac_i[k]
                jac[6 * k : 6 * k + 6, 6 * j : 6 * j + 6] = jac_j[k]
            jac = jac[:, 6:]
            weight = np.repeat(w, 6)
            h_ref = jac.T @ (weight[:, None] * jac)
            g_ref = jac.T @ (weight * err.ravel())
            assert h.shape == h_ref.shape and g.shape == g_ref.shape
            worst = max(
                worst,
                float(np.abs(h - h_ref).max() / np.abs(h_ref).max()),
                float(np.abs(g - g_ref).max() / np.abs(g_ref).max()),
            )
        assert worst <= 1e-12


class TestCandidateLoopPairs:
    def test_small_all_pairs(self):
        pairs = candidate_loop_pairs(5)
        assert pairs == [(0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 4)]

    def test_large_strided(self):
        pairs = candidate_loop_pairs(200)
        # stride ceil(200 / 14) = 15: every pair of the 14 keyframes 0, 15, ..., 195
        keyframes = range(0, 200, 15)
        assert keyframes[-1] == 195
        assert pairs == [(i, j) for i in keyframes for j in keyframes if i < j]
        assert len(pairs) == 91

    def test_loop40_keyframes(self):
        keyframes = range(0, 40, 3)
        assert list(keyframes) == [0, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30, 33, 36, 39]
        assert candidate_loop_pairs(40) == [(i, j) for i in keyframes for j in keyframes if i < j]

    def test_rule_every_length(self):
        assert MAX_KEYFRAMES == 14
        for n in range(2, 301):
            pairs = candidate_loop_pairs(n)
            stride = -(-n // 14)
            assert all(i % stride == 0 and j % stride == 0 for i, j in pairs), n
            assert all(0 <= i and i + 2 <= j < n for i, j in pairs), n
            assert len(pairs) == len(set(pairs)) <= 91, n
            if n <= 14:
                assert pairs == [(i, j) for i in range(n) for j in range(i + 2, n)], n


@pytest.fixture(scope="module")
def seq_fs():
    cfg = SynthConfig(
        num_frames=8, num_objects=2, trajectory="line", orbit_radius=1.8,
        keypoints_per_pair=40, noise_sigma_depth=0.003, rng_seed=33,
    )
    return generate(cfg)


class TestRegisterSequence:
    def test_trajectory_close_to_ground_truth(self, seq_fs):
        fs, gt = seq_fs
        result = register_sequence(fs)
        ts = np.arange(fs.num_frames, dtype=float)
        ate = ate_rmse(result.trajectory, Trajectory(ts, gt))
        assert ate < 0.03
        assert result.diagnostics["num_loop_edges"] >= 1

    def test_jobs_parallel_identical(self, seq_fs):
        fs, _ = seq_fs
        a = register_sequence(fs, jobs=1)
        b = register_sequence(fs, jobs=4)
        for pa, pb in zip(a.trajectory.poses, b.trajectory.poses):
            assert np.array_equal(pa.to_matrix(), pb.to_matrix())

    def test_jobs_start_no_thread(self, seq_fs, monkeypatch):
        def forbidden(_):
            raise AssertionError("register_sequence started a thread")

        monkeypatch.setattr(threading.Thread, "start", forbidden)
        result = register_sequence(seq_fs.frameset, jobs=4)
        assert result.diagnostics["num_loop_edges"] >= 1

    def test_no_euler_angles(self, seq_fs, monkeypatch):
        """Euler angles are an I/O format: no pair solve, ICP step test or
        graph solve computes them."""
        fs, _ = seq_fs

        def forbidden(*_):
            raise AssertionError("Euler conversion in register_sequence")

        monkeypatch.setattr(geometry, "euler_from_rotation", forbidden)
        monkeypatch.setattr(geometry, "rotation_from_euler", forbidden)
        result = register_sequence(fs)
        assert result.diagnostics["num_loop_edges"] >= 1

    def test_large_odometry_steps_registered(self):
        # steps of 0.65 m, over restructure_uncertain_dist: every odometry
        # edge is a bridge between certain components
        fs, gt = generate(SynthConfig(num_frames=24, trajectory="loop", num_objects=3,
                                      keypoints_per_pair=40, noise_sigma_depth=0.003,
                                      rng_seed=3))
        result = register_sequence(fs)
        assert result.diagnostics["certain_bridges"]
        for est, truth in zip(result.trajectory.poses, gt):
            rot, trans = pose_error(est, truth)
            assert rot <= 15.0 and trans <= 0.30

    def test_loop40_bounded_pair_work(self, monkeypatch):
        # the bench's 40-frame loop: 39 odometry solves and at most the 91
        # keyframe loop candidates, with the trajectory still accurate
        fs, gt = generate(SynthConfig(num_frames=40, trajectory="loop", num_objects=3,
                                      keypoints_per_pair=40, noise_sigma_depth=0.003,
                                      rng_seed=3))
        solved = []
        monkeypatch.setattr(
            "objreg.posegraph.register_pair", lambda *a, **k: solved.append(a) or register_pair(*a, **k)
        )
        result = register_sequence(fs)
        assert len(solved) <= 39 + 91
        for est, truth in zip(result.trajectory.poses, gt):
            rot, trans = pose_error(est, truth)
            assert rot <= 15.0 and trans <= 0.30
        assert graph_ate(result.trajectory.poses, gt) <= 0.010

    def test_stalled_timestamp_rejected_before_pair_solves(self, monkeypatch):
        fs, _ = generate(SynthConfig(num_frames=4, trajectory="line", rng_seed=44))
        fs.frames[2].timestamp = fs.frames[1].timestamp
        solved = []
        monkeypatch.setattr(
            "objreg.posegraph.register_pair", lambda *a, **k: solved.append(a) or register_pair(*a, **k)
        )
        with pytest.raises(ValidationError, match="frame 2"):
            register_sequence(fs)
        assert solved == []

    def test_too_few_frames(self):
        fs, _ = generate(SynthConfig(num_frames=2, orbit_span=0.3, rng_seed=1))
        sub = type(fs)(fs.frames[:1])
        with pytest.raises(ValueError):
            register_sequence(sub)


def scanned_matches(fs, i, j):
    """(points in frame i, points in frame j) of every match between i and j,
    by a scan over all matches."""
    out = []
    for km in fs.keypoint_matches:
        if {km.frame_i, km.frame_j} == {i, j}:
            out.append((km.points_i, km.points_j) if km.frame_i == i else (km.points_j, km.points_i))
    return out


def test_indexed_pair_frameset_equals_full_scan():
    fs, _ = generate(SynthConfig(num_frames=5, num_objects=2, trajectory="line",
                                 orbit_radius=1.8, keypoints_per_pair=20, rng_seed=8))
    # store every other match with frame_i > frame_j, and give (0, 1) a second one
    matches = [
        KeypointMatch(km.frame_j, km.frame_i, km.points_j, km.points_i) if m % 2 else km
        for m, km in enumerate(fs.keypoint_matches)
    ]
    first = fs.keypoint_matches[0]
    matches.append(KeypointMatch(1, 0, first.points_j[:7] + 0.1, first.points_i[:7]))
    fs.keypoint_matches = matches
    assert any(km.frame_i > km.frame_j for km in fs.keypoint_matches)
    index = _match_index(fs)
    assert len(index[(0, 1)]) == 2
    for i in range(fs.num_frames):
        for j in range(fs.num_frames):
            if i == j:
                continue
            sub = _pair_frameset(fs, i, j, index)
            expected = scanned_matches(fs, i, j)
            assert len(sub.keypoint_matches) == len(expected)
            for km, (pi, pj) in zip(sub.keypoint_matches, expected):
                assert (km.frame_i, km.frame_j) == (0, 1)
                assert np.array_equal(km.points_i, pi) and np.array_equal(km.points_j, pj)
            assert [(o.frame, o.detection_id) for o in sub.observations] == [
                (0 if o.frame == i else 1, o.detection_id)
                for o in fs.observations
                if o.frame in (i, j)
            ]


@pytest.fixture(scope="module")
def loop16():
    """A 16-frame loop and its registration; some loop pairs are screened."""
    fs, _ = generate(SynthConfig(num_frames=16, trajectory="loop", num_objects=3,
                                 keypoints_per_pair=40, noise_sigma_depth=0.003, rng_seed=3))
    return fs, register_sequence(fs)


def tum_bytes(traj, tmp_path):
    path = tmp_path / "traj.tum"
    write_tum(traj, path)
    return path.read_bytes()


def edge_bits(graph):
    return [
        (e.i, e.j, e.kind, e.uncertain, e.information_weight,
         e.relative_pose.angles.tobytes(), e.relative_pose.translation.tobytes())
        for e in graph.edges
    ]


def solve_all_pairs(fs):
    """Every candidate pair of ``fs`` solved with register_sequence's settings."""
    index = _match_index(fs)
    loop_mcfg = replace(MatchConfig(), embed_threshold=MatchConfig().sequence_loop_threshold)
    results = {}
    for i in range(fs.num_frames - 1):
        results[(i, i + 1)] = register_pair(
            _pair_frameset(fs, i, i + 1, index), keypoint_filter=default_keypoint_filter(0.30)
        )
    for i, j in candidate_loop_pairs(fs.num_frames):
        results[(i, j)] = register_pair(
            _pair_frameset(fs, i, j, index), loop_mcfg, keypoint_filter=default_keypoint_filter(0.15)
        )
    return results


def busiest_screened_frame(result):
    """The frame that most screened pairs share, and those pairs."""
    screened = result.diagnostics["screened_pairs"]
    frame = Counter(f for pair in screened for f in pair).most_common(1)[0][0]
    return frame, [pair for pair in screened if frame in pair]


class TestLoopPairScreen:
    def test_screened_pairs_equal_solving_every_pair(self, loop16, tmp_path):
        """Each screened pair, solved anyway, is rejected for object depth;
        the graph and trajectory equal those built from every pair solved."""
        fs, result = loop16
        screened = result.diagnostics["screened_pairs"]
        assert screened == sorted(screened) and len(screened) >= 10
        assert not set(screened) & set(result.diagnostics["failed_pairs"])
        everything = solve_all_pairs(fs)
        assert sorted([*result.pair_results, *screened]) == sorted(everything)
        for pair in screened:
            assert reject_loop_closure(everything[pair], pair, CFG) == (
                False, "object_depth_out_of_range",
            )
        graph, _ = _keep_bridges_certain(build_graph(everything, fs.num_frames))
        assert edge_bits(result.graph) == edge_bits(graph)
        reference = Trajectory(result.trajectory.timestamps, optimize_graph(graph).poses)
        assert tum_bytes(result.trajectory, tmp_path) == tum_bytes(reference, tmp_path)

    def test_keypoint_only_pairs_not_screened(self, loop16):
        fs, base = loop16
        frame, was_screened = busiest_screened_frame(base)
        kept = [o for o in fs.observations if o.frame != frame]
        result = register_sequence(FrameSet(fs.frames, fs.keypoint_matches, kept))
        assert was_screened
        assert not [p for p in result.diagnostics["screened_pairs"] if frame in p]
        assert all(p in result.pair_results for p in was_screened)

    def test_pairs_with_unfitted_observation_not_screened(self, loop16):
        fs, base = loop16
        frame, was_screened = busiest_screened_frame(base)
        fs = copy.deepcopy(fs)
        for o in fs.observations_in_frame(frame):
            o.noc_fit = None  # overrides the cached fit
        result = register_sequence(fs)
        assert was_screened
        assert not [p for p in result.diagnostics["screened_pairs"] if frame in p]
        assert all(p in result.pair_results for p in was_screened)

    def test_unweighted_objects_not_screened(self, loop16):
        fs, base = loop16
        result = register_sequence(fs, scfg=SolverConfig(w_o=0))
        assert base.diagnostics["screened_pairs"]
        assert result.diagnostics["screened_pairs"] == []
        assert len(result.pair_results) == 15 + len(candidate_loop_pairs(16))

    def test_jobs_identical(self, loop16, tmp_path):
        fs, base = loop16
        result = register_sequence(fs, jobs=4)
        assert result.diagnostics["screened_pairs"] == base.diagnostics["screened_pairs"]
        assert tum_bytes(result.trajectory, tmp_path) == tum_bytes(base.trajectory, tmp_path)
