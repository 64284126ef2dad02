import copy
import threading
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

from objreg import geometry, joint_solver, posegraph
from objreg.geometry import (
    ObjectPose,
    RigidPose,
    apply_rigid,
    compose,
    invert,
    rotation_angle,
    so3_exp,
)
from objreg.joint_solver import (
    BlockStat,
    PairIndex,
    PairResult,
    SolveReport,
    SolverConfig,
    UnsolvableProblemError,
    build_problems,
    gauss_newton_solve,
    gauss_newton_solve_batch,
    icp_polish,
)
from objreg.matching import MatchConfig, match_pair
from objreg.metrics import Trajectory, ate_rmse, write_tum
from objreg.posegraph import (
    LOOP_KEYPOINT_FILTER,
    MAX_KEYFRAMES,
    ODOMETRY_KEYPOINT_FILTER,
    GraphConfig,
    GraphEdge,
    PoseGraph,
    build_graph,
    candidate_loop_pairs,
    damped_step,
    optimize_graph,
    register_sequence,
    reject_loop_closure,
    _EdgeTable,
    _chain_odometry,
    _edge_errors,
    _edge_jacobians,
    _keep_bridges_certain,
    _normal_equations,
    _update_switches,
)
from objreg.metrics import pose_error
from objreg.observations import Frame, FrameSet, KeypointMatch, ValidationError, fit_noc
from objreg.procrustes import icp_refine_sets
from objreg.synth import SynthConfig, generate
from reference import (
    alternating_optimize_graph,
    chained_poses,
    node_coordinates,
    node_order_system,
    ref_chain_odometry,
    ref_edge_errors,
    ref_edge_jacobians,
    ref_normal_equations,
    ring_graph,
    update_switches,
    with_false_closure,
)

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
        block_stats=[BlockStat("keypoint", None, weight, weight, 0.0)],
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


# per GraphConfig field, values that must be rejected naming it
BAD_GRAPH_VALUES = {
    "edge_prune_threshold": [np.nan, -0.1, 1.5],
    "restructure_uncertain_dist": [np.nan, np.inf, 0.0],
    "restructure_certain_dist": [np.nan, np.inf, -0.01],
    "lc_near_window": [np.nan, np.inf, -1, 2.5, True],
    "lc_near_max_trans": [np.nan, np.inf, 0.0],
    "lc_far_max_trans": [np.nan, np.inf, 0.0],
    "lc_object_max_depth": [np.nan, np.inf, 0.0],
    "lc_min_scale": [np.nan, np.inf, -0.01],
    "line_process_mu": [np.nan, np.inf, 0.0],
}


class TestGraphConfig:
    @pytest.mark.parametrize("name", list(BAD_GRAPH_VALUES))
    def test_bad_value_rejected(self, name):
        for value in BAD_GRAPH_VALUES[name]:
            with pytest.raises(ValueError, match=name):
                GraphConfig(**{name: value})

    def test_every_field_checked(self):
        assert set(BAD_GRAPH_VALUES) == {f.name for f in fields(GraphConfig)}

    def test_bounds_accepted(self):
        """Zero switches a rule off where the field allows it."""
        for prune in (0.0, 1.0):
            GraphConfig(edge_prune_threshold=prune)
        GraphConfig(restructure_certain_dist=0.0, lc_near_window=0, lc_min_scale=0.0)


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

    def test_every_damped_try_failing_keeps_chained_odometry(self, monkeypatch):
        """When no damped try succeeds (every system reported not positive
        definite), the solve stops where it started: the chained odometry
        comes back, and nothing raises."""
        monkeypatch.setattr(posegraph, "dpbsv", lambda ab, b, lower: (ab, b, 1))
        graph, _ = ring_graph(np.random.default_rng(800))
        sol = optimize_graph(graph)
        rot, trans = _chain_odometry(graph)
        assert np.array_equal(sol.rotations, rot)
        assert np.array_equal(sol.translations, trans)

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

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda e: replace(e, information_weight=True), r"edge \(0, 1\): information_weight"),
            (lambda e: replace(e, information_weight="1"), r"edge \(0, 1\): information_weight"),
            (lambda e: replace(e, i=0.0, j=1.0), r"edge \(0.0, 1.0\): nodes must be ints"),
            (lambda e: replace(e, i=False, j=True), r"edge \(False, True\): nodes must be ints"),
            (lambda e: replace(e, kind="loop"), r"edge \(0, 1\): kind must be one of"),
            (lambda e: replace(e, relative_pose="notapose"), r"edge \(0, 1\): relative_pose"),
            (lambda e: replace(e, uncertain=1), r"edge \(0, 1\): uncertain must be a bool"),
            (lambda e: PoseGraph(0, []), r"num_nodes must be an int >= 1, got 0"),
            (lambda e: PoseGraph(2.0, [e]), r"num_nodes must be an int >= 1, got 2.0"),
            (lambda e: PoseGraph(True, []), r"num_nodes must be an int >= 1, got True"),
        ],
        ids=["bool_weight", "str_weight", "float_nodes", "bool_nodes", "unknown_kind",
             "pose_not_rigid", "int_uncertain", "no_nodes", "float_num_nodes", "bool_num_nodes"],
    )
    def test_malformed_fields_rejected(self, build, message):
        edge = path_edge(0, 1)
        with pytest.raises(ValueError, match=message):
            build(edge)
        # numpy ints and bools are accepted where ints and bools are
        PoseGraph(np.int64(2), [replace(edge, i=np.int64(0), j=np.int32(1), uncertain=np.True_)])

    def test_single_node_graph_is_identity(self):
        sol = optimize_graph(PoseGraph(1, []))
        assert len(sol.poses) == 1
        assert np.array_equal(sol.poses[0].to_matrix(), np.eye(4))
        assert sol.switches == {} and sol.pruned == []

    @pytest.mark.parametrize("which", ["noisy_graph", "ring"])
    def test_returned_switches_are_a_fixed_point(self, which):
        # the returned switches are the closed form at the returned poses'
        # edge errors, and one more damped step under them barely moves the
        # cost: the solve stopped at a fixed point of its reweighting
        if which == "ring":
            graph, gt = ring_graph(np.random.default_rng(805))
            graph, bad = with_false_closure(graph, gt), (4, 19)
        else:
            graph, gt = noisy_graph(np.random.default_rng(4))
            false_rel = compose(
                compose(invert(gt[3]), gt[13]), RigidPose(np.zeros(3), np.array([1.0, 0.0, 0.0]))
            )
            graph.edges.append(GraphEdge(3, 13, false_rel, 1000.0, True, "loop_closure"))
            bad = (3, 13)
        sol = optimize_graph(graph)
        assert sol.pruned == [bad]
        kept = PoseGraph(graph.num_nodes, [e for e in graph.edges if (e.i, e.j) != bad])
        table = _EdgeTable(kept)
        rot, trans = sol.rotations, sol.translations
        edge = _edge_errors(rot, trans, table)
        switches = _update_switches(table, edge[0], CFG)
        assert sol.switches == {
            (e.i, e.j): float(s) for e, s in zip(kept.edges, switches) if e.uncertain
        }
        w = table.weight / table.weight.mean() * switches

        def cost_of(err):
            return float(np.sum(w[:, None] * err**2))

        def trial(delta):
            step = np.zeros((len(rot), 6))
            step[table.order] = delta.reshape(-1, 6)
            err = _edge_errors(rot @ so3_exp(step[:, :3]), trans + step[:, 3:], table)[0]
            return err, cost_of(err)

        cost = cost_of(edge[0])
        ab, g = _normal_equations(_edge_jacobians(table, *edge), edge[0], w, table)
        new, cost_new, _ = damped_step(ab, g, 1e-6, cost, trial, 8)
        assert new is None or cost - cost_new < 1e-12 * max(cost, 1.0)

    def test_switch_update_equals_edge_loop(self):
        # bit for bit the closed form taken one uncertain edge at a time
        for seed in range(20):
            rng = np.random.default_rng(960 + seed)
            n = int(rng.integers(2, 12))
            pairs = [(i, i + 1) for i in range(n - 1)]
            pairs += [tuple(sorted(rng.choice(n, 2, replace=False))) for _ in range(n)]
            graph = random_graph(rng, n, sorted(set(pairs)))
            for e in graph.edges:
                e.uncertain = bool(rng.integers(2))
            table = _EdgeTable(graph)
            err = rng.normal(0, 10 ** rng.uniform(-4, 1), (len(graph.edges), 6))
            cfg = GraphConfig(line_process_mu=10 ** rng.uniform(0, 3))
            got = _update_switches(table, err, cfg)
            assert got.tobytes() == update_switches(table, err, cfg).tobytes()


def solutions_agree(got, ref):
    """Whether two graph solutions agree within the tolerances the IRLS loop
    is held to against the alternating solve: poses within 1e-7 rad and
    1e-7 m, switches within 1e-8, and the same pruned edges."""
    angles = rotation_angle(np.swapaxes(got.rotations, 1, 2) @ ref.rotations)
    return (
        got.pruned == ref.pruned
        and float(angles.max()) <= 1e-7
        and float(np.abs(got.translations - ref.translations).max()) <= 1e-7
        and got.switches.keys() == ref.switches.keys()
        and all(abs(got.switches[k] - ref.switches[k]) <= 1e-8 for k in ref.switches)
    )


class TestAgainstAlternatingSolve:
    """One IRLS loop reaches the fixed point of the alternating line-process
    solve it replaced (``reference.alternating_optimize_graph``)."""

    def test_criterion_08_rings(self):
        pruned = 0
        for seed in range(20):
            graph, gt = ring_graph(np.random.default_rng(800 + seed))
            for g in (graph, with_false_closure(graph, gt)):
                ref = alternating_optimize_graph(g)
                assert solutions_agree(optimize_graph(g), ref)
                pruned += len(ref.pruned)
        assert pruned == 20  # the false closure, every time

    @pytest.mark.parametrize("seed", [1, 3, 7919])
    def test_loop40_graphs(self, seed):
        fs, _ = generate(SynthConfig(num_frames=40, trajectory="loop", num_objects=3,
                                     keypoints_per_pair=40, noise_sigma_depth=0.003,
                                     rng_seed=seed))
        result = register_sequence(fs)
        assert solutions_agree(result.solution, alternating_optimize_graph(result.graph))

    def test_agreement_check_detects_drift(self):
        graph, gt = ring_graph(np.random.default_rng(800))
        sol = optimize_graph(with_false_closure(graph, gt))
        assert solutions_agree(sol, sol)
        moved = replace(sol, translations=sol.translations + 2e-7)
        assert not solutions_agree(moved, sol)
        assert not solutions_agree(replace(sol, pruned=[]), sol)
        assert not solutions_agree(replace(sol, switches={k: v + 2e-8 for k, v in sol.switches.items()}), sol)


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
            jac_i, jac_j = np.split(_edge_jacobians(table, *_edge_errors(rot, trans, table)), 2, axis=2)
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


def random_graph(rng, n, pairs):
    """Graph on ``n`` nodes with an edge of random relative pose and weight
    per pair (i, j), i < j."""
    rel = [
        RigidPose.from_matrix(np.block([[r, rng.uniform(-1, 1, (3, 1))], [0, 0, 0, 1]]))
        for r in random_rotations(rng, len(pairs))
    ]
    weights = rng.uniform(1, 500, len(pairs))
    return PoseGraph(
        n, [GraphEdge(i, j, d, wt, True, "loop_closure") for (i, j), d, wt in zip(pairs, rel, weights)]
    )


class TestNormalEquations:
    def test_block_accumulation_matches_dense_reference(self):
        # J^T W J (band-stored, in band order) and J^T W e summed edge by
        # edge against the dense (6E, 6n) Jacobian with node 0's columns
        # dropped
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(950 + seed)
            n, m = 8, 14
            rot, trans = random_rotations(rng, n), rng.uniform(-2, 2, (n, 3))
            pairs = [(0, int(rng.integers(1, n)))]  # node 0 (the gauge) is always touched
            pairs += [tuple(sorted(rng.choice(n, 2, replace=False))) for _ in range(m - 1)]
            graph = random_graph(rng, n, pairs)
            info = np.array([e.information_weight for e in graph.edges])
            w = info / info.mean() * rng.uniform(0.01, 1, m)
            table = _EdgeTable(graph)
            edge = _edge_errors(rot, trans, table)
            err = edge[0]
            edge_jac = _edge_jacobians(table, *edge)
            jac_i, jac_j = np.split(edge_jac, 2, axis=2)
            ab, g = _normal_equations(edge_jac, err, w, table)
            assert ab.shape == (table.band + 1, table.size) and g.shape == (table.size,)
            for d in range(1, table.band + 1):  # each row's tail lies outside the matrix
                assert not ab[d, table.size - d :].any()
            h, g = node_order_system(ab, g, table)

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


class TestKernelsBitwise:
    """The step's kernels give the bytes of their first, plainer forms
    (``reference.ref_*``) on random graphs, on criterion 08's rings at the
    chained start (every odometry error zero) and at the solution, near pi,
    on both sides of the Jacobian's 1e-4 series threshold and with signed
    zeros."""

    def states(self):
        """(graph, node rotations, node translations) to check at."""
        rng = np.random.default_rng(975)
        for seed in range(10):
            n = int(rng.integers(2, 12))
            pairs = [(i, i + 1) for i in range(n - 1)]
            pairs += [tuple(sorted(rng.choice(n, 2, replace=False))) for _ in range(n)]
            graph = random_graph(rng, n, sorted(set(pairs)))
            yield graph, random_rotations(rng, n), rng.uniform(-2, 2, (n, 3))
            # relative rotations near pi, nodes at the identity
            axes = rng.normal(size=(len(graph.edges), 3))
            axes /= np.linalg.norm(axes, axis=1, keepdims=True)
            near_pi = so3_exp(axes * np.nextafter(np.pi, 0.0))
            graph = PoseGraph(n, [replace(e, relative_pose=RigidPose.from_rotation(r, e.relative_pose.translation))
                                  for e, r in zip(graph.edges, near_pi)])
            yield graph, np.broadcast_to(np.eye(3), (n, 3, 3)).copy(), np.zeros((n, 3))
        for seed in (800, 805):
            graph, gt = ring_graph(np.random.default_rng(seed))
            for g in (graph, with_false_closure(graph, gt)):
                yield g, *_chain_odometry(g)
                sol = optimize_graph(g)
                yield g, sol.rotations, sol.translations
        # exact zeros everywhere: identity nodes, translations signed zeros
        graph = path_graph(5, extra=[path_edge(0, 3), path_edge(1, 4, x=-0.0)])
        trans = np.zeros((5, 3))
        trans[1::2] = -0.0
        yield graph, np.broadcast_to(np.eye(3), (5, 3, 3)).copy(), trans

    def test_edge_errors_jacobians_and_normal_equations(self):
        rng = np.random.default_rng(976)
        for graph, rot, trans in self.states():
            table = _EdgeTable(graph)
            edge = _edge_errors(rot, trans, table)
            for got, want in zip(edge, ref_edge_errors(rot, trans, table), strict=True):
                assert got.tobytes() == want.tobytes()
            jac = _edge_jacobians(table, *edge)
            halves = ref_edge_jacobians(table, *edge)
            assert jac.tobytes() == np.concatenate(halves, axis=2).tobytes()
            w = table.weight / table.weight.mean() * rng.uniform(0.01, 1, len(table.weight))
            for got, want in zip(_normal_equations(jac, edge[0], w, table),
                                 ref_normal_equations(*halves, edge[0], w, table), strict=True):
                assert got.tobytes() == want.tobytes()

    def test_jacobians_at_series_threshold(self):
        # rotation errors just below, at and just above 1e-4 rad, alone and
        # mixed with larger ones; the other inputs random rotations
        rng = np.random.default_rng(977)
        graph, _ = ring_graph(np.random.default_rng(801))
        table = _EdgeTable(graph)
        m = len(graph.edges)
        for theta in (0.0, np.nextafter(1e-4, 0.0), 1e-4, np.nextafter(1e-4, 1.0)):
            for mixed in (False, True):
                # one nonzero coordinate per row, so that |rho| is theta exactly
                rho = np.zeros((m, 3))
                rho[np.arange(m), rng.integers(0, 3, m)] = theta * rng.choice([-1.0, 1.0], m)
                if mixed:
                    rho[::3] = random_rotations(rng, m)[::3, 0]
                err = np.hstack([rho, rng.normal(size=(m, 3))])
                args = (err, so3_exp(rho), *random_rotations(rng, 2 * m).reshape(2, m, 3, 3))
                halves = ref_edge_jacobians(table, *args)
                assert _edge_jacobians(table, *args).tobytes() == np.concatenate(halves, axis=2).tobytes()

    def test_chain_odometry(self):
        for seed in (800, 805):
            graph, gt = ring_graph(np.random.default_rng(seed))
            rot, trans = _chain_odometry(with_false_closure(graph, gt))
            poses = ref_chain_odometry(graph)
            assert rot.tobytes() == np.array([p.rotation for p in poses]).tobytes()
            assert trans.tobytes() == np.array([p.translation for p in poses]).tobytes()


# graphs whose banded steps are checked: (name, nodes, edges)
SMALL_GRAPHS = [
    ("star_on_gauge", 6, [(0, k) for k in range(1, 6)]),  # no edge between nodes 1..n-1
    ("lone_inner_edge", 3, [(0, 1), (1, 2)]),
    ("two_nodes", 2, [(0, 1)]),
    # without node 0 the odd and the even nodes fall apart, and node 10 is alone
    ("split_components", 11,
     [(0, 1), (1, 3), (3, 5), (5, 7), (7, 9), (1, 7), (0, 2), (2, 4), (4, 6), (6, 8), (0, 10)]),
]


class TestBandedSolve:
    """The banded Cholesky step equals a dense solve of the same damped
    system, and the node order keeps criterion 08's bands narrow."""

    def check_step(self, graph, rng, lam=1e-6):
        n = graph.num_nodes
        table = _EdgeTable(graph)
        rot = random_rotations(rng, n, 0.5)
        trans = rng.uniform(-2, 2, (n, 3))
        edge = _edge_errors(rot, trans, table)
        w = table.weight / table.weight.mean() * rng.uniform(0.1, 1, len(table.weight))
        ab, g = _normal_equations(_edge_jacobians(table, *edge), edge[0], w, table)
        h_dense, g_dense = node_order_system(ab, g, table)
        dense = np.linalg.solve(h_dense + lam * np.eye(table.size), -g_dense)
        tried = []

        def trial(delta):
            tried.append(delta)
            return None, 0.0

        damped_step(ab, g, lam, 1.0, trial, 1)
        banded = np.zeros(table.size)
        banded[node_coordinates(table)] = tried[0]
        return float(np.abs(banded - dense).max() / np.abs(dense).max())

    @pytest.mark.parametrize("name, n, pairs", SMALL_GRAPHS, ids=[g[0] for g in SMALL_GRAPHS])
    def test_small_graphs(self, name, n, pairs):
        rng = np.random.default_rng(70)
        graph = random_graph(rng, n, pairs)
        table = _EdgeTable(graph)
        assert sorted(table.order) == list(range(1, n))
        if name in ("star_on_gauge", "two_nodes"):
            assert table.band == 5
        assert self.check_step(graph, rng) <= 1e-12

    def test_criterion_08_rings(self):
        rng = np.random.default_rng(71)
        worst = 0.0
        for seed in range(20):
            graph, gt = ring_graph(np.random.default_rng(800 + seed))
            for g in (graph, with_false_closure(graph, gt)):
                worst = max(worst, self.check_step(g, rng))
        assert worst <= 1e-12

    def test_loop16_graph(self, loop16):
        _, result = loop16
        assert self.check_step(result.graph, np.random.default_rng(72)) <= 1e-12

    def test_ring_bands(self):
        for seed in range(20):
            graph, gt = ring_graph(np.random.default_rng(800 + seed))
            assert _EdgeTable(graph).band <= 23  # 161 in node order
            assert _EdgeTable(with_false_closure(graph, gt)).band <= 35

    def test_no_dense_solve(self, monkeypatch):
        def dense_solve(*args, **kwargs):
            raise AssertionError("dense solve called")

        monkeypatch.setattr(np.linalg, "solve", dense_solve)
        graph, gt = ring_graph(np.random.default_rng(800))
        assert (4, 19) in optimize_graph(with_false_closure(graph, gt)).pruned


class TestGraphSolution:
    @pytest.fixture(scope="class")
    def solution(self):
        graph, gt = ring_graph(np.random.default_rng(801))
        return optimize_graph(with_false_closure(graph, gt))

    def test_poses_match_arrays(self, solution):
        assert solution.rotations.shape == (30, 3, 3) and solution.translations.shape == (30, 3)
        poses = solution.poses
        assert len(poses) == 30
        for pose, rot, trans in zip(poses, solution.rotations, solution.translations):
            assert pose.rotation.tobytes() == rot.tobytes()
            assert pose.translation.tobytes() == trans.tobytes()

    def test_arrays_read_only(self, solution):
        with pytest.raises(ValueError):
            solution.rotations[1, 0, 0] = 1.0
        with pytest.raises(ValueError):
            solution.translations[1] = 0.0

    def test_pose_mutation_leaves_solution(self, solution):
        before = solution.translations.copy()
        pose = solution.poses[3]
        pose.translation += 1.0
        assert np.array_equal(solution.translations, before)
        assert np.array_equal(solution.poses[3].translation, before[3])

    def test_sequence_trajectory_matches_solution(self, loop16):
        _, result = loop16
        traj, sol = result.trajectory.poses, result.solution.poses
        assert len(traj) == len(sol) == 16
        for a, b in zip(traj, sol):
            assert a.rotation.tobytes() == b.rotation.tobytes()
            assert a.translation.tobytes() == b.translation.tobytes()


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


def counted_batches(mp):
    """Patch the pair stage's batched solve to record the problems of each
    call; returns the list of calls."""
    calls = []

    def solve(problems):
        calls.append(problems)
        return gauss_newton_solve_batch(problems)

    mp.setattr(joint_solver, "gauss_newton_solve_batch", solve)
    return calls


@pytest.fixture(scope="module")
def loop40():
    """The bench's 40-frame loop (scene seed 3): its ground truth, its
    registration and the number of pair solves that made."""
    fs, gt = generate(SynthConfig(num_frames=40, trajectory="loop", num_objects=3,
                                  keypoints_per_pair=40, noise_sigma_depth=0.003,
                                  rng_seed=3))
    with pytest.MonkeyPatch.context() as mp:
        calls = counted_batches(mp)
        result = register_sequence(fs)
    assert len(calls) == 1
    return gt, result, len(calls[0])


class TestRegisterSequence:
    def test_trajectory_close_to_ground_truth(self, seq_fs):
        fs, gt = seq_fs
        result = register_sequence(fs)
        ts = np.arange(fs.num_frames, dtype=float)
        ate = ate_rmse(result.trajectory, Trajectory(ts, gt))
        assert ate < 0.03
        assert result.diagnostics["num_loop_edges"] >= 1

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

    def test_loop40_bounded_pair_work(self, loop40):
        # the bench's 40-frame loop: 39 odometry solves and at most the 91
        # keyframe loop candidates, with the trajectory still accurate
        gt, result, solved = loop40
        assert solved <= 39 + 91
        for est, truth in zip(result.trajectory.poses, gt):
            rot, trans = pose_error(est, truth)
            assert rot <= 15.0 and trans <= 0.30
        assert graph_ate(result.trajectory.poses, gt) <= 0.010

    def test_loop40_graph_beats_chaining(self, loop40):
        """On the bench's 40-frame loop the optimized graph is closer to the
        ground truth than chaining its own odometry edges."""
        gt, result, _ = loop40
        assert result.diagnostics["num_loop_edges"] >= 1
        chained = graph_ate(chained_poses(result.graph), gt)
        assert graph_ate(result.trajectory.poses, gt) < chained

    def test_no_icp_on_sequence_pairs(self, monkeypatch):
        """No pair of a sequence is ICP-polished: odometry and loop pairs
        alike keep their joint solve's pose."""
        fs, _ = generate(SynthConfig(num_frames=8, trajectory="loop", num_objects=3,
                                     keypoints_per_pair=40, noise_sigma_depth=0.003,
                                     rng_seed=3))
        calls = []
        monkeypatch.setattr(
            "objreg.joint_solver.icp_refine_sets",
            lambda sources, *a: calls.append(len(sources)) or icp_refine_sets(sources, *a),
        )
        result = register_sequence(fs)
        assert len(result.pair_results) > fs.num_frames - 1
        assert result.diagnostics["num_loop_edges"] >= 1
        assert calls == []

    @pytest.mark.parametrize("seed", [2, 4, 6])
    def test_one_object_no_keypoint_loop(self, seed):
        """A 16-frame loop seen through one object and no keypoints, the
        bench loop's other settings kept: every edge keeps its joint pose,
        and the trajectory stays within 1 cm. ICP on the odometry pairs
        takes these loops to 2.2-6.8 cm."""
        fs, gt = generate(SynthConfig(num_frames=16, trajectory="loop", num_objects=1,
                                      keypoints_per_pair=0, noise_sigma_depth=0.003,
                                      rng_seed=seed))
        result = register_sequence(fs)
        assert graph_ate(result.trajectory.poses, gt) <= 0.010

    def test_stalled_timestamp_rejected_before_pair_solves(self, monkeypatch):
        fs, _ = generate(SynthConfig(num_frames=4, trajectory="line", rng_seed=44))
        fs.frames[2].timestamp = fs.frames[1].timestamp
        built = []
        monkeypatch.setattr(
            joint_solver, "build_problems", lambda *a, **k: built.append(a) or build_problems(*a, **k)
        )
        calls = counted_batches(monkeypatch)
        with pytest.raises(ValidationError, match="frame 2"):
            register_sequence(fs)
        assert built == [] and calls == []

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


def pair_frameset(fs, i, j):
    """Frames i, j of ``fs`` sliced by hand into a 2-frame set (i becomes 0,
    j becomes 1): their keypoint matches oriented i -> j and their
    observations, each in file order."""
    frames = [Frame(0, fs.frames[i].intrinsics, fs.frames[i].timestamp),
              Frame(1, fs.frames[j].intrinsics, fs.frames[j].timestamp)]
    matches = [KeypointMatch(0, 1, pi, pj) for pi, pj in scanned_matches(fs, i, j)]
    obs = []
    for o in fs.observations:
        if o.frame in (i, j):
            o = copy.copy(o)  # shares the arrays and any cached noc_fit
            o.frame = 0 if o.frame == i else 1
            obs.append(o)
    return FrameSet(frames, matches, obs)


def sequence_plan(fs):
    """register_sequence's pairs, each with its matching and keypoint
    filter settings."""
    mcfg = MatchConfig()
    loop_mcfg = replace(mcfg, embed_threshold=mcfg.sequence_loop_threshold)
    plan = {(i, i + 1): (mcfg, ODOMETRY_KEYPOINT_FILTER) for i in range(fs.num_frames - 1)}
    plan.update({p: (loop_mcfg, LOOP_KEYPOINT_FILTER) for p in candidate_loop_pairs(fs.num_frames)})
    return plan


def test_batch_builder_equals_hand_sliced_pairs(monkeypatch):
    """build_problems on a whole set gives each pair the matches, keypoint
    fit and problem of that pair's own hand-sliced 2-frame set, and
    icp_polish refines each pair's frame_points; also with matches stored
    with frame_i > frame_j and a second match between frames 0 and 1."""
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
    assert len(scanned_matches(fs, 0, 1)) == 2
    fit_noc(fs.observations)
    plan = sequence_plan(fs)
    scfg = SolverConfig()
    setups = build_problems(PairIndex(fs), plan, scfg)
    assert list(setups) == list(plan)
    for (i, j), got in setups.items():
        sub = pair_frameset(fs, i, j)
        assert [(o.frame, o.detection_id) for o in sub.observations] == [
            (0 if o.frame == i else 1, o.detection_id) for o in fs.observations if o.frame in (i, j)
        ]
        (want,) = build_problems(PairIndex(sub), {(0, 1): plan[(i, j)]}, scfg).values()
        keypoints_present = any(len(km) for km in sub.keypoint_matches)
        lone = match_pair(sub.observations_in_frame(0), sub.observations_in_frame(1),
                          plan[(i, j)][0], keypoints_present)
        assert got.matches == want.matches == lone
        assert got.reason == want.reason and not got.screened
        assert (got.keypoint_fit is None) == (want.keypoint_fit is None)
        if got.keypoint_fit is not None:
            assert np.array_equal(got.keypoint_fit.inlier_flags, want.keypoint_fit.inlier_flags)
            assert got.keypoint_fit.pose.to_matrix().tobytes() == want.keypoint_fit.pose.to_matrix().tobytes()
        g, w = got.problem, want.problem
        assert g.initial_camera.to_matrix().tobytes() == w.initial_camera.to_matrix().tobytes()
        assert (g.keypoints is None) == (w.keypoints is None)
        if g.keypoints is not None:
            assert np.array_equal(g.keypoints.points_i, w.keypoints.points_i)
            assert np.array_equal(g.keypoints.points_j, w.keypoints.points_j)
        assert len(g.object_blocks) == len(w.object_blocks)
        for a, b in zip(g.object_blocks, w.object_blocks):
            assert a.track_id == b.track_id
            for x, y in zip(a.noc_points + a.depth_points, b.noc_points + b.depth_points):
                assert np.array_equal(x, y)

    sets = []
    monkeypatch.setattr(
        "objreg.joint_solver.icp_refine_sets",
        lambda sources, targets, *a: sets.append((sources, targets)) or icp_refine_sets(sources, targets, *a),
    )
    odometry = [(i, i + 1) for i in range(fs.num_frames - 1)]
    reports = [gauss_newton_solve(setups[p].problem) for p in odometry]
    icp_polish(PairIndex(fs), odometry, reports, scfg)
    ((sources, targets),) = sets
    for (i, j), src, tgt in zip(odometry, sources, targets):
        sub = pair_frameset(fs, i, j)
        assert np.array_equal(src, sub.frame_points(1)) and np.array_equal(tgt, sub.frame_points(0))


def test_batch_builder_shares_each_observation_once():
    """The object blocks of one build that come from one observation share
    its inlier arrays, and each object starts at its frame-0 fit's
    read-only rotation, not a copy."""
    fs, _ = generate(SynthConfig(num_frames=5, num_objects=2, trajectory="line",
                                 orbit_radius=1.8, keypoints_per_pair=20, rng_seed=8))
    fit_noc(fs.observations)
    index = PairIndex(fs)
    setups = build_problems(index, sequence_plan(fs), SolverConfig())
    uses = Counter()
    arrays = {}
    for (i, j), setup in setups.items():
        for blk in setup.problem.object_blocks if setup.problem else ():
            m = setup.matches[blk.track_id]
            a = fs.observations[index.frames[i][m.index_a]]
            b = fs.observations[index.frames[j][m.index_b]]
            assert blk.init_pose.rotation is a.noc_fit.pose.rotation
            for o, noc, depth in zip((a, b), blk.noc_points, blk.depth_points):
                uses[id(o)] += 1
                first = arrays.setdefault(id(o), (noc, depth))
                assert first[0] is noc and first[1] is depth
    assert max(uses.values()) > 1


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


def solve_pair(sub, settings, scfg=None):
    """One pair of a sequence, sliced into the 2-frame set ``sub``, solved
    alone with its ``settings`` (matching, keypoint filter): its own
    one-pair build and K = 1 solve."""
    scfg = scfg or SolverConfig()
    (setup,) = build_problems(PairIndex(sub), {(0, 1): settings}, scfg).values()
    if setup.problem is None:
        return PairResult(False, setup.reason, matches=setup.matches)
    try:
        report = gauss_newton_solve(setup.problem)
    except UnsolvableProblemError as e:
        return PairResult(False, str(e), matches=setup.matches)
    return PairResult(True, None, report, setup.matches)


def solve_all_pairs(fs):
    """Every candidate pair of ``fs`` solved one at a time with
    register_sequence's settings."""
    return {
        (i, j): solve_pair(pair_frameset(fs, i, j), settings)
        for (i, j), settings in sequence_plan(fs).items()
    }


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


class TestSequenceBatch:
    """register_sequence builds every pair's problem, then solves them all
    in one lockstep batch."""

    def test_one_batched_solve(self, seq_fs, monkeypatch):
        fs, _ = seq_fs
        fs = copy.deepcopy(fs)  # no cached fits

        def forbidden(*_, **__):
            raise AssertionError("register_sequence called register_pair")

        validated = []
        validate = FrameSet.validate
        monkeypatch.setattr(FrameSet, "validate", lambda self: validated.append(self) or validate(self))
        monkeypatch.setattr(joint_solver, "register_pair", forbidden)
        calls = counted_batches(monkeypatch)
        result = register_sequence(fs)
        assert validated == [fs]
        assert len(calls) == 1
        solved = [p for p, r in result.pair_results.items() if r.success]
        assert len(calls[0]) == len(solved) == len(result.pair_results)
        assert result.diagnostics["num_loop_edges"] >= 1

    def test_pairs_equal_lone_solves(self, loop16):
        """Each pair's report equals its own K = 1 solve."""
        fs, result = loop16
        alone = solve_all_pairs(fs)
        for pair, got in result.pair_results.items():
            want = alone[pair]
            assert got.success == want.success and got.matches == want.matches
            g, w = got.report, want.report
            assert (g.iterations, g.pruned_count) == (w.iterations, w.pruned_count)
            for p, q in zip(g.camera_poses + g.object_poses, w.camera_poses + w.object_poses):
                assert np.abs(p.rotation - q.rotation).max() <= 1e-9
                assert np.abs(p.translation - q.translation).max() <= 1e-9

    def test_unbuildable_pair_keeps_its_failure(self, seq_fs, monkeypatch):
        """A pair whose problem cannot be built fails alone, with its own
        reason; every other pair solves as before."""
        fs, _ = seq_fs
        base = register_sequence(fs)
        built = []

        def planted(*args, **kwargs):
            setups = build_problems(*args, **kwargs)
            # the first loop pair not screened
            failed = next(p for p, s in setups.items() if p[1] > p[0] + 1 and not s.screened)
            setups[failed].problem, setups[failed].reason = None, "planted failure"
            built.append((failed, setups[failed].matches))
            return setups

        monkeypatch.setattr(joint_solver, "build_problems", planted)
        result = register_sequence(fs)
        loop_pairs = [p for p in base.pair_results if p[1] > p[0] + 1]
        failed = loop_pairs[0]
        assert [p for p, _ in built] == [failed]
        assert result.diagnostics["failed_pairs"] == {failed: "planted failure"}
        assert result.pair_results[failed].matches is built[0][1]
        assert list(result.pair_results) == list(base.pair_results)
        for pair, got in result.pair_results.items():
            if pair == failed:
                continue
            want = base.pair_results[pair]
            assert got.success == want.success
            for p, q in zip(got.report.camera_poses, want.report.camera_poses):
                assert np.abs(p.to_matrix() - q.to_matrix()).max() <= 1e-9
