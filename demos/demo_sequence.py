"""Sequence registration with object-supported loop closures.

Registers an 8-frame trajectory: consecutive pairs give odometry edges
(joint solve), non-consecutive pairs are tested as loop-closure candidates
(stricter matching threshold, joint solve, plausibility rejection; pairs
whose matched objects are all out of depth range are screened out before
solving), and a robust pose graph with a line process down-weights and
prunes inconsistent closures. No pair is ICP-polished: each edge keeps its
joint solve's pose.

The demo then poisons the graph with a fabricated loop closure displaced
by one meter and shows the line process pruning it while the trajectory
stays accurate.

Run:  python3 demos/demo_sequence.py
"""

import numpy as np

from objreg import (
    GraphEdge,
    PoseGraph,
    RigidPose,
    SynthConfig,
    Trajectory,
    ate_rmse,
    compose,
    generate,
    invert,
    optimize_graph,
    register_sequence,
)


def main():
    cfg = SynthConfig(
        num_frames=8,
        num_objects=2,
        trajectory="line",
        orbit_radius=1.8,
        keypoints_per_pair=40,
        noise_sigma_depth=0.003,
        rng_seed=33,
    )
    fs, gt = generate(cfg)
    result = register_sequence(fs)

    ts = np.arange(fs.num_frames, dtype=float)
    gt_traj = Trajectory(ts, gt)
    ate = ate_rmse(result.trajectory, gt_traj)
    d = result.diagnostics
    num_odo = d["num_edges"] - d["num_loop_edges"]
    print(f"Registered {fs.num_frames} frames: "
          f"{num_odo} odometry edges, "
          f"{d['num_loop_edges']} loop-closure edges, "
          f"{len(d['failed_pairs'])} candidate pairs failed, "
          f"{len(d['screened_pairs'])} loop pairs screened out before solving")
    print(f"ATE RMSE vs ground truth: {ate * 1000:.2f} mm")

    # --- replace one genuine closure with a corrupted copy (1 m off) and
    # watch the line process prune it ---
    false_rel = compose(
        compose(invert(gt[1]), gt[6]),
        RigidPose(np.zeros(3), np.array([1.0, 0.0, 0.0])),
    )
    bad = GraphEdge(1, 6, false_rel, 1000.0, True, "loop_closure")
    kept = [e for e in result.graph.edges if (e.i, e.j) != (1, 6) or e.kind != "loop_closure"]
    poisoned = PoseGraph(result.graph.num_nodes, kept + [bad])
    sol = optimize_graph(poisoned)

    ate_poisoned = ate_rmse(Trajectory(ts, sol.poses), gt_traj)
    print(f"\nAfter corrupting the (1, 6) closure by 1 m:")
    print(f"  pruned edges: {sol.pruned}")
    print(f"  ATE RMSE: {ate_poisoned * 1000:.2f} mm")
    assert (1, 6) in sol.pruned, "false closure survived"


if __name__ == "__main__":
    main()
