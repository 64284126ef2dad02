"""objreg benchmark: seeded workloads, end-to-end metrics, correctness gate.

    python3 bench/run.py --workload pairs --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports ``objreg`` from ``src/``.
Set-up makes the inputs (generation, problem-file writes, warm-up) three
times and reports the median plus the import time as ``setup_s``. ``--seed``
draws the ``pairs`` scenes; ``loop40`` and ``ring30`` have fixed inputs. The timed phase then runs ops back to back in this one process
(closed loop, one client, ``jobs=1``) until ``--seconds`` have passed.

With ``--trace 0`` the last stdout line holds the end-to-end metrics. With
``--trace 1`` every input runs twice in a row, untraced and then with every
module's public functions wrapped (``tracing.py``); the last line then holds
the per-layer metrics, and the traced outputs must be byte-identical to the
untraced ones. Spans are written to ``.bench_work/`` when the run ends.

The process exits 1 when the correctness gate fails, after printing the
result with ``"correct": false``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

T_IMPORT = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from objreg import geometry, joint_solver, metrics, observations, posegraph, synth  # noqa: E402
from tracing import WRAPPED, Tracer  # noqa: E402

IMPORT_S = time.perf_counter() - T_IMPORT
if Path(geometry.__file__).resolve().parent.parent != ROOT / "src":
    sys.exit(f"objreg was imported from {geometry.__file__}, not from this checkout's src/")

SETUP_ROUNDS = 3
RECALL = (15.0, 30.0)  # degrees, centimetres

# loop40 steps about 0.39 m per frame, under GraphConfig's 0.5 m
# restructure_uncertain_dist, so the known large-step failure (a 24-frame
# loop at 0.65 m per step) is not exercised: success_pct = 100 there is no
# evidence that it is fixed.
LOOP40 = dict(
    num_frames=40, trajectory="loop", num_objects=3, keypoints_per_pair=40,
    noise_sigma_depth=0.003,
)
# The ROADMAP baseline sequence. One 40-frame sequence fills a run, and its
# cost moves by +-20% with the scene layout (361-505 graph edges over seeds
# 0-10), so loop40 keeps this one scene for every --seed.
LOOP40_SCENE_SEED = 3


@dataclass
class Phase:
    """What one timed loop saw."""

    seconds: list = field(default_factory=list)  # wall time per op
    outcomes: list = field(default_factory=list)  # (key, output) or None
    errors: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(o is None for o in self.outcomes)

    @property
    def elapsed(self) -> float:
        return sum(self.seconds)


def percentile(values, q):
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


class Workload:
    """Base: subclasses build inputs in ``setup`` and run one op in ``op``.

    ``op(k)`` returns ``(key, output)`` for a successful op; ``key`` names
    the input so repeated ops on one input can be compared. It returns None
    or raises for a failed op."""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def fingerprint(self, output) -> bytes:
        raise NotImplementedError

    def accuracy(self, phase) -> tuple[dict, list, list]:
        """(metrics, notes, gate failures) from a phase's outputs."""
        raise NotImplementedError


def _chained(graph):
    """Trajectory from composing the graph's odometry edges."""
    step = {e.i: e.relative_pose for e in graph.edges if e.kind == "odometry"}
    poses = [geometry.RigidPose.identity()]
    for i in range(graph.num_nodes - 1):
        poses.append(geometry.compose(poses[-1], step[i]))
    return poses


def _ate(poses, gt):
    ts = list(range(len(gt)))
    return metrics.ate_rmse(metrics.Trajectory(ts, poses), metrics.Trajectory(ts, gt))


def _first_outputs(phase) -> dict:
    """Input key -> output of the first successful op on it."""
    first = {}
    for out in phase.outcomes:
        if out is not None:
            first.setdefault(*out)
    return first


def _pose_bytes(poses) -> bytes:
    return b"".join(p.angles.tobytes() + p.translation.tobytes() for p in poses)


def _pose_stats(errors) -> dict:
    """recall / median errors over (rot_deg, trans_m) pairs; a failed
    registration enters as (inf, inf)."""
    th = metrics.RecallThreshold(*RECALL)
    return {
        "recall_15_30_pct": metrics.pose_recall(errors, th),
        "rot_err_deg_p50": statistics.median(r for r, _ in errors),
        "trans_err_cm_p50": 100.0 * statistics.median(t for _, t in errors),
    }


class Pairs(Workload):
    """2-frame scenes, 3 objects, 3 mm depth noise, 10% NOC outliers. Scene
    k % 4 == 3 has no keypoints and a wide baseline (object-only path)."""

    SCENES = 64

    def setup(self):
        rng = np.random.default_rng([self.seed, 1])
        self.scenes = []
        for k in range(self.SCENES):
            object_only = k % 4 == 3
            while True:
                lo, hi = (0.55, 0.95) if object_only else (0.10, 0.50)
                cfg = synth.SynthConfig(
                    num_frames=2, num_objects=3,
                    keypoints_per_pair=0 if object_only else 40,
                    noise_sigma_depth=0.003, outlier_fraction=0.10,
                    orbit_span=float(rng.uniform(lo, hi) * np.pi),
                    rng_seed=int(rng.integers(2**63)),
                )
                try:
                    fs, gt = synth.generate(cfg)
                    break
                except ValueError:  # an object visible in no frame: draw again
                    continue
            path = self.workdir / f"pair{k:03d}.json"
            observations.save_problem(fs, path)
            self.scenes.append((path, gt))
        self.op(0)  # warm-up

    def op(self, k):
        key = k % self.SCENES
        fs = observations.load_problem(self.scenes[key][0])
        res = joint_solver.register_pair(fs)
        return (key, res) if res.success else None

    def fingerprint(self, res):
        return _pose_bytes(res.report.camera_poses)

    def accuracy(self, phase):
        first = _first_outputs(phase)
        errors, ates = [], []
        for key, (_, gt) in enumerate(self.scenes[: len(phase.outcomes)]):
            res = first.get(key)
            if res is None:
                errors.append((math.inf, math.inf))
                continue
            est = res.report.camera_poses
            errors.append(metrics.pose_error(est[1], gt[1]))
            ates.append(_ate(est, gt))
        m = _pose_stats(errors)
        m["ate_cm"] = 100.0 * statistics.median(ates) if ates else math.inf
        notes = [f"scenes evaluated {len(errors)}, of them object-only {len(errors[3::4])}"]
        gate = []
        if len(errors) < self.SCENES:
            gate.append(f"only {len(errors)} of {self.SCENES} scenes ran")
        if m["recall_15_30_pct"] < 95.0:
            gate.append(f"recall_15_30_pct {m['recall_15_30_pct']:.1f} < 95")
        return m, notes, gate


class Loop40(Workload):
    """The 40-frame loop sequence through load_problem + register_sequence."""

    def setup(self):
        fs, self.gt = synth.generate(synth.SynthConfig(**LOOP40, rng_seed=LOOP40_SCENE_SEED))
        self.path = self.workdir / "loop40.json"
        observations.save_problem(fs, self.path)
        observations.load_problem(self.path)  # warm-up: read it back

    def op(self, k):
        fs = observations.load_problem(self.path)
        return 0, posegraph.register_sequence(fs, jobs=1)

    def fingerprint(self, res):
        path = self.workdir / "traj.tum"
        metrics.write_tum(res.trajectory, path)
        return path.read_bytes()

    def accuracy(self, phase):
        done = [out[1] for out in phase.outcomes if out is not None]
        if not done:
            return {}, [], ["the sequence did not finish"]
        res = done[0]
        est = res.trajectory.poses
        m = _pose_stats([metrics.pose_error(est[i], self.gt[i]) for i in range(1, len(est))])
        m["ate_cm"] = 100.0 * _ate(est, self.gt)
        chain_cm = 100.0 * _ate(_chained(res.graph), self.gt)
        d = res.diagnostics
        notes = [
            f"graph {d['num_edges']} edges, {d['num_loop_edges']} loop closures, "
            f"{len(d['pruned_edges'])} pruned",
            f"ATE vs chained odometry: {m['ate_cm']:.3f} cm vs {chain_cm:.3f} cm "
            f"(x{m['ate_cm'] / chain_cm:.3f})",
        ]
        # Known defect, not gated: on this scene the optimized graph ends
        # further from ground truth than chaining its own odometry edges.
        if m["ate_cm"] >= chain_cm:
            notes.append("KNOWN DEFECT: the pose graph does not beat chaining its odometry")
        gate = []
        if len(done) < len(phase.outcomes):
            gate.append("the sequence did not finish in every op")
        if m["recall_15_30_pct"] < 100.0:
            gate.append(f"only {m['recall_15_30_pct']:.1f}% of frames within 15 deg / 30 cm")
        return m, notes, gate


def ring_graph(rng, n=30, sigma_t=0.01, sigma_r=math.radians(0.5), weight=1000.0):
    """Acceptance criterion 08's ring: noisy odometry around a 2 m circle
    plus three exact loop closures; also returns the ring with the planted
    (4, 19) false closure, 1 m off."""
    G = geometry
    gt = []
    for k in range(n):
        a = 2 * np.pi * k / n
        gt.append(G.RigidPose(np.array([0.0, 0.0, a]), np.array([2.0 * np.cos(a), 2.0 * np.sin(a), 0.0])))
    t0 = G.invert(gt[0])
    gt = [G.compose(t0, p) for p in gt]
    PG = posegraph
    edges = []
    for i in range(n - 1):
        rel = G.compose(G.invert(gt[i]), gt[i + 1])
        noisy = G.RigidPose(rel.angles + rng.normal(0, sigma_r, 3), rel.translation + rng.normal(0, sigma_t, 3))
        edges.append(PG.GraphEdge(i, i + 1, noisy, weight, False, "odometry"))
    for i, j in ((0, 15), (7, 22), (2, 28)):
        edges.append(PG.GraphEdge(i, j, G.compose(G.invert(gt[i]), gt[j]), weight, True, "loop_closure"))
    false_rel = G.compose(G.compose(G.invert(gt[4]), gt[19]), G.RigidPose(np.zeros(3), np.array([1.0, 0.0, 0.0])))
    bad = PG.GraphEdge(4, 19, false_rel, weight, True, "loop_closure")
    return PG.PoseGraph(n, edges), PG.PoseGraph(n, edges + [bad]), gt


class Ring30(Workload):
    """One op solves one of criterion 08's rings clean, then with the false
    closure; the 20 rings are taken in turn."""

    # Criterion 08's own rings, the same for every --seed: one ring's solve
    # time moves by +-15% with its noise draw, and over the 5-7 rings of one
    # run that put the spread of op_ms_p50 over seeds at 0.28.
    RINGS = 20

    def setup(self):
        self.rings = [ring_graph(np.random.default_rng(800 + k)) for k in range(self.RINGS)]

    def op(self, k):
        key = k % self.RINGS
        clean, with_false, _ = self.rings[key]
        opt = posegraph.optimize_graph
        return key, (opt(clean), opt(with_false))

    def fingerprint(self, sols):
        return b"".join(_pose_bytes(s.poses) for s in sols)

    def accuracy(self, phase):
        first = _first_outputs(phase)
        if not first:
            return {}, [], ["no ring was solved"]
        errors, ates, ratios, pruned, false_x = [], [], [], [], []
        for key, (clean_sol, false_sol) in sorted(first.items()):
            graph, _, gt = self.rings[key]
            errors += [metrics.pose_error(p, g) for p, g in zip(clean_sol.poses[1:], gt[1:])]
            ate = _ate(clean_sol.poses, gt)
            ates.append(ate)
            ratios.append(ate / _ate(_chained(graph), gt))
            pruned.append((4, 19) in false_sol.pruned)
            false_x.append(_ate(false_sol.poses, gt) / ate)
        m = _pose_stats(errors)
        m["ate_cm"] = 100.0 * statistics.median(ates)
        notes = [
            f"false_closure_pruned_pct {100.0 * sum(pruned) / len(pruned):.1f} % "
            f"({sum(pruned)}/{len(pruned)} rings)",
            f"ATE ratio vs chaining: median {statistics.median(ratios):.3f}, max {max(ratios):.3f} "
            f"over {len(ratios)} rings; ATE with false closure vs clean: median x{statistics.median(false_x):.3f}",
        ]
        # Criterion 08's bars, on the rings this run solved.
        gate = []
        if statistics.median(ratios) > 0.5:
            gate.append(f"median ATE ratio vs chaining {statistics.median(ratios):.3f} > 0.5")
        if not all(pruned):
            gate.append(f"false closure kept in {len(pruned) - sum(pruned)} rings")
        if statistics.median(false_x) > 2.0:
            gate.append(f"false closure multiplies the median ATE by {statistics.median(false_x):.3f} > 2")
        return m, notes, gate


WORKLOADS = {"pairs": Pairs, "loop40": Loop40, "ring30": Ring30}


def measure(workload, seconds, tracer=None) -> list[Phase]:
    """Closed loop: run ops back to back until ``seconds`` have passed.

    With a tracer, each input runs twice in a row, untraced and then traced,
    so that both phases see the same inputs and the same machine speed; the
    result is then [untraced, traced]."""
    phases = [Phase()] if tracer is None else [Phase(), Phase()]
    start = time.perf_counter()
    k = 0
    while True:
        traced, key = k % len(phases), k // len(phases)
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.installed(), tracer.op():
                    out = workload.op(key)
            else:
                out = workload.op(key)
        except Exception:  # a failed op is counted, never retried or skipped
            out = None
            phases[traced].errors.append(traceback.format_exc())
        t1 = time.perf_counter()
        phases[traced].seconds.append(t1 - t0)
        phases[traced].outcomes.append(out)
        k += 1
        if traced == len(phases) - 1 and t1 - start >= seconds:
            return phases


def check_identical(workload, *phases) -> list:
    """Every op on one input must give the same bytes, in every phase."""
    seen, gate = {}, []
    for phase in phases:
        for out in phase.outcomes:
            if out is None:
                continue
            key, output = out
            fp = workload.fingerprint(output)
            if seen.setdefault(key, fp) != fp:
                gate.append(f"input {key}: output bytes differ between ops")
    return gate


def blas_threads():
    """Thread count of the OpenBLAS bundled with numpy, or None."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def cpu_probe_ms() -> float:
    """Median time of a fixed Python + small-numpy task, to show machine
    speed drift between runs."""
    a = np.arange(9.0).reshape(3, 3) + np.eye(3)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        s = 0
        for i in range(100_000):
            s += i * i
        for _ in range(2000):
            np.linalg.svd(a)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def machine_block() -> dict:
    from numpy.__config__ import CONFIG

    blas = CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "cpu_probe_ms": round(cpu_probe_ms(), 3),
    }


def end_to_end(phase, setup_s, recall_pct) -> dict:
    ms = [1e3 * s for s in phase.seconds]
    n = len(phase.outcomes)
    return {
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_p90": (percentile(ms, 90), "ms"),
        "ops_per_s": (n / phase.elapsed, "1/s"),
        "success_pct": (100.0 * (n - phase.failed) / n, "%"),
        "recall_15_30_pct": (recall_pct, "%"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


# Printed with every result but not in the JSON: over the 64 scenes of one
# pairs run they move by 15-35% with the seed, more than any bound a
# regression check could use.
ACCURACY_UNITS = {"rot_err_deg_p50": "deg", "trans_err_cm_p50": "cm", "ate_cm": "cm"}


def per_layer(tracer, untraced, traced) -> dict:
    """Per-layer metrics from the traced phase; ratios read 0 when the layer
    was not called."""
    ops = tracer.ops
    c = tracer.counts
    total, self_time = tracer.totals()

    def ms(name):
        return 1e3 * total[name] / ops

    def ratio(num, den):
        return num / den if den else 0.0

    calls = {name: c[name + ".calls"] for name in WRAPPED}
    op_wall = total["op"]
    p50_traced = 1e3 * statistics.median(traced.seconds)
    p50_plain = 1e3 * statistics.median(untraced.seconds)
    return {
        "observations.load_problem.ms_per_op": (ms("observations.load_problem"), "ms"),
        "matching.match_pair.ms_per_op": (ms("matching.match_pair"), "ms"),
        "matching.match_pair.calls_per_op": (calls["matching.match_pair"] / ops, "count"),
        "matching.match_pair.matched_ratio": (ratio(c["match_pair.matched"], calls["matching.match_pair"]), "ratio"),
        "procrustes.kabsch_filter.ms_per_op": (ms("procrustes.kabsch_filter"), "ms"),
        "procrustes.kabsch_filter.calls_per_op": (calls["procrustes.kabsch_filter"] / ops, "count"),
        "procrustes.kabsch_filter.repeat_ratio": (ratio(c["kabsch_filter.repeats"], calls["procrustes.kabsch_filter"]), "ratio"),
        "procrustes.icp_refine.ms_per_op": (ms("procrustes.icp_refine"), "ms"),
        "procrustes.icp_refine.accept_ratio": (ratio(c["icp.accepted"], calls["procrustes.icp_refine"]), "ratio"),
        "joint_solver.build_problem.ms_per_op": (ms("joint_solver.build_problem"), "ms"),
        "joint_solver.gauss_newton_solve.ms_per_op": (ms("joint_solver.gauss_newton_solve"), "ms"),
        "joint_solver.gauss_newton_solve.iterations_per_solve": (ratio(c["gn.iterations"], calls["joint_solver.gauss_newton_solve"]), "count"),
        "joint_solver.gauss_newton_solve.pruned_per_solve": (ratio(c["gn.pruned"], calls["joint_solver.gauss_newton_solve"]), "count"),
        "joint_solver.register_pair.ms_per_op": (ms("joint_solver.register_pair"), "ms"),
        "joint_solver.register_pair.self_ms_per_op": (1e3 * self_time["joint_solver.register_pair"] / ops, "ms"),
        "joint_solver.register_pair.success_ratio": (ratio(c["register_pair.success"], calls["joint_solver.register_pair"]), "ratio"),
        "posegraph.build_graph.ms_per_op": (ms("posegraph.build_graph"), "ms"),
        "posegraph.build_graph.loop_edges": (c["build_graph.loop_edges"] / ops, "count"),
        "posegraph.loop_closure.accept_ratio": (ratio(c["loop_closure.accepted"], calls["posegraph.reject_loop_closure"]), "ratio"),
        "posegraph.optimize_graph.ms_per_op": (ms("posegraph.optimize_graph"), "ms"),
        "posegraph.optimize_graph.pruned_edges": (c["optimize_graph.pruned"] / ops, "count"),
        "posegraph.register_sequence.self_ms_per_op": (1e3 * self_time["posegraph.register_sequence"] / ops, "ms"),
        "trace.overhead_ms": (p50_traced - p50_plain, "ms"),
        "trace.overhead_pct": (100.0 * (p50_traced - p50_plain) / p50_plain, "%"),
        "trace.uncovered_pct": (100.0 * self_time["op"] / op_wall, "%"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    print(f"# objreg benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# machine " + json.dumps(machine_block(), sort_keys=True))

    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        rounds = []
        for _ in range(SETUP_ROUNDS):
            t = time.perf_counter()
            workload = WORKLOADS[args.workload](args.seed, Path(tmp))
            workload.setup()
            rounds.append(time.perf_counter() - t)
        setup_s = IMPORT_S + statistics.median(rounds)

        tracer = Tracer() if args.trace else None
        phases = measure(workload, args.seconds, tracer)
        accuracy, notes, gate = workload.accuracy(phases[-1])
        gate += check_identical(workload, *phases)

        if args.trace:
            metric_values = per_layer(tracer, *phases)
            spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.json"
            tracer.write(spans_path)
            notes.append(f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
        else:
            metric_values = end_to_end(phases[0], setup_s, accuracy.get("recall_15_30_pct", 0.0))

    attempted = sum(len(p.outcomes) for p in phases)
    failed = sum(p.failed for p in phases)
    for p in phases:
        for err in p.errors[:3]:
            print(err, file=sys.stderr)
    for i, p in enumerate(phases):
        label = ("untraced", "traced")[i] if args.trace else "timed"
        print(f"# {label} phase: {len(p.outcomes)} ops in {p.elapsed:.3f} s, "
              f"fail_rate {p.failed / len(p.outcomes):.4f} ({p.failed}/{len(p.outcomes)})")
    print(f"# setup rounds (s): {', '.join(f'{r:.3f}' for r in rounds)}; import {IMPORT_S:.3f} s")
    for name, unit in ACCURACY_UNITS.items():
        if name in accuracy:
            print(f"# {name} {accuracy[name]:.6g} {unit}")
    for line in notes:
        print(f"# {line}")
    for line in gate:
        print(f"# GATE FAILED: {line}")
    for name, (value, unit) in metric_values.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": not gate,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metric_values.items()},
    }
    print(json.dumps(result))
    return 0 if not gate else 1


if __name__ == "__main__":
    sys.exit(main())
