"""Print where a benchmark op spends its time, stage by stage, in-process.

    PYTHONPATH=src python3 tests/stage_times.py [--workload loop40] [--runs N] [--seed S]
    PYTHONPATH=src python3 tests/stage_times.py [--workload loop40] --retained N

``--workload loop40`` (the default) builds the benchmark's ``loop40`` scene
(``--seed`` is its scene seed, 3 as in the benchmark), writes it as a
problem file, then runs ``--runs`` ops (default 40) of ``load_problem`` +
``register_sequence``. ``--workload pairs`` sets up the benchmark's
``pairs`` workload (``--seed`` its workload seed, default 1) and runs
``--runs`` ops (default 1280) of its own op, ``load_problem`` +
``register_pair`` of its 64 scenes in turn; ``validate`` counts both of an
op's passes, the one in ``load_problem`` and the one in ``register_pair``.
``--workload ring30`` sets up the benchmark's ``ring30`` workload (its 20
criterion-08 rings) and runs ``--runs`` ops (default 200) of its own op,
one ring's ``optimize_graph`` clean and then with the planted false
closure, the rings taken in turn; its rows are the kernels of the robust
pose-graph step. ``--workload setup`` times the set-up that the benchmark
folds into ``setup_s``: ``--runs`` rounds (default 5) of the ``loop40``
workload's set-up and of the ``pairs`` workload's (``--seed`` its workload
seed, default 1), each as the benchmark makes it (generation, problem-file
writes, warm-up); its rows are ``generate``, ``save_problem`` and
``load_problem`` per round. One warm-up op (or round) comes first. Each
stage's function is wrapped where the path looks it up, and the wrapper
adds its wall time; a stage's row is its time per op, min / median over
the runs. Rows marked "in" are part of the row above them. The bench's
tracer sees neither the pair stage nor the graph kernels, so this is where
their cost shows.

``--retained N`` times nothing: it sets up the benchmark's ``pairs``,
``loop40`` or ``ring30`` workload as the benchmark does (``--seed`` its
workload seed, default 1), runs one warm-up op, then N ops whose outputs it
keeps, as the benchmark keeps every op's output, and prints the growth of
the process's peak RSS (``ru_maxrss``) per kept op. A faster op keeps more
outputs in a benchmark run of fixed length, so this sizes a change's
``peak_rss_mb`` before the benchmark runs.

Not a test module: pytest collects only ``test_*.py``.
"""

from __future__ import annotations

import argparse
import functools
import resource
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import run as bench  # noqa: E402  (the benchmark's scenes; puts src/ on the path)

from objreg import joint_solver, observations, posegraph, synth  # noqa: E402

# (row label, owner, attribute): each wrapped where register_sequence, the
# pair stage (joint_solver.register_pairs) or the stage above it looks it up
LOOP40_STAGES = [
    ("validate", observations.FrameSet, "validate"),
    ("fit_noc", joint_solver, "fit_noc"),
    ("build_problems", joint_solver, "build_problems"),
    ("  in: _problem", joint_solver, "_problem"),
    ("gauss_newton_solve_batch", joint_solver, "gauss_newton_solve_batch"),
    ("  in: _Stack", joint_solver._Stack, "__init__"),
    ("  in: _Poses.initial", joint_solver._Poses, "initial"),
    ("  in: reports", joint_solver, "_reports"),
    ("build_graph", posegraph, "build_graph"),
    ("optimize_graph", posegraph, "optimize_graph"),
]
# the pair stage of one register_pair, each wrapped where it is looked up
PAIRS_STAGES = [
    ("load_problem", observations, "load_problem"),
    ("validate", observations.FrameSet, "validate"),
    ("fit_noc", joint_solver, "fit_noc"),
    ("build_problems", joint_solver, "build_problems"),
    ("  in: match_pairs", joint_solver, "match_pairs"),
    ("  in: kabsch_filter_sets", joint_solver, "kabsch_filter_sets"),
    ("  in: _problem", joint_solver, "_problem"),
    ("gauss_newton_solve_batch", joint_solver, "gauss_newton_solve_batch"),
    ("  in: _Stack", joint_solver._Stack, "__init__"),
    ("  in: _normal_equations", joint_solver, "_normal_equations"),
    ("  in: _damped_steps", joint_solver, "_damped_steps"),
    ("  in: _reports", joint_solver, "_reports"),
    ("icp_polish", joint_solver, "icp_polish"),
    ("  in: icp_refine_sets", joint_solver, "icp_refine_sets"),
]
# the robust pose-graph kernels, each wrapped where optimize_graph looks it up
RING30_STAGES = [
    ("_chain_odometry", posegraph, "_chain_odometry"),
    ("_EdgeTable", posegraph._EdgeTable, "__init__"),
    ("_edge_errors", posegraph, "_edge_errors"),
    ("  in: so3_log", posegraph, "so3_log"),
    ("_edge_jacobians", posegraph, "_edge_jacobians"),
    ("_normal_equations", posegraph, "_normal_equations"),
    ("dpbsv", posegraph, "dpbsv"),
    ("so3_exp", posegraph, "so3_exp"),
    ("_update_switches", posegraph, "_update_switches"),
]


# the set-up stages, each wrapped where the benchmark's set-up looks it up
SETUP_STAGES = [
    ("generate", synth, "generate"),
    ("save_problem", observations, "save_problem"),
    ("load_problem", observations, "load_problem"),
]


def timed(fn, label, spent):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[label] += time.perf_counter() - t0

    return wrapper


def patch(stages, spent) -> list:
    """Wrap every stage; returns what restores them."""
    undo = []
    for label, owner, attr in stages:
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(timed(raw.__func__, label, spent))
        else:
            new = timed(raw, label, spent)
        setattr(owner, attr, new)
        undo.append((owner, attr, raw))
    return undo


def timed_ops(stages, op, runs, load=None) -> list:
    """Per run after one warm-up op, the seconds spent in each stage, in
    ``load()`` (unwrapped, as ``"load_problem"``) and in the whole op:
    ``op(load())``, or ``op(k)`` in the k-th op without ``load``."""
    per_run = []
    for k in range(runs + 1):  # op 0 warms up
        spent = defaultdict(float)
        t0 = time.perf_counter()
        arg = k
        if load is not None:
            arg = load()
            spent["load_problem"] = time.perf_counter() - t0
        undo = patch(stages, spent)
        try:
            op(arg)
        finally:
            for owner, attr, raw in undo:
                setattr(owner, attr, raw)
        spent["whole op"] = time.perf_counter() - t0
        if k:
            per_run.append(spent)
    return per_run


def loop40(runs, seed) -> list:
    fs, _ = synth.generate(synth.SynthConfig(**bench.LOOP40, rng_seed=seed))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "loop40.json"
        observations.save_problem(fs, path)
        return timed_ops(
            LOOP40_STAGES, posegraph.register_sequence, runs, lambda: observations.load_problem(path)
        )


def pairs(runs, seed) -> list:
    with tempfile.TemporaryDirectory() as tmp:
        workload = bench.Pairs(seed, Path(tmp))
        workload.setup()
        return timed_ops(PAIRS_STAGES, workload.op, runs)


def ring30(runs) -> list:
    workload = bench.Ring30(1, None)  # its rings are the same for every seed
    workload.setup()
    return timed_ops(RING30_STAGES, workload.op, runs)


def setup(runs, seed) -> dict:
    """Per workload, the per-run stage times of its set-up rounds."""
    per_workload = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, make in (("loop40", bench.Loop40), ("pairs", bench.Pairs)):
            per_workload[name] = timed_ops(
                SETUP_STAGES, lambda k: make(seed, Path(tmp)).setup(), runs
            )
    return per_workload


def retained(name, n, seed) -> float:
    """KB of peak-RSS growth per op output kept, over ``n`` kept ops of the
    benchmark's workload ``name`` after one warm-up op."""
    with tempfile.TemporaryDirectory() as tmp:
        workload = bench.WORKLOADS[name](seed, Path(tmp))
        workload.setup()
        workload.op(0)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KB on Linux
        kept = [workload.op(k) for k in range(1, n + 1)]  # alive while the peak is read
        grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
    return grown / n


def print_rows(labels, per_run) -> None:
    width = max(map(len, labels))
    for label in labels:
        ms = [1e3 * spent[label] for spent in per_run]
        print(f"{label:<{width}}  {min(ms):7.2f} / {statistics.median(ms):7.2f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("loop40", "pairs", "ring30", "setup"), default="loop40")
    parser.add_argument("--runs", type=int,
                        help="ops timed (default 40 for loop40, 1280 for pairs, 200 for ring30, "
                        "5 set-up rounds for setup)")
    parser.add_argument("--seed", type=int,
                        help=f"loop40's scene seed (default {bench.LOOP40_SCENE_SEED}) or pairs' "
                        "workload seed (default 1, also for setup)")
    parser.add_argument("--retained", type=int, metavar="N",
                        help="keep N op outputs and print the peak-RSS growth per kept op "
                        "(pairs, loop40 or ring30) instead of stage times")
    args = parser.parse_args()
    if args.retained is not None:
        if args.retained < 1:
            parser.error("--retained must be at least 1")
        if args.workload == "setup":
            parser.error("--retained needs a workload with ops: pairs, loop40 or ring30")
        seed = 1 if args.seed is None else args.seed
        per_op = retained(args.workload, args.retained, seed)
        print(f"{args.workload} workload seed {seed}, {args.retained} ops kept: "
              f"ru_maxrss growth {per_op:.1f} KB per kept op")
        return 0
    default_runs = {"loop40": 40, "pairs": 1280, "ring30": 200, "setup": 5}
    runs = args.runs if args.runs is not None else default_runs[args.workload]
    if runs < 1:
        parser.error("--runs must be at least 1")
    if args.workload == "loop40":
        seed = bench.LOOP40_SCENE_SEED if args.seed is None else args.seed
        per_run = loop40(runs, seed)
        print(f"loop40 scene seed {seed}, {runs} runs: ms per op, min / median")
        labels = ["load_problem"] + [label for label, _, _ in LOOP40_STAGES] + ["whole op"]
    elif args.workload == "setup":
        seed = 1 if args.seed is None else args.seed
        labels = [label for label, _, _ in SETUP_STAGES] + ["whole op"]
        for name, per_run in setup(runs, seed).items():
            scene = f"scene seed {bench.LOOP40_SCENE_SEED}" if name == "loop40" else f"seed {seed}"
            print(f"{name} set-up ({scene}), {runs} rounds: ms per round (op), min / median")
            print_rows(labels, per_run)
        return 0
    elif args.workload == "pairs":
        seed = 1 if args.seed is None else args.seed
        per_run = pairs(runs, seed)
        print(f"pairs seed {seed}, {runs} runs: ms per op, min / median")
        labels = [label for label, _, _ in PAIRS_STAGES] + ["whole op"]
    else:
        per_run = ring30(runs)
        print(f"ring30, {runs} runs: ms per op, min / median")
        labels = [label for label, _, _ in RING30_STAGES] + ["whole op"]
    print_rows(labels, per_run)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
