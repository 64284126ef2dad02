"""Print where a ``loop40`` op spends its time, stage by stage, in-process.

    PYTHONPATH=src python3 tests/stage_times.py [--runs 40] [--seed 3]

Builds the benchmark's ``loop40`` scene (``--seed`` is its scene seed, 3 as
in the benchmark), writes it as a problem file, then runs ``--runs`` ops of
``load_problem`` + ``register_sequence`` after one warm-up op. Each stage's
function is wrapped where the sequence path looks it up, and the wrapper
adds its wall time; a stage's row is its time per op, min / median over the
runs. Rows marked "in" are part of the row above them. The bench's tracer
cannot see the pair stage, so this is where its cost shows.

Not a test module: pytest collects only ``test_*.py``.
"""

from __future__ import annotations

import argparse
import functools
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
STAGES = [
    ("validate", observations.FrameSet, "validate"),
    ("fit_noc", joint_solver, "fit_noc"),
    ("build_problems", joint_solver, "build_problems"),
    ("  in: _problem", joint_solver, "_problem"),
    ("gauss_newton_solve_batch", joint_solver, "gauss_newton_solve_batch"),
    ("  in: _Stack", joint_solver._Stack, "__init__"),
    ("  in: _Poses.initial", joint_solver._Poses, "initial"),
    ("  in: reports", joint_solver, "_reports"),
    ("icp_polish", joint_solver, "icp_polish"),
    ("  in: icp_refine_sets", joint_solver, "icp_refine_sets"),
    ("build_graph", posegraph, "build_graph"),
    ("optimize_graph", posegraph, "optimize_graph"),
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


def patch(spent) -> list:
    """Wrap every stage; returns what restores them."""
    undo = []
    for label, owner, attr in STAGES:
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(timed(raw.__func__, label, spent))
        else:
            new = timed(raw, label, spent)
        setattr(owner, attr, new)
        undo.append((owner, attr, raw))
    return undo


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=40)
    parser.add_argument("--seed", type=int, default=bench.LOOP40_SCENE_SEED)
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    fs, _ = synth.generate(synth.SynthConfig(**bench.LOOP40, rng_seed=args.seed))
    per_run = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "loop40.json"
        observations.save_problem(fs, path)
        for run in range(args.runs + 1):  # run 0 warms up
            spent = defaultdict(float)
            t0 = time.perf_counter()
            loaded = observations.load_problem(path)
            spent["load_problem"] = time.perf_counter() - t0
            undo = patch(spent)
            try:
                posegraph.register_sequence(loaded)
            finally:
                for owner, attr, raw in undo:
                    setattr(owner, attr, raw)
            spent["whole op"] = time.perf_counter() - t0
            if run:
                per_run.append(spent)
    print(f"loop40 scene seed {args.seed}, {args.runs} runs: ms per op, min / median")
    labels = ["load_problem"] + [label for label, _, _ in STAGES] + ["whole op"]
    width = max(map(len, labels))
    for label in labels:
        ms = [1e3 * spent[label] for spent in per_run]
        print(f"{label:<{width}}  {min(ms):7.2f} / {statistics.median(ms):7.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
