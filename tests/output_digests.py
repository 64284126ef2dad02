"""Print sha256 digests of objreg's outputs on fixed, seeded inputs.

    PYTHONPATH=src python3 tests/output_digests.py

Run it in two checkouts and compare the lines to check that a change keeps
every output byte. It digests:

- ``register_pair`` on the 64 scenes of the benchmark's ``pairs`` workload
  for seeds 1 and 7919, each read from its problem file: with the defaults,
  with ``icp=False``, with ``use_objects=False`` and on the scene with its
  keypoint matches stripped (poses, object poses, iterations, cost, prune
  count, block stats, each ``BlockStat`` by its fields, and matches of
  every result);
- ``build_problem`` on the same scenes, with ``match_pair``'s matches under
  the default configs, then ``gauss_newton_solve`` (the matches, the problem
  and the report, or the reason no problem was solved);
- ``register_sequence`` on the benchmark's ``loop40`` configuration with
  scene seeds 1, 3 and 7919 (the whole ``SequenceResult``: trajectory,
  graph, solution arrays, switches, pruned edges, diagnostics and every
  pair result);
- ``optimize_graph`` on acceptance criterion 08's 20 rings, clean and with
  the planted false closure;
- ``synth.generate`` and ``save_problem`` on the configurations of
  ``SCENES`` (the bytes of the problem file, the outlier masks and the
  ground-truth poses of each).

Floats are digested by their exact bits, and every value by its type name
too. Not a test module: pytest collects only ``test_*.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import run as bench  # noqa: E402  (the benchmark's scenes; puts src/ on the path)

from objreg import observations, posegraph, synth  # noqa: E402
from objreg.joint_solver import (  # noqa: E402
    SolverConfig,
    UnsolvableProblemError,
    build_problem,
    gauss_newton_solve,
    register_pair,
)
from objreg.matching import MatchConfig, match_pair  # noqa: E402
from reference import ring_graph, with_false_closure  # noqa: E402

PAIR_SEEDS = (1, 7919)
SEQUENCE_SEEDS = (1, 3, 7919)
RINGS = 20
# generator configurations whose problem files are digested
SCENES = {
    **{f"loop40 seed {seed}": dict(bench.LOOP40, rng_seed=seed) for seed in SEQUENCE_SEEDS},
    "16-frame 1-object loop, no keypoints": dict(
        num_frames=16, trajectory="loop", num_objects=1, keypoints_per_pair=0, rng_seed=2
    ),
    "symmetric, NOC noise and outliers": dict(
        num_frames=4, num_objects=3, symmetries=("round", "square", "rectangle"),
        noise_sigma_noc=0.01, noise_sigma_depth=0.003, outlier_fraction=0.2, rng_seed=5,
    ),
    "line trajectory": dict(num_frames=6, trajectory="line", num_objects=2, rng_seed=4),
    "look-alike loop40": dict(
        bench.LOOP40, num_classes=1, embed_inter_separation=0.0, rng_seed=bench.LOOP40_SCENE_SEED
    ),
}


def feed(h, obj):
    """Add ``obj`` to the hash ``h``: its type name, then its value."""
    h.update(type(obj).__name__.encode())
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, bytes):
        h.update(obj)
    elif isinstance(obj, (float, np.floating)):
        h.update(float(obj).hex().encode())
    elif obj is None or isinstance(obj, (bool, int, str, np.integer, np.bool_)):
        h.update(repr(obj).encode())
    elif isinstance(obj, dict):
        for key, value in obj.items():
            feed(h, key)
            feed(h, value)
    elif isinstance(obj, (list, tuple)):
        h.update(str(len(obj)).encode())
        for item in obj:
            feed(h, item)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            feed(h, getattr(obj, f.name))
    elif hasattr(type(obj), "__slots__"):  # RigidPose, ObjectPose: skip caches
        for name in type(obj).__slots__:
            if not name.startswith("_"):
                feed(h, getattr(obj, name))
    else:
        raise TypeError(f"cannot digest a {type(obj).__name__}")


def digest(values) -> str:
    h = hashlib.sha256()
    feed(h, values)
    return h.hexdigest()


def without_keypoints(fs):
    return observations.FrameSet(fs.frames, [], fs.observations, fs.ground_truth)


def built_and_solved(fs):
    """``match_pair``, ``build_problem`` and ``gauss_newton_solve`` of a
    2-frame set, every argument given: (matches, problem, report), the
    problem and report replaced by the error's message when one raises."""
    observations.fit_noc(fs.observations)
    keypoints_present = any(len(km) for km in fs.keypoint_matches)
    matches = match_pair(
        fs.observations_in_frame(0), fs.observations_in_frame(1), MatchConfig(), keypoints_present
    )
    try:
        problem = build_problem(fs, matches, SolverConfig())
        return matches, problem, gauss_newton_solve(problem)
    except UnsolvableProblemError as e:
        return matches, str(e)


PAIR_VARIANTS = {
    "defaults": lambda fs: register_pair(fs),
    "icp=False": lambda fs: register_pair(fs, icp=False),
    "use_objects=False": lambda fs: register_pair(fs, use_objects=False),
    "keypoints stripped": lambda fs: register_pair(without_keypoints(fs)),
    "build_problem": built_and_solved,
}


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for seed in PAIR_SEEDS:
            workdir = Path(tmp) / f"pairs{seed}"
            workdir.mkdir()
            pairs = bench.Pairs(seed, workdir)
            pairs.setup()
            for name, solve in PAIR_VARIANTS.items():
                # a fresh load per call: no NOC fit cached by an earlier one
                results = [solve(observations.load_problem(path)) for path, _ in pairs.scenes]
                print(f"pairs seed {seed} {name}: {digest(results)}")
    for seed in SEQUENCE_SEEDS:
        fs, _ = synth.generate(synth.SynthConfig(**bench.LOOP40, rng_seed=seed))
        print(f"loop40 scene seed {seed}: {digest(posegraph.register_sequence(fs))}")
    clean, false = [], []
    for k in range(RINGS):
        graph, gt = ring_graph(np.random.default_rng(800 + k))
        clean.append(posegraph.optimize_graph(graph))
        false.append(posegraph.optimize_graph(with_false_closure(graph, gt)))
    print(f"criterion 08 rings clean: {digest(clean)}")
    print(f"criterion 08 rings with false closure: {digest(false)}")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "problem.json"
        for name, kwargs in SCENES.items():
            result = synth.generate(synth.SynthConfig(**kwargs))
            observations.save_problem(result.frameset, path)
            written = [path.read_bytes(), result.outlier_masks, result.gt_poses]
            print(f"problem file {name}: {digest(written)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
