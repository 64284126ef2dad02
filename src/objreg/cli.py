"""Command-line entry points.

Subcommands: synth, register-pair, register-sequence, eval (recall | ate |
overlap). Machine-readable JSON goes to the output file or stdout; human
summaries go to stderr. File writes are atomic (write-temp-rename).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import fields, replace

import numpy as np

from .joint_solver import SolverConfig, register_pair
from .matching import MatchConfig
from .metrics import RecallThreshold, Trajectory, ate_rmse, pose_error, pose_recall, read_tum, write_tum
from .observations import _fmt, _pose_dict, _pose_from_dict, load_problem, save_problem, write_atomic
from .posegraph import GraphConfig, register_sequence
from .synth import SynthConfig, generate, measure_pair_overlap


@contextmanager
def _named(where: str):
    """Re-raise a malformed-input error (a missing key, a wrong type or value)
    as a SystemExit naming ``where``."""
    try:
        yield
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        raise SystemExit(f"{where}: malformed ({type(e).__name__}: {e})") from e


def _json_object(path: str) -> dict:
    """The JSON object in the file ``path``; SystemExit naming the file for
    malformed JSON or any other JSON value."""
    with open(path) as f, _named(path):
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise SystemExit(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def _load_config(cls, path: str | None):
    """Build a config dataclass from a JSON file; keys starting with '_'
    (comments) are ignored, unknown keys rejected."""
    if path is None:
        return cls()
    doc = _json_object(path)
    known = {f.name for f in fields(cls)}
    kwargs = {}
    for key, val in doc.items():
        if key.startswith("_"):
            continue
        if key not in known:
            raise SystemExit(f"unknown {cls.__name__} key {key!r} in {path}")
        kwargs[key] = tuple(val) if isinstance(val, list) else val
    with _named(path):
        return cls(**kwargs)


def _write_json(doc: dict, path: str | None):
    text = json.dumps(doc, sort_keys=True, indent=1)
    if path is None:
        print(text)
    else:
        write_atomic(path, text)


def cmd_synth(args):
    cfg = _load_config(SynthConfig, args.config)
    if args.seed is not None:
        with _named("--seed"):
            cfg = replace(cfg, rng_seed=args.seed)
    result = generate(cfg)
    os.makedirs(args.out, exist_ok=True)
    problem_path = os.path.join(args.out, "problem.json")
    save_problem(result.frameset, problem_path)
    ts = np.array([f.timestamp for f in result.frameset.frames], dtype=float)
    write_tum(Trajectory(ts, result.gt_poses), os.path.join(args.out, "gt.tum"))
    print(f"wrote {problem_path} and gt.tum ({cfg.num_frames} frames)", file=sys.stderr)


def cmd_register_pair(args):
    fs = load_problem(args.problem)
    if args.no_keypoints:
        fs.keypoint_matches = []
    mcfg = _load_config(MatchConfig, args.match_config)
    scfg = _load_config(SolverConfig, args.solver_config)
    result = register_pair(fs, mcfg, scfg, icp=not args.no_icp, use_objects=not args.no_objects)
    doc = {"problem": os.path.abspath(args.problem), "success": result.success}
    if not result.success:
        doc["reason"] = result.reason
    else:
        rep = result.report
        doc.update(
            {
                "relative_pose": _pose_dict(rep.camera_poses[1]),
                "iterations": rep.iterations,
                "final_cost": _fmt(rep.final_cost),
                "pruned_count": rep.pruned_count,
                "num_object_matches": len(result.matches),
                "object_poses": [
                    {**_pose_dict(o.rigid), "scale": [_fmt(v) for v in o.scale]}
                    for o in rep.object_poses
                ],
            }
        )
        if fs.ground_truth is not None:
            doc["gt_relative_pose"] = _pose_dict(fs.ground_truth[1])
            rot, trans = pose_error(rep.camera_poses[1], fs.ground_truth[1])
            doc["error"] = {"rot_deg": _fmt(rot), "trans_m": _fmt(trans)}
            print(f"pose error: {rot:.3f} deg / {trans * 100:.2f} cm", file=sys.stderr)
    _write_json(doc, args.out)


def cmd_register_sequence(args):
    fs = load_problem(args.problem)
    gcfg = _load_config(GraphConfig, args.graph_config)
    mcfg = _load_config(MatchConfig, args.match_config)
    scfg = _load_config(SolverConfig, args.solver_config)
    result = register_sequence(fs, mcfg, scfg, gcfg, jobs=args.jobs)
    write_tum(result.trajectory, args.out_traj)
    diag = result.diagnostics
    print(
        f"{fs.num_frames} frames, {diag['num_edges']} edges "
        f"({diag['num_loop_edges']} loop closures, {len(diag['pruned_edges'])} pruned)",
        file=sys.stderr,
    )


def cmd_eval_recall(args):
    thresholds = []
    for chunk in args.thresholds.split(","):
        with _named(f"--thresholds chunk {chunk!r} (want rot_deg:trans_cm)"):
            rot, trans = chunk.split(":")
            thresholds.append(RecallThreshold(float(rot), float(trans)))
    gt_map = _json_object(args.gt) if args.gt else {}
    errors = []
    for name in sorted(os.listdir(args.reports)):
        if not name.endswith(".json"):
            continue
        path = os.path.join(args.reports, name)
        rep = _json_object(path)
        if not rep.get("success"):
            errors.append((np.inf, np.inf))
            continue
        with _named(f"{path}: relative_pose"):
            est = _pose_from_dict(rep["relative_pose"])
        stem = name[: -len(".json")]
        if stem in gt_map:
            where, gt_rec = f"{args.gt}: {stem!r}", gt_map[stem]
        elif "gt_relative_pose" in rep:
            where, gt_rec = f"{path}: gt_relative_pose", rep["gt_relative_pose"]
        else:
            raise SystemExit(f"no ground truth for report {name}")
        with _named(where):
            gt_pose = _pose_from_dict(gt_rec)
        errors.append(pose_error(est, gt_pose))
    doc = {
        "num_pairs": len(errors),
        "recall": {
            f"{th.rot_deg:g}deg_{th.trans_cm:g}cm": _fmt(pose_recall(errors, th))
            for th in thresholds
        },
    }
    for key, val in doc["recall"].items():
        print(f"recall @ {key}: {val:.2f}%", file=sys.stderr)
    _write_json(doc, args.out)


def cmd_eval_ate(args):
    est = read_tum(args.est)
    gt = read_tum(args.gt)
    value = ate_rmse(est, gt)
    print(f"ATE RMSE: {value * 100:.3f} cm", file=sys.stderr)
    _write_json({"ate_rmse_m": _fmt(value)}, args.out)


def cmd_eval_overlap(args):
    fs = load_problem(args.problem)
    if fs.ground_truth is None:
        raise SystemExit("problem has no ground_truth poses; cannot compute overlap")
    pct = measure_pair_overlap(fs, radius=args.radius)
    print(f"overlap: {pct:.2f}%", file=sys.stderr)
    _write_json({"overlap_percent": _fmt(pct), "radius_m": _fmt(args.radius)}, args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="objreg")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic problem + ground truth")
    p.add_argument("--config", help="SynthConfig JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("register-pair", help="register a 2-frame problem")
    p.add_argument("--problem", required=True)
    p.add_argument("--no-icp", action="store_true")
    p.add_argument("--no-objects", action="store_true")
    p.add_argument("--no-keypoints", action="store_true")
    p.add_argument("--match-config")
    p.add_argument("--solver-config")
    p.add_argument("--out", help="report JSON path (stdout if omitted)")
    p.set_defaults(func=cmd_register_pair)

    p = sub.add_parser("register-sequence", help="register a multi-frame problem")
    p.add_argument("--problem", required=True)
    p.add_argument("--graph-config")
    p.add_argument("--match-config")
    p.add_argument("--solver-config")
    p.add_argument("--out-traj", required=True, help="output trajectory (TUM format)")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility; pairs are solved in one lockstep batch")
    p.set_defaults(func=cmd_register_sequence)

    p_eval = sub.add_parser("eval", help="metrics")
    esub = p_eval.add_subparsers(dest="metric", required=True)

    p = esub.add_parser("recall", help="pose recall over a directory of pair reports")
    p.add_argument("--reports", required=True)
    p.add_argument("--gt", help="JSON map of report stem -> gt pose (else embedded gt)")
    p.add_argument("--thresholds", default="5:10,10:20,15:30", help="rot_deg:trans_cm,...")
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval_recall)

    p = esub.add_parser("ate", help="ATE RMSE between two TUM trajectories")
    p.add_argument("--est", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval_ate)

    p = esub.add_parser("overlap", help="geometric overlap of a 2-frame problem")
    p.add_argument("--problem", required=True)
    p.add_argument("--radius", type=float, default=0.01)
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval_overlap)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
