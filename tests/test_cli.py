import json

import numpy as np
import pytest

from objreg.cli import main
from objreg.metrics import read_tum
from objreg.observations import load_problem, save_problem
from objreg.synth import SynthConfig, generate


def synth_cfg_file(tmp_path, **kwargs):
    path = tmp_path / "synth.json"
    doc = {"_comment": "test fixture", **kwargs}
    path.write_text(json.dumps(doc))
    return str(path)


def run(*argv):
    return main(list(argv))


class TestSynthCommand:
    def test_writes_problem_and_gt(self, tmp_path):
        cfg = synth_cfg_file(tmp_path, num_frames=2, orbit_span=0.4)
        out = tmp_path / "scene"
        assert run("synth", "--config", cfg, "--out", str(out), "--seed", "5") == 0
        fs = load_problem(out / "problem.json")
        assert fs.num_frames == 2
        gt = read_tum(out / "gt.tum")
        assert len(gt) == 2

    def test_seed_determinism(self, tmp_path):
        cfg = synth_cfg_file(tmp_path, num_frames=2, orbit_span=0.4)
        a, b = tmp_path / "a", tmp_path / "b"
        run("synth", "--config", cfg, "--out", str(a), "--seed", "7")
        run("synth", "--config", cfg, "--out", str(b), "--seed", "7")
        assert (a / "problem.json").read_bytes() == (b / "problem.json").read_bytes()
        assert (a / "gt.tum").read_bytes() == (b / "gt.tum").read_bytes()

    def test_unknown_config_key(self, tmp_path):
        cfg = synth_cfg_file(tmp_path, bogus_key=1)
        with pytest.raises(SystemExit, match="bogus_key"):
            run("synth", "--config", cfg, "--out", str(tmp_path / "x"))


@pytest.fixture(scope="module")
def pair_problem(tmp_path_factory):
    root = tmp_path_factory.mktemp("pair")
    result = generate(
        SynthConfig(num_frames=2, num_objects=1, orbit_span=0.5,
                    noise_sigma_depth=0.003, rng_seed=41)
    )
    path = root / "problem.json"
    save_problem(result.frameset, path)
    return str(path)


class TestRegisterPairCommand:
    def test_report_with_embedded_gt_error(self, pair_problem, tmp_path):
        out = tmp_path / "report.json"
        assert run("register-pair", "--problem", pair_problem, "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["success"]
        assert doc["error"]["trans_m"] < 0.05
        assert doc["error"]["rot_deg"] < 2.0
        assert len(doc["object_poses"]) == 1

    def test_no_objects_flag(self, pair_problem, tmp_path):
        out = tmp_path / "report.json"
        run("register-pair", "--problem", pair_problem, "--no-objects", "--out", str(out))
        doc = json.loads(out.read_text())
        assert doc["success"] and doc["num_object_matches"] == 0

    def test_determinism(self, pair_problem, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run("register-pair", "--problem", pair_problem, "--out", str(a))
        run("register-pair", "--problem", pair_problem, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_output(self, pair_problem, capsys):
        run("register-pair", "--problem", pair_problem)
        doc = json.loads(capsys.readouterr().out)
        assert doc["success"]

    @pytest.mark.parametrize("key", ["max_iterations", "convergence_tol", "step_halvings"])
    def test_removed_solver_config_keys_rejected(self, pair_problem, tmp_path, key):
        cfg = tmp_path / "solver.json"
        cfg.write_text(json.dumps({key: 1}))
        with pytest.raises(SystemExit, match=key):
            run("register-pair", "--problem", pair_problem, "--solver-config", str(cfg),
                "--out", str(tmp_path / "r.json"))
        assert not (tmp_path / "r.json").exists()


class TestEvalCommands:
    def test_ate_self_zero(self, tmp_path, capsys):
        cfg = synth_cfg_file(tmp_path, num_frames=3, orbit_span=0.4)
        out = tmp_path / "scene"
        run("synth", "--config", cfg, "--out", str(out), "--seed", "2")
        res = tmp_path / "ate.json"
        run("eval", "ate", "--est", str(out / "gt.tum"), "--gt", str(out / "gt.tum"),
            "--out", str(res))
        doc = json.loads(res.read_text())
        assert doc["ate_rmse_m"] < 1e-9

    def test_recall_over_reports(self, pair_problem, tmp_path):
        reports = tmp_path / "reports"
        reports.mkdir()
        run("register-pair", "--problem", pair_problem, "--out", str(reports / "p0.json"))
        out = tmp_path / "recall.json"
        run("eval", "recall", "--reports", str(reports),
            "--thresholds", "15:30,5:10", "--out", str(out))
        doc = json.loads(out.read_text())
        assert doc["num_pairs"] == 1
        assert doc["recall"]["15deg_30cm"] == 100.0

    @pytest.mark.parametrize(
        "case", ["report_no_translation", "threshold_chunk", "gt_not_object", "solver_config_list"]
    )
    def test_bad_input_named(self, pair_problem, tmp_path, case):
        reports = tmp_path / "reports"
        reports.mkdir()
        report = reports / "p0.json"
        run("register-pair", "--problem", pair_problem, "--out", str(report))
        bad = tmp_path / "bad.json"
        if case == "report_no_translation":
            doc = json.loads(report.read_text())
            del doc["relative_pose"]["translation"]
            report.write_text(json.dumps(doc))
            argv, named = ["eval", "recall", "--reports", str(reports)], [str(report), "relative_pose"]
        elif case == "threshold_chunk":
            argv, named = ["eval", "recall", "--reports", str(reports), "--thresholds", "15:30,5"], ["'5'"]
        elif case == "gt_not_object":
            bad.write_text(json.dumps([{"p0": 1}]))
            argv, named = ["eval", "recall", "--reports", str(reports), "--gt", str(bad)], [str(bad)]
        else:
            bad.write_text(json.dumps([["w_o", 0.5]]))
            argv = ["register-pair", "--problem", pair_problem, "--solver-config", str(bad)]
            named = [str(bad)]
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--out", str(tmp_path / "out.json"))
        assert all(part in str(exc.value) for part in named), str(exc.value)
        assert not (tmp_path / "out.json").exists()

    def test_overlap(self, pair_problem, tmp_path):
        out = tmp_path / "ov.json"
        run("eval", "overlap", "--problem", pair_problem, "--radius", "0.02",
            "--out", str(out))
        doc = json.loads(out.read_text())
        assert 0.0 <= doc["overlap_percent"] <= 100.0


class TestRegisterSequenceCommand:
    @pytest.mark.parametrize(
        "key", ["loop_preference", "max_corr_dist", "max_outer_iterations", "max_inner_iterations"]
    )
    def test_removed_graph_config_keys_rejected(self, pair_problem, tmp_path, key):
        cfg = tmp_path / "graph.json"
        cfg.write_text(json.dumps({key: 1.0}))
        with pytest.raises(SystemExit, match=key):
            run("register-sequence", "--problem", pair_problem,
                "--out-traj", str(tmp_path / "t.tum"), "--graph-config", str(cfg))

    def test_sequence_and_jobs_determinism(self, tmp_path):
        result = generate(
            SynthConfig(num_frames=6, num_objects=2, trajectory="line",
                        orbit_radius=1.8, keypoints_per_pair=40,
                        noise_sigma_depth=0.003, rng_seed=44)
        )
        problem = tmp_path / "seq.json"
        save_problem(result.frameset, problem)
        t1, t2 = tmp_path / "a.tum", tmp_path / "b.tum"
        assert run("register-sequence", "--problem", str(problem),
                   "--out-traj", str(t1), "--jobs", "1") == 0
        assert run("register-sequence", "--problem", str(problem),
                   "--out-traj", str(t2), "--jobs", "4") == 0
        assert t1.read_bytes() == t2.read_bytes()
        est = read_tum(t1)
        assert len(est) == 6
