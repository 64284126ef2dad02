import numpy as np
import pytest

from objreg import synth
from objreg.geometry import apply_rigid, invert, compose, rotation_from_euler
from objreg.observations import save_problem
from objreg.synth import (
    SynthConfig,
    generate,
    make_pair_suite,
    measure_pair_overlap,
    overlap,
)
from reference import kabsch_solve


def base_cfg(**kwargs):
    defaults = dict(num_frames=2, num_objects=1, orbit_span=np.pi / 6, rng_seed=11)
    defaults.update(kwargs)
    return SynthConfig(**defaults)


class TestGenerate:
    def test_shapes_and_gauge(self):
        fs, gt = generate(base_cfg(num_frames=3))
        assert fs.num_frames == 3 and len(gt) == 3
        assert np.abs(gt[0].to_matrix() - np.eye(4)).max() < 1e-12
        fs.validate()

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_problem(generate(base_cfg()).frameset, a)
        save_problem(generate(base_cfg()).frameset, b)
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_problem(generate(base_cfg(rng_seed=1)).frameset, a)
        save_problem(generate(base_cfg(rng_seed=2)).frameset, b)
        assert a.read_bytes() != b.read_bytes()

    def test_keypoints_satisfy_ground_truth(self):
        # noiseless: matched keypoints map to the same world point under gt
        fs, gt = generate(base_cfg(num_frames=3))
        assert fs.keypoint_matches
        for km in fs.keypoint_matches:
            wi = apply_rigid(gt[km.frame_i], km.points_i)
            wj = apply_rigid(gt[km.frame_j], km.points_j)
            assert np.abs(wi - wj).max() < 1e-9

    def test_noc_depth_rigidly_consistent(self):
        # noiseless non-symmetric object: noc*scale aligns onto depth exactly
        fs, gt = generate(base_cfg())
        assert fs.observations
        for obs in fs.observations:
            res = kabsch_solve(obs.noc_points * obs.scale_estimate, obs.depth_points)
            assert res.rms_residual < 1e-9

    def test_object_consistent_across_frames(self):
        # two frames of the same object agree on its world-frame pose
        fs, gt = generate(base_cfg())
        poses = []
        for obs in fs.observations:
            res = kabsch_solve(obs.noc_points * obs.scale_estimate, obs.depth_points)
            poses.append(compose(gt[obs.frame], res.pose))
        assert np.abs(poses[0].to_matrix() - poses[1].to_matrix()).max() < 1e-8

    def test_depth_points_in_front_of_camera(self):
        fs, _ = generate(base_cfg(num_frames=3, num_objects=2))
        for obs in fs.observations:
            assert np.all(obs.depth_points[:, 2] > 0)

    def test_outliers_planted_with_masks(self):
        cfg = base_cfg(outlier_fraction=0.3, rng_seed=3)
        result = generate(cfg)
        clean = generate(base_cfg(rng_seed=3))
        total = planted = 0
        for obs, ref in zip(result.frameset.observations, clean.frameset.observations):
            mask = result.outlier_masks[(obs.frame, obs.detection_id)]
            total += len(mask)
            planted += mask.sum()
            deltas = np.linalg.norm(obs.depth_points - ref.depth_points, axis=1)
            assert np.all(deltas[mask] >= 0.5 - 1e-9)
            assert np.all(deltas[mask] <= 1.0 + 1e-9)
            assert np.all(deltas[~mask] < 1e-12)
        assert abs(planted / total - 0.3) < 0.1

    def test_noise_applied(self):
        clean = generate(base_cfg(rng_seed=5))
        noisy = generate(base_cfg(rng_seed=5, noise_sigma_depth=0.005))
        a = clean.frameset.observations[0].depth_points
        b = noisy.frameset.observations[0].depth_points
        rms = np.sqrt(np.mean((a - b) ** 2))
        assert 0.002 < rms < 0.01

    def test_symmetry_labels_propagate(self):
        fs, _ = generate(base_cfg(num_objects=2, symmetries=("round", "non_symmetric")))
        syms = {o.symmetry for o in fs.observations}
        assert "round" in syms

    @pytest.mark.parametrize("symmetry", ["square", "rectangle"])
    def test_symmetric_boxes_without_noc_noise(self, symmetry):
        """A box turned by a multiple of pi/2 keeps its face coordinates at
        exactly +-0.5, so noiseless NOC points pass validation on every seed."""
        for seed in range(20):
            fs, _ = generate(base_cfg(num_objects=3, symmetries=(symmetry,) * 3, rng_seed=seed))
            assert {o.symmetry for o in fs.observations} == {symmetry}
            assert max(np.abs(o.noc_points).max() for o in fs.observations) == 0.5

    def test_embeddings_separate_objects(self):
        fs, _ = generate(base_cfg(num_frames=2, num_objects=3, num_classes=1, rng_seed=9))
        by_obj = {}
        for o in fs.observations:
            # detections keep per-frame order of layout objects with same class
            by_obj.setdefault((o.frame, o.detection_id), o.embedding)
        embeds = list(by_obj.values())
        for i in range(len(embeds)):
            for j in range(i + 1, len(embeds)):
                d = np.linalg.norm(embeds[i] - embeds[j])
                assert d < 0.05 or d > 0.5  # tight within, separated across

    def test_bad_config(self):
        """Every field is type- and range-checked before any draw, naming
        the field."""
        for name, value in (
            ("num_frames", 0), ("num_frames", 2.0), ("num_objects", -1), ("num_classes", 0),
            ("object_extents", (0.8, 0.6)), ("object_extents", (0.8, 0.0, 1.0)), ("trajectory", "spiral"),
            ("orbit_radius", 0.0), ("orbit_span", np.nan), ("points_per_object", -1),
            ("keypoints_per_pair", True), ("background_points", -5), ("noise_sigma_depth", -0.1),
            ("noise_sigma_noc", np.inf), ("outlier_fraction", 1.0), ("embed_dim", 0),
            ("embed_intra_sigma", "0.1"), ("embed_inter_separation", -1.0), ("symmetries", ("oval",)),
            ("rng_seed", -1), ("rng_seed", 1.5),
        ):
            with pytest.raises(ValueError, match=f"^{name} must be"):
                SynthConfig(**{name: value})


class TestVisibility:
    def test_once_per_camera_and_object(self, monkeypatch):
        """``_visible`` runs once per frame for each object and once per frame
        for the background keypoints, not once per frame pair."""
        calls = []

        def counted(*args):
            calls.append(args)
            return visible(*args)

        visible = synth._visible
        monkeypatch.setattr(synth, "_visible", counted)
        cfg = base_cfg(num_frames=6, num_objects=3, trajectory="loop", keypoints_per_pair=20)
        fs, _ = generate(cfg)
        assert fs.keypoint_matches
        assert len(calls) == cfg.num_frames * (cfg.num_objects + 1)

    def test_takes_world_to_camera_pose(self):
        """With the camera's own world-to-camera pose, ``_visible`` keeps the
        points in front of the camera, inside its image and facing it."""
        cam = synth._look_at((2.0, 0.0, 0.0), (0.0, 0.0, 0.0))
        to_cam = synth._euler_exact(invert(cam))
        pts = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [4.0, 0.0, 0.0], [0.0, 50.0, 0.0]])
        normals = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        vis = synth._visible(pts, normals, cam, to_cam, synth.DEFAULT_INTRINSICS)
        assert vis.tolist() == [True, False, False, False]


class TestEulerExactScenes:
    """Problem files are generated from poses whose rotation is exactly
    ``rotation_from_euler(angles)``: a change in how poses compose or invert
    must not change a seed's scene, which the benchmark regenerates."""

    CONFIGS = (
        # the benchmark's 40-frame loop and a 2-frame scene like its pairs
        dict(num_frames=40, trajectory="loop", num_objects=3, keypoints_per_pair=40,
             noise_sigma_depth=0.003, rng_seed=3),
        dict(num_frames=2, num_objects=3, keypoints_per_pair=40, noise_sigma_depth=0.003,
             outlier_fraction=0.10, orbit_span=0.3 * np.pi, rng_seed=5),
    )

    @staticmethod
    def assert_exact(pose):
        assert pose.rotation.tobytes() == rotation_from_euler(pose.angles).tobytes()

    def test_every_generated_pose(self, monkeypatch):
        applied = []

        def checked_apply(pose, pts):
            applied.append(pose)
            return apply_rigid(pose, pts)

        monkeypatch.setattr(synth, "apply_rigid", checked_apply)
        for kwargs in self.CONFIGS:
            cfg = SynthConfig(**kwargs)
            applied.clear()
            fs, gt = generate(cfg)
            if fs.num_frames == 2:
                measure_pair_overlap(fs)  # applies the ground truth to both frames
            assert len(applied) > 2 * cfg.num_frames
            for pose in applied + list(gt) + synth._trajectory(cfg):
                self.assert_exact(pose)


class TestOverlap:
    def test_identical_sets_full(self):
        pts = np.random.default_rng(0).uniform(-1, 1, (500, 3))
        assert overlap(pts, pts) == 100.0

    def test_disjoint_zero(self):
        pts = np.random.default_rng(0).uniform(-1, 1, (100, 3))
        assert overlap(pts, pts + 100.0) == 0.0

    def test_half_grid(self):
        # A = unit grid strip; B covers exactly half of it
        xs = np.arange(100, dtype=float)
        a = np.column_stack([xs, np.zeros(100), np.zeros(100)])
        b = a[:50]
        assert abs(overlap(a, b, radius=0.1) - 50.0) <= 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            overlap(np.zeros((0, 3)), np.zeros((5, 3)))

    def test_measured_overlap_decreases_with_span(self):
        narrow = measure_pair_overlap(generate(base_cfg(orbit_span=0.1)).frameset, 0.02)
        wide = measure_pair_overlap(generate(base_cfg(orbit_span=2.5)).frameset, 0.02)
        assert narrow > wide


class TestPairSuite:
    def test_buckets_hit(self):
        suite = make_pair_suite(
            [(30.0, 100.0)], 2, base_cfg(rng_seed=21), radius=0.02
        )
        assert len(suite) == 2
        for (lo, hi), pct, result in suite:
            assert lo <= pct <= hi
            assert result.frameset.num_frames == 2

    def test_low_bucket_object_only_possible(self):
        cfg = base_cfg(rng_seed=22, keypoints_per_pair=0)
        suite = make_pair_suite([(0.0, 10.0)], 2, cfg, radius=0.02)
        for (lo, hi), pct, result in suite:
            assert pct <= 10.0
            assert not result.frameset.keypoint_matches
            assert result.frameset.observations
