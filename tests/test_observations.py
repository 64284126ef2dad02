import json
import sys
from collections import Counter

import numpy as np
import pytest

from objreg import procrustes
from objreg.geometry import RigidPose
from objreg.joint_solver import register_pair
from objreg.observations import (
    NOC_FILTER,
    Frame,
    FrameSet,
    KeypointMatch,
    ObjectObservation,
    ValidationError,
    load_problem,
    save_problem,
)
from objreg.posegraph import register_sequence
from objreg.synth import SynthConfig, generate


def make_obs(frame=0, det=0, cls=1, n=20, rng=None, **kwargs):
    rng = rng or np.random.default_rng(0)
    defaults = dict(
        noc_points=rng.uniform(-0.5, 0.5, (n, 3)),
        depth_points=rng.uniform(-2, 2, (n, 3)),
        scale_estimate=np.array([1.0, 0.8, 1.2]),
        embedding=rng.normal(size=8),
        symmetry="non_symmetric",
    )
    defaults.update(kwargs)
    return ObjectObservation(frame, det, cls, **defaults)


def minimal_frameset(num_frames=2):
    return FrameSet([Frame(i) for i in range(num_frames)])


def random_frameset(rng):
    k = int(rng.integers(2, 5))
    frames = [Frame(i, None, float(i)) for i in range(k)]
    matches = [
        KeypointMatch(0, 1, rng.uniform(-2, 2, (5, 3)), rng.uniform(-2, 2, (5, 3)))
        for _ in range(int(rng.integers(0, 3)))
    ]
    obs = [make_obs(int(rng.integers(0, k)), d, int(rng.integers(0, 3)), rng=rng) for d in range(int(rng.integers(0, 3)))]
    gt = [RigidPose(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)) for _ in range(k)]
    return FrameSet(frames, matches, obs, gt)


class TestValidation:
    def test_minimal_ok(self, tmp_path):
        fs = minimal_frameset()
        path = tmp_path / "p.json"
        save_problem(fs, path)
        loaded = load_problem(path)
        assert loaded.num_frames == 2
        assert loaded.keypoint_matches == [] and loaded.observations == []

    def test_noc_out_of_range_named(self):
        obs = make_obs(frame=1, det=3)
        obs.noc_points[0, 0] = 0.7
        fs = FrameSet([Frame(0), Frame(1)], observations=[obs])
        with pytest.raises(ValidationError, match="detection_id=3"):
            fs.validate()

    def test_count_mismatch(self):
        obs = make_obs()
        obs.depth_points = obs.depth_points[:-1]
        with pytest.raises(ValidationError, match="count mismatch"):
            FrameSet([Frame(0)], observations=[obs]).validate()

    def test_dangling_frame(self):
        obs = make_obs(frame=5)
        with pytest.raises(ValidationError, match="dangling"):
            FrameSet([Frame(0)], observations=[obs]).validate()

    def test_same_frame_match(self):
        km = KeypointMatch(1, 1, np.zeros((3, 3)), np.zeros((3, 3)))
        with pytest.raises(ValidationError, match="frame_i == frame_j"):
            FrameSet([Frame(0), Frame(1)], [km]).validate()

    def test_non_dense_frames(self):
        with pytest.raises(ValidationError, match="dense"):
            FrameSet([Frame(0), Frame(2)]).validate()

    def test_embedding_length_varies(self):
        a = make_obs(det=0)
        b = make_obs(det=1, embedding=np.zeros(4))
        with pytest.raises(ValidationError, match="embedding length"):
            FrameSet([Frame(0)], observations=[a, b]).validate()

    def test_duplicate_observation_rejected_at_load(self, tmp_path):
        obs = [make_obs(frame=1, det=4), make_obs(frame=1, det=5), make_obs(frame=0, det=4)]
        path = tmp_path / "dup.json"
        save_problem(FrameSet([Frame(0), Frame(1)], observations=obs), path)
        doc = json.loads(path.read_text())
        doc["observations"][1]["detection_id"] = 4
        path.write_text(json.dumps(doc))
        with pytest.raises(
            ValidationError, match=r"observation \(frame=1, detection_id=4\): duplicate"
        ):
            load_problem(path)

    def test_bad_symmetry(self):
        with pytest.raises(ValidationError, match="symmetry"):
            FrameSet([Frame(0)], observations=[make_obs(symmetry="weird")]).validate()

    def test_nonpositive_scale(self):
        for bad in (0.0, np.nan, np.inf):
            with pytest.raises(ValidationError, match="scale"):
                FrameSet(
                    [Frame(0)], observations=[make_obs(scale_estimate=np.array([1.0, bad, 1.0]))]
                ).validate()

    def test_nonfinite_embedding_rejected_at_load(self, tmp_path):
        path = tmp_path / "nan.json"
        save_problem(FrameSet([Frame(0)], observations=[make_obs(det=3)]), path)
        doc = json.loads(path.read_text())
        doc["observations"][0]["embedding"][2] = float("nan")
        path.write_text(json.dumps(doc))
        with pytest.raises(
            ValidationError, match=r"observation \(frame=0, detection_id=3\): non-finite embedding"
        ):
            load_problem(path)


@pytest.fixture
def fit_counts(monkeypatch):
    """kabsch_filter calls per target point set (by bytes), counted at every
    objreg module that looks the function up."""
    counts = Counter()
    real = procrustes.kabsch_filter

    def counting(source, target, cfg=None):
        counts[np.asarray(target).tobytes()] += 1
        return real(source, target, cfg)

    for name, mod in list(sys.modules.items()):
        if name.startswith("objreg") and hasattr(mod, "kabsch_filter"):
            monkeypatch.setattr(mod, "kabsch_filter", counting)
    return counts


class TestNocFit:
    def test_cached_and_none_below_min_pairs(self):
        rng = np.random.default_rng(5)
        noc = rng.uniform(-0.5, 0.5, (NOC_FILTER.min_pairs, 3))
        scale = np.array([1.0, 0.8, 1.2])
        obs = make_obs(noc_points=noc, depth_points=noc * scale + [0.1, 0.2, 2.0], scale_estimate=scale)
        assert obs.noc_fit.num_inliers == NOC_FILTER.min_pairs
        assert obs.noc_fit is obs.noc_fit
        short = make_obs(noc_points=noc[1:], depth_points=obs.depth_points[1:])
        assert short.noc_fit is None

    def test_register_pair_fits_each_observation_at_most_once(self, fit_counts):
        fs, _ = generate(SynthConfig(num_frames=2, num_objects=3, keypoints_per_pair=40,
                                     noise_sigma_depth=0.003, rng_seed=7))
        assert register_pair(fs).success
        fits = [fit_counts[o.depth_points.tobytes()] for o in fs.observations]
        assert max(fits) == 1

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_register_sequence_fits_each_observation_once(self, fit_counts, jobs):
        fs, _ = generate(SynthConfig(num_frames=6, num_objects=2, trajectory="line",
                                     orbit_radius=1.8, keypoints_per_pair=40,
                                     noise_sigma_depth=0.003, rng_seed=44))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the pair-solving threads finely
        try:
            register_sequence(fs, jobs=jobs)
        finally:
            sys.setswitchinterval(interval)
        fits = [fit_counts[o.depth_points.tobytes()] for o in fs.observations]
        assert fits == [1] * len(fs.observations)


class TestSerialization:
    def test_empty_schema_valid(self, tmp_path):
        path = tmp_path / "e.json"
        save_problem(minimal_frameset(), path)
        doc = json.loads(path.read_text())
        assert doc["schema"] == "objreg-problem/1"
        assert doc["keypoint_matches"] == [] and doc["observations"] == []

    def test_byte_stable_after_normalization(self, tmp_path):
        rng = np.random.default_rng(3)
        fs = random_frameset(rng)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_problem(fs, p1)
        save_problem(load_problem(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_value_equality(self, tmp_path):
        rng = np.random.default_rng(12)
        for k in range(100):
            fs = random_frameset(rng)
            path = tmp_path / f"r{k}.json"
            save_problem(fs, path)
            back = load_problem(path)
            assert back.num_frames == fs.num_frames
            for a, b in zip(back.keypoint_matches, fs.keypoint_matches):
                assert np.allclose(a.points_i, b.points_i, rtol=1e-8, atol=1e-12)
                assert np.allclose(a.points_j, b.points_j, rtol=1e-8, atol=1e-12)
            for a, b in zip(back.observations, fs.observations):
                assert (a.frame, a.detection_id, a.class_label, a.symmetry) == (
                    b.frame, b.detection_id, b.class_label, b.symmetry,
                )
                assert np.allclose(a.noc_points, b.noc_points, rtol=1e-8, atol=1e-12)
                assert np.allclose(a.depth_points, b.depth_points, rtol=1e-8, atol=1e-12)
                assert np.allclose(a.embedding, b.embedding, rtol=1e-8, atol=1e-12)
            for a, b in zip(back.ground_truth, fs.ground_truth):
                assert np.allclose(a.angles, b.angles, rtol=1e-8, atol=1e-12)

    def test_nine_significant_digits(self, tmp_path):
        km = KeypointMatch(
            0, 1, np.full((1, 3), 0.123456789), np.full((1, 3), 0.123456789)
        )
        fs = FrameSet([Frame(0), Frame(1)], [km])
        path = tmp_path / "d.json"
        save_problem(fs, path)
        assert load_problem(path).keypoint_matches[0].points_i[0, 0] == 0.123456789

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError, match="malformed"):
            load_problem(path)

    def test_invalid_file_names_record(self, tmp_path):
        fs = minimal_frameset()
        path = tmp_path / "v.json"
        save_problem(fs, path)
        doc = json.loads(path.read_text())
        doc["observations"] = [
            {
                "frame": 0,
                "detection_id": 9,
                "class_label": 0,
                "noc_points": [[0.7, 0, 0]],
                "depth_points": [[0, 0, 1]],
                "scale_estimate": [1, 1, 1],
                "embedding": [0.0],
                "symmetry": "non_symmetric",
            }
        ]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="detection_id=9"):
            load_problem(path)
