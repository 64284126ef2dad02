import copy
import json
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from objreg import observations, procrustes
from objreg.cli import main as cli_main
from objreg.geometry import Intrinsics, RigidPose
from objreg.joint_solver import register_pair
from objreg.observations import (
    NOC_FILTER,
    Frame,
    FrameSet,
    KeypointMatch,
    ObjectObservation,
    ValidationError,
    _fmt,
    _rounded,
    load_problem,
    save_problem,
)
from objreg.posegraph import register_sequence
from objreg.synth import SynthConfig, generate
from reference import ref_hex


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


V1, V2 = "objreg-problem/1", "objreg-problem/2"
POINT_FIELDS = ("points_i", "points_j", "noc_points", "depth_points")
ARRAY_FIELDS = {
    "keypoint_matches": ("points_i", "points_j"),
    "observations": ("noc_points", "depth_points", "scale_estimate", "embedding"),
}


def hex_values(s):
    return np.frombuffer(bytes.fromhex(s), "<f8")


def as_lists(doc, schema):
    """``doc`` as save_problem writes it, with every array field decoded to
    the nested lists of ``_fmt`` numbers an objreg-problem/1 file holds
    (3-number rows for a point field) and its schema set to ``schema``."""
    doc["schema"] = schema
    for key, fields in ARRAY_FIELDS.items():
        for rec in doc[key]:
            for f in fields:
                a = hex_values(rec[f])
                rec[f] = (a.reshape(-1, 3) if f in POINT_FIELDS else a).tolist()
    return doc


def as_hex(doc):
    """``doc`` with each array field that is a list (of numbers or of rows,
    ragged or not) encoded as objreg-problem/2 hex, row after row."""
    for key, fields in ARRAY_FIELDS.items():
        for rec in doc.get(key) or []:
            for f in fields:
                if isinstance(rec.get(f), list):
                    flat = [v for row in rec[f] for v in (row if isinstance(row, list) else [row])]
                    rec[f] = np.array(flat, "<f8").tobytes().hex()
    return doc


def rewrite(path, schema, edit=lambda doc: None):
    """Rewrite the problem file at ``path`` in ``schema`` after ``edit(doc)``
    of its document, whose array fields ``edit`` sees as nested lists (for
    objreg-problem/2 they are encoded again afterwards). Returns what
    ``edit`` returns."""
    doc = as_lists(json.loads(path.read_text()), schema)
    result = edit(doc)
    if schema == V2:
        as_hex(doc)
    path.write_text(json.dumps(doc, sort_keys=True, indent=1))
    return result


def save_as(fs, path, schema):
    """save_problem, then the file rewritten in ``schema``."""
    save_problem(fs, path)
    if schema != V2:
        rewrite(path, schema)


def array_fields(fs):
    return [a for km in fs.keypoint_matches for a in (km.points_i, km.points_j)] + [
        a for o in fs.observations
        for a in (o.noc_points, o.depth_points, o.scale_estimate, o.embedding)
    ]


def test_frame_points_order():
    # a frame's observation depth points in order, then each touching
    # keypoint match's points on that frame's side; empty frames give (0, 3)
    rng = np.random.default_rng(5)
    obs = [make_obs(1, 0, rng=rng), make_obs(0, 1, rng=rng), make_obs(1, 2, n=7, rng=rng)]
    km = [KeypointMatch(0, 1, rng.normal(size=(4, 3)), rng.normal(size=(4, 3))),
          KeypointMatch(2, 1, rng.normal(size=(3, 3)), rng.normal(size=(3, 3))),
          KeypointMatch(0, 2, rng.normal(size=(2, 3)), rng.normal(size=(2, 3)))]
    fs = FrameSet([Frame(i) for i in range(4)], km, obs)
    expected = np.vstack([obs[0].depth_points, obs[2].depth_points, km[0].points_j, km[1].points_j])
    assert np.array_equal(fs.frame_points(1), expected)
    assert fs.frame_points(3).shape == (0, 3)


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

    @pytest.mark.parametrize("bad", [0, 1])
    def test_embedding_rows_rejected_at_load(self, tmp_path, bad):
        """An objreg-problem/1 embedding written as nested rows is rejected,
        naming its record, not read as a longer vector; objreg-problem/2,
        whose arrays are flat bytes, cannot hold one, and save_problem
        refuses to write one."""
        obs = [make_obs(det=d) for d in range(3)]
        message = f"observation (frame=0, detection_id={bad}): embedding of shape (2, 4) is not one row of values"
        path = tmp_path / "rows.json"
        save_problem(FrameSet([Frame(0)], observations=obs), path)

        def edit(doc):
            emb = doc["observations"][bad]["embedding"]
            doc["observations"][bad]["embedding"] = [emb[:4], emb[4:]]

        rewrite(path, V1, edit)
        with pytest.raises(ValidationError) as err:
            load_problem(path)
        assert str(err.value) == message

        save_problem(FrameSet([Frame(0)], observations=obs), path)
        rewrite(path, V2, edit)
        assert [o.embedding.shape for o in load_problem(path).observations] == [(8,)] * 3
        obs[bad].embedding = obs[bad].embedding.reshape(2, 4)
        with pytest.raises(ValidationError) as err:
            save_problem(FrameSet([Frame(0)], observations=obs), tmp_path / "new.json")
        assert str(err.value) == message
        assert not (tmp_path / "new.json").exists()

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

        def edit(doc):
            doc["observations"][0]["embedding"][2] = float("nan")

        rewrite(path, V2, edit)
        with pytest.raises(
            ValidationError, match=r"observation \(frame=0, detection_id=3\): non-finite embedding"
        ):
            load_problem(path)


@lru_cache(maxsize=None)
def valid_pair():
    fs, _ = generate(SynthConfig(num_frames=2, num_objects=2, keypoints_per_pair=40, rng_seed=7))
    return fs


class TestInMemoryValidation:
    """register_pair and register_sequence validate a FrameSet built in
    memory, as load_problem does a file."""

    def test_register_pair_names_bad_observation(self):
        fs = copy.deepcopy(valid_pair())
        obs = fs.observations[0]
        obs.scale_estimate[1] = np.nan
        with pytest.raises(
            ValidationError,
            match=rf"observation \(frame={obs.frame}, detection_id={obs.detection_id}\): .*scale",
        ):
            register_pair(fs)

    def test_register_sequence_names_bad_observation(self):
        fs, _ = generate(SynthConfig(num_frames=4, num_objects=2, trajectory="line",
                                     orbit_radius=1.8, keypoints_per_pair=40, rng_seed=44))
        obs = fs.observations[-1]
        obs.depth_points[3, 0] = np.inf
        with pytest.raises(
            ValidationError,
            match=rf"observation \(frame={obs.frame}, detection_id={obs.detection_id}\): non-finite point",
        ):
            register_sequence(fs)


# index fields set to a value that is not an int: (record list, field, the
# bad value made from the field's valid value v)
NON_INT_FIELDS = [
    ("frames", "index", float),
    ("frames", "index", lambda v: v == 1),
    ("keypoint_matches", "frame_i", float),
    ("keypoint_matches", "frame_j", str),
    ("observations", "frame", float),
    ("observations", "frame", str),
    ("observations", "detection_id", lambda v: [v]),
    ("observations", "class_label", lambda v: v + 0.5),
]
KIND_NAMES = {"frames": "frame", "keypoint_matches": "keypoint match", "observations": "observation"}


class TestNonIntegerIndex:
    """A frame index, a keypoint match's frames and an observation's frame,
    detection id and class label must be ints; the last record of the kind
    is named by position, before any other check of its kind runs."""

    @pytest.mark.parametrize("records, field, bad", NON_INT_FIELDS)
    def test_load_problem(self, tmp_path, records, field, bad):
        path = tmp_path / "p.json"
        save_problem(valid_pair(), path)
        doc = json.loads(path.read_text())
        rec = doc[records][-1]
        value = rec[field] = bad(rec[field])
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError) as err:
            load_problem(path)
        k = len(doc[records]) - 1
        assert str(err.value) == f"{KIND_NAMES[records]} {k}: {field} {value!r} is not an integer"

    @pytest.mark.parametrize("records, field, bad", NON_INT_FIELDS)
    def test_register_pair(self, records, field, bad):
        fs = copy.deepcopy(valid_pair())
        rec = getattr(fs, records)[-1]
        value = bad(getattr(rec, field))
        setattr(rec, field, value)
        with pytest.raises(ValidationError) as err:
            register_pair(fs)
        k = len(getattr(fs, records)) - 1
        assert str(err.value) == f"{KIND_NAMES[records]} {k}: {field} {value!r} is not an integer"

    def test_numpy_ints_accepted(self):
        fs = copy.deepcopy(valid_pair())
        for records, field, _ in NON_INT_FIELDS:
            for rec in getattr(fs, records):
                setattr(rec, field, np.int64(getattr(rec, field)))
        assert register_pair(fs).success


non_finite = st.sampled_from([np.nan, np.inf, -np.inf])
corruptions = st.one_of(
    st.tuples(
        st.just("set"),
        st.sampled_from(
            ["points_i", "points_j", "noc_points", "depth_points", "scale_estimate", "embedding"]
        ),
        non_finite,
    ),
    st.tuples(st.just("set"), st.just("scale_estimate"), st.floats(-2.0, 0.0)),
    st.tuples(
        st.just("drop"), st.sampled_from(["points_j", "noc_points", "depth_points"]), st.integers(1, 5)
    ),
)


class TestCorruptedInput:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(corruptions, st.integers(0, 10**6), st.integers(0, 10**6))
    def test_register_pair_raises_validation_error(self, corruption, record, element):
        """NaN/inf in points, scales or embeddings, a non-positive scale or
        mismatched point counts end in ValidationError, never in a raw numpy
        or scipy exception."""
        action, name, value = corruption
        fs = copy.deepcopy(valid_pair())
        records = fs.keypoint_matches if name.startswith("points_") else fs.observations
        rec = records[record % len(records)]
        arr = getattr(rec, name)
        if action == "set":
            arr.flat[element % arr.size] = value
        else:
            setattr(rec, name, arr[:-value])
        with pytest.raises(ValidationError):
            register_pair(fs)


# every corruption kind of test_register_pair_raises_validation_error, as
# (action, field, value, message after the record's name)
CORRUPTION_MESSAGES = [
    ("set", "points_i", np.nan, "non-finite point"),
    ("set", "points_j", np.inf, "non-finite point"),
    ("set", "noc_points", -np.inf, "non-finite point"),
    ("set", "depth_points", np.nan, "non-finite point"),
    ("set", "scale_estimate", np.inf, "non-positive or non-finite scale estimate"),
    ("set", "scale_estimate", -0.5, "non-positive or non-finite scale estimate"),
    ("set", "scale_estimate", 0.0, "non-positive or non-finite scale estimate"),
    ("set", "embedding", np.nan, "non-finite embedding"),
    ("drop", "points_j", 2, "point count mismatch"),
    ("drop", "noc_points", 1, "NOC/depth count mismatch"),
    ("drop", "depth_points", 3, "NOC/depth count mismatch"),
]


def two_match_pair():
    """valid_pair() with its keypoint match split into two records."""
    fs = copy.deepcopy(valid_pair())
    km = fs.keypoint_matches[0]
    fs.keypoint_matches = [
        KeypointMatch(0, 1, km.points_i[:20], km.points_j[:20]),
        KeypointMatch(0, 1, km.points_i[20:], km.points_j[20:]),
    ]
    return fs


def bad_records(fs, field):
    """The two records a corruption of ``field`` hits (the later one first)
    and the name the error gives the earlier one."""
    if field.startswith("points_"):
        return [1, 0], "keypoint match 0"
    obs = fs.observations[1]
    return [3, 1], f"observation (frame={obs.frame}, detection_id={obs.detection_id})"


class TestValidationMessage:
    """With two bad records of one kind, the error names the first in file
    order, with the message of its own first failed check."""

    @pytest.mark.parametrize("action, field, value, message", CORRUPTION_MESSAGES)
    def test_register_pair(self, action, field, value, message):
        fs = two_match_pair()
        records = fs.keypoint_matches if field.startswith("points_") else fs.observations
        picks, name = bad_records(fs, field)
        for k in picks:
            arr = getattr(records[k], field)
            if action == "set":
                arr.flat[k % arr.size] = value
            else:
                setattr(records[k], field, arr[:-value])
        with pytest.raises(ValidationError) as err:
            register_pair(fs)
        assert str(err.value) == f"{name}: {message}"

    @pytest.mark.parametrize("action, field, value, message", CORRUPTION_MESSAGES)
    def test_load_problem(self, tmp_path, action, field, value, message):
        self.check_load_problem(tmp_path, V2, action, field, value, message)

    @pytest.mark.parametrize("action, field, value, message", CORRUPTION_MESSAGES)
    def test_load_problem_v1(self, tmp_path, action, field, value, message):
        self.check_load_problem(tmp_path, V1, action, field, value, message)

    @staticmethod
    def check_load_problem(tmp_path, schema, action, field, value, message):
        """The corruption, made to the saved file's arrays (for
        objreg-problem/2 to the decoded rows, encoded again), is named as
        register_pair names it in memory."""
        fs = two_match_pair()
        path = tmp_path / "p.json"
        save_problem(fs, path)
        key = "keypoint_matches" if field.startswith("points_") else "observations"
        picks, name = bad_records(fs, field)

        def edit(doc):
            for k in picks:
                rows = doc[key][k][field]
                if action == "drop":
                    del rows[-value:]
                elif isinstance(rows[0], list):
                    rows[k % len(rows)][k % 3] = value
                else:
                    rows[k % len(rows)] = value

        rewrite(path, schema, edit)
        with pytest.raises(ValidationError) as err:
            load_problem(path)
        assert str(err.value) == f"{name}: {message}"

    def test_record_order_before_check_order(self):
        """A later record failing an earlier check does not win over an
        earlier record failing a later one."""
        fs = two_match_pair()
        fs.observations[1].embedding[0] = np.nan
        fs.observations[2].depth_points = fs.observations[2].depth_points[:-1]
        fs.observations[3].frame = 5
        with pytest.raises(ValidationError) as err:
            register_pair(fs)
        assert str(err.value) == "observation (frame=0, detection_id=1): non-finite embedding"


@pytest.fixture
def fit_counts(monkeypatch):
    """NOC fits per observation, counted by depth point bytes at the batched
    filter that fit_noc (and so every noc_fit) runs through; the batches
    under the key "batches"."""
    counts = Counter()
    real = observations.kabsch_filter_sets

    def counting(sources, targets, cfg=None):
        counts["batches"] += 1
        for target in targets:
            counts[np.asarray(target).tobytes()] += 1
        return real(sources, targets, cfg)

    monkeypatch.setattr(observations, "kabsch_filter_sets", counting)
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

    def test_batch_equals_lone_filter(self, fit_counts):
        """fit_noc over a whole set gives each observation kabsch_filter's
        fit of it alone, None exactly where that raises, in one batch; a
        fit already cached or set by hand is left alone."""
        fs, _ = generate(SynthConfig(num_frames=3, num_objects=3, keypoints_per_pair=40,
                                     noise_sigma_depth=0.003, rng_seed=11))
        obs = fs.observations
        obs[1].noc_points, obs[1].depth_points = obs[1].noc_points[:14], obs[1].depth_points[:14]
        line = np.linspace(-0.4, 0.4, 20)[:, None] * [1.0, 0.5, 0.25]
        obs[2].noc_points, obs[2].depth_points = line, line + [0.0, 0.0, 2.0]
        obs[3].depth_points[::5] += 0.5  # a fifth of its pairs are gross outliers
        kept = obs[4].noc_fit
        obs[5].noc_fit = None
        fit_counts.clear()
        observations.fit_noc(obs)
        assert fit_counts.pop("batches") == 1
        assert sum(fit_counts.values()) == len(obs) - 2
        assert obs[4].noc_fit is kept and obs[5].noc_fit is None
        for o in obs[:4] + obs[6:]:
            try:
                want = procrustes.kabsch_filter(
                    o.noc_points * o.scale_estimate, o.depth_points, NOC_FILTER
                )
            except procrustes.DegenerateAlignmentError:
                want = None
            if want is None:
                assert o.noc_fit is None
                continue
            assert np.array_equal(o.noc_fit.inlier_flags, want.inlier_flags)
            assert np.abs(o.noc_fit.pose.rotation - want.pose.rotation).max() <= 1e-12
            assert np.abs(o.noc_fit.pose.translation - want.pose.translation).max() <= 1e-12
        assert obs[1].noc_fit is None and obs[2].noc_fit is None
        assert 0 < obs[3].noc_fit.num_inliers < len(obs[3])

    def test_register_pair_fits_each_observation_at_most_once(self, fit_counts):
        fs, _ = generate(SynthConfig(num_frames=2, num_objects=3, keypoints_per_pair=40,
                                     noise_sigma_depth=0.003, rng_seed=7))
        assert register_pair(fs).success
        fits = [fit_counts[o.depth_points.tobytes()] for o in fs.observations]
        assert max(fits) == 1 and fit_counts["batches"] == 1

    def test_register_sequence_fits_each_observation_once(self, fit_counts):
        fs, _ = generate(SynthConfig(num_frames=6, num_objects=2, trajectory="line",
                                     orbit_radius=1.8, keypoints_per_pair=40,
                                     noise_sigma_depth=0.003, rng_seed=44))
        register_sequence(fs)
        fits = [fit_counts[o.depth_points.tobytes()] for o in fs.observations]
        assert fits == [1] * len(fs.observations) and fit_counts["batches"] == 1


class TestSerialization:
    """Files in the schema save_problem writes; TestSerializationV1 runs the
    same tests on objreg-problem/1 files."""

    schema = V2

    def test_empty_schema_valid(self, tmp_path):
        path = tmp_path / "e.json"
        save_as(minimal_frameset(), path, self.schema)
        doc = json.loads(path.read_text())
        assert doc["schema"] == self.schema
        assert doc["keypoint_matches"] == [] and doc["observations"] == []
        assert load_problem(path).num_frames == 2

    def test_byte_stable_after_normalization(self, tmp_path):
        """save(load(f)) is, byte for byte, what save_problem wrote of the
        FrameSet that f was written from."""
        rng = np.random.default_rng(3)
        fs = random_frameset(rng)
        p0, p1, p2 = tmp_path / "saved.json", tmp_path / "a.json", tmp_path / "b.json"
        save_problem(fs, p0)
        save_as(fs, p1, self.schema)
        save_problem(load_problem(p1), p2)
        assert p0.read_bytes() == p2.read_bytes()

    def test_round_trip_value_equality(self, tmp_path):
        rng = np.random.default_rng(12)
        for k in range(100):
            fs = random_frameset(rng)
            path = tmp_path / f"r{k}.json"
            save_as(fs, path, self.schema)
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
        save_as(fs, path, self.schema)
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

        def edit(doc):
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

        rewrite(path, self.schema, edit)
        with pytest.raises(ValidationError, match="detection_id=9"):
            load_problem(path)


class TestSerializationV1(TestSerialization):
    schema = V1


class TestPointWidth:
    """Point arrays whose rows are not 3 wide, and scale estimates without 3
    values, are rejected with the record named, in memory and in files of
    both schemas; (N, 3) and empty point arrays are accepted."""

    def test_in_memory(self):
        empty = KeypointMatch(0, 1, [], np.zeros((0, 2)))
        assert empty.points_i.shape == empty.points_j.shape == (0, 3)
        FrameSet([Frame(0), Frame(1)], [empty]).validate()
        km = KeypointMatch(0, 1, np.zeros((6, 2)), np.zeros((6, 2)))
        assert km.points_i.shape == (6, 2)
        with pytest.raises(ValidationError) as err:
            FrameSet([Frame(0), Frame(1)], [empty, km]).validate()
        assert str(err.value) == "keypoint match 1: points are not rows of 3 values"
        rng = np.random.default_rng(2)
        for bad, message in [
            (dict(depth_points=rng.uniform(-2, 2, (30, 2))), "points are not rows of 3 values"),
            (dict(noc_points=rng.uniform(-0.5, 0.5, 60)), "points are not rows of 3 values"),
            (dict(scale_estimate=np.ones(4)), "scale estimate does not hold 3 values"),
            (dict(scale_estimate=np.ones((1, 3))), "scale estimate does not hold 3 values"),
        ]:
            with pytest.raises(ValidationError) as err:
                FrameSet([Frame(0)], observations=[make_obs(det=2, **bad)]).validate()
            assert str(err.value) == f"observation (frame=0, detection_id=2): {message}"

    @pytest.mark.parametrize("schema", [V1, V2])
    @pytest.mark.parametrize("rows", ["pairs", "flat"])
    def test_point_rows_in_file(self, tmp_path, schema, rows):
        """keypoint_matches[0].points_i (40 points) rewritten as 60 rows of
        2 numbers, or as one flat list of 120: objreg-problem/1 rejects
        both, and in objreg-problem/2, where the bytes are flat, both are
        the same valid string."""
        fs = valid_pair()
        assert len(fs.keypoint_matches[0]) == 40
        path = tmp_path / "p.json"
        save_problem(fs, path)
        saved = load_problem(path).keypoint_matches[0].points_i

        def edit(doc):
            flat = [v for row in doc["keypoint_matches"][0]["points_i"] for v in row]
            doc["keypoint_matches"][0]["points_i"] = (
                [flat[i:i + 2] for i in range(0, len(flat), 2)] if rows == "pairs" else flat
            )

        rewrite(path, schema, edit)
        if schema == V2:
            assert np.array_equal(load_problem(path).keypoint_matches[0].points_i, saved)
            return
        with pytest.raises(ValidationError) as err:
            load_problem(path)
        assert str(err.value) == "keypoint match 0: points are not rows of 3 values"

    def test_hex_not_whole_points(self, tmp_path):
        path = tmp_path / "p.json"
        save_problem(valid_pair(), path)
        doc = json.loads(path.read_text())
        doc["keypoint_matches"][0]["points_i"] = doc["keypoint_matches"][0]["points_i"][:64]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError) as err:
            load_problem(path)
        assert str(err.value) == (
            "keypoint match 0: malformed record (ValueError: 32 bytes are not whole points)"
        )

    @pytest.mark.parametrize("schema", [V1, V2])
    @pytest.mark.parametrize("size", [2, 4])
    def test_scale_values_in_file(self, tmp_path, schema, size):
        fs = valid_pair()
        path = tmp_path / "p.json"
        save_problem(fs, path)

        def edit(doc):
            doc["observations"][2]["scale_estimate"] = [0.5] * size

        rewrite(path, schema, edit)
        with pytest.raises(ValidationError) as err:
            load_problem(path)
        assert str(err.value) == (
            "observation (frame=1, detection_id=0): scale estimate does not hold 3 values"
        )


def extreme_values():
    """Finite floats over the whole range: 1e-300 to 1e300 of both signs,
    subnormals, signed zeros, ties of 9-digit rounding (exact binary values
    whose 10th significant digit is a final 5) and plain values."""
    rng = np.random.default_rng(8)
    ties = [1234567885.0, 1234567895.0, -1234567885.0, 9999999995.0, 12345678.25]
    values = np.concatenate([
        np.logspace(-300, 300, 61), -np.logspace(-300, 300, 61),
        [5e-324, -5e-324, 1e-310, -2.5e-320, 2.2250738585072014e-308 / 3, 0.0, -0.0],
        ties,
        rng.normal(size=50) * 10.0 ** rng.integers(-8, 8, 50),
    ])
    return np.concatenate([values, np.zeros(-len(values) % 3)])


def extreme_frameset():
    v = extreme_values()
    rng = np.random.default_rng(9)
    points = v.reshape(-1, 3)
    obs = ObjectObservation(
        0, 0, 1, rng.uniform(-0.5, 0.5, points.shape), points[::-1],
        np.array([5e-324, 1e-300, 1e300]), v,
    )
    return FrameSet([Frame(0), Frame(1)], [KeypointMatch(0, 1, points, -points)], [obs])


class TestFormats:
    def test_values_equal_fmt(self, tmp_path):
        """A saved and loaded value is _fmt of the value, bit for bit."""
        fs = extreme_frameset()
        path = tmp_path / "x.json"
        save_problem(fs, path)
        for a, b in zip(array_fields(load_problem(path)), array_fields(fs)):
            want = np.array([_fmt(v) for v in b.ravel().tolist()]).reshape(b.shape)
            assert a.shape == b.shape
            assert np.array_equal(a.view(np.uint64), want.view(np.uint64))
        assert _fmt(1234567885.0) == 1234567880.0 and _fmt(9999999995.0) == 1e10

    def test_fields_equal_reference_hex(self, tmp_path):
        """Each array field of a saved file is its per-value reference hex."""
        rng = np.random.default_rng(5)
        for fs in [extreme_frameset(), valid_pair()] + [random_frameset(rng) for _ in range(5)]:
            path = tmp_path / "p.json"
            save_problem(fs, path)
            doc = json.loads(path.read_text())
            records = {"keypoint_matches": fs.keypoint_matches, "observations": fs.observations}
            for key, fields in ARRAY_FIELDS.items():
                assert len(doc[key]) == len(records[key])
                for rec, orig in zip(doc[key], records[key]):
                    for f in fields:
                        assert rec[f] == ref_hex(getattr(orig, f))

    def test_v1_and_v2_load_identical(self, tmp_path):
        """The objreg-problem/1 and /2 files of one FrameSet load to
        bit-identical arrays."""
        rng = np.random.default_rng(4)
        for k, fs in enumerate([extreme_frameset(), valid_pair()]
                               + [random_frameset(rng) for _ in range(10)]):
            p1, p2 = tmp_path / f"v1_{k}.json", tmp_path / f"v2_{k}.json"
            save_as(fs, p1, V1)
            save_as(fs, p2, V2)
            a, b = array_fields(load_problem(p1)), array_fields(load_problem(p2))
            assert len(a) == len(b) == len(array_fields(fs))
            for x, y in zip(a, b):
                assert x.shape == y.shape and x.tobytes() == y.tobytes()

    @pytest.mark.parametrize("schema", [V1, V2])
    def test_loaded_arrays_writable(self, tmp_path, schema):
        path = tmp_path / "p.json"
        save_as(valid_pair(), path, schema)
        for a in array_fields(load_problem(path)):
            a *= 2.0
            a.flat[0] = 0.25
            assert a.flat[0] == 0.25

    def test_non_utf8_file_malformed(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_bytes(b'{"schema": "\xff"}')
        with pytest.raises(ValidationError, match="malformed JSON"):
            load_problem(path)

    def test_register_pair_report_same_for_both_schemas(self, tmp_path):
        """``objreg register-pair`` reports the same for the /1 and /2
        files of one scene, apart from the problem path."""
        docs = []
        for schema in (V1, V2):
            problem, report = tmp_path / f"{schema[-1]}.json", tmp_path / f"r{schema[-1]}.json"
            save_as(valid_pair(), problem, schema)
            assert cli_main(["register-pair", "--problem", str(problem), "--out", str(report)]) == 0
            docs.append(json.loads(report.read_text()))
        assert docs[0]["success"] and docs[0]["problem"] != docs[1]["problem"]
        assert {**docs[0], "problem": None} == {**docs[1], "problem": None}


def assert_rounded_equals_fmt(values):
    x = np.asarray(values, dtype=float)
    want = np.array([_fmt(v) for v in x.ravel().tolist()]).reshape(x.shape)
    got = _rounded(x)
    assert got.shape == x.shape
    bad = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
    assert not bad.size, [(x.flat[i], got.flat[i], want.flat[i]) for i in bad[:5]]


def near(values, steps=3):
    """``values`` and their ``steps`` nearest doubles on either side."""
    out = [np.asarray(values, dtype=float)]
    for direction in (np.inf, -np.inf):
        v = out[0]
        for _ in range(steps):
            v = np.nextafter(v, direction)
            out.append(v)
    return np.concatenate(out)


class TestRounded:
    """``_rounded`` is ``_fmt`` of each value, bit for bit."""

    def test_ties(self):
        ties = [1234567885.0, 9999999995.0, 1234567895.0, 12345678.25, 0.125, 1.5e-5, 2.5e13]
        assert_rounded_equals_fmt(near(np.concatenate([ties, np.negative(ties)])))

    def test_scaled_fractions_near_half(self):
        """Values whose scaled mantissa is within about 1e-5 of a .5 tie,
        on both sides of the 1e-6 guard, at many decades."""
        rng = np.random.default_rng(3)
        mantissa = rng.integers(10**8, 10**9, 200) + 0.5
        offsets = np.array([0.0, 1e-8, 1e-7, 5e-7, 9e-7, 1e-6, 1.1e-6, 2e-6, 5e-6, 1e-5])
        scaled = (mantissa[:, None] + np.concatenate([offsets, -offsets])).ravel()
        for k in range(-14, 23):
            values = scaled / 10.0**k if k >= 0 else scaled * 10.0**-k
            assert_rounded_equals_fmt(values)

    def test_decade_edges(self):
        edges = [9.9999999995, 999999999.5, 1e8, 1e9, 1e22, 1e23, 99999999.95, 0.99999999995]
        powers = [10.0**e for e in range(-30, 31)]
        values = near(np.concatenate([edges, powers]))
        assert_rounded_equals_fmt(np.concatenate([values, -values]))

    @pytest.mark.parametrize("off", [-1.0, 1.0])
    def test_log10_off_by_one(self, monkeypatch, off):
        """A log10 one decade off, either way, still gives ``_fmt``: the
        values it misplaces go through ``_fmt`` itself."""
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda x: log10(x) + off)
        rng = np.random.default_rng(12)
        values = np.exp(rng.uniform(np.log(1e-12), np.log(1e12), 2000))
        assert_rounded_equals_fmt(near(np.concatenate([values, [10.0**e for e in range(-12, 13)]])))

    def test_extremes(self):
        values = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1.7976931348623157e308,
                  -1.7976931348623157e308, 1e30, 1e-30, -1e30, -1e-30, 2.2250738585072014e-308]
        assert_rounded_equals_fmt(values)
        assert np.signbit(_rounded(np.array([-0.0])))[0]

    def test_non_finite(self):
        got = _rounded(np.array([np.inf, -np.inf, np.nan]))
        assert got[0] == np.inf and got[1] == -np.inf and np.isnan(got[2])

    def test_random_values(self):
        rng = np.random.default_rng(11)
        n = 100_000
        values = np.exp(rng.uniform(np.log(1e-12), np.log(1e12), n)) * rng.choice([-1.0, 1.0], n)
        assert_rounded_equals_fmt(values.reshape(-1, 4))
        assert_rounded_equals_fmt(extreme_values())

    def test_empty(self):
        assert _rounded(np.zeros(0)).shape == (0,)

    def test_generated_scene_needs_no_fallback(self, monkeypatch):
        """Every array value of a generated scene takes the vectorized path:
        ``_rounded`` calls ``_fmt`` for none of them."""
        fs = generate(SynthConfig(num_frames=3, num_objects=2, noise_sigma_depth=0.003,
                                  outlier_fraction=0.1, rng_seed=3)).frameset
        values = np.concatenate(array_fields(fs), axis=None)
        calls = []
        monkeypatch.setattr(observations, "_fmt", lambda v: calls.append(v) or _fmt(v))
        assert_rounded_equals_fmt(values)
        assert calls == []


# corruptions of a saved problem document, made to its arrays as nested
# lists: (kind, record list, field)
FILE_CORRUPTIONS = st.one_of(
    st.tuples(st.just("valid"), st.just(None), st.just(None)),
    st.tuples(
        st.just("non_finite"),
        st.sampled_from([
            ("keypoint_matches", "points_i"), ("keypoint_matches", "points_j"),
            ("observations", "noc_points"), ("observations", "depth_points"),
            ("observations", "scale_estimate"), ("observations", "embedding"),
            ("frames", "timestamp"), ("frames", "fx"),
            ("ground_truth", "angles"), ("ground_truth", "translation"),
        ]),
        non_finite,
    ),
    st.tuples(
        st.just("drop_row"),
        st.sampled_from([
            ("keypoint_matches", "points_j"), ("observations", "noc_points"),
            ("observations", "depth_points"), ("observations", "scale_estimate"),
            ("ground_truth", None),
        ]),
        st.just(None),
    ),
    st.tuples(
        st.just("ragged_row"),
        st.sampled_from([("keypoint_matches", "points_i"), ("observations", "depth_points")]),
        st.just(None),
    ),
    st.tuples(
        st.just("narrow_rows"),  # every row loses its z
        st.sampled_from([(key, f) for key, fields in ARRAY_FIELDS.items() for f in fields
                         if f in POINT_FIELDS]),
        st.just(None),
    ),
    st.tuples(st.just("schema"), st.just(None), st.sampled_from(["objreg-problem/3", None, 1, "drop"])),
    st.tuples(
        st.just("dangling"),
        st.sampled_from([
            ("keypoint_matches", "frame_i"), ("keypoint_matches", "frame_j"),
            ("observations", "frame"),
        ]),
        st.sampled_from([-1, 0, 3]),  # -1, or K + this
    ),
    st.tuples(
        st.just("missing_key"),
        st.sampled_from([
            ("frames", "index"), ("keypoint_matches", "points_j"),
            ("observations", "frame"), ("observations", "embedding"),
            ("observations", "symmetry"), ("ground_truth", "translation"),
            (None, "observations"),
        ]),
        st.just(None),
    ),
)


def corrupt(doc, corruption, pick):
    """Apply one corruption to a saved problem document. Returns a regex for
    the name of the corrupted record, or None when the document is still
    valid (also when it has no record of the chosen kind)."""
    kind, target, value = corruption
    if kind == "valid":
        return None
    if kind == "schema":
        if value == "drop":
            del doc["schema"]
        else:
            doc["schema"] = value
        return "schema"
    records, key = target
    if records is None:
        del doc[key]
        return key
    if not doc[records]:
        return None
    k = pick % len(doc[records])
    rec = doc[records][k]
    if kind == "non_finite":
        if key == "fx":
            rec["intrinsics"]["fx"] = value
        elif key == "timestamp":
            rec["timestamp"] = value
        else:
            arr = rec[key]
            row = arr[pick % len(arr)]
            if isinstance(row, list):
                row[pick % 3] = value
            else:
                arr[pick % len(arr)] = value
    elif kind == "drop_row":
        if records == "ground_truth":
            doc["ground_truth"].pop(k)
        else:
            rec[key].pop(pick % len(rec[key]))
    elif kind == "ragged_row":
        rec[key][pick % len(rec[key])].pop()
    elif kind == "dangling":
        rec[key] = -1 if value == -1 else len(doc["frames"]) + value
    elif kind == "missing_key":
        del rec[key]
    elif kind == "narrow_rows":
        rec[key] = [row[:2] for row in rec[key]]
    return record_name(records, k, rec)


def record_name(records, k, rec):
    """A regex for the name an error gives record ``k`` of ``records``."""
    if records == "observations":  # named by position, or by its ids once parsed
        return rf"observation ({k}:|\(frame={rec.get('frame')}, detection_id={rec.get('detection_id')}\))"
    return {"frames": rf"frame {k}\b", "keypoint_matches": rf"keypoint match {k}\b"}.get(
        records, records
    )


# corruptions of an objreg-problem/2 document's hex strings:
# (kind, record list, field)
HEX_KINDS = ("non_hex", "odd_length", "nested_list", "not_whole_points")
HEX_CORRUPTIONS = st.one_of(
    st.tuples(
        st.sampled_from(HEX_KINDS[:3]),
        st.sampled_from([(key, f) for key, fields in ARRAY_FIELDS.items() for f in fields]),
        st.just(None),
    ),
    st.tuples(
        st.just("not_whole_points"),
        st.sampled_from([(key, f) for key, fields in ARRAY_FIELDS.items() for f in fields
                         if f in POINT_FIELDS]),
        st.just(None),
    ),
)


def corrupt_hex(doc, corruption, pick):
    """Apply one of HEX_CORRUPTIONS to an objreg-problem/2 document; returns
    what ``corrupt`` does."""
    kind, (records, key), _ = corruption
    if not doc[records]:
        return None
    k = pick % len(doc[records])
    rec = doc[records][k]
    s = rec[key]
    if kind == "non_hex":
        i = pick % (len(s) + 1)
        rec[key] = s[:i] + "g" + s[i + 1:]
    elif kind == "odd_length":
        rec[key] = s + "0"
    elif kind == "not_whole_points":
        rec[key] = s + 8 * "00"  # one more float64
    elif kind == "nested_list":
        a = hex_values(s)
        rec[key] = (a.reshape(-1, 3) if key in POINT_FIELDS else a).tolist()
    return record_name(records, k, rec)


class TestLoadProblemFiles:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(0, 10**6), st.one_of(FILE_CORRUPTIONS, HEX_CORRUPTIONS),
           st.integers(0, 10**6))
    def test_file_loads_or_names_bad_record(self, tmp_path_factory, seed, corruption, pick):
        """A problem file written by save_problem, then corrupted (NaN/inf,
        a dropped, ragged or 2-wide row, a bad schema, a dangling frame
        index, a missing key; or a hex string with a non-hex character, an
        odd length or a byte count that is not whole points, or a nested
        list in its place), loads or raises a ValidationError naming the
        corrupted record, never a raw numpy, scipy or KeyError exception."""
        check_file_corruption(tmp_path_factory, V2, seed, corruption, pick)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(0, 10**6), FILE_CORRUPTIONS, st.integers(0, 10**6))
    def test_v1_file_loads_or_names_bad_record(self, tmp_path_factory, seed, corruption, pick):
        """As test_file_loads_or_names_bad_record, for objreg-problem/1."""
        check_file_corruption(tmp_path_factory, V1, seed, corruption, pick)


def check_file_corruption(tmp_path_factory, schema, seed, corruption, pick):
    rng = np.random.default_rng(seed)
    fs = random_frameset(rng)
    for f in fs.frames:
        f.intrinsics = Intrinsics(500.0, 500.0, 320.0, 240.0, 640, 480)
    path = tmp_path_factory.mktemp("files") / "p.json"
    save_problem(fs, path)
    if corruption[0] in HEX_KINDS:
        doc = json.loads(path.read_text())
        expected = corrupt_hex(doc, corruption, pick)
        path.write_text(json.dumps(doc))
    else:
        expected = rewrite(path, schema, lambda doc: corrupt(doc, corruption, pick))
    if expected is None:
        assert load_problem(path).num_frames == fs.num_frames
        return
    with pytest.raises(ValidationError, match=expected):
        load_problem(path)
