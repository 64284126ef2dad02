"""Per-frame solver inputs and their JSON serialization.

A problem file carries frames, keypoint matches (already back-projected to
camera-local 3D) and object observations (paired canonical/depth points with
class, scale, embedding and symmetry labels). The format is versioned as
``objreg-problem/2`` and written in a canonical form (sorted keys, every
float rounded to 9 significant digits) so files are byte-stable. Scalars
are JSON numbers; each float array field of a keypoint match or an
observation is one string, the hex of its row-major little-endian float64
bytes, which loads at array speed. ``objreg-problem/1`` files, which hold
those arrays as nested lists of numbers, are still read; saving a loaded
one converts it.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .geometry import Intrinsics, RigidPose, _is_int
from .procrustes import (
    AlignmentResult,
    DegenerateAlignmentError,
    FilterConfig,
    kabsch_filter_sets,
)

SCHEMA_VERSION = "objreg-problem/2"

SYMMETRY_CLASSES = ("round", "square", "rectangle", "non_symmetric")

# Intra-frame NOC-depth filter: an observation counts only with at least
# min_pairs survivors of the 0.20 m Kabsch filter.
NOC_FILTER = FilterConfig(0.20, min_pairs=15)

__all__ = [
    "KeypointMatch",
    "ObjectObservation",
    "FrameSet",
    "ValidationError",
    "fit_noc",
    "load_problem",
    "save_problem",
    "SYMMETRY_CLASSES",
    "SCHEMA_VERSION",
    "NOC_FILTER",
]


class ValidationError(ValueError):
    """A problem file violates a structural invariant."""


def _points(a) -> np.ndarray:
    """``a`` as a float array, shaped (0, 3) when empty. Any other shape is
    kept as it is, for ``FrameSet.validate`` to reject."""
    a = np.asarray(a, dtype=float)
    return a.reshape(0, 3) if a.size == 0 else a


@dataclass
class KeypointMatch:
    """A matched 3D keypoint pair between two frames (camera-local points)."""

    frame_i: int
    frame_j: int
    points_i: np.ndarray  # (N, 3) camera-local, meters
    points_j: np.ndarray  # (N, 3)

    def __post_init__(self):
        self.points_i = _points(self.points_i)
        self.points_j = _points(self.points_j)

    def __len__(self):
        return len(self.points_i)


@dataclass
class ObjectObservation:
    """One detected object in one frame with NOC-depth correspondences."""

    frame: int
    detection_id: int
    class_label: int
    noc_points: np.ndarray  # (N, 3) in [-0.5, 0.5]^3
    depth_points: np.ndarray  # (N, 3) camera-local, meters
    scale_estimate: np.ndarray  # (3,) positive
    embedding: np.ndarray  # (D,)
    symmetry: str = "non_symmetric"

    def __post_init__(self):
        self.noc_points = _points(self.noc_points)
        self.depth_points = _points(self.depth_points)
        self.scale_estimate = np.asarray(self.scale_estimate, dtype=float)
        self.embedding = np.asarray(self.embedding, dtype=float)

    def __len__(self):
        return len(self.noc_points)

    @cached_property
    def noc_fit(self) -> AlignmentResult | None:
        """Kabsch fit of the scaled NOC points onto the depth points under
        NOC_FILTER, or None when too few pairs survive or the geometry is
        degenerate. Computed once and cached on the observation, by
        :func:`fit_noc` (alone here unless a batch fitted it first)."""
        fit_noc([self])
        return self.__dict__["noc_fit"]


def fit_noc(observations) -> None:
    """Fit the ``noc_fit`` of every observation that has none cached, in one
    batched Kabsch filter over all of them (``kabsch_filter_sets``). A fit
    already cached, or set by hand, is left alone."""
    todo = [o for o in observations if "noc_fit" not in o.__dict__]
    if not todo:
        return
    fits = kabsch_filter_sets(
        [o.noc_points * o.scale_estimate for o in todo], [o.depth_points for o in todo], NOC_FILTER
    )
    for o, fit in zip(todo, fits):
        o.__dict__["noc_fit"] = None if isinstance(fit, DegenerateAlignmentError) else fit


@dataclass
class Frame:
    index: int
    intrinsics: Intrinsics | None = None
    timestamp: float | None = None


@dataclass
class FrameSet:
    """All solver inputs for one registration problem."""

    frames: list[Frame]
    keypoint_matches: list[KeypointMatch] = field(default_factory=list)
    observations: list[ObjectObservation] = field(default_factory=list)
    ground_truth: list[RigidPose] | None = None

    @property
    def num_frames(self) -> int:
        return len(self.frames)

    def observations_in_frame(self, frame: int) -> list[ObjectObservation]:
        return [o for o in self.observations if o.frame == frame]

    def frame_points(self, frame: int) -> np.ndarray:
        """A frame's camera-local points, (N, 3): the depth points of its
        observations in order, then the points of each keypoint match that
        touches it."""
        pts = [o.depth_points for o in self.observations_in_frame(frame)]
        for km in self.keypoint_matches:
            if km.frame_i == frame:
                pts.append(km.points_i)
            elif km.frame_j == frame:
                pts.append(km.points_j)
        return np.vstack(pts) if pts else np.zeros((0, 3))

    def validate(self):
        """Raise a ValidationError naming the first bad record, frames first,
        then keypoint matches, observations and ground truth; return self.
        A kind's index fields must be ints, checked before its other
        checks; each check runs once over all records of its kind."""
        n = self.num_frames
        frames, kms, obs = self.frames, self.keypoint_matches, self.observations
        _raise_non_int("frame", frames, "index")
        _raise_first(
            (lambda k: f"frame indices must be dense 0..K-1, got {frames[k].index} at {k}",
             [k for k, f in enumerate(frames) if f.index != k]),
            (lambda k: f"frame {k}: non-finite timestamp",
             [k for k, f in enumerate(frames)
              if f.timestamp is not None and not math.isfinite(f.timestamp)]),
        )

        _raise_non_int("keypoint match", kms, "frame_i", "frame_j")

        def dangling(k):
            return next(fr for fr in (kms[k].frame_i, kms[k].frame_j) if not 0 <= fr < n)

        _raise_first(
            (lambda k: f"keypoint match {k}: frame_i == frame_j == {kms[k].frame_i}",
             [k for k, km in enumerate(kms) if km.frame_i == km.frame_j]),
            (lambda k: f"keypoint match {k}: dangling frame index {dangling(k)}",
             [k for k, km in enumerate(kms) if not (0 <= km.frame_i < n and 0 <= km.frame_j < n)]),
            (lambda k: f"keypoint match {k}: points are not rows of 3 values",
             [k for k, km in enumerate(kms)
              if km.points_i.shape[1:] != (3,) or km.points_j.shape[1:] != (3,)]),
            (lambda k: f"keypoint match {k}: point count mismatch",
             [k for k, km in enumerate(kms) if len(km.points_i) != len(km.points_j)]),
            (lambda k: f"keypoint match {k}: non-finite point",
             _flagged(np.isfinite, [km.points_i for km in kms], [km.points_j for km in kms])),
        )

        _raise_non_int("observation", obs, "frame", "detection_id", "class_label")

        def name(k):
            return f"observation (frame={obs[k].frame}, detection_id={obs[k].detection_id})"

        seen, duplicate = set(), []
        for k, o in enumerate(obs):
            if (o.frame, o.detection_id) in seen:
                duplicate.append(k)
            seen.add((o.frame, o.detection_id))
        embed_shape = obs[0].embedding.shape if obs else None
        _raise_first(
            (lambda k: f"{name(k)}: duplicate (frame, detection_id)", duplicate),
            (lambda k: f"{name(k)}: dangling frame index",
             [k for k, o in enumerate(obs) if not 0 <= o.frame < n]),
            (lambda k: f"{name(k)}: points are not rows of 3 values",
             [k for k, o in enumerate(obs)
              if o.noc_points.shape[1:] != (3,) or o.depth_points.shape[1:] != (3,)]),
            (lambda k: f"{name(k)}: scale estimate does not hold 3 values",
             [k for k, o in enumerate(obs) if o.scale_estimate.shape != (3,)]),
            (lambda k: f"{name(k)}: NOC/depth count mismatch",
             [k for k, o in enumerate(obs) if len(o.noc_points) != len(o.depth_points)]),
            (lambda k: f"{name(k)}: non-finite point",
             _flagged(np.isfinite, [o.noc_points for o in obs], [o.depth_points for o in obs])),
            (lambda k: f"{name(k)}: NOC outside [-0.5, 0.5]^3",
             _flagged(lambda x: np.abs(x) <= 0.5, [o.noc_points for o in obs])),
            (lambda k: f"{name(k)}: non-positive or non-finite scale estimate",
             _flagged(lambda x: (x > 0) & (x < np.inf), [o.scale_estimate for o in obs])),
            (lambda k: f"{name(k)}: non-finite embedding",
             _flagged(np.isfinite, [o.embedding for o in obs])),
            (lambda k: f"{name(k)}: unknown symmetry class {obs[k].symmetry!r}",
             [k for k, o in enumerate(obs) if o.symmetry not in SYMMETRY_CLASSES]),
            (lambda k: f"{name(k)}: embedding of shape {obs[k].embedding.shape} is not one row of values",
             [k for k, o in enumerate(obs) if o.embedding.ndim != 1]),
            (lambda k: f"{name(k)}: embedding length {len(obs[k].embedding)} != {embed_shape[0]}",
             [k for k, o in enumerate(obs) if o.embedding.shape != embed_shape]),
        )
        if self.ground_truth is not None and len(self.ground_truth) != n:
            raise ValidationError("ground_truth length must equal number of frames")
        return self


def _raise_non_int(kind: str, records, *fields) -> None:
    """Raise a ValidationError naming the first of ``records`` (as ``f"{kind}
    {k}"``) with one of ``fields`` that is not an int."""
    for k, rec in enumerate(records):
        for name in fields:
            value = getattr(rec, name)
            if type(value) is not int and not _is_int(value):  # a plain int first: fast
                raise ValidationError(f"{kind} {k}: {name} {value!r} is not an integer")


def _flagged(valid, *fields) -> list[int]:
    """Ascending indices k of the records with an element that ``valid``
    rejects in some field's k-th array (each field lists one array per
    record). ``valid`` runs once, on the elements of all of them together."""
    arrays = [a for field in fields for a in field]
    if not arrays:
        return []
    ok = valid(np.concatenate(arrays, axis=None))
    if ok.all():
        return []
    owner = np.repeat(np.arange(len(arrays)) % len(fields[0]), [a.size for a in arrays])
    return sorted(set(owner[~ok].tolist()))


def _raise_first(*checks) -> None:
    """Raise a ValidationError for the first record (in list order) that any
    check flags, with the message of the first check that flags it. Each
    check is (message of record k, ascending indices of the records it
    flags), listed in the order a lone record would be checked."""
    flagged = [bad[0] for _, bad in checks if bad]
    if flagged:
        k = min(flagged)
        raise ValidationError(next(message for message, bad in checks if k in bad)(k))


def _fmt(x: float) -> float:
    # 9 significant digits, via a round-trip through text
    return float(f"{float(x):.9g}")


_POW10 = np.array([float(10**n) for n in range(23)])  # each an exact double


def _rounded(values: np.ndarray) -> np.ndarray:
    """``_fmt`` of every value of a float array, bit for bit, in one
    vectorized pass. With k = 8 - floor(log10|x|) and |k| <= 22, 10**|k| is
    exact, so s = |x| * 10**k (or |x| / 10**-k) is one rounding from the
    exact scaled value, within 6e-8 of it below 1e9. ``rint(s)`` is then the
    correctly rounded 9-digit mantissa d unless s's fraction is near .5,
    and d / 10**k (or d * 10**-k) is the double nearest the decimal, as
    ``float`` of the text is. Ties within 1e-6, |k| > 22, zeros, non-finite
    values and a log10 off by one (s or d outside [1e8, 1e9)) go through
    ``_fmt`` itself."""
    x = np.asarray(values, dtype=float)
    ax = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = 8 - np.floor(np.log10(ax))
        k_abs = np.abs(k)
        exact = k_abs <= 22  # false for 0 (k = inf) and non-finite x
        up = k >= 0
        p = _POW10[np.where(exact, k_abs, 0).astype(np.intp)]
        s = np.where(up, ax * p, ax / p)
        d = np.rint(s)
        out = np.copysign(np.where(up, d / p, d * p), x)
        fast = exact & (s >= 1e8) & (d < 1e9) & (np.abs(s - np.floor(s) - 0.5) > 1e-6)
    for i in np.flatnonzero(~fast):
        out.flat[i] = _fmt(x.flat[i])
    return out


def _hexes(arrays) -> list[str]:
    """Each array field as written: the hex of its row-major little-endian
    float64 bytes, each value first rounded by ``_fmt``. All of the fields
    are rounded in one ``_rounded`` pass and hexed as one buffer."""
    if not arrays:
        return []
    text = _rounded(np.concatenate(arrays, axis=None)).astype("<f8").tobytes().hex()
    ends = (16 * np.cumsum([a.size for a in arrays])).tolist()  # 16 hex digits per value
    return [text[start:end] for start, end in zip([0, *ends], ends)]


def _pose_dict(pose: RigidPose) -> dict:
    """The JSON record of a pose: Euler angles (radians) and translation."""
    return {
        "angles": [_fmt(v) for v in pose.angles],
        "translation": [_fmt(v) for v in pose.translation],
    }


def _pose_from_dict(rec: dict) -> RigidPose:
    """The pose of a :func:`_pose_dict` record."""
    return RigidPose(rec["angles"], rec["translation"])


def _frameset_to_dict(fs: FrameSet) -> dict:
    kms, obs = fs.keypoint_matches, fs.observations
    fields = [a for km in kms for a in (km.points_i, km.points_j)]
    fields += [a for o in obs for a in (o.noc_points, o.depth_points, o.scale_estimate, o.embedding)]
    hexes = iter(_hexes(fields))  # taken in the order of ``fields``
    doc = {
        "schema": SCHEMA_VERSION,
        "frames": [
            {
                "index": f.index,
                **(
                    {
                        "intrinsics": {
                            "fx": _fmt(f.intrinsics.fx),
                            "fy": _fmt(f.intrinsics.fy),
                            "cx": _fmt(f.intrinsics.cx),
                            "cy": _fmt(f.intrinsics.cy),
                            "width": f.intrinsics.width,
                            "height": f.intrinsics.height,
                        }
                    }
                    if f.intrinsics is not None
                    else {}
                ),
                **({"timestamp": _fmt(f.timestamp)} if f.timestamp is not None else {}),
            }
            for f in fs.frames
        ],
        "keypoint_matches": [
            {
                "frame_i": km.frame_i,
                "frame_j": km.frame_j,
                "points_i": next(hexes),
                "points_j": next(hexes),
            }
            for km in kms
        ],
        "observations": [
            {
                "frame": o.frame,
                "detection_id": o.detection_id,
                "class_label": o.class_label,
                "noc_points": next(hexes),
                "depth_points": next(hexes),
                "scale_estimate": next(hexes),
                "embedding": next(hexes),
                "symmetry": o.symmetry,
            }
            for o in obs
        ],
    }
    if fs.ground_truth is not None:
        doc["ground_truth"] = [_pose_dict(p) for p in fs.ground_truth]
    return doc


def write_atomic(path: str | os.PathLike, text: str) -> None:
    """Write ``text`` and a final newline to ``path`` through a temporary
    sibling file renamed over it, so readers never see a partial file."""
    tmp = f"{path}.tmp"
    with open(tmp, "w") as f:
        f.write(text)
        f.write("\n")
    os.replace(tmp, path)


def save_problem(fs: FrameSet, path: str | os.PathLike) -> None:
    """Write a FrameSet as a canonical ``objreg-problem/2`` file (atomic,
    byte-stable)."""
    fs.validate()
    write_atomic(path, json.dumps(_frameset_to_dict(fs), sort_keys=True, indent=1))


def _malformed(name: str, e: Exception) -> ValidationError:
    """A parse error of the record ``name`` (a missing key, a wrong type, a
    ragged, non-numeric or undecodable array) as a ValidationError naming
    it."""
    return ValidationError(f"{name}: malformed record ({type(e).__name__}: {e})")


def _records(doc: dict, key: str, name: str, parse) -> list:
    """``parse(rec)`` of each record in ``doc[key]``, named ``f"{name} {k}"``
    in errors."""
    try:
        records = iter(doc[key])
    except (KeyError, TypeError) as e:
        raise _malformed(key, e) from e
    out = []
    try:
        for rec in records:
            out.append(parse(rec))
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        raise _malformed(f"{name} {len(out)}", e) from e  # the first len(out) parsed
    return out


def _from_lists(value, rows: bool) -> np.ndarray:
    """An ``objreg-problem/1`` array field: a list of numbers, or of
    3-number rows for a point field (``validate`` checks the shape)."""
    return np.array(value, dtype=float)


def _from_hex(value, rows: bool) -> np.ndarray:
    """An ``objreg-problem/2`` array field: the hex of its row-major
    little-endian float64 bytes, read as (N, 3) points if ``rows``, else
    as a vector."""
    buf = bytearray.fromhex(value)  # a bytearray keeps the array writable
    if len(buf) % (24 if rows else 8):
        raise ValueError(f"{len(buf)} bytes are not whole {'points' if rows else 'float64 values'}")
    a = np.frombuffer(buf, "<f8")
    return a.reshape(-1, 3) if rows else a


# the array decoder of each schema load_problem reads
_DECODERS = {"objreg-problem/1": _from_lists, SCHEMA_VERSION: _from_hex}


def _frame(rec: dict) -> Frame:
    intr = None
    if "intrinsics" in rec:
        ir = rec["intrinsics"]
        intr = Intrinsics(ir["fx"], ir["fy"], ir["cx"], ir["cy"], ir["width"], ir["height"])
    ts = rec.get("timestamp")
    return Frame(rec["index"], intr, None if ts is None else float(ts))


def _frameset_from_dict(doc: dict) -> FrameSet:
    schema = doc.get("schema") if isinstance(doc, dict) else None
    decode = _DECODERS.get(schema) if isinstance(schema, str) else None
    if decode is None:
        raise ValidationError(f"unsupported schema {schema!r}")
    frames = _records(doc, "frames", "frame", _frame)
    matches = _records(
        doc,
        "keypoint_matches",
        "keypoint match",
        lambda rec: KeypointMatch(
            rec["frame_i"],
            rec["frame_j"],
            decode(rec["points_i"], True),
            decode(rec["points_j"], True),
        ),
    )
    obs = _records(
        doc,
        "observations",
        "observation",
        lambda rec: ObjectObservation(
            rec["frame"],
            rec["detection_id"],
            rec["class_label"],
            decode(rec["noc_points"], True),
            decode(rec["depth_points"], True),
            decode(rec["scale_estimate"], False),
            decode(rec["embedding"], False),
            rec["symmetry"],
        ),
    )
    gt = None
    if "ground_truth" in doc:
        gt = _records(doc, "ground_truth", "ground_truth pose", _pose_from_dict)
    return FrameSet(frames, matches, obs, gt).validate()


def load_problem(path: str | os.PathLike) -> FrameSet:
    """Load and validate an ``objreg-problem/2`` or ``/1`` file; raises
    ValidationError with the offending record named on any invariant
    breach."""
    with open(path, "rb") as f:
        data = f.read()  # bytes: a text-mode read takes longer than the parse
    try:
        doc = json.loads(data)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ValidationError(f"malformed JSON in {path}: {e}") from e
    return _frameset_from_dict(doc)
