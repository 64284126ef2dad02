"""Per-frame solver inputs and their JSON serialization.

A problem file carries frames, keypoint matches (already back-projected to
camera-local 3D) and object observations (paired canonical/depth points with
class, scale, embedding and symmetry labels). The format is versioned as
``objreg-problem/1`` and written in a canonical form (sorted keys, floats at
9 significant digits) so fixtures diff cleanly.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .geometry import Intrinsics, RigidPose
from .procrustes import AlignmentResult, DegenerateAlignmentError, FilterConfig, kabsch_filter

SCHEMA_VERSION = "objreg-problem/1"

SYMMETRY_CLASSES = ("round", "square", "rectangle", "non_symmetric")

# Intra-frame NOC-depth filter: an observation counts only with at least
# min_pairs survivors of the 0.20 m Kabsch filter.
NOC_FILTER = FilterConfig(0.20, min_pairs=15)

__all__ = [
    "KeypointMatch",
    "ObjectObservation",
    "FrameSet",
    "ValidationError",
    "load_problem",
    "save_problem",
    "SYMMETRY_CLASSES",
    "SCHEMA_VERSION",
    "NOC_FILTER",
]


class ValidationError(ValueError):
    """A problem file violates a structural invariant."""


@dataclass
class KeypointMatch:
    """A matched 3D keypoint pair between two frames (camera-local points)."""

    frame_i: int
    frame_j: int
    points_i: np.ndarray  # (N, 3) camera-local, meters
    points_j: np.ndarray  # (N, 3)

    def __post_init__(self):
        self.points_i = np.asarray(self.points_i, dtype=float).reshape(-1, 3)
        self.points_j = np.asarray(self.points_j, dtype=float).reshape(-1, 3)

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
        self.noc_points = np.asarray(self.noc_points, dtype=float).reshape(-1, 3)
        self.depth_points = np.asarray(self.depth_points, dtype=float).reshape(-1, 3)
        self.scale_estimate = np.asarray(self.scale_estimate, dtype=float).reshape(3)
        self.embedding = np.asarray(self.embedding, dtype=float).ravel()

    def __len__(self):
        return len(self.noc_points)

    @cached_property
    def noc_fit(self) -> AlignmentResult | None:
        """Kabsch fit of the scaled NOC points onto the depth points under
        NOC_FILTER, or None when too few pairs survive or the geometry is
        degenerate. Computed once; shallow copies made later share it."""
        try:
            scaled = self.noc_points * self.scale_estimate
            return kabsch_filter(scaled, self.depth_points, NOC_FILTER)
        except DegenerateAlignmentError:
            return None


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

    def validate(self):
        for k, f in enumerate(self.frames):
            if f.index != k:
                raise ValidationError(f"frame indices must be dense 0..K-1, got {f.index} at {k}")
        n = self.num_frames
        for m, km in enumerate(self.keypoint_matches):
            if km.frame_i == km.frame_j:
                raise ValidationError(f"keypoint match {m}: frame_i == frame_j == {km.frame_i}")
            for fr in (km.frame_i, km.frame_j):
                if not 0 <= fr < n:
                    raise ValidationError(f"keypoint match {m}: dangling frame index {fr}")
            if len(km.points_i) != len(km.points_j):
                raise ValidationError(f"keypoint match {m}: point count mismatch")
            if not (np.all(np.isfinite(km.points_i)) and np.all(np.isfinite(km.points_j))):
                raise ValidationError(f"keypoint match {m}: non-finite point")
        embed_dim = None
        seen = set()
        for o in self.observations:
            name = f"observation (frame={o.frame}, detection_id={o.detection_id})"
            if (o.frame, o.detection_id) in seen:
                raise ValidationError(f"{name}: duplicate (frame, detection_id)")
            seen.add((o.frame, o.detection_id))
            if not 0 <= o.frame < n:
                raise ValidationError(f"{name}: dangling frame index")
            if len(o.noc_points) != len(o.depth_points):
                raise ValidationError(f"{name}: NOC/depth count mismatch")
            if not np.all(np.isfinite(o.noc_points)) or not np.all(np.isfinite(o.depth_points)):
                raise ValidationError(f"{name}: non-finite point")
            if np.any(np.abs(o.noc_points) > 0.5):
                raise ValidationError(f"{name}: NOC outside [-0.5, 0.5]^3")
            if not np.all(np.isfinite(o.scale_estimate) & (o.scale_estimate > 0)):
                raise ValidationError(f"{name}: non-positive or non-finite scale estimate")
            if not np.all(np.isfinite(o.embedding)):
                raise ValidationError(f"{name}: non-finite embedding")
            if o.symmetry not in SYMMETRY_CLASSES:
                raise ValidationError(f"{name}: unknown symmetry class {o.symmetry!r}")
            if embed_dim is None:
                embed_dim = len(o.embedding)
            elif len(o.embedding) != embed_dim:
                raise ValidationError(f"{name}: embedding length {len(o.embedding)} != {embed_dim}")
        if self.ground_truth is not None and len(self.ground_truth) != n:
            raise ValidationError("ground_truth length must equal number of frames")
        return self


def _fmt(x: float) -> float:
    # 9 significant digits, via a round-trip through text
    return float(f"{float(x):.9g}")


def _fmt_array(a: np.ndarray) -> list:
    return [[_fmt(v) for v in row] for row in np.asarray(a).reshape(-1, a.shape[-1])]


def _frameset_to_dict(fs: FrameSet) -> dict:
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
                "points_i": _fmt_array(km.points_i) if len(km) else [],
                "points_j": _fmt_array(km.points_j) if len(km) else [],
            }
            for km in fs.keypoint_matches
        ],
        "observations": [
            {
                "frame": o.frame,
                "detection_id": o.detection_id,
                "class_label": o.class_label,
                "noc_points": _fmt_array(o.noc_points) if len(o) else [],
                "depth_points": _fmt_array(o.depth_points) if len(o) else [],
                "scale_estimate": [_fmt(v) for v in o.scale_estimate],
                "embedding": [_fmt(v) for v in o.embedding],
                "symmetry": o.symmetry,
            }
            for o in fs.observations
        ],
    }
    if fs.ground_truth is not None:
        doc["ground_truth"] = [
            {
                "angles": [_fmt(v) for v in p.angles],
                "translation": [_fmt(v) for v in p.translation],
            }
            for p in fs.ground_truth
        ]
    return doc


def save_problem(fs: FrameSet, path: str | os.PathLike) -> None:
    """Write a FrameSet in canonical JSON form (atomic, byte-stable)."""
    fs.validate()
    text = json.dumps(_frameset_to_dict(fs), sort_keys=True, indent=1)
    tmp = f"{path}.tmp"
    with open(tmp, "w") as f:
        f.write(text)
        f.write("\n")
    os.replace(tmp, path)


def _frameset_from_dict(doc: dict) -> FrameSet:
    if doc.get("schema") != SCHEMA_VERSION:
        raise ValidationError(f"unsupported schema {doc.get('schema')!r}")
    frames = []
    for rec in doc["frames"]:
        intr = None
        if "intrinsics" in rec:
            ir = rec["intrinsics"]
            intr = Intrinsics(ir["fx"], ir["fy"], ir["cx"], ir["cy"], ir["width"], ir["height"])
        frames.append(Frame(rec["index"], intr, rec.get("timestamp")))
    matches = [
        KeypointMatch(
            rec["frame_i"],
            rec["frame_j"],
            np.array(rec["points_i"], dtype=float).reshape(-1, 3),
            np.array(rec["points_j"], dtype=float).reshape(-1, 3),
        )
        for rec in doc["keypoint_matches"]
    ]
    obs = [
        ObjectObservation(
            rec["frame"],
            rec["detection_id"],
            rec["class_label"],
            np.array(rec["noc_points"], dtype=float).reshape(-1, 3),
            np.array(rec["depth_points"], dtype=float).reshape(-1, 3),
            np.array(rec["scale_estimate"], dtype=float),
            np.array(rec["embedding"], dtype=float),
            rec["symmetry"],
        )
        for rec in doc["observations"]
    ]
    gt = None
    if "ground_truth" in doc:
        gt = [
            RigidPose(np.array(rec["angles"], dtype=float), np.array(rec["translation"], dtype=float))
            for rec in doc["ground_truth"]
        ]
    return FrameSet(frames, matches, obs, gt).validate()


def load_problem(path: str | os.PathLike) -> FrameSet:
    """Load and validate a problem file; raises ValidationError with the
    offending record named on any invariant breach."""
    with open(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            raise ValidationError(f"malformed JSON in {path}: {e}") from e
    return _frameset_from_dict(doc)
