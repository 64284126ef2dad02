"""Evaluation metrics and TUM trajectory I/O.

Pose recall uses inclusive thresholds; ATE RMSE aligns trajectories with a
closed-form rigid (no-scale) fit before measuring translational residuals.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from scipy.spatial.transform import Rotation

from .geometry import RigidPose, euler_from_rotation
from .procrustes import _kabsch

__all__ = [
    "Trajectory",
    "RecallThreshold",
    "pose_error",
    "pose_recall",
    "ate_rmse",
    "read_tum",
    "write_tum",
]


@dataclass
class Trajectory:
    timestamps: np.ndarray  # strictly increasing, seconds
    poses: list[RigidPose]

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=float)
        if len(self.timestamps) != len(self.poses):
            raise ValueError("timestamp/pose count mismatch")
        if len(self.timestamps) > 1 and not np.all(np.diff(self.timestamps) > 0):
            raise ValueError("timestamps must be strictly increasing")

    def __len__(self):
        return len(self.poses)

    @property
    def translations(self) -> np.ndarray:
        return np.array([p.translation for p in self.poses]).reshape(-1, 3)


@dataclass
class RecallThreshold:
    rot_deg: float
    trans_cm: float

    def __post_init__(self):
        if self.rot_deg <= 0 or self.trans_cm <= 0:
            raise ValueError("thresholds must be positive")


def pose_error(est: RigidPose, gt: RigidPose) -> tuple[float, float]:
    """(rotation error in degrees, translation error in meters)."""
    cos_angle = (np.trace(est.rotation.T @ gt.rotation) - 1.0) / 2.0
    rot = float(np.degrees(np.arccos(np.clip(cos_angle, -1.0, 1.0))))
    trans = float(np.linalg.norm(est.translation - gt.translation))
    return rot, trans


def pose_recall(errors, th: RecallThreshold) -> float:
    """Percentage of (rot_deg, trans_m) pairs within both thresholds
    (inclusive)."""
    errors = list(errors)
    if not errors:
        raise ValueError("empty error list")
    hits = sum(
        1 for rot, trans in errors if rot <= th.rot_deg and trans <= th.trans_cm / 100.0
    )
    return 100.0 * hits / len(errors)


def _associate(ts_a, ts_b, max_diff):
    """Greedy nearest-timestamp association, each entry used at most once."""
    pairs = []
    used_b = set()
    for i, t in enumerate(ts_a):
        j = int(np.argmin(np.abs(ts_b - t)))
        if abs(ts_b[j] - t) <= max_diff and j not in used_b:
            pairs.append((i, j))
            used_b.add(j)
    return pairs


def ate_rmse(est: Trajectory, gt: Trajectory, max_time_diff: float = 0.02) -> float:
    """Absolute trajectory error: RMSE of translations after the optimal
    rigid alignment of associated poses."""
    pairs = _associate(est.timestamps, gt.timestamps, max_time_diff)
    if len(pairs) < 2:
        raise ValueError(f"only {len(pairs)} timestamp associations (need >= 2)")
    a = est.translations[[i for i, _ in pairs]]
    b = gt.translations[[j for _, j in pairs]]
    # the raw fit: collinear trajectories still have a unique optimal residual
    rot, t, _ = _kabsch(a, b)
    res = a @ rot.T + t - b
    return float(np.sqrt(np.mean(np.sum(res**2, axis=1))))


def read_tum(path: str | os.PathLike) -> Trajectory:
    """Read 'timestamp tx ty tz qx qy qz qw' lines; '#' starts a comment.

    Quaternions are normalized; a norm deviating by more than 1e-3 from 1 is
    rejected as malformed.
    """
    timestamps, poses = [], []
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) != 8:
                raise ValueError(f"{path}:{lineno}: expected 8 fields, got {len(fields)}: {line!r}")
            try:
                vals = [float(v) for v in fields]
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: non-numeric field in {line!r}") from e
            q = np.array(vals[4:8])
            norm = np.linalg.norm(q)
            if abs(norm - 1.0) > 1e-3:
                raise ValueError(f"{path}:{lineno}: quaternion norm {norm:.6f} too far from 1")
            rot = Rotation.from_quat(q / norm).as_matrix()
            timestamps.append(vals[0])
            poses.append(RigidPose(euler_from_rotation(rot), np.array(vals[1:4])))
    return Trajectory(np.array(timestamps), poses)


def write_tum(traj: Trajectory, path: str | os.PathLike) -> None:
    """Write TUM format with 9-significant-digit fields (atomic)."""
    lines = ["# timestamp tx ty tz qx qy qz qw"]
    for t, pose in zip(traj.timestamps, traj.poses):
        q = Rotation.from_matrix(pose.rotation).as_quat()  # x y z w
        if q[3] < 0:
            q = -q
        vals = [t, *pose.translation, *q]
        lines.append(" ".join(f"{v:.9g}" for v in vals))
    tmp = f"{path}.tmp"
    with open(tmp, "w") as f:
        f.write("\n".join(lines))
        f.write("\n")
    os.replace(tmp, path)
