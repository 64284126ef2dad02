"""Pose parameterizations and basic 3D geometry.

Euler angles, extrinsic X-Y-Z (``R = Rz(gz) @ Ry(gy) @ Rx(gx)``), are the I/O
representation (problem and report JSON, ``RigidPose.angles``; TUM goes via
quaternions). The solvers work on rotation matrices with local increments
``R @ Exp(phi)`` (Sola et al., arXiv 1812.01537) through :func:`skew`,
:func:`so3_exp` and :func:`so3_log`. All lengths are meters, angles radians.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.transform import Rotation

__all__ = [
    "RigidPose",
    "ObjectPose",
    "Intrinsics",
    "rotation_from_euler",
    "euler_from_rotation",
    "skew",
    "so3_exp",
    "so3_log",
    "compose",
    "invert",
    "apply_rigid",
    "apply_object",
    "back_project",
]

_GIMBAL_EPS = 1e-7


def _rx(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def _ry(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def _rz(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rotation_from_euler(angles) -> np.ndarray:
    """3x3 rotation from (gx, gy, gz), extrinsic X-Y-Z order."""
    gx, gy, gz = np.asarray(angles, dtype=float)
    return _rz(gz) @ _ry(gy) @ _rx(gx)


# Row k of [v]x is e_k x v. Entry (r, c) is a - b, with a and b picked from
# the 6-vector (v, 0 * v) by these indices: the same products and differences,
# signed zeros included, that np.cross(np.eye(3), v) computes, without its
# per-call cost.
_SKEW_A = np.array([5, 3, 1, 2, 3, 4, 5, 0, 4])
_SKEW_B = np.array([4, 2, 3, 4, 5, 0, 1, 5, 3])


def skew(v) -> np.ndarray:
    """Cross-product matrices [v]x of (..., 3) vectors, shape (..., 3, 3)."""
    v = np.asarray(v, dtype=float)
    ext = np.concatenate([v, 0.0 * v], axis=-1)
    return (ext[..., _SKEW_A] - ext[..., _SKEW_B]).reshape(v.shape[:-1] + (3, 3))


def so3_exp(phi) -> np.ndarray:
    """Rotation matrices Exp(phi) of (..., 3) rotation vectors, shape (..., 3, 3)."""
    phi = np.asarray(phi, dtype=float)
    mats = Rotation.from_rotvec(phi.reshape(-1, 3)).as_matrix()
    return mats.reshape(phi.shape[:-1] + (3, 3))


def so3_log(rot) -> np.ndarray:
    """Rotation vectors Log(R) of (..., 3, 3) rotation matrices, norms in [0, pi]."""
    rot = np.asarray(rot, dtype=float)
    vecs = Rotation.from_matrix(rot.reshape(-1, 3, 3)).as_rotvec()
    return vecs.reshape(rot.shape[:-2] + (3,))


def euler_from_rotation(rot: np.ndarray) -> np.ndarray:
    """Inverse of :func:`rotation_from_euler`.

    Near gimbal lock (|cos gy| < 1e-7) the decomposition is not unique; we
    pick the canonical preimage with gx = 0 and fold the rest into gz.
    """
    rot = np.asarray(rot, dtype=float)
    sy = -rot[2, 0]
    sy = np.clip(sy, -1.0, 1.0)
    cy = np.hypot(rot[0, 0], rot[1, 0])
    if cy < _GIMBAL_EPS:
        gy = np.arcsin(sy)
        gx = 0.0
        if sy > 0:
            gz = -np.arctan2(rot[0, 1], rot[0, 2])
        else:
            gz = np.arctan2(-rot[0, 1], -rot[0, 2])
    else:
        gy = np.arcsin(sy)
        gx = np.arctan2(rot[2, 1], rot[2, 2])
        gz = np.arctan2(rot[1, 0], rot[0, 0])
    return np.array([gx, gy, gz])


@dataclass
class RigidPose:
    """6-DoF rigid transform: 3 Euler angles (radians) + translation (meters)."""

    angles: np.ndarray = field(default_factory=lambda: np.zeros(3))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        self.angles = np.asarray(self.angles, dtype=float).reshape(3)
        self.translation = np.asarray(self.translation, dtype=float).reshape(3)
        if not (np.isfinite(self.angles).all() and np.isfinite(self.translation).all()):
            raise ValueError("non-finite pose parameters")

    @classmethod
    def identity(cls) -> "RigidPose":
        return cls()

    @classmethod
    def from_matrix(cls, mat: np.ndarray) -> "RigidPose":
        mat = np.asarray(mat, dtype=float)
        return cls(euler_from_rotation(mat[:3, :3]), mat[:3, 3].copy())

    @property
    def rotation(self) -> np.ndarray:
        return rotation_from_euler(self.angles)

    def to_matrix(self) -> np.ndarray:
        mat = np.eye(4)
        mat[:3, :3] = self.rotation
        mat[:3, 3] = self.translation
        return mat

    def copy(self) -> "RigidPose":
        return RigidPose(self.angles.copy(), self.translation.copy())


@dataclass
class ObjectPose:
    """9-DoF object pose: rotation, translation and anisotropic positive scale.

    Maps a canonical point p to ``R @ (p * scale) + t``.
    """

    angles: np.ndarray = field(default_factory=lambda: np.zeros(3))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))
    scale: np.ndarray = field(default_factory=lambda: np.ones(3))

    def __post_init__(self):
        self.angles = np.asarray(self.angles, dtype=float).reshape(3)
        self.translation = np.asarray(self.translation, dtype=float).reshape(3)
        self.scale = np.asarray(self.scale, dtype=float).reshape(3)
        if not np.all(np.isfinite(self.scale)):
            raise ValueError("non-finite object scale")
        if np.any(self.scale <= 0):
            raise ValueError("object scale must be positive")

    @property
    def rotation(self) -> np.ndarray:
        return rotation_from_euler(self.angles)

    @property
    def rigid(self) -> RigidPose:
        return RigidPose(self.angles.copy(), self.translation.copy())

    def copy(self) -> "ObjectPose":
        return ObjectPose(self.angles.copy(), self.translation.copy(), self.scale.copy())


@dataclass
class Intrinsics:
    """Pinhole camera parameters (pixels)."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (0 < self.fx < np.inf and 0 < self.fy < np.inf):
            raise ValueError("focal lengths must be positive and finite")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError("principal point outside image")


def compose(a: RigidPose, b: RigidPose) -> RigidPose:
    """Pose whose matrix is ``a.to_matrix() @ b.to_matrix()``."""
    rot_a = a.rotation
    return RigidPose(
        euler_from_rotation(rot_a @ b.rotation), rot_a @ b.translation + a.translation
    )


def invert(p: RigidPose) -> RigidPose:
    rot_inv = p.rotation.T
    return RigidPose(euler_from_rotation(rot_inv), -rot_inv @ p.translation)


def apply_rigid(p: RigidPose, pts: np.ndarray) -> np.ndarray:
    """Apply R x + t to an (N, 3) point array."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 3)
    return pts @ p.rotation.T + p.translation


def apply_object(p: ObjectPose, noc: np.ndarray) -> np.ndarray:
    """Apply R (x * s) + t to an (N, 3) array of canonical points."""
    noc = np.asarray(noc, dtype=float).reshape(-1, 3)
    return (noc * p.scale) @ p.rotation.T + p.translation


def back_project(depth_map: np.ndarray, mask: np.ndarray, k: Intrinsics) -> np.ndarray:
    """Back-project masked positive depths into camera-local 3D points.

    Pixel (u, v) with depth d maps to ((u - cx) d / fx, (v - cy) d / fy, d).
    """
    depth_map = np.asarray(depth_map, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    if depth_map.shape != (k.height, k.width) or mask.shape != depth_map.shape:
        raise ValueError(
            f"depth/mask shape {depth_map.shape}/{mask.shape} does not match "
            f"intrinsics {k.height}x{k.width}"
        )
    vs, us = np.nonzero(mask & (depth_map > 0))
    d = depth_map[vs, us]
    x = (us - k.cx) * d / k.fx
    y = (vs - k.cy) * d / k.fy
    return np.column_stack([x, y, d])
