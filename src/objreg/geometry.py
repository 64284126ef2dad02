"""Pose parameterizations and basic 3D geometry.

Poses hold rotation matrices. Euler angles, extrinsic X-Y-Z
(``R = Rz(gz) @ Ry(gy) @ Rx(gx)``), are computed only where a pose is read or
written (problem and report JSON, ``RigidPose.angles``); TUM files go via
quaternions. The solvers update rotations by local increments ``R @ Exp(phi)``
(Sola et al., arXiv 1812.01537) through :func:`skew`, :func:`so3_exp` and
:func:`so3_log`. All lengths are meters, angles radians.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "RigidPose",
    "ObjectPose",
    "Intrinsics",
    "rotation_from_euler",
    "euler_from_rotation",
    "skew",
    "so3_exp",
    "so3_log",
    "rotation_angle",
    "compose",
    "invert",
    "apply_rigid",
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
    return (ext.take(_SKEW_A, axis=-1) - ext.take(_SKEW_B, axis=-1)).reshape(v.shape[:-1] + (3, 3))


_EYE3 = np.eye(3)


def so3_exp(phi) -> np.ndarray:
    """Rotation matrices Exp(phi) of (..., 3) rotation vectors, shape (..., 3, 3).

    Rodrigues' formula ``I + a [phi]x + b [phi]x^2`` with ``a = sin(t) / t``
    and ``b = (1 - cos t) / t^2 = 2 (sin(t / 2) / t)^2``, t = |phi|; below
    1e-4 rad both come from their Taylor series. A batch with no angle that
    small skips the series (and the ``where`` calls that pick it).
    """
    phi = np.asarray(phi, dtype=float)
    t2 = np.add.reduce(phi * phi, axis=-1)[..., None, None]
    small = t2 < 1e-8
    series = small.any()
    t = np.sqrt(np.where(small, 1.0, t2) if series else t2)
    a = np.sin(t) / t
    half = np.sin(0.5 * t) / t
    b = 2.0 * half * half
    if series:
        a = np.where(small, 1.0 - t2 / 6.0, a)
        b = np.where(small, 0.5 - t2 / 24.0, b)
    k = skew(phi)
    return _EYE3 + a * k + b * (k @ k)


# Markley's method: row c gives the unnormalized quaternion (x, y, z, w)
# used when entry c of (R00, R11, R22, tr) is the largest, as indices into
# [1 - tr + 2 R00, 1 - tr + 2 R11, 1 - tr + 2 R22, R01 + R10, R02 + R20,
#  R12 + R21, R21 - R12, R02 - R20, R10 - R01, 1 + tr]
_MARKLEY = np.array([[0, 3, 4, 6], [3, 1, 5, 7], [4, 5, 2, 8], [6, 7, 8, 9]])


def so3_log(rot) -> np.ndarray:
    """Rotation vectors Log(R) of (..., 3, 3) rotation matrices, norms in [0, pi].

    The unit quaternion (x, y, z, w >= 0) of R comes from Markley's method,
    which builds it from the largest of the trace and the three diagonal
    entries; a batch whose traces all win, such as small rotations, takes
    that row's four entries directly. With ``angle = 2 atan2(|xyz|, w)`` the
    result is ``xyz * angle / sin(angle / 2)``, that factor taken from its
    Taylor series at or below 1e-3 rad (skipped when no angle is that small).
    """
    rot = np.asarray(rot, dtype=float)
    m = rot.reshape(-1, 9)
    diag = m[:, ::4]
    trace = np.add.reduce(diag, axis=1, keepdims=True)
    vee = m[:, [7, 2, 3]] - m[:, [5, 6, 1]]
    if (trace > diag).all():
        # Markley's last row everywhere, as argmax picks it; the traces then
        # exceed 0, so every w = 1 + tr is positive
        quat = np.concatenate([vee, 1.0 + trace], axis=1)
        quat /= np.sqrt(np.add.reduce(quat * quat, axis=1, keepdims=True))
    else:
        entries = np.concatenate(
            [1.0 - trace + 2.0 * diag, m[:, [1, 2, 5]] + m[:, [3, 6, 7]], vee, 1.0 + trace], axis=1
        )
        choice = np.concatenate([diag, trace], axis=1).argmax(axis=1)
        quat = np.take_along_axis(entries, _MARKLEY[choice], axis=1)
        norm = np.sqrt(np.add.reduce(quat * quat, axis=1, keepdims=True))
        quat /= np.where(quat[:, 3:] < 0, -norm, norm)  # unit, w >= 0
    xyz = quat[:, :3]
    angle = 2.0 * np.arctan2(np.sqrt(np.add.reduce(xyz * xyz, axis=1)), quat[:, 3])
    small = angle <= 1e-3
    if small.any():
        a2 = angle * angle
        series = 2.0 + a2 / 12.0 + 7.0 * a2 * a2 / 2880.0
        scale = np.where(small, series, angle / np.sin(np.where(small, 1.0, angle / 2.0)))
    else:
        scale = angle / np.sin(angle / 2.0)
    return (scale[:, None] * xyz).reshape(rot.shape[:-2] + (3,))


_VEE_ROWS, _VEE_COLS = np.array([2, 0, 1]), np.array([1, 2, 0])


def rotation_angle(rot):
    """Angle in [0, pi] of a 3x3 rotation, ``atan2(|vee(R - R^T)|, tr(R) - 1)``,
    as a float; of a (..., 3, 3) stack, as an array.

    Unlike the arccos of ``(tr(R) - 1) / 2`` it keeps full precision at small
    and near-pi angles, and unlike ``|so3_log(R)|`` it costs a few scalar
    operations.
    """
    rot = np.asarray(rot, dtype=float)
    vee = rot[..., _VEE_ROWS, _VEE_COLS] - rot[..., _VEE_COLS, _VEE_ROWS]  # vee(R - R^T)
    angle = np.arctan2(_norms(vee), np.trace(rot, axis1=-2, axis2=-1) - 1.0)
    return float(angle) if rot.ndim == 2 else angle


def _squared_norms(v) -> np.ndarray:
    """Each row of ``v`` (..., D) dotted with itself, as a 1-D ``row @ row``
    is, bit for bit."""
    v = v[..., None, :]
    return (v @ v.swapaxes(-1, -2))[..., 0, 0]


def _norms(v) -> np.ndarray:
    """Euclidean norms of the rows of ``v`` (..., D), each the square root of
    the row's own dot product, as ``np.linalg.norm`` of one row is, bit for
    bit."""
    return np.sqrt(_squared_norms(v))


def _squares(d) -> np.ndarray:
    """Each row's |d|^2 for rows of 3, (...,): ``d0^2 + d1^2 + d2^2`` added
    left to right, as ``np.add.reduce(d * d, axis=-1)`` adds them, bit for
    bit, without the cost of a sum over a trailing axis of 3."""
    sq = d * d
    return sq[..., 0] + sq[..., 1] + sq[..., 2]


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


def _is_int(value) -> bool:
    """Whether ``value`` is a Python or numpy int; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """Whether ``value`` is a Python or numpy int or float; a bool is not one."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` marked read-only, so that a pose and its cached angles agree."""
    a.flags.writeable = False
    return a


def _cached_angles(pose) -> np.ndarray:
    """Extrinsic X-Y-Z Euler angles of ``pose.rotation``, computed once
    (read-only). Threads that race here store equal arrays."""
    if pose._angles is None:
        pose._angles = _frozen(euler_from_rotation(pose.rotation))
    return pose._angles


def _rotation_block(rotation) -> np.ndarray:
    """A finite 3x3 rotation block, copied and read-only."""
    rot = _frozen(np.asarray(rotation, dtype=float).reshape(3, 3).copy())
    if not np.isfinite(rot).all():
        raise ValueError("non-finite rotation")
    return rot


class RigidPose:
    """6-DoF rigid transform ``x -> R x + t``: a 3x3 rotation matrix and a
    translation (meters).

    ``RigidPose(angles, translation)`` builds the rotation from Euler angles
    (radians); :meth:`from_rotation` stores a matrix as given. ``angles`` is
    derived from the matrix on first use and cached; ``rotation`` and
    ``angles`` are read-only arrays.
    """

    __slots__ = ("rotation", "translation", "_angles")

    def __init__(self, angles=(0.0, 0.0, 0.0), translation=(0.0, 0.0, 0.0)):
        angles = np.asarray(angles, dtype=float).reshape(3)
        translation = np.asarray(translation, dtype=float).reshape(3)
        if not (np.isfinite(angles).all() and np.isfinite(translation).all()):
            raise ValueError("non-finite pose parameters")
        self.rotation = _frozen(rotation_from_euler(angles))
        self.translation = translation
        self._angles = _frozen(angles.copy())

    @classmethod
    def _of(cls, rotation: np.ndarray, translation: np.ndarray, angles=None) -> "RigidPose":
        """Pose that takes ownership of a fresh or read-only rotation array, unchecked."""
        pose = cls.__new__(cls)
        pose.rotation = _frozen(rotation)
        pose.translation = translation
        pose._angles = angles
        return pose

    @classmethod
    def from_rotation(cls, rotation, translation) -> "RigidPose":
        """Pose with the 3x3 ``rotation`` stored as given."""
        rot = _rotation_block(rotation)
        translation = np.asarray(translation, dtype=float).reshape(3)
        if not np.isfinite(translation).all():
            raise ValueError("non-finite pose parameters")
        return cls._of(rot, translation)

    @classmethod
    def identity(cls) -> "RigidPose":
        return cls._of(np.eye(3), np.zeros(3))

    @classmethod
    def from_matrix(cls, mat: np.ndarray) -> "RigidPose":
        """Pose of a 4x4 homogeneous matrix whose upper-left block is a
        rotation: orthonormal to 1e-9 (largest entry of R^T R - I) with a
        positive determinant, else ValueError."""
        mat = np.asarray(mat, dtype=float)
        rot = mat[:3, :3]
        if np.abs(rot.T @ rot - np.eye(3)).max() > 1e-9 or np.linalg.det(rot) <= 0:
            raise ValueError(f"not a rotation matrix: {rot.tolist()}")
        return cls.from_rotation(rot, mat[:3, 3].copy())

    angles = property(_cached_angles)

    def to_matrix(self) -> np.ndarray:
        mat = np.eye(4)
        mat[:3, :3] = self.rotation
        mat[:3, 3] = self.translation
        return mat

    def copy(self) -> "RigidPose":
        return RigidPose._of(self.rotation, self.translation.copy(), self._angles)

    def __repr__(self) -> str:
        return (
            f"RigidPose(rotation={self.rotation.tolist()}, "
            f"translation={self.translation.tolist()})"
        )


class ObjectPose:
    """9-DoF object pose: rotation, translation and anisotropic positive scale.

    Maps a canonical point p to ``R @ (p * scale) + t``. The rotation is held
    as a matrix, as in :class:`RigidPose`: built from Euler angles by the
    constructor, stored as given by :meth:`from_rotation`.
    """

    __slots__ = ("rotation", "translation", "scale", "_angles")

    def __init__(
        self, angles=(0.0, 0.0, 0.0), translation=(0.0, 0.0, 0.0), scale=(1.0, 1.0, 1.0)
    ):
        angles = np.asarray(angles, dtype=float).reshape(3)
        if not np.isfinite(angles).all():
            raise ValueError("non-finite pose parameters")
        self._init(_frozen(rotation_from_euler(angles)), translation, scale)
        self._angles = _frozen(angles.copy())

    def _init(self, rotation, translation, scale):
        self.rotation = rotation
        self.translation = np.asarray(translation, dtype=float).reshape(3)
        self.scale = np.asarray(scale, dtype=float).reshape(3)
        self._angles = None
        if not np.isfinite(self.translation).all():
            raise ValueError("non-finite pose parameters")
        if not np.all(np.isfinite(self.scale)):
            raise ValueError("non-finite object scale")
        if np.any(self.scale <= 0):
            raise ValueError("object scale must be positive")

    @classmethod
    def _of(cls, rotation, translation, scale, angles=None) -> "ObjectPose":
        """Object pose that takes ownership of a fresh or read-only rotation
        array and of (3,) translation and scale arrays, unchecked."""
        pose = cls.__new__(cls)
        pose.rotation = _frozen(rotation)
        pose.translation, pose.scale, pose._angles = translation, scale, angles
        return pose

    @classmethod
    def from_rotation(cls, rotation, translation, scale) -> "ObjectPose":
        """Object pose with the 3x3 ``rotation`` stored as given."""
        pose = cls.__new__(cls)
        pose._init(_rotation_block(rotation), translation, scale)
        return pose

    angles = property(_cached_angles)

    @property
    def rigid(self) -> RigidPose:
        return RigidPose._of(self.rotation, self.translation.copy(), self._angles)

    def copy(self) -> "ObjectPose":
        return ObjectPose._of(self.rotation, self.translation.copy(), self.scale.copy(), self._angles)

    def __repr__(self) -> str:
        return (
            f"ObjectPose(rotation={self.rotation.tolist()}, "
            f"translation={self.translation.tolist()}, scale={self.scale.tolist()})"
        )


def _pose_builders(*arrays):
    """The (RigidPose, ObjectPose) builders for poses of the values in
    ``arrays``: the unchecked ``_of``, which keeps the arrays it is given,
    when one test finds every value finite; else the checked
    ``from_rotation``, which raises as for a lone pose."""
    if all(np.isfinite(a).all() for a in arrays):
        return RigidPose._of, ObjectPose._of
    return RigidPose.from_rotation, ObjectPose.from_rotation


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
    return RigidPose._of(rot_a @ b.rotation, rot_a @ b.translation + a.translation)


def invert(p: RigidPose) -> RigidPose:
    rot_inv = p.rotation.T
    return RigidPose._of(rot_inv.copy(), -rot_inv @ p.translation)


def apply_rigid(p: RigidPose, pts: np.ndarray) -> np.ndarray:
    """Apply R x + t to an (N, 3) point array."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 3)
    return pts @ p.rotation.T + p.translation
