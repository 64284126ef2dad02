"""Synthetic oracle scenes: box/cylinder objects, camera trajectories, NOC
and keypoint constraint generation with controllable noise and outliers.

All randomness comes from a single numpy PCG64 generator seeded from the
config, so a fixed seed reproduces byte-identical problem files.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .geometry import Intrinsics, RigidPose, _is_int, _is_real, apply_rigid, compose, invert
from .observations import SYMMETRY_CLASSES, Frame, FrameSet, KeypointMatch, ObjectObservation

__all__ = ["SynthConfig", "SynthResult", "generate", "overlap", "make_pair_suite"]

DEFAULT_INTRINSICS = Intrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)
MAX_SUITE_ATTEMPTS = 400  # make_pair_suite's scene draws per bucket
TRAJECTORIES = ("orbit", "line", "loop")
# SynthConfig's int fields, each with its least value
_INT_FIELDS = {
    "num_frames": 1, "num_objects": 0, "num_classes": 1, "points_per_object": 0,
    "keypoints_per_pair": 0, "background_points": 0, "embed_dim": 1, "rng_seed": 0,
}


@dataclass
class SynthConfig:
    num_frames: int = 2
    num_objects: int = 1
    num_classes: int = 3
    object_extents: tuple = (0.8, 0.6, 1.0)  # meters, per-axis box size
    trajectory: str = "orbit"  # orbit | line | loop
    orbit_radius: float = 2.5
    orbit_span: float = np.pi / 3  # angular extent of orbit trajectories
    points_per_object: int = 200
    keypoints_per_pair: int = 50
    background_points: int = 2000
    noise_sigma_depth: float = 0.0
    noise_sigma_noc: float = 0.0
    outlier_fraction: float = 0.0
    embed_dim: int = 8
    embed_intra_sigma: float = 0.005
    embed_inter_separation: float = 1.0
    symmetries: tuple = ()  # per-object labels; missing entries => non_symmetric
    rng_seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            name, value = f.name, getattr(self, f.name)
            if name in _INT_FIELDS:
                ok, want = _is_int(value) and value >= _INT_FIELDS[name], f"an int >= {_INT_FIELDS[name]}"
            elif name == "trajectory":
                ok, want = value in TRAJECTORIES, f"one of {TRAJECTORIES}"
            elif name == "symmetries":
                ok = isinstance(value, (tuple, list)) and all(s in SYMMETRY_CLASSES for s in value)
                want = f"a sequence of labels from {SYMMETRY_CLASSES}"
            elif name == "object_extents":
                ok = isinstance(value, (tuple, list)) and len(value) == 3
                ok = ok and all(_is_real(v) and 0 < v < np.inf for v in value)
                want = "3 finite positive lengths"
            elif not _is_real(value):
                ok, want = False, "a real number"
            elif name == "outlier_fraction":
                ok, want = 0 <= value < 1, "in [0, 1)"
            elif name == "orbit_span":
                ok, want = -np.inf < value < np.inf, "finite"
            elif name == "orbit_radius":
                ok, want = 0 < value < np.inf, "finite and positive"
            else:  # the noise and embedding spreads
                ok, want = 0 <= value < np.inf, "finite and nonnegative"
            if not ok:
                raise ValueError(f"{name} must be {want}, got {value!r}")


@dataclass
class SynthResult:
    frameset: FrameSet
    gt_poses: list[RigidPose]  # cam-to-world, relative to frame 0 (gt[0] = identity)
    outlier_masks: dict = field(default_factory=dict)  # (frame, detection_id) -> bool array

    def __iter__(self):  # allow (fs, gt) unpacking
        return iter((self.frameset, self.gt_poses))


def _euler_exact(pose: RigidPose) -> RigidPose:
    """``pose`` rebuilt from its Euler angles. Every pose the generator
    composes, inverts or applies goes through this, so that each rotation
    is ``rotation_from_euler(pose.angles)`` and a seed's problem files stay
    byte-identical whatever rounding ``compose`` and ``invert`` do."""
    return RigidPose(pose.angles, pose.translation)


def _look_at(eye, target) -> RigidPose:
    """Camera-to-world pose with the camera +z axis pointing at target and
    the world +z axis up."""
    eye = np.asarray(eye, dtype=float)
    f = np.asarray(target, dtype=float) - eye
    f = f / np.linalg.norm(f)
    x = np.cross((0.0, 0.0, 1.0), f)
    if np.linalg.norm(x) < 1e-8:
        x = np.cross((1.0, 0.0, 0.0), f)
    x = x / np.linalg.norm(x)
    y = np.cross(f, x)
    return _euler_exact(RigidPose.from_rotation(np.column_stack([x, y, f]), eye))


def _trajectory(cfg: SynthConfig) -> list[RigidPose]:
    poses = []
    k = cfg.num_frames
    if cfg.trajectory == "loop":
        angles = np.linspace(0.0, 2 * np.pi, k, endpoint=False)
    else:
        angles = np.linspace(0.0, cfg.orbit_span, k)
    for i, a in enumerate(angles):
        if cfg.trajectory == "line":
            eye = np.array([-1.0 + 2.0 * i / max(k - 1, 1), -cfg.orbit_radius, 1.3])
        else:
            eye = np.array(
                [cfg.orbit_radius * np.cos(a), cfg.orbit_radius * np.sin(a), 1.3]
            )
        poses.append(_look_at(eye, (0.0, 0.0, 0.8)))
    return poses


def _sample_canonical(rng, n: int, symmetry: str) -> tuple[np.ndarray, np.ndarray]:
    """Canonical surface points and outward normals. Symmetric objects use
    rotation-tolerant shapes (cylinder for round, square box for square)."""
    if symmetry == "round":
        theta = rng.uniform(0, 2 * np.pi, n)
        z = rng.uniform(-0.5, 0.5, n)
        pts = np.column_stack([0.45 * np.cos(theta), 0.45 * np.sin(theta), z])
        normals = np.column_stack([np.cos(theta), np.sin(theta), np.zeros(n)])
        return pts, normals
    faces = rng.integers(0, 6, n)
    uv = rng.uniform(-0.5, 0.5, (n, 2))
    pts = np.zeros((n, 3))
    normals = np.zeros((n, 3))
    for axis in range(3):
        for sign_idx, sign in enumerate((-0.5, 0.5)):
            sel = faces == 2 * axis + sign_idx
            other = [a for a in range(3) if a != axis]
            pts[sel, axis] = sign
            pts[sel, other[0]] = uv[sel, 0]
            pts[sel, other[1]] = uv[sel, 1]
            normals[sel, axis] = np.sign(sign)
    return pts, normals


def _symmetry_rotation(rng, symmetry: str) -> np.ndarray:
    """A random canonical-space rotation consistent with the symmetry class."""
    if symmetry == "round":
        a = rng.uniform(0, 2 * np.pi)
    elif symmetry == "square":
        a = rng.integers(0, 4) * np.pi / 2
    elif symmetry == "rectangle":
        a = rng.integers(0, 2) * np.pi
    else:
        return np.eye(3)
    c, s = np.cos(a), np.sin(a)
    if symmetry != "round":
        # a multiple of pi/2: exact entries keep a box face at |x| = 0.5
        c, s = np.round(c) + 0.0, np.round(s) + 0.0
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _visible(world_pts, normals_world, cam: RigidPose, to_cam: RigidPose, k: Intrinsics) -> np.ndarray:
    """Which world points camera ``cam`` sees: in front of it, inside the
    image and facing it. ``to_cam`` is its world-to-camera pose,
    ``_euler_exact(invert(cam))``."""
    local = apply_rigid(to_cam, world_pts)
    z = local[:, 2]
    ok = z > 0.1
    with np.errstate(divide="ignore", invalid="ignore"):
        u = k.fx * local[:, 0] / z + k.cx
        v = k.fy * local[:, 1] / z + k.cy
    ok &= (u >= 0) & (u < k.width) & (v >= 0) & (v < k.height)
    view = cam.translation - world_pts
    return ok & (np.sum(normals_world * view, axis=1) > 0)


def _background_shell(rng, cfg: SynthConfig):
    """Wall points of a room box around the scene, inward normals."""
    n = cfg.background_points
    half, height = 3.2, 3.0
    side = rng.integers(0, 4, n)
    u = rng.uniform(-half, half, n)
    z = rng.uniform(0.0, height, n)
    pts = np.zeros((n, 3))
    normals = np.zeros((n, 3))
    for s, (px, py, nx, ny) in enumerate(
        [(half, None, -1, 0), (-half, None, 1, 0), (None, half, 0, -1), (None, -half, 0, 1)]
    ):
        sel = side == s
        pts[sel, 0] = px if px is not None else u[sel]
        pts[sel, 1] = py if py is not None else u[sel]
        pts[sel, 2] = z[sel]
        normals[sel, 0] = nx
        normals[sel, 1] = ny
    # roughen the walls slightly so keypoint geometry is full-rank
    pts += rng.normal(0, 0.03, pts.shape)
    return pts, normals


def generate(cfg: SynthConfig) -> SynthResult:
    """Build a FrameSet with ground truth from a synthetic scene."""
    rng = np.random.Generator(np.random.PCG64(cfg.rng_seed))
    cams_abs = _trajectory(cfg)
    intr = DEFAULT_INTRINSICS

    # object layout around the scene center
    extents = np.asarray(cfg.object_extents, dtype=float)
    obj_world = []
    for o in range(cfg.num_objects):
        ang = 2 * np.pi * o / cfg.num_objects + rng.uniform(-0.2, 0.2)
        radius = 0.0 if cfg.num_objects == 1 else rng.uniform(0.6, 1.1)
        t = np.array([radius * np.cos(ang), radius * np.sin(ang), 0.8])
        yaw = rng.uniform(0, 2 * np.pi)
        sym = cfg.symmetries[o] if o < len(cfg.symmetries) else "non_symmetric"
        obj_world.append(
            {
                "pose": RigidPose(np.array([0.0, 0.0, yaw]), t),
                "scale": extents * rng.uniform(0.9, 1.1, 3),
                "class": o % cfg.num_classes,
                "symmetry": sym,
            }
        )

    # canonical surface samples, shared across frames per object
    for o, rec in enumerate(obj_world):
        pts, normals = _sample_canonical(rng, cfg.points_per_object, rec["symmetry"])
        rec["canonical"] = pts
        rec["normals_world"] = normals @ rec["pose"].rotation.T
        rec["world"] = apply_rigid(rec["pose"], pts * rec["scale"])
        direction = rng.normal(size=cfg.embed_dim)
        rec["embed_center"] = (
            cfg.embed_inter_separation * direction / np.linalg.norm(direction)
        )

    bg_pts, bg_normals = _background_shell(rng, cfg)

    to_cams = [_euler_exact(invert(c)) for c in cams_abs]  # world-to-camera, once per camera
    gt_rel = [_euler_exact(compose(to_cams[0], c)) for c in cams_abs]

    frames = [Frame(i, intr, float(i)) for i in range(cfg.num_frames)]
    observations = []
    outlier_masks = {}
    obj_seen = [False] * cfg.num_objects
    for i, (cam, to_cam) in enumerate(zip(cams_abs, to_cams)):
        det = 0
        for o, rec in enumerate(obj_world):
            vis = _visible(rec["world"], rec["normals_world"], cam, to_cam, intr)
            if vis.sum() < 15:
                continue
            obj_seen[o] = True
            world = rec["world"][vis]
            noc = rec["canonical"][vis] @ _symmetry_rotation(rng, rec["symmetry"]).T
            depth = apply_rigid(to_cam, world)
            if cfg.noise_sigma_noc > 0:
                noc = np.clip(noc + rng.normal(0, cfg.noise_sigma_noc, noc.shape), -0.5, 0.5)
            if cfg.noise_sigma_depth > 0:
                depth = depth + rng.normal(0, cfg.noise_sigma_depth, depth.shape)
            is_outlier = rng.random(len(depth)) < cfg.outlier_fraction
            if is_outlier.any():
                dirs = rng.normal(size=(int(is_outlier.sum()), 3))
                dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
                mags = rng.uniform(0.5, 1.0, int(is_outlier.sum()))
                depth[is_outlier] += dirs * mags[:, None]
            embedding = rec["embed_center"] + rng.normal(0, cfg.embed_intra_sigma, cfg.embed_dim)
            observations.append(
                ObjectObservation(
                    i, det, rec["class"], noc, depth, rec["scale"], embedding, rec["symmetry"]
                )
            )
            outlier_masks[(i, det)] = is_outlier
            det += 1

    if not all(obj_seen):
        missing = [o for o, seen in enumerate(obj_seen) if not seen]
        raise ValueError(f"objects {missing} have no visible points in any frame")

    matches = []
    if cfg.keypoints_per_pair > 0:
        bg_vis = [_visible(bg_pts, bg_normals, c, t, intr) for c, t in zip(cams_abs, to_cams)]
        for i in range(cfg.num_frames):
            for j in range(i + 1, cfg.num_frames):
                idx = np.nonzero(bg_vis[i] & bg_vis[j])[0]
                if len(idx) < 5:
                    continue
                pick = rng.choice(idx, min(cfg.keypoints_per_pair, len(idx)), replace=False)
                pi = apply_rigid(to_cams[i], bg_pts[pick])
                pj = apply_rigid(to_cams[j], bg_pts[pick])
                if cfg.noise_sigma_depth > 0:
                    pi = pi + rng.normal(0, cfg.noise_sigma_depth, pi.shape)
                    pj = pj + rng.normal(0, cfg.noise_sigma_depth, pj.shape)
                matches.append(KeypointMatch(i, j, pi, pj))

    fs = FrameSet(frames, matches, observations, gt_rel).validate()
    return SynthResult(fs, gt_rel, outlier_masks)


def overlap(points_a, points_b, radius: float = 0.01) -> float:
    """Percentage of A-points with a B-neighbor within radius."""
    points_a = np.asarray(points_a, dtype=float).reshape(-1, 3)
    points_b = np.asarray(points_b, dtype=float).reshape(-1, 3)
    if len(points_a) == 0 or len(points_b) == 0:
        raise ValueError("overlap needs non-empty point sets")
    from scipy.spatial import cKDTree  # on first use, as in procrustes.icp_refine_sets

    dist, _ = cKDTree(points_b).query(points_a, distance_upper_bound=radius)
    return 100.0 * float(np.mean(np.isfinite(dist)))


def measure_pair_overlap(fs: FrameSet, radius: float = 0.01) -> float:
    """Percentage of frame 0's points with a frame-1 point within ``radius``,
    both mapped into the shared world by the ground-truth poses."""
    gt = fs.ground_truth
    return overlap(
        apply_rigid(gt[0], fs.frame_points(0)), apply_rigid(gt[1], fs.frame_points(1)), radius
    )


def make_pair_suite(
    buckets: list[tuple[float, float]],
    n_per_bucket: int,
    cfg: SynthConfig,
    radius: float = 0.01,
) -> list[tuple[tuple[float, float], float, SynthResult]]:
    """Rejection-sample 2-frame scenes until the measured overlap percentage
    lands in each requested (lo, hi) bucket, drawing at most
    MAX_SUITE_ATTEMPTS scenes for one bucket.

    Low-overlap pairs (hi <= 10) drop their keypoints with probability 0.5 to
    exercise the object-only registration path.
    """
    rng = np.random.Generator(np.random.PCG64(cfg.rng_seed ^ 0x5EEDBEEF))
    suite = []
    for lo, hi in buckets:
        produced = 0
        attempts = 0
        while produced < n_per_bucket:
            if attempts >= MAX_SUITE_ATTEMPTS:
                raise RuntimeError(
                    f"bucket ({lo}, {hi}) unreachable after {MAX_SUITE_ATTEMPTS} attempts"
                )
            attempts += 1
            # wider camera separation drives overlap down
            frac = 1.0 - (lo + min(hi, 100.0)) / 200.0
            span = np.pi * (0.15 + 1.7 * frac * rng.uniform(0.7, 1.3))
            span = float(np.clip(span, 0.05, 2 * np.pi * 0.95))
            sub = SynthConfig(
                **{
                    **cfg.__dict__,
                    "num_frames": 2,
                    "orbit_span": span,
                    "rng_seed": int(rng.integers(0, 2**63)),
                }
            )
            if hi <= 10 and rng.random() < 0.5:
                sub = SynthConfig(**{**sub.__dict__, "keypoints_per_pair": 0})
            try:
                result = generate(sub)
            except ValueError:
                continue
            pct = measure_pair_overlap(result.frameset, radius)
            if lo <= pct <= hi:
                suite.append(((lo, hi), pct, result))
                produced += 1
    return suite
