from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from objreg import geometry
from objreg.geometry import (
    Intrinsics,
    ObjectPose,
    RigidPose,
    _is_real,
    _pose_builders,
    apply_rigid,
    compose,
    invert,
    rotation_angle,
    rotation_from_euler,
    euler_from_rotation,
    skew,
    so3_exp,
    so3_log,
)
from objreg.joint_solver import SolverConfig
from objreg.matching import MatchConfig
from objreg.metrics import RecallThreshold
from objreg.posegraph import GraphConfig
from objreg.procrustes import FilterConfig
from reference import apply_object, ref_so3_exp, ref_so3_log

RNG = np.random.default_rng(42)


def random_pose(rng=RNG):
    return RigidPose(rng.uniform(-np.pi, np.pi, 3), rng.uniform(-2, 2, 3))


def rot_z(a):
    return RigidPose(np.array([0.0, 0.0, a]), np.zeros(3))


def matrix_distance(a, b):
    return np.max(np.abs(a.to_matrix() - b.to_matrix()))


class TestRigidPose:
    def test_identity_matrix(self):
        assert np.allclose(RigidPose.identity().to_matrix(), np.eye(4))

    def test_rotation_proper(self):
        for _ in range(100):
            r = random_pose().rotation
            assert np.abs(r.T @ r - np.eye(3)).max() < 1e-9
            assert np.linalg.det(r) > 0

    def test_matrix_round_trip(self):
        for _ in range(500):
            p = random_pose()
            q = RigidPose.from_matrix(p.to_matrix())
            assert matrix_distance(p, q) < 1e-9

    def test_round_trip_near_gimbal_lock(self):
        rng = np.random.default_rng(7)
        for sign in (1, -1):
            for _ in range(100):
                angles = rng.uniform(-np.pi, np.pi, 3)
                angles[1] = sign * np.pi / 2 + rng.uniform(-1e-4, 1e-4)
                p = RigidPose(angles, rng.uniform(-1, 1, 3))
                q = RigidPose.from_matrix(p.to_matrix())
                # inside the canonical-form window (|cos gy| < 1e-7) the
                # gx = 0 preimage is exact only up to ~|cos gy|
                cy = abs(np.cos(angles[1]))
                bound = 1e-9 if cy >= 1e-7 else max(1e-9, 2 * cy)
                assert matrix_distance(p, q) < bound
                # canonical form picks gx = 0 exactly at lock
                exact = RigidPose(np.array([0.3, sign * np.pi / 2, -0.8]), np.zeros(3))
                dec = euler_from_rotation(exact.rotation)
                assert dec[0] == 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            RigidPose(np.array([np.nan, 0, 0]), np.zeros(3))
        with pytest.raises(ValueError):
            RigidPose.from_rotation(np.full((3, 3), np.nan), np.zeros(3))

    def test_from_matrix_rejects_non_rotations(self):
        reflection = np.diag([1.0, 1.0, -1.0, 1.0])
        doubled = np.diag([2.0, 2.0, 2.0, 1.0])
        for bad in (reflection, doubled):
            with pytest.raises(ValueError, match="not a rotation"):
                RigidPose.from_matrix(bad)


class TestPoseRepresentation:
    """Poses store rotation matrices; Euler angles are derived on demand."""

    def test_angles_construct_the_euler_rotation(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            angles = rng.uniform(-np.pi, np.pi, 3)
            pose = RigidPose(angles, rng.uniform(-1, 1, 3))
            obj = ObjectPose(angles, np.zeros(3), np.ones(3))
            expected = rotation_from_euler(angles).tobytes()
            assert pose.rotation.tobytes() == expected == obj.rotation.tobytes()
            assert pose.angles.tobytes() == angles.tobytes() == obj.angles.tobytes()

    def test_from_rotation_stores_the_matrix(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            r = so3_exp(rng.uniform(-3, 3, 3))
            pose = RigidPose.from_rotation(r, np.zeros(3))
            obj = ObjectPose.from_rotation(r, np.zeros(3), np.ones(3))
            assert pose.rotation.tobytes() == r.tobytes() == obj.rotation.tobytes()
            angles = euler_from_rotation(r).tobytes()
            assert pose.angles.tobytes() == angles == obj.angles.tobytes()
            r[0, 0] = 5.0  # the pose keeps its own copy
            assert pose.rotation[0, 0] != 5.0

    def test_rotation_and_angles_are_read_only(self):
        for pose in (
            RigidPose(np.array([0.1, 0.2, 0.3]), np.zeros(3)),
            RigidPose.from_rotation(so3_exp(np.array([0.1, 0.2, 0.3])), np.zeros(3)),
            compose(random_pose(), random_pose()),
            ObjectPose(np.array([0.1, 0.2, 0.3])),
        ):
            before = pose.angles.copy()
            with pytest.raises(ValueError):
                pose.rotation[0, 0] = 1.0
            with pytest.raises(ValueError):
                pose.angles[0] = 1.0
            assert pose.angles.tobytes() == before.tobytes()

    def test_pose_builders_check_once(self):
        """Finite arrays get the unchecked builders, whose poses are
        read-only views of them; any non-finite value gets the checked
        constructors, which raise naming what is wrong."""
        rot = so3_exp(RNG.uniform(-1, 1, (2, 2, 3)))
        trans, scale = RNG.uniform(-1, 1, (2, 2, 3)), RNG.uniform(0.5, 1.5, (2, 3))
        rigid, placed = _pose_builders(rot, trans, scale)
        assert (rigid, placed) == (RigidPose._of, ObjectPose._of)
        cam, obj = rigid(rot[0, 0], trans[0, 0]), placed(rot[0, 1], trans[0, 1], scale[0])
        assert cam.rotation.base is rot and obj.scale.base is scale
        assert not (cam.rotation.flags.writeable or obj.rotation.flags.writeable)
        for array, index, message in (
            (rot, (1, 0, 2, 2), "non-finite rotation"),
            (trans, (1, 0, 1), "non-finite pose parameters"),
            (scale, (1, 0), "non-finite object scale"),
        ):
            saved, array[index] = array[index], np.nan
            rigid, placed = _pose_builders(rot, trans, scale)
            assert (rigid, placed) == (RigidPose.from_rotation, ObjectPose.from_rotation)
            rigid(rot[0, 0], trans[0, 0])  # a finite pose still builds
            with pytest.raises(ValueError, match=message):
                rigid(rot[1, 0], trans[1, 0]) if array is not scale else placed(rot[1, 1], trans[1, 1], scale[1])
            array[index] = saved

    def test_matrix_operations_never_pass_through_angles(self, monkeypatch):
        def forbidden(*_):
            raise AssertionError("Euler conversion on a matrix path")

        a, b = random_pose(), random_pose()
        monkeypatch.setattr(geometry, "rotation_from_euler", forbidden)
        monkeypatch.setattr(geometry, "euler_from_rotation", forbidden)
        ab = compose(a, b)
        inv = invert(ab)
        ident = RigidPose.identity()
        assert np.array_equal(ident.rotation, np.eye(3))
        assert np.abs((inv.rotation @ ab.rotation) - np.eye(3)).max() < 1e-12
        assert np.array_equal(ab.rotation, a.rotation @ b.rotation)
        assert apply_rigid(inv, ab.translation[None, :]).shape == (1, 3)
        assert ab.copy().rotation is ab.rotation


class TestCompose:
    def test_identity(self):
        e = RigidPose.identity()
        assert matrix_distance(compose(e, e), e) < 1e-12

    def test_inverse_law(self):
        for _ in range(100):
            p = random_pose()
            assert matrix_distance(compose(p, invert(p)), RigidPose.identity()) < 1e-9

    def test_rot_z_quarter_turns(self):
        # hand oracle: two quarter turns about z equal a half turn
        got = compose(rot_z(np.pi / 2), rot_z(np.pi / 2))
        expected = np.array([[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.abs(got.rotation - expected).max() < 1e-12

    def test_matches_matrix_product(self):
        for _ in range(200):
            a, b = random_pose(), random_pose()
            assert np.abs(compose(a, b).to_matrix() - a.to_matrix() @ b.to_matrix()).max() < 1e-9

    def test_associativity(self):
        for _ in range(100):
            a, b, c = random_pose(), random_pose(), random_pose()
            assert matrix_distance(compose(compose(a, b), c), compose(a, compose(b, c))) < 1e-9


class TestInvert:
    def test_identity(self):
        assert matrix_distance(invert(RigidPose.identity()), RigidPose.identity()) < 1e-12

    def test_pure_translation(self):
        p = RigidPose(np.zeros(3), np.array([1.0, 2.0, 3.0]))
        assert np.allclose(invert(p).translation, [-1.0, -2.0, -3.0])

    def test_property_1000_random(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            p = random_pose(rng)
            assert matrix_distance(compose(p, invert(p)), RigidPose.identity()) < 1e-9


class TestApplyRigid:
    def test_identity(self):
        pts = RNG.uniform(-1, 1, (50, 3))
        assert np.array_equal(apply_rigid(RigidPose.identity(), pts), pts)

    def test_axis_rotation(self):
        out = apply_rigid(rot_z(np.pi / 2), np.array([[1.0, 0.0, 0.0]]))
        assert np.allclose(out, [[0.0, 1.0, 0.0]], atol=1e-12)

    def test_homogeneous_matrix_oracle(self):
        for _ in range(20):
            p = random_pose()
            pts = RNG.uniform(-3, 3, (100, 3))
            hom = np.column_stack([pts, np.ones(100)])
            expected = (p.to_matrix() @ hom.T).T[:, :3]
            assert np.abs(apply_rigid(p, pts) - expected).max() < 1e-12

    def test_isometry(self):
        pts = RNG.uniform(-1, 1, (30, 3))
        for _ in range(50):
            moved = apply_rigid(random_pose(), pts)
            d0 = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
            d1 = np.linalg.norm(moved[:, None] - moved[None, :], axis=-1)
            assert np.abs(d0 - d1).max() < 1e-9


class TestApplyObject:
    def test_pure_scaling(self):
        p = ObjectPose(np.zeros(3), np.zeros(3), np.array([2.0, 2.0, 2.0]))
        out = apply_object(p, np.array([[0.5, 0.5, 0.5]]))
        assert np.allclose(out, [[1.0, 1.0, 1.0]])

    def test_unit_scale_reduces_to_rigid(self):
        rigid = random_pose()
        obj = ObjectPose(rigid.angles, rigid.translation, np.ones(3))
        pts = RNG.uniform(-0.5, 0.5, (40, 3))
        assert np.allclose(apply_object(obj, pts), apply_rigid(rigid, pts))

    def test_scale_then_rigid_oracle(self):
        for _ in range(50):
            angles = RNG.uniform(-np.pi, np.pi, 3)
            t = RNG.uniform(-2, 2, 3)
            s = RNG.uniform(0.2, 3.0, 3)
            obj = ObjectPose(angles, t, s)
            pts = RNG.uniform(-0.5, 0.5, (30, 3))
            expected = apply_rigid(RigidPose(angles, t), pts * s)
            assert np.abs(apply_object(obj, pts) - expected).max() < 1e-12

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            ObjectPose(scale=np.array([1.0, np.inf, 1.0]))
        with pytest.raises(ValueError):
            ObjectPose(scale=np.array([1.0, -0.1, 1.0]))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ObjectPose((np.nan, 0.0, 0.0)),
            lambda: ObjectPose(translation=(np.inf, 0.0, 0.0)),
            lambda: ObjectPose.from_rotation(np.eye(3), (np.nan, 0.0, 0.0), (1.0, 1.0, 1.0)),
        ],
        ids=["angles", "translation", "from_rotation translation"],
    )
    def test_non_finite_rejected(self, make):
        """Both constructors reject non-finite input, as RigidPose's do."""
        with pytest.raises(ValueError, match="non-finite pose parameters"):
            make()


rotation_vectors = st.lists(
    st.floats(-np.pi, np.pi, allow_nan=False), min_size=3, max_size=3
).map(np.array)


class TestSO3:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(rotation_vectors)
    def test_log_inverts_exp(self, w):
        # Log is the principal branch: an exact inverse only inside the pi-ball
        assume(np.linalg.norm(w) < np.pi - 1e-6)
        assert np.abs(so3_log(so3_exp(w)) - w).max() < 1e-9

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.floats(-20.0, 20.0, allow_nan=False), min_size=3, max_size=3).map(np.array))
    def test_exp_is_proper_rotation(self, w):
        r = so3_exp(w)
        assert np.abs(r.T @ r - np.eye(3)).max() < 1e-12
        assert abs(np.linalg.det(r) - 1.0) < 1e-12

    ANGLES = (0.0, 1e-9, 1e-5, 1.0, 3.0, np.pi - 1e-6, np.pi)

    def axes(self, seed, n=50):
        axes = np.random.default_rng(seed).normal(size=(n, 3))
        return axes / np.linalg.norm(axes, axis=1, keepdims=True)

    def test_exp_matches_scipy(self):
        for angle in self.ANGLES:
            phi = self.axes(30) * angle
            expected = Rotation.from_rotvec(phi).as_matrix()
            assert np.abs(so3_exp(phi) - expected).max() <= 1e-15, angle

    def test_log_matches_scipy_on_exact_rotations(self):
        for angle in self.ANGLES:
            rot = Rotation.from_rotvec(self.axes(31) * angle).as_matrix()
            got, expected = so3_log(rot), Rotation.from_matrix(rot).as_rotvec()
            if angle == np.pi:  # Log is two-valued at pi: +-axis
                flip = np.abs(got + expected).max(axis=1) < np.abs(got - expected).max(axis=1)
                expected[flip] *= -1.0
            assert np.abs(got - expected).max() <= 1e-15, angle

    def test_log_matches_scipy_on_products(self):
        rng = np.random.default_rng(32)
        for angle in self.ANGLES:
            first = Rotation.from_rotvec(self.axes(33) * angle).as_matrix()
            rot = first @ so3_exp(rng.normal(size=(50, 3))) @ so3_exp(rng.normal(size=(50, 3)))
            expected = Rotation.from_matrix(rot).as_rotvec()
            assert np.abs(so3_log(rot) - expected).max() <= 1e-14, angle

    def test_rotation_angle(self):
        for angle in self.ANGLES:
            for rot in Rotation.from_rotvec(self.axes(34) * angle).as_matrix():
                assert abs(rotation_angle(rot) - angle) <= 4e-16 * max(angle, 1.0), angle
        assert rotation_angle(np.eye(3)) == 0.0

    # angles on both sides of the series thresholds (1e-4 rad for Exp, 1e-3
    # for Log), near pi, and zero
    EDGE_ANGLES = [
        0.0,
        np.nextafter(1e-4, 0.0), 1e-4, np.nextafter(1e-4, 1.0),
        np.nextafter(1e-3, 0.0), 1e-3, np.nextafter(1e-3, 1.0),
        np.pi - 1e-6, np.nextafter(np.pi, 0.0), np.pi,
    ]

    def bitwise_cases(self):
        """Rotation vectors: seeded batches over many scales, each edge angle
        alone, mixed with large angles, and with signed zeros."""
        rng = np.random.default_rng(35)
        cases = []
        for _ in range(200):
            n = int(rng.integers(1, 40))
            cases.append(self.axes(rng.integers(1 << 30), n) * 10 ** rng.uniform(-7, 0.5, (n, 1)))
        for angle in self.EDGE_ANGLES:
            cases.append(self.axes(36, 20) * angle)
            cases.append(np.vstack([self.axes(37, 5) * angle, rng.uniform(-2, 2, (5, 3))]))
        signed = rng.normal(size=(30, 3))
        signed.flat[::4] = 0.0
        signed.flat[1::5] = -0.0
        cases += [signed, signed * 1e-5, np.array([-0.0, 0.0, -0.0]), rng.normal(size=(4, 5, 3))]
        return cases

    def test_exp_bitwise_equal_to_plain_form(self):
        # reference.ref_so3_exp takes every Taylor where; so3_exp skips them
        # when no angle needs them
        for phi in self.bitwise_cases():
            assert so3_exp(phi).tobytes() == ref_so3_exp(phi).tobytes(), phi

    def test_log_bitwise_equal_to_plain_form(self):
        # reference.ref_so3_log builds all ten Markley entries and takes every
        # Taylor where; so3_log takes the trace row directly when every row
        # picks it, and skips the series when it can
        rng = np.random.default_rng(38)
        signed_zero_rotations = np.array([
            [[1.0, -0.0, 0.0], [0.0, 1.0, -0.0], [-0.0, 0.0, 1.0]],
            [[-1.0, 0.0, -0.0], [-0.0, -1.0, 0.0], [0.0, -0.0, 1.0]],
            [[1.0, 0.0, -0.0], [-0.0, -1.0, -0.0], [0.0, 0.0, -1.0]],
            [[-1.0, -0.0, 0.0], [0.0, 1.0, 0.0], [-0.0, 0.0, -1.0]],
        ])
        for phi in self.bitwise_cases():
            rot = ref_so3_exp(phi)
            products = rot @ ref_so3_exp(rng.normal(size=phi.shape))
            turned = signed_zero_rotations @ rot.reshape(-1, 3, 3)[0]
            for r in (rot, products, signed_zero_rotations, turned):
                assert so3_log(r).tobytes() == ref_so3_log(r).tobytes(), r

    def test_batched_shapes_and_axis_oracle(self):
        w = np.array([[0.0, 0.0, np.pi / 2], [0.3, -0.2, 0.1]])
        r = so3_exp(w)
        assert r.shape == (2, 3, 3) and so3_log(r).shape == (2, 3)
        assert np.allclose(r[0], rot_z(np.pi / 2).rotation, atol=1e-15)
        assert np.allclose(skew(w[1]) @ w[0], np.cross(w[1], w[0]))


def test_intrinsics_validation():
    with pytest.raises(ValueError):
        Intrinsics(fx=-1.0, fy=1.0, cx=0.0, cy=0.0, width=10, height=10)
    with pytest.raises(ValueError):
        Intrinsics(fx=1.0, fy=1.0, cx=20.0, cy=0.0, width=10, height=10)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="focal"):
            Intrinsics(fx=bad, fy=1.0, cx=0.0, cy=0.0, width=10, height=10)


class TestSkew:
    def test_bitwise_equal_to_cross_reference(self):
        rng = np.random.default_rng(12)
        for shape in [(3,), (50, 3), (4, 5, 3)]:
            v = rng.normal(size=shape)
            # exact and negative zeros, where np.cross yields signed zeros
            v.flat[::4] = 0.0
            v.flat[1::7] = -0.0
            reference = np.cross(np.eye(3), v[..., None, :])
            got = skew(v)
            assert got.shape == reference.shape == shape[:-1] + (3, 3)
            assert got.tobytes() == reference.tobytes()


# every real-valued field of the config classes, with the arguments each
# class needs besides it
CONFIG_BASE = {SolverConfig: {}, FilterConfig: {}, GraphConfig: {}, MatchConfig: {},
               RecallThreshold: {"rot_deg": 15.0, "trans_cm": 30.0}}
REAL_FIELDS = [(cls, f.name) for cls in CONFIG_BASE for f in fields(cls) if f.type == "float"]


def test_real_fields_listed():
    assert len(REAL_FIELDS) == 3 + 1 + 8 + 4 + 2


@pytest.mark.parametrize("value", [True, np.True_, "0.1"], ids=["bool", "np.bool_", "str"])
@pytest.mark.parametrize("cls, name", REAL_FIELDS, ids=[f"{c.__name__}.{n}" for c, n in REAL_FIELDS])
def test_config_real_field_rejects_non_number(cls, name, value):
    """A bool or a string is no real number: rejected naming the field."""
    assert not _is_real(value)
    with pytest.raises(ValueError, match=name):
        cls(**{**CONFIG_BASE[cls], name: value})
