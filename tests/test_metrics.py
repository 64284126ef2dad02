import numpy as np
import pytest

from objreg.geometry import RigidPose, apply_rigid
from objreg.metrics import (
    RecallThreshold,
    Trajectory,
    ate_rmse,
    pose_error,
    pose_recall,
    read_tum,
    write_tum,
)


def random_pose(rng):
    return RigidPose(rng.uniform(-np.pi, np.pi, 3), rng.uniform(-2, 2, 3))


def circle_trajectory(n=40, radius=2.0, rng=None):
    ts = np.arange(n, dtype=float)
    poses = []
    for k in range(n):
        a = 2 * np.pi * k / n
        angles = np.array([0.0, 0.0, a])
        t = np.array([radius * np.cos(a), radius * np.sin(a), 0.1 * k])
        if rng is not None:
            t = t + rng.normal(0, 0.0, 3)
        poses.append(RigidPose(angles, t))
    return Trajectory(ts, poses)


class TestPoseError:
    def test_zero(self):
        p = RigidPose(np.array([0.3, -0.2, 1.0]), np.array([1.0, 2.0, 3.0]))
        assert pose_error(p, p) == (0.0, 0.0)

    def test_known_rotation(self):
        a = RigidPose(np.array([0.0, 0.0, np.deg2rad(10)]), np.zeros(3))
        b = RigidPose.identity()
        rot, trans = pose_error(a, b)
        assert abs(rot - 10.0) < 1e-9 and trans == 0.0

    def test_known_translation(self):
        a = RigidPose(np.zeros(3), np.array([0.3, 0.0, 0.4]))
        rot, trans = pose_error(a, RigidPose.identity())
        assert rot == 0.0 and abs(trans - 0.5) < 1e-12

    def test_clipping_near_pi(self):
        a = RigidPose(np.array([np.pi, 0.0, 0.0]), np.zeros(3))
        rot, _ = pose_error(a, RigidPose.identity())
        assert abs(rot - 180.0) < 1e-6

    def test_tiny_rotation_keeps_precision(self):
        # the arccos of (tr - 1) / 2 reads 0 below ~2e-8 rad
        a = RigidPose(np.array([1e-9, 0.0, 0.0]), np.zeros(3))
        rot, _ = pose_error(a, RigidPose.identity())
        assert rot == pytest.approx(np.degrees(1e-9), rel=1e-6)
        assert rot == pytest.approx(5.7296e-8, rel=1e-4)

    def test_half_turn(self):
        for axis in np.eye(3):
            a = RigidPose.from_rotation(2.0 * np.outer(axis, axis) - np.eye(3), np.zeros(3))
            assert pose_error(a, RigidPose.identity())[0] == 180.0


class TestPoseRecall:
    def test_boundary_inclusive(self):
        th = RecallThreshold(5.0, 10.0)
        assert pose_recall([(5.0, 0.10)], th) == 100.0
        assert pose_recall([(5.0001, 0.10)], th) == 0.0
        assert pose_recall([(5.0, 0.1001)], th) == 0.0

    def test_percentage(self):
        errs = [(1.0, 0.01), (20.0, 0.01), (1.0, 0.9), (2.0, 0.02)]
        assert pose_recall(errs, RecallThreshold(5, 10)) == 50.0

    def test_monotone_in_thresholds(self):
        rng = np.random.default_rng(3)
        errs = list(zip(rng.uniform(0, 30, 200), rng.uniform(0, 0.5, 200)))
        prev = -1.0
        for rot, trans in [(1, 2), (5, 10), (10, 20), (15, 30), (40, 60)]:
            r = pose_recall(errs, RecallThreshold(rot, trans))
            assert r >= prev
            prev = r

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pose_recall([], RecallThreshold(5, 10))

    def test_threshold_validation(self):
        """Each threshold must be finite and positive, naming the field."""
        for rot, trans, name in (
            (0.0, 10.0, "rot_deg"), (np.nan, 10.0, "rot_deg"), (5.0, np.inf, "trans_cm"), (5.0, -1.0, "trans_cm"),
        ):
            with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
                RecallThreshold(rot, trans)


class TestAteRmse:
    def test_identical_zero(self):
        traj = circle_trajectory()
        assert ate_rmse(traj, traj) < 1e-12

    def test_rigid_invariance(self):
        rng = np.random.default_rng(4)
        gt = circle_trajectory()
        for _ in range(20):
            g = random_pose(rng)
            moved = Trajectory(
                gt.timestamps,
                [RigidPose(p.angles, apply_rigid(g, p.translation[None, :])[0]) for p in gt.poses],
            )
            assert ate_rmse(moved, gt) < 1e-9

    def test_noise_matches_sigma_sqrt3(self):
        # Monte-Carlo oracle: isotropic Gaussian position noise of sigma per
        # axis gives expected RMSE sigma * sqrt(3)
        rng = np.random.default_rng(5)
        sigma = 0.03
        vals = []
        for _ in range(50):
            gt = circle_trajectory(60)
            noisy = Trajectory(
                gt.timestamps,
                [
                    RigidPose(p.angles, p.translation + rng.normal(0, sigma, 3))
                    for p in gt.poses
                ],
            )
            vals.append(ate_rmse(noisy, gt))
        mean = np.mean(vals)
        assert abs(mean - sigma * np.sqrt(3)) < 0.1 * sigma * np.sqrt(3)

    def test_too_few_associations(self):
        a = Trajectory(np.array([0.0, 1.0]), [RigidPose.identity()] * 2)
        b = Trajectory(np.array([10.0, 11.0]), [RigidPose.identity()] * 2)
        with pytest.raises(ValueError):
            ate_rmse(a, b)

    @pytest.mark.parametrize("empty_side", ["est", "gt"])
    def test_empty_trajectory(self, empty_side):
        """An empty trajectory on either side has no associations."""
        full, empty = circle_trajectory(5), Trajectory(np.zeros(0), [])
        sides = (empty, full) if empty_side == "est" else (full, empty)
        with pytest.raises(ValueError, match=r"only 0 timestamp associations \(need >= 2\)"):
            ate_rmse(*sides)

    def test_association_window(self):
        # shifted by 15 ms still associates; 25 ms does not
        gt = circle_trajectory(10)
        near = Trajectory(gt.timestamps + 0.015, gt.poses)
        assert ate_rmse(near, gt) < 1e-9
        far = Trajectory(gt.timestamps + 0.025, gt.poses)
        with pytest.raises(ValueError):
            ate_rmse(far, gt)


class TestTumIO:
    def test_identity_line(self, tmp_path):
        path = tmp_path / "t.tum"
        path.write_text("# comment\n0.0 0 0 0 0 0 0 1\n")
        traj = read_tum(path)
        assert len(traj) == 1
        assert np.abs(traj.poses[0].to_matrix() - np.eye(4)).max() < 1e-12

    def test_round_trip_byte_stable(self, tmp_path):
        rng = np.random.default_rng(6)
        traj = Trajectory(
            np.arange(20, dtype=float), [random_pose(rng) for _ in range(20)]
        )
        p1, p2 = tmp_path / "a.tum", tmp_path / "b.tum"
        write_tum(traj, p1)
        write_tum(read_tum(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_values(self, tmp_path):
        rng = np.random.default_rng(7)
        traj = Trajectory(np.arange(30, dtype=float), [random_pose(rng) for _ in range(30)])
        path = tmp_path / "t.tum"
        write_tum(traj, path)
        back = read_tum(path)
        for a, b in zip(back.poses, traj.poses):
            assert np.abs(a.to_matrix() - b.to_matrix()).max() < 1e-7

    def test_bad_quaternion_norm(self, tmp_path):
        path = tmp_path / "bad.tum"
        path.write_text("0.0 0 0 0 0 0 0 0.9\n")
        with pytest.raises(ValueError, match="norm"):
            read_tum(path)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "bad.tum"
        path.write_text("0.0 0 0 0 0 0 1\n")
        with pytest.raises(ValueError, match="8 fields"):
            read_tum(path)

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "bad.tum"
        path.write_text("0.0 0 x 0 0 0 0 1\n")
        with pytest.raises(ValueError, match="non-numeric"):
            read_tum(path)

    @pytest.mark.parametrize("line", [
        "nan 0 0 0 0 0 0 1",
        "inf 0 0 0 0 0 0 1",
        "1 0 nan 0 0 0 0 1",
        "1 -inf 0 0 0 0 0 1",
        "1 0 0 0 inf 0 0 1",
        "1 0 0 0 0 0 0 nan",
    ])
    def test_non_finite_field_named(self, tmp_path, line):
        """Any nan or inf field is rejected with ``path:lineno``, also an inf
        timestamp after a finite one."""
        path = tmp_path / "bad.tum"
        path.write_text(f"0 0 0 0 0 0 0 1\n{line}\n")
        with pytest.raises(ValueError, match=r"bad\.tum:2: non-finite field"):
            read_tum(path)
        path.write_text(f"{line}\n")
        with pytest.raises(ValueError, match=r"bad\.tum:1: non-finite field"):
            read_tum(path)

    def test_repeated_or_decreasing_timestamp_named(self, tmp_path):
        path = tmp_path / "bad.tum"
        for second in ("0.5", "0.2"):
            path.write_text(f"# header\n0.5 0 0 0 0 0 0 1\n{second} 0 0 0 0 0 0 1\n")
            with pytest.raises(ValueError, match=r"bad\.tum:3: timestamp"):
                read_tum(path)


class TestTrajectory:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 1.0]), [RigidPose.identity()])

    def test_non_monotone_timestamps(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 0.0]), [RigidPose.identity()] * 2)
