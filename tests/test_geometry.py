import math
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_box, random_scene
from lidarmix.geometry import (
    Box3D,
    DomainTag,
    NonPositiveScale,
    Scene,
    apply_rigid_transform,
    normalize_yaw,
    points_in_box,
    spherical_from_xyz,
    wrap_azimuth,
    xyz_from_spherical,
)


def _aer(x, y, z):
    """(azimuth, elevation, range) of one point, through the vectorized path."""
    return spherical_from_xyz(np.array([[x, y, z]], dtype=np.float64))[0]


class TestSphericalConversion:
    def test_x_axis(self):
        assert np.array_equal(_aer(1, 0, 0), [0.0, 0.0, 1.0])

    def test_pole_convention(self):
        # +z axis points are valid: azimuth 0 by convention, not an error.
        assert np.array_equal(_aer(0, 0, 1), [0.0, math.pi / 2, 1.0])

    def test_origin_row_maps_to_zero(self):
        # azimuth is undefined at the origin; the row comes out as zeros
        rows = spherical_from_xyz(np.array([[0.0, 0.0, 0.0], [0.0, 2.0, 0.0]]))
        assert np.array_equal(rows, [[0.0, 0.0, 0.0], [math.pi / 2, 0.0, 2.0]])

    def test_diagonal(self):
        # hand evaluation: atan2(1, 1) = pi/4, atan2(sqrt2, sqrt2) = pi/4,
        # range = sqrt(1 + 1 + 2) = 2
        assert np.array_equal(_aer(1, 1, math.sqrt(2)), [math.pi / 4, math.pi / 4, 2.0])

    def test_inverse_axis_cases(self):
        xyz = xyz_from_spherical(np.array([[0.0, 0.0, 1.0], [math.pi, 0.0, 2.0]]))
        assert xyz[0].tolist() == [1.0, 0.0, 0.0]
        # cos(pi) rounds to -1 exactly; sin(pi) leaves a residue near 1e-16
        assert (xyz[1, 0], xyz[1, 2]) == (-2.0, 0.0)
        assert abs(xyz[1, 1]) < 1e-15

    def test_round_trip_1000_points(self, rng):
        # ranges up to just under 300 m
        xyz = rng.uniform(-173.0, 173.0, size=(1000, 3))
        back = xyz_from_spherical(spherical_from_xyz(xyz))
        assert np.abs(back - xyz).max() < 1e-9

    def test_round_trip_scalar_matches_vector(self, rng):
        # a single row converts exactly as it does inside a batch
        xyz = rng.uniform(-50, 50, size=(20, 3))
        aer = spherical_from_xyz(xyz)
        for i in range(len(xyz)):
            assert np.array_equal(spherical_from_xyz(xyz[i : i + 1])[0], aer[i])
            back = xyz_from_spherical(aer[i : i + 1])[0]
            assert np.array_equal(back, xyz_from_spherical(aer)[i])
            assert back == pytest.approx(xyz[i], abs=1e-9)

    @given(st.floats(-1e6, 1e6))
    def test_wrap_azimuth_range(self, angle):
        a = wrap_azimuth(angle)
        assert 0.0 <= a < 2 * math.pi


class TestYawNormalization:
    @given(st.floats(-1e6, 1e6))
    def test_idempotent(self, yaw):
        once = normalize_yaw(yaw)
        assert -math.pi <= once < math.pi
        assert normalize_yaw(once) == once

    def test_pi_maps_to_minus_pi(self):
        assert normalize_yaw(math.pi) == -math.pi

    def test_in_range_untouched(self):
        assert normalize_yaw(1e-17) == 1e-17
        assert normalize_yaw(-math.pi) == -math.pi

    @given(
        st.floats(allow_nan=False, allow_infinity=False)
        | st.sampled_from(
            [
                math.pi,
                -math.pi,
                math.nextafter(math.pi, 0.0),
                math.nextafter(-math.pi, -4.0),
                1e-17,
                -1e-17,
                0.0,
                -0.0,
                3.0 * math.pi,
                -7.5,
                1e300,
            ]
        )
    )
    def test_scalar_fast_path_matches_array_path(self, yaw):
        fast = normalize_yaw(yaw)
        for via_array in (normalize_yaw(np.float64(yaw)), float(normalize_yaw(np.array([yaw]))[0])):
            assert type(fast) is float
            assert struct.pack("<d", fast) == struct.pack("<d", via_array)


class TestBox3D:
    def test_rejects_non_positive_sizes(self):
        with pytest.raises(ValueError):
            Box3D(0, 0, 0, w=0.0, l=1, h=1, yaw=0)

    def test_rejects_bad_score(self):
        with pytest.raises(ValueError):
            Box3D(0, 0, 0, w=1, l=1, h=1, yaw=0, score=1.5)

    def test_yaw_normalized_on_construction(self):
        box = Box3D(0, 0, 0, w=1, l=1, h=1, yaw=3 * math.pi)
        assert box.yaw == pytest.approx(-math.pi)

    def test_corners_axis_aligned(self):
        box = Box3D(0, 0, 0, w=2, l=4, h=6, yaw=0)
        corners = box.corners()
        assert np.abs(corners[:, 0]).max() == pytest.approx(2.0)  # l/2
        assert np.abs(corners[:, 1]).max() == pytest.approx(1.0)  # w/2
        assert np.abs(corners[:, 2]).max() == pytest.approx(3.0)  # h/2


def _oracle_contains(p, box):
    # Independent rotation: rotate the offset by -yaw with explicit 2x2 math.
    dx, dy, dz = p[0] - box.cx, p[1] - box.cy, p[2] - box.cz
    c, s = math.cos(-box.yaw), math.sin(-box.yaw)
    xr = c * dx - s * dy
    yr = s * dx + c * dy
    return abs(xr) <= box.l / 2 and abs(yr) <= box.w / 2 and abs(dz) <= box.h / 2


class TestPointsInBox:
    def test_axis_aligned_inside(self):
        box = Box3D(0, 0, 0, w=2, l=2, h=2, yaw=0)
        scene = Scene(np.array([[0.5, 0.5, 0.5, 0.0]]))
        assert points_in_box(scene, box).tolist() == [0]

    def test_axis_aligned_outside(self):
        box = Box3D(0, 0, 0, w=2, l=2, h=2, yaw=0)
        scene = Scene(np.array([[1.5, 0.0, 0.0, 0.0]]))
        assert points_in_box(scene, box).size == 0

    def test_rotated_fixture(self):
        # In box frame the point lands at (0.9, -0.9); halves are 0.95.
        box = Box3D(0, 0, 0, w=2 * 0.95, l=2 * 0.95, h=4, yaw=math.pi / 4)
        p = (math.sqrt(2) * 0.9, 0.0, 0.0)
        scene = Scene(np.array([[*p, 0.0]]))
        assert points_in_box(scene, box).size == 1
        assert _oracle_contains(p, box)

    def test_matches_bruteforce_oracle(self, rng):
        agree = 0
        total = 0
        for _ in range(100):
            box = random_box(rng)
            # half the points near the box so both outcomes occur
            near = box.center() + rng.uniform(-3, 3, size=(50, 3))
            far = rng.uniform(-40, 40, size=(50, 3))
            pts = np.vstack([near, far])
            scene = Scene(np.column_stack([pts, np.zeros(100)]))
            got = set(points_in_box(scene, box).tolist())
            for i, p in enumerate(pts):
                total += 1
                if (i in got) == _oracle_contains(p, box):
                    agree += 1
        assert total == 10_000
        assert agree == total


class TestRigidTransform:
    def test_identity_is_bitwise(self, rng):
        boxes = [random_box(rng) for _ in range(3)]
        scene = random_scene(rng, boxes=boxes)
        out = apply_rigid_transform(scene, False, False, 0.0, 1.0)
        assert np.array_equal(out.points, scene.points)
        assert out.boxes == scene.boxes

    def test_quarter_turn(self):
        scene = Scene(np.array([[1.0, 0.0, 0.0, 0.3]]))
        out = apply_rigid_transform(scene, False, False, math.pi / 2, 1.0)
        assert out.points[0, :3] == pytest.approx([0, 1, 0], abs=1e-12)
        assert out.points[0, 3] == 0.3

    def test_rejects_non_positive_scale(self, rng):
        with pytest.raises(NonPositiveScale):
            apply_rigid_transform(random_scene(rng), False, False, 0.0, 0.0)

    def test_distances_scale_exactly(self, rng):
        scene = random_scene(rng, n=50)
        out = apply_rigid_transform(scene, True, False, 0.7, 1.3)
        d_in = np.linalg.norm(scene.xyz[None, :] - scene.xyz[:, None], axis=2)
        d_out = np.linalg.norm(out.xyz[None, :] - out.xyz[:, None], axis=2)
        np.testing.assert_allclose(d_out, d_in * 1.3, rtol=1e-12, atol=1e-12)

    def test_membership_preserved(self, rng):
        for _ in range(30):
            boxes = [random_box(rng) for _ in range(2)]
            scene = random_scene(rng, n=150, boxes=boxes)
            params = (
                bool(rng.random() < 0.5),
                bool(rng.random() < 0.5),
                float(rng.uniform(-math.pi, math.pi)),
                float(rng.uniform(0.5, 2.0)),
            )
            out = apply_rigid_transform(scene, *params)
            for b_in, b_out in zip(scene.boxes, out.boxes):
                before = points_in_box(scene, b_in).tolist()
                after = points_in_box(out, b_out).tolist()
                assert before == after

    def test_intensity_untouched(self, rng):
        scene = random_scene(rng)
        out = apply_rigid_transform(scene, True, True, 1.1, 0.8)
        assert np.array_equal(out.intensities, scene.intensities)


class TestScene:
    def test_empty(self):
        scene = Scene.empty(DomainTag.MIXED)
        assert scene.n_points == 0
        assert scene.points.shape == (0, 4)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            Scene(np.zeros((3, 3)))
