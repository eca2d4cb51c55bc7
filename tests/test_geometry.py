import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_box, random_scene, reference_points_in_box
from lidarmix import geometry
from lidarmix.geometry import (
    TWO_PI,
    Box3D,
    DomainTag,
    Scene,
    _normalize_yaw,
    _wrap_azimuth,
    apply_rigid_transform,
    assign_points,
    points_in_box,
    spherical_from_xyz,
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
        a = _wrap_azimuth(angle)
        assert 0.0 <= a < 2 * math.pi

    @given(
        st.floats(allow_nan=False, allow_infinity=False)
        | st.integers(-6, 6).map(lambda k: k * TWO_PI)
        | st.sampled_from(
            [
                -0.0,
                math.nextafter(TWO_PI, 0.0),
                math.nextafter(TWO_PI, 7.0),
                math.nextafter(-TWO_PI, 0.0),
                -5e-324,
                -1e-300,
                -1e-17,
                -2.0**-60,
                math.nextafter(-0.0, -1.0),
            ]
        )
    )
    def test_wrap_azimuth_float_path_matches_array_path(self, angle):
        fast = _wrap_azimuth(angle)
        for via_array in (_wrap_azimuth(np.float64(angle)), float(_wrap_azimuth(np.array([angle]))[0])):
            assert type(fast) is float
            assert struct.pack("<d", fast) == struct.pack("<d", via_array)

    def test_wrap_azimuth_folds_rounding_up_to_two_pi(self):
        # each of these rounds to exactly 2pi under the floored remainder
        for angle in (-1e-17, -5e-324, -2.0**-60):
            assert angle % TWO_PI == TWO_PI
            assert _wrap_azimuth(angle) == 0.0
        assert struct.pack("<d", _wrap_azimuth(-0.0)) == struct.pack("<d", 0.0)


# Coordinates whose arctan2 hits the edges of the azimuth wrap: signed
# zeros, infinities, NaN, subnormals, and tiny negatives whose sum with 2pi
# rounds up to 2pi.
_AZIMUTH_EDGES = [
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, -1e-300, -1e-17, -2.0**-60,
    1.0, -1.0, 1e300, -1e300,
]


class TestAzimuthHelper:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats() | st.sampled_from(_AZIMUTH_EDGES),
                st.floats() | st.sampled_from(_AZIMUTH_EDGES),
            ),
            max_size=30,
        )
    )
    def test_matches_wrap_of_arctan2(self, pairs):
        yx = np.array(pairs, dtype=np.float64).reshape(-1, 2)
        y, x = yx[:, 0], yx[:, 1]
        assert geometry._azimuth(y, x).tobytes() == _wrap_azimuth(np.arctan2(y, x)).tobytes()

    def test_edges_byte_for_byte(self):
        y, x = np.array([(y, x) for y in _AZIMUTH_EDGES for x in _AZIMUTH_EDGES]).T
        assert geometry._azimuth(y, x).tobytes() == _wrap_azimuth(np.arctan2(y, x)).tobytes()
        # the two rounding edges the fold exists for, and the signed zero
        folded = geometry._azimuth(np.array([-1e-17, -5e-324, -0.0]), np.ones(3))
        assert folded.tobytes() == np.zeros(3).tobytes()


class TestYawNormalization:
    @given(st.floats(-1e6, 1e6))
    def test_idempotent(self, yaw):
        once = _normalize_yaw(yaw)
        assert -math.pi <= once < math.pi
        assert _normalize_yaw(once) == once

    def test_pi_maps_to_minus_pi(self):
        assert _normalize_yaw(math.pi) == -math.pi

    def test_in_range_untouched(self):
        assert _normalize_yaw(1e-17) == 1e-17
        assert _normalize_yaw(-math.pi) == -math.pi


def own_wrap_normalize_yaw(yaw):
    """_normalize_yaw as it was with its own np.mod and fold, before its
    out-of-range branch went through _wrap_azimuth; of a float or an array."""
    if type(yaw) is float and -math.pi <= yaw < math.pi:
        return yaw
    in_range = np.logical_and(np.greater_equal(yaw, -math.pi), np.less(yaw, math.pi))
    wrapped = np.mod(np.asarray(yaw, dtype=np.float64) + math.pi, TWO_PI) - math.pi
    wrapped = np.where(wrapped >= math.pi, -math.pi, wrapped)
    out = np.where(in_range, yaw, wrapped)
    if np.ndim(yaw) == 0:
        return float(out)
    return out


YAW_EDGES = [
    *(math.nextafter(k * math.pi, d) for k in range(-8, 9) for d in (-math.inf, math.inf)),
    *(k * math.pi for k in range(-8, 9)),
    1e-17,
    -1e-17,
    -7.5,
    1e300,
    -1e300,
    0.0,
    -0.0,
    5e-324,
    -5e-324,
]


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _normalize_each(yaws):
    """_normalize_yaw, which takes one float, of every value of an array."""
    return np.array([_normalize_yaw(y) for y in yaws.tolist()])


class TestYawFoldMatchesOwnWrap:
    """_normalize_yaw's wrap through _wrap_azimuth against the np.mod and
    fold it replaced, bit for bit."""

    @settings(max_examples=500)
    @given(st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(YAW_EDGES))
    def test_scalar_inputs(self, yaw):
        got, want = _normalize_yaw(yaw), own_wrap_normalize_yaw(yaw)
        assert type(got) is type(want) is float
        assert struct.pack("<d", got) == struct.pack("<d", want)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(YAW_EDGES)))
    def test_array_inputs(self, yaws):
        yaws = np.array(yaws, dtype=np.float64)
        assert _same_bits(_normalize_each(yaws), own_wrap_normalize_yaw(yaws))

    def test_edges_and_random_yaws(self, rng):
        yaws = np.concatenate(
            [
                YAW_EDGES,
                rng.uniform(-20.0, 20.0, 100_000),
                rng.uniform(-1.0, 1.0, 100_000) * 10.0 ** rng.uniform(-300, 300, 100_000),
            ]
        )
        assert _same_bits(_normalize_each(yaws), own_wrap_normalize_yaw(yaws))


class TestBox3D:
    def test_rejects_non_positive_sizes(self):
        with pytest.raises(ValueError):
            Box3D(0, 0, 0, w=0.0, l=1, h=1, yaw=0)

    def test_rejects_bad_score(self):
        with pytest.raises(ValueError):
            Box3D(0, 0, 0, w=1, l=1, h=1, yaw=0, score=1.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["cx", "cy", "cz", "w", "l", "h", "yaw"])
    def test_rejects_non_finite_field(self, field, value):
        fields = dict(cx=1.0, cy=2.0, cz=3.0, w=1.0, l=2.0, h=3.0, yaw=0.5)
        fields[field] = value
        with pytest.raises(ValueError, match="must be finite"):
            Box3D(**fields)

    @pytest.mark.parametrize(
        "field, value",
        [("w", True), ("cx", "1"), ("yaw", None), ("cz", np.True_), ("l", 10**400), ("score", True)],
        ids=["bool", "str", "none", "numpy-bool", "huge-int", "bool-score"],
    )
    def test_rejects_field_that_is_not_a_real(self, field, value):
        # w=True and score=True were accepted, and cx="1" raised TypeError
        fields = dict(cx=0, cy=0, cz=0, w=1, l=1, h=1, yaw=0)
        fields[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be "):
            Box3D(**fields)

    @pytest.mark.parametrize("value", [1, np.int64(2), np.float32(0.5), np.float64(1.5)])
    def test_accepts_python_and_numpy_reals(self, value):
        box = Box3D(value, value, value, value, value, value, value, score=np.float64(0.5))
        assert box.cx == value and box.score == 0.5

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


# Yaws at and next to the ends of [-pi, pi), where the rotation's sine
# is a rounding residue.
_EDGE_YAWS = [
    -math.pi,
    math.nextafter(-math.pi, 0.0),
    math.nextafter(math.pi, 0.0),
    0.0,
    math.pi / 2,
    -math.pi / 2,
    math.pi / 4,
]


@st.composite
def _boxes(draw):
    """Boxes near the sensor, far out, overlapping and duplicated."""
    boxes = []
    for _ in range(draw(st.integers(0, 6))):
        far = draw(st.booleans()) and draw(st.booleans())
        span = 1e5 if far else 40.0
        box = Box3D(
            draw(st.floats(-span, span)),
            draw(st.floats(-span, span)),
            draw(st.floats(-3.0, 3.0)),
            w=draw(st.floats(0.05, 8.0)),
            l=draw(st.floats(0.05, 8.0)),
            h=draw(st.floats(0.05, 4.0)),
            yaw=draw(st.sampled_from(_EDGE_YAWS) | st.floats(-math.pi, math.pi)),
        )
        boxes.append(box)
        if draw(st.booleans()):
            # an overlapping twin: the same box, or one shifted by a fraction of it
            shift = draw(st.sampled_from([0.0, 0.3, 0.7]))
            boxes.append(
                Box3D(box.cx + shift * box.l, box.cy, box.cz, box.w, box.l, box.h, box.yaw)
            )
    return boxes


def _surface_points(rng, box):
    """Points placed exactly on faces, edges and corners in the box frame,
    plus their one-ulp neighbours, mapped to the world frame."""
    half = box.half_sizes()
    levels = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    local = levels[rng.integers(0, 5, size=(60, 3))] * half
    local[:20] = np.sign(rng.uniform(-1, 1, size=(20, 3))) * half  # corners
    world = box.center() + local @ box.rotation().T
    return np.vstack(
        [world, np.nextafter(world, np.inf), np.nextafter(world, -np.inf)]
    )


class TestAssignPoints:
    """assign_points against the per-box full-cloud scan it replaced."""

    @staticmethod
    def check(xyz, boxes):
        indptr, indices = assign_points(xyz, boxes)
        assert indptr.dtype == np.intp and indices.dtype == np.intp
        assert indptr.shape == (len(boxes) + 1,)
        assert indptr[0] == 0 and indptr[-1] == indices.size
        _, _, local = geometry._assign_local(xyz, boxes)
        assert local.shape == (indices.size, 3)
        for b, box in enumerate(boxes):
            members = indices[indptr[b] : indptr[b + 1]]
            assert np.array_equal(members, reference_points_in_box(xyz, box))
            # box-frame coordinates as a product over this box's members alone
            want = (xyz[members] - box.center()) @ box.rotation()
            assert local[indptr[b] : indptr[b + 1]].tobytes() == want.tobytes()

    def test_empty_cloud(self, rng):
        boxes = [random_box(rng) for _ in range(3)]
        indptr, indices = assign_points(np.empty((0, 3)), boxes)
        assert indptr.tolist() == [0, 0, 0, 0]
        assert indices.size == 0

    def test_empty_box_list(self, rng):
        indptr, indices = assign_points(random_scene(rng).xyz, [])
        assert indptr.tolist() == [0]
        assert indices.size == 0

    @settings(max_examples=300, deadline=None)
    @given(
        boxes=_boxes(),
        seed=st.integers(0, 2**32 - 1),
        cells=st.sampled_from([1, 7, 1 << 16]),
    )
    def test_matches_per_box_scan(self, boxes, seed, cells):
        rng = np.random.default_rng(seed)
        parts = [
            rng.uniform(-45.0, 45.0, size=(int(rng.integers(0, 300)), 3)),
            np.array([[1e6, 1e6, 0.0], [-1e12, 3.0, 0.0], [0.0, 0.0, 1e9], [5e3, -7e4, -2.0]]),
        ]
        for box in boxes:
            parts.append(_surface_points(rng, box))
            parts.append(box.center() + rng.uniform(-1.2, 1.2, size=(40, 3)) * box.half_sizes())
        xyz = np.vstack(parts)[rng.permutation(sum(len(p) for p in parts))]
        # cells=1 and 7 force one box per prefilter chunk
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "_PREFILTER_CELLS", cells)
            self.check(xyz, boxes)
            # a strided view, as Scene.xyz hands it over
            self.check(Scene(np.column_stack([xyz, np.zeros(len(xyz))])).xyz, boxes)

    def test_points_in_box_is_one_box_call(self, rng):
        for _ in range(50):
            box = random_box(rng)
            scene = random_scene(rng, n=300, boxes=[box])
            scene.points[:60, :3] = _surface_points(rng, box)[:60]
            assert np.array_equal(points_in_box(scene, box), reference_points_in_box(scene.xyz, box))


def reference_rigid_transform(scene, flip_x, flip_y, rot_z, scale):
    """The earlier per-box form of apply_rigid_transform: points as arrays,
    each box centre and yaw through its own scalar arithmetic. Reference
    for the shared row arithmetic."""
    pts = scene.points.copy()
    if flip_x:
        pts[:, 1] = -pts[:, 1]
    if flip_y:
        pts[:, 0] = -pts[:, 0]
    if rot_z != 0.0:
        c, s = math.cos(rot_z), math.sin(rot_z)
        x, y = pts[:, 0].copy(), pts[:, 1].copy()
        pts[:, 0] = x * c - y * s
        pts[:, 1] = x * s + y * c
    if scale != 1.0:
        pts[:, :3] *= scale
    boxes = []
    for box in scene.boxes:
        cx, cy, cz, yaw = box.cx, box.cy, box.cz, box.yaw
        if flip_x:
            cy, yaw = -cy, -yaw
        if flip_y:
            cx, yaw = -cx, -(yaw + math.pi)
        if rot_z != 0.0:
            c, s = math.cos(rot_z), math.sin(rot_z)
            cx, cy = cx * c - cy * s, cx * s + cy * c
            yaw = yaw + rot_z
        boxes.append(
            Box3D(
                cx * scale,
                cy * scale,
                cz * scale,
                box.w * scale,
                box.l * scale,
                box.h * scale,
                yaw,
                box.class_id,
                box.score,
            )
        )
    return Scene(pts, boxes, scene.domain_tag, scene.pseudo_labeled)


_coord = st.floats(-100.0, 100.0) | st.sampled_from([0.0, -0.0])
_angle = st.floats(-TWO_PI, TWO_PI) | st.sampled_from([0.0, -0.0, math.pi, -math.pi])
_boxes = st.lists(
    st.builds(
        Box3D,
        _coord,
        _coord,
        _coord,
        st.floats(0.1, 10.0),
        st.floats(0.1, 10.0),
        st.floats(0.1, 10.0),
        st.floats(-math.pi, math.pi) | st.sampled_from([math.pi, -math.pi, -0.0]),
        st.integers(0, 3),
        st.none() | st.floats(0.0, 1.0),
    ),
    max_size=4,
)
_rigid_params = st.tuples(
    st.booleans(), st.booleans(), _angle, st.just(1.0) | st.floats(0.1, 10.0)
)


class TestCheckReal:
    @pytest.mark.parametrize(
        "value", [True, np.True_, "0.5", None, math.nan, -math.inf, np.float64(math.inf), 10**400]
    )
    def test_refuses_what_is_not_a_finite_real(self, value):
        with pytest.raises(ValueError, match="^x must be finite, got"):
            geometry._check_real("x", value)

    @pytest.mark.parametrize("value", [1, np.int64(-2), np.float32(0.5), np.float64(0.25), 2.0**1023])
    def test_returns_a_python_float(self, value):
        out = geometry._check_real("x", value)
        assert type(out) is float and out == value

    def test_bounds(self):
        assert geometry._check_real("x", 1.0, 0.0, 1.0) == 1.0
        assert geometry._check_real("x", 0.0, 0.0, 1.0) == 0.0
        with pytest.raises(ValueError, match=r"^x must be finite and > 0, got 0\.0$"):
            geometry._check_real("x", 0.0, 0.0, above=True)
        with pytest.raises(ValueError, match=r"^x must be finite and >= 0 and <= 1, got 1\.5$"):
            geometry._check_real("x", 1.5, 0.0, 1.0)


class TestRigidTransform:
    @given(
        st.lists(st.tuples(_coord, _coord, _coord, _coord), max_size=20), _boxes, _rigid_params
    )
    @example([], [], (False, False, 0.0, 1.0))
    @example(
        [(1.0, -0.0, 0.0, 0.5)], [Box3D(-0.0, 0.0, 0.0, 1, 1, 1, math.pi)], (True, True, -0.0, 1.0)
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_per_box_reference(self, rows, boxes, params):
        scene = Scene(np.array(rows).reshape(-1, 4), boxes, DomainTag.TARGET_LABELED, True)
        out = apply_rigid_transform(scene, *params)
        ref = reference_rigid_transform(scene, *params)
        assert out.points.tobytes() == ref.points.tobytes()
        # repr tells -0.0 from 0.0 and a numpy scalar from a float
        assert repr(out.boxes) == repr(ref.boxes)
        assert (out.domain_tag, out.pseudo_labeled) == (DomainTag.TARGET_LABELED, True)

    @given(_boxes, _rigid_params)
    @settings(max_examples=200, deadline=None)
    def test_box_centre_lands_with_a_point_at_it(self, boxes, params):
        centres = np.array([[b.cx, b.cy, b.cz, 0.0] for b in boxes]).reshape(-1, 4)
        out = apply_rigid_transform(Scene(centres, boxes), *params)
        moved = np.array([[b.cx, b.cy, b.cz] for b in out.boxes]).reshape(-1, 3)
        assert moved.tobytes() == out.points[:, :3].tobytes()

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
        with pytest.raises(ValueError, match="scale must be finite and > 0"):
            apply_rigid_transform(random_scene(rng), False, False, 0.0, 0.0)

    @pytest.mark.parametrize("with_boxes", [False, True])
    @pytest.mark.parametrize("rot_z", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_rot_z(self, rng, rot_z, with_boxes):
        # a NaN turned a box-free scene into NaN points; an inf failed in libm
        scene = random_scene(rng, boxes=[random_box(rng)] if with_boxes else [])
        with pytest.raises(ValueError, match="rot_z must be finite"):
            apply_rigid_transform(scene, False, False, rot_z, 1.0)

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
        scene = Scene(np.empty((0, 4)), [], DomainTag.MIXED)
        assert scene.n_points == 0
        assert scene.points.shape == (0, 4)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            Scene(np.zeros((3, 3)))
