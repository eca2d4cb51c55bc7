"""Core geometric types and operations for LiDAR scenes.

Coordinates are sensor-centered Cartesian, in meters. Azimuth is measured
from +x toward +y and wrapped to [0, 2pi); elevation is measured from the
xy-plane toward +z. Points on the z-axis get azimuth 0 by convention so
that vertical returns are never rejected.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def _is_integer(value) -> bool:
    """A Python or numpy integer; bool, though an int subclass, is not one."""
    return type(value) is int or isinstance(value, np.integer)


def _is_real(value) -> bool:
    """A Python or numpy int or float; bool, though an int subclass, is not one."""
    if type(value) is float:  # the common case, first
        return True
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


# Every integer up to this magnitude is exact in a float64.
_MAX_EXACT = 2**53


class _Refused(ValueError):
    """A refusal by `_check_count` or `_check_real`. It keeps the check's
    name, value and bounds, so a caller can restate it under another name
    and in other units."""

    def __init__(self, name: str, value, lo: float, hi: float, above: bool = False, count: bool = False):
        if count:
            rule = f"{name} must be an integer >= {lo} and <= 2**53"
        else:
            rule = f"{name} must be finite"
            if lo > -math.inf:
                rule += f" and {'>' if above else '>='} {lo:g}"
            if hi < math.inf:
                rule += f" and <= {hi:g}"
        super().__init__(f"{rule}, got {value!r}")
        self.name, self.value, self.lo, self.hi = name, value, lo, hi
        self.above, self.count = above, count


def _check_count(name: str, value, minimum: int = 1) -> None:
    """Refuse a count that is not an integer in [minimum, 2**53], before it
    can fail mid-run: a larger count is not exact in a float, and arithmetic
    that mixes it with floats can overflow."""
    if not (_is_integer(value) and minimum <= value <= _MAX_EXACT):
        raise _Refused(name, value, minimum, _MAX_EXACT, count=True)


def _check_real(name: str, value, lo=-math.inf, hi=math.inf, *, above=False) -> float:
    """value as a Python float. ValueError (_Refused) unless it is a Python
    or numpy int or float, not bool, finite and in [lo, hi], or (lo, hi] when
    above is set: every real-valued input is checked here, as counts are by
    `_check_count`."""
    if _is_real(value):
        try:
            x = float(value)
        except OverflowError:  # a Python int beyond the float range
            x = math.inf
        if math.isfinite(x) and (x > lo if above else x >= lo) and x <= hi:
            return x
    raise _Refused(name, value, lo, hi, above)


class DomainTag(enum.Enum):
    SOURCE = "source"
    TARGET_LABELED = "target_labeled"
    TARGET_UNLABELED = "target_unlabeled"
    MIXED = "mixed"


def wrap_azimuth(angle):
    """Wrap angle(s) into [0, 2pi).

    np.mod can round tiny negative inputs up to exactly 2pi, so that edge
    is folded back to 0. A Python float takes the float `%`, which is the
    same floored remainder as np.mod, bit for bit.
    """
    if type(angle) is float:
        a = angle % TWO_PI
        return 0.0 if a >= TWO_PI else a
    a = np.mod(angle, TWO_PI)
    a = np.where(a >= TWO_PI, 0.0, a)
    if np.ndim(angle) == 0:
        return float(a)
    return a


def _azimuth(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """`wrap_azimuth(np.arctan2(y, x))` of arrays, bit for bit: on [-pi, pi]
    np.mod adds 2pi to a negative angle and turns -0.0 into +0.0, as adding
    2pi or 0.0 does. A sum that rounds up to 2pi is folded to 0 as before."""
    a = np.arctan2(y, x)
    a += (a < 0.0) * TWO_PI
    a[a >= TWO_PI] = 0.0
    return a


def normalize_yaw(yaw: float) -> float:
    """Wrap a heading into [-pi, pi). Idempotent: an in-range value passes
    through bit-identical."""
    return yaw if -math.pi <= yaw < math.pi else wrap_azimuth(yaw + math.pi) - math.pi


def spherical_from_xyz(xyz: np.ndarray) -> np.ndarray:
    """Vectorized conversion: (N, 3) xyz -> (N, 3) columns (azimuth,
    elevation, range). Zero-norm rows come out as (0, 0, 0); callers that
    cannot tolerate them must filter on range > 0.
    """
    x, y, z = xyz[:, 0], xyz[:, 1], xyz[:, 2]
    horiz = np.hypot(x, y)
    az = _azimuth(y, x)
    el = np.arctan2(z, horiz)
    rng = np.hypot(horiz, z)
    return np.column_stack([az, el, rng])


def xyz_from_spherical(aer: np.ndarray) -> np.ndarray:
    """Vectorized inverse: (N, 3) (azimuth, elevation, range) -> (N, 3) xyz."""
    az, el, rng = aer[:, 0], aer[:, 1], aer[:, 2]
    cos_el = np.cos(el)
    return np.column_stack(
        [rng * cos_el * np.cos(az), rng * cos_el * np.sin(az), rng * np.sin(el)]
    )


# The real fields of a Box3D, in order.
_BOX_FIELDS = ("cx", "cy", "cz", "w", "l", "h", "yaw")


@dataclass(frozen=True)
class Box3D:
    """Oriented 3D box: center (cx, cy, cz), sizes (w, l, h) with l along
    the heading axis and w across it, heading yaw about +z in [-pi, pi).

    score is present on predictions / pseudo-labels and absent (None) on
    ground truth.
    """

    cx: float
    cy: float
    cz: float
    w: float
    l: float
    h: float
    yaw: float
    class_id: int = 0
    score: float | None = None

    def __post_init__(self):
        fields = (self.cx, self.cy, self.cz, self.w, self.l, self.h, self.yaw)
        cx, cy, cz, w, l, h, yaw = fields
        # one type test for the common case of Python floats; any other type,
        # bool and str included, goes through _check_real, which names the field
        if not type(cx) is type(cy) is type(cz) is type(w) is type(l) is type(h) is type(yaw) is float:
            for name, value in zip(_BOX_FIELDS, fields):
                _check_real(name, value)
        elif not all(map(math.isfinite, fields)):
            raise ValueError(f"box fields must be finite, got {fields}")
        if not (w > 0 and l > 0 and h > 0):
            raise ValueError(f"box sizes must be positive, got {(w, l, h)}")
        score = self.score
        if score is not None and not (_is_real(score) and 0.0 <= score <= 1.0):
            raise ValueError(f"score must be in [0, 1], got {score!r}")
        c = self.class_id
        if not _is_integer(c) or not -_MAX_EXACT <= c <= _MAX_EXACT:
            raise ValueError(f"class id must be an integer of magnitude at most 2**53, got {c!r}")
        object.__setattr__(self, "yaw", normalize_yaw(float(self.yaw)))

    def center(self) -> np.ndarray:
        return np.array([self.cx, self.cy, self.cz], dtype=np.float64)

    def rotation(self) -> np.ndarray:
        """Box-to-world rotation; columns are the box axes in world frame."""
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        return np.array(((c, -s, 0.0), (s, c, 0.0), (0.0, 0.0, 1.0)))

    def half_sizes(self) -> np.ndarray:
        """Half extents along the box axes (x' = l, y' = w, z' = h)."""
        return np.array([self.l / 2.0, self.w / 2.0, self.h / 2.0])

    def corners(self) -> np.ndarray:
        """The 8 corners in world frame, shape (8, 3)."""
        return BoxSet.of([self]).corners()[0]


# Box centers closer than this to the z-axis have no meaningful azimuth.
_Z_AXIS_TOLERANCE = 1e-6

# Corner offsets of a box in units of its half sizes, x' outermost.
_CORNER_SIGNS = np.array(
    [[sx, sy, sz] for sx in (-1.0, 1.0) for sy in (-1.0, 1.0) for sz in (-1.0, 1.0)]
)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, marked read-only: a BoxSet hands out its cached arrays."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _box(row: list) -> Box3D:
    """The Box3D of one BoxSet row, checked by Box3D itself."""
    *fields, class_id, score = row
    class_id = int(class_id) if class_id.is_integer() else class_id
    return Box3D(*fields, class_id, None if math.isnan(score) else score)


def _validate(data: np.ndarray) -> None:
    """Raise Box3D's ValueError for the first row that Box3D refuses, then
    wrap the yaws in place if one lies outside [-pi, pi)."""
    if not len(data):
        return
    lo, hi = data.min(axis=0).tolist(), data.max(axis=0).tolist()
    scores = lo[8], hi[8]
    if math.isnan(lo[8]):  # some scores are missing: the range of the others
        scores = np.fmin.reduce(data[:, 8]), np.fmax.reduce(data[:, 8])
    if not (
        all(map(math.isfinite, lo[:8] + hi[:8]))
        and min(lo[3:6]) > 0.0
        and not (scores[0] < 0.0 or scores[1] > 1.0)
        and -_MAX_EXACT <= lo[7] <= hi[7] <= _MAX_EXACT
        and (lo[7] == hi[7] and lo[7].is_integer() or not np.mod(data[:, 7], 1.0).any())
    ):
        for row in data.tolist():
            _box(row)
    if not -math.pi <= lo[6] <= hi[6] < math.pi:
        data[:, 6] = list(map(normalize_yaw, data[:, 6].tolist()))


class BoxSet(Sequence):
    """An immutable sequence of boxes held as one read-only (K, 9) float64
    array `data` with the columns cx, cy, cz, w, l, h, yaw, class_id and
    score; a missing score is NaN, which Box3D never holds.

    Rows are checked as Box3D checks its fields, in one vectorised pass, and
    out-of-range yaws are wrapped as Box3D wraps them. Subsets and `+` reuse
    rows that are valid already, and a subset of a set that holds its
    frames or azimuths slices them on first use rather than rebuilding
    them. An int index and iteration yield Box3Ds; a slice, mask or index
    array yields a BoxSet. `==` against a BoxSet or a list of Box3Ds is one
    bool.
    """

    __slots__ = ("data", "_frames", "_azimuths", "_rows_of")

    def __init__(self, rows=()):
        data = np.array(rows, dtype=np.float64)
        if data.size == 0:
            data = data.reshape(0, 9)
        if data.ndim != 2 or data.shape[1] != 9:
            raise ValueError(f"box rows must have shape (K, 9), got {data.shape}")
        _validate(data)
        data.flags.writeable = False
        self.data, self._frames, self._azimuths, self._rows_of = data, None, None, None

    @classmethod
    def _trusted(cls, data: np.ndarray) -> "BoxSet":
        """The set of rows that are known to be valid, without checks."""
        boxes = object.__new__(cls)
        data.flags.writeable = False
        boxes.data, boxes._frames, boxes._azimuths, boxes._rows_of = data, None, None, None
        return boxes

    @classmethod
    def of(cls, boxes: Sequence[Box3D]) -> "BoxSet":
        """boxes itself if it is a BoxSet, else the set of its Box3Ds, whose
        fields Box3D has checked already."""
        if type(boxes) is cls:
            return boxes
        rows = [(b.cx, b.cy, b.cz, b.w, b.l, b.h, b.yaw, b.class_id, b.score) for b in boxes]
        return cls._trusted(np.array(rows, dtype=np.float64).reshape(-1, 9))  # a None score becomes NaN

    def __len__(self) -> int:
        return len(self.data)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return _box(self.data[key].tolist())
        subset = BoxSet._trusted(self.data[key])
        if self._frames is not None or self._azimuths is not None:
            # The rows as indices: the caller may reuse its key array.
            subset._rows_of = self, key if isinstance(key, slice) else np.arange(len(self))[key]
        return subset

    def __iter__(self):
        return map(_box, self.data.tolist())

    def __add__(self, other: Sequence[Box3D]) -> "BoxSet":
        return BoxSet._trusted(np.concatenate((self.data, BoxSet.of(other).data)))

    def __eq__(self, other) -> bool:
        if isinstance(other, list):
            return list(self) == other
        return isinstance(other, BoxSet) and np.array_equal(self.data, other.data, equal_nan=True)

    def __repr__(self) -> str:
        return f"BoxSet({list(self)!r})"

    def frames(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each box's `center()` (K, 3), `rotation()` (K, 3, 3) and
        `half_sizes()` (K, 3), made on the first call only."""
        if self._frames is None:
            self._frames = self._inherited("_frames")
        if self._frames is None:
            yaw = self.data[:, 6].tolist()  # libm per box, as in Box3D.rotation()
            rotations = np.zeros((len(yaw), 3, 3))
            rotations[:, 0, 0] = rotations[:, 1, 1] = list(map(math.cos, yaw))
            rotations[:, 1, 0] = list(map(math.sin, yaw))
            rotations[:, 0, 1], rotations[:, 2, 2] = -rotations[:, 1, 0], 1.0
            half = self.data[:, [4, 3, 5]] / 2.0
            self._frames = _read_only(self.data[:, :3], rotations, half)
        return self._frames

    def _inherited(self, cache: str) -> tuple[np.ndarray, ...] | None:
        """A subset's rows of its parent's cached arrays, if the parent holds
        them: every cached array is per box, so they equal a fresh build."""
        if self._rows_of is None:
            return None
        parent, key = self._rows_of
        arrays = getattr(parent, cache)
        return None if arrays is None else _read_only(*(a[key] for a in arrays))

    def corners(self) -> np.ndarray:
        """The 8 world-frame corners of every box, shape (K, 8, 3)."""
        centers, rotations, half = self.frames()
        return centers[:, None, :] + (_CORNER_SIGNS * half[:, None, :]) @ rotations.transpose(0, 2, 1)

    def azimuths(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per box, the azimuth of its center, the shortest azimuth arc
        (start, width) covering its corners, and whether it spans every
        azimuth: its footprint reaches over the sensor origin, or its center
        is on the z-axis and has no azimuth. Computed on the first call only."""
        if self._azimuths is None:
            self._azimuths = self._inherited("_azimuths")
        if self._azimuths is None:
            xy = self.data[:, :2].tolist()
            # libm per box: np.arctan2 and np.hypot can differ from it in the last bit.
            center = wrap_azimuth(np.array([math.atan2(cy, cx) for cx, cy in xy]))
            on_axis = np.array([math.hypot(cx, cy) < _Z_AXIS_TOLERANCE for cx, cy in xy], dtype=bool)
            centers, rotations, half = self.frames()
            origin = ((-centers)[:, None, :] @ rotations)[:, 0, :2]
            over_origin = np.all(np.abs(origin) <= half[:, :2], axis=1)
            corners = self.corners()
            az = np.sort(_azimuth(corners[..., 1], corners[..., 0]), axis=1)
            # Shortest covering arc: it starts after the widest gap between corners.
            gaps = np.diff(az, axis=1, append=az[:, :1] + TWO_PI)
            widest = np.argmax(gaps, axis=1)
            rows = np.arange(len(az))
            start, width = az[rows, (widest + 1) % 8], TWO_PI - gaps[rows, widest]
            self._azimuths = _read_only(center, start, width, on_axis | over_origin)
        return self._azimuths


class Scene:
    """One LiDAR sample: an (N, 4) float64 array of (x, y, z, intensity)
    rows plus its box labels. `boxes` is always a BoxSet: a sequence of
    Box3Ds given at construction or assigned later is converted once."""

    def __init__(
        self,
        points: np.ndarray,
        boxes: Sequence[Box3D] = (),
        domain_tag: DomainTag = DomainTag.SOURCE,
        pseudo_labeled: bool = False,
    ):
        pts = np.asarray(points, dtype=np.float64)
        if pts.size == 0:
            pts = pts.reshape(0, 4)
        if pts.ndim != 2 or pts.shape[1] != 4:
            raise ValueError(f"points must have shape (N, 4), got {pts.shape}")
        self.points, self._boxes = pts, BoxSet.of(boxes)
        self.domain_tag, self.pseudo_labeled = domain_tag, pseudo_labeled

    @property
    def boxes(self) -> BoxSet:
        return self._boxes

    @boxes.setter
    def boxes(self, boxes: Sequence[Box3D]) -> None:
        self._boxes = BoxSet.of(boxes)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def xyz(self) -> np.ndarray:
        return self.points[:, :3]

    @property
    def intensities(self) -> np.ndarray:
        return self.points[:, 3]


# Boxes x points cells per prefilter chunk of assign_points; this bounds
# its float64 temporaries to 512 KiB each.
_PREFILTER_CELLS = 1 << 16


def assign_points(xyz: np.ndarray, boxes: Sequence[Box3D]) -> tuple[np.ndarray, np.ndarray]:
    """Members of every box in one pass, boundary inclusive, in CSR form:
    `indices[indptr[b]:indptr[b + 1]]` are the ascending rows of the (N, 3)
    array `xyz` inside `boxes[b]`. A point inside several boxes is listed
    under each of them.

    Each box's bounding circle in the xy-plane, padded well past rounding,
    picks the candidate rows. The exact test is `(xyz[cand] - center) @
    rotation` with `abs(local) <= half_sizes`, one product per box, whose
    rows equal those of the full-cloud product bit for bit.
    """
    return _assign_local(xyz, boxes)[:2]


def _assign_local(xyz: np.ndarray, boxes: Sequence[Box3D]) -> tuple[np.ndarray, ...]:
    """`assign_points` plus the members' box-frame coordinates `(xyz[i] -
    center) @ rotation`, an (M, 3) array in the order of `indices`."""
    boxes = BoxSet.of(boxes)
    n, n_boxes = xyz.shape[0], len(boxes)
    if n == 0 or n_boxes == 0:
        return np.zeros(n_boxes + 1, dtype=np.intp), np.empty(0, dtype=np.intp), np.empty((0, 3))
    centers, rotations, half = boxes.frames()
    r = np.hypot(half[:, 0], half[:, 1])
    r += 1e-6 * (1.0 + np.abs(centers[:, 0]) + np.abs(centers[:, 1]) + r)
    cx, cy, r2 = centers[:, :1], centers[:, 1:2], (r * r)[:, None]
    x, y = xyz[:, 0], xyz[:, 1]
    step = max(1, _PREFILTER_CELLS // n)
    owner, rows = [], []
    for s in range(0, n_boxes, step):
        box = slice(s, s + step)
        near = (x - cx[box]) ** 2 + (y - cy[box]) ** 2 <= r2[box]
        b, r = np.divmod(np.flatnonzero(near), n)
        owner.append(b + s)
        rows.append(r)
    # Candidates are grouped by box, rows ascending within each group.
    owner, rows = np.concatenate(owner), np.concatenate(rows)
    offset = xyz[rows] - centers[owner]
    local = np.empty_like(offset)
    bounds = np.searchsorted(owner, np.arange(n_boxes + 1)).tolist()
    for b, (start, stop) in enumerate(zip(bounds[:-1], bounds[1:])):
        np.matmul(offset[start:stop], rotations[b], out=local[start:stop])
    ok = np.abs(local) <= half[owner]
    inside = ok[:, 0] & ok[:, 1] & ok[:, 2]
    return np.searchsorted(owner[inside], np.arange(n_boxes + 1)), rows[inside], local[inside]


def points_in_box(scene: Scene, box: Box3D) -> np.ndarray:
    """Indices of scene points inside the box, boundary inclusive: the
    one-box call of `assign_points`."""
    return assign_points(scene.xyz, [box])[1]


def apply_rigid_transform(
    scene: Scene, flip_x: bool, flip_y: bool, rot_z: float, scale: float
) -> Scene:
    """Flip / rotate / scale a scene, transforming points and boxes
    consistently. flip_x mirrors across the x-axis (negates y), flip_y
    across the y-axis (negates x); rotation is about +z; scale is uniform.

    Identity parameters return a bitwise-identical copy.
    """
    _check_real("scale", scale, 0.0, above=True)
    _check_real("rot_z", rot_z)
    # Each box rides along as one more row (cx, cy, cz, w), so its centre
    # goes through the same arithmetic as the points; w is left alone, as
    # the intensity is.
    n = scene.n_points
    data = scene.boxes.data.copy()
    rows = np.concatenate([scene.points, data[:, :4]])
    yaws = data[:, 6]
    if flip_x:
        rows[:, 1] = -rows[:, 1]
        yaws[:] = -yaws
    if flip_y:
        rows[:, 0] = -rows[:, 0]
        yaws[:] = -(yaws + math.pi)
    if rot_z != 0.0:
        c, s = math.cos(rot_z), math.sin(rot_z)
        x, y = rows[:, 0].copy(), rows[:, 1].copy()
        rows[:, 0] = x * c - y * s
        rows[:, 1] = x * s + y * c
        yaws += rot_z
    if scale != 1.0:
        rows[:, :3] *= scale
    data[:, :3] = rows[n:, :3]
    data[:, 3:6] *= scale
    _validate(data)
    return Scene(rows[:n], BoxSet._trusted(data), scene.domain_tag, scene.pseudo_labeled)
