"""Core geometric types and operations for LiDAR scenes.

Coordinates are sensor-centered Cartesian, in meters. Azimuth is measured
from +x toward +y and wrapped to [0, 2pi); elevation is measured from the
xy-plane toward +z. Points on the z-axis get azimuth 0 by convention so
that vertical returns are never rejected.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

TWO_PI = 2.0 * math.pi


class NonPositiveScale(ValueError):
    """Rigid-transform scale must be strictly positive."""


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


def normalize_yaw(yaw):
    """Wrap heading(s) into [-pi, pi). Idempotent: in-range values pass
    through bit-identical."""
    if type(yaw) is float and -math.pi <= yaw < math.pi:
        return yaw
    in_range = np.logical_and(np.greater_equal(yaw, -math.pi), np.less(yaw, math.pi))
    wrapped = wrap_azimuth(np.asarray(yaw, dtype=np.float64) + math.pi) - math.pi
    out = np.where(in_range, yaw, wrapped)
    if np.ndim(yaw) == 0:
        return float(out)
    return out


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


def _rotation_rows(yaw: float) -> tuple:
    c, s = math.cos(yaw), math.sin(yaw)
    return ((c, -s, 0.0), (s, c, 0.0), (0.0, 0.0, 1.0))


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
        isfinite = math.isfinite
        if not (
            isfinite(self.cx)
            and isfinite(self.cy)
            and isfinite(self.cz)
            and isfinite(self.w)
            and isfinite(self.l)
            and isfinite(self.h)
            and isfinite(self.yaw)
        ):
            fields = (self.cx, self.cy, self.cz, self.w, self.l, self.h, self.yaw)
            raise ValueError(f"box fields must be finite, got {fields}")
        if not (self.w > 0 and self.l > 0 and self.h > 0):
            raise ValueError(f"box sizes must be positive, got {(self.w, self.l, self.h)}")
        if self.score is not None and not (0.0 <= self.score <= 1.0):
            raise ValueError(f"score must be in [0, 1], got {self.score}")
        object.__setattr__(self, "yaw", normalize_yaw(float(self.yaw)))

    def center(self) -> np.ndarray:
        return np.array([self.cx, self.cy, self.cz], dtype=np.float64)

    def rotation(self) -> np.ndarray:
        """Box-to-world rotation; columns are the box axes in world frame."""
        return np.array(_rotation_rows(self.yaw))

    def half_sizes(self) -> np.ndarray:
        """Half extents along the box axes (x' = l, y' = w, z' = h)."""
        return np.array([self.l / 2.0, self.w / 2.0, self.h / 2.0])

    def corners(self) -> np.ndarray:
        """The 8 corners in world frame, shape (8, 3)."""
        return box_corners(*box_frames([self]))[0]


@dataclass
class Scene:
    """One LiDAR sample: an (N, 4) float64 array of (x, y, z, intensity)
    rows plus zero or more box labels."""

    points: np.ndarray
    boxes: list[Box3D] = field(default_factory=list)
    domain_tag: DomainTag = DomainTag.SOURCE
    pseudo_labeled: bool = False

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.size == 0:
            pts = pts.reshape(0, 4)
        if pts.ndim != 2 or pts.shape[1] != 4:
            raise ValueError(f"points must have shape (N, 4), got {pts.shape}")
        self.points = pts
        self.boxes = list(self.boxes)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def xyz(self) -> np.ndarray:
        return self.points[:, :3]

    @property
    def intensities(self) -> np.ndarray:
        return self.points[:, 3]

    @classmethod
    def empty(cls, domain_tag: DomainTag = DomainTag.SOURCE) -> "Scene":
        return cls(np.empty((0, 4)), [], domain_tag)


# Boxes x points cells per prefilter chunk of assign_points; this bounds
# its float64 temporaries to 512 KiB each.
_PREFILTER_CELLS = 1 << 16


def box_frames(boxes: Sequence[Box3D]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacked `center()` (B, 3), `rotation()` (B, 3, 3) and `half_sizes()`
    (B, 3) of each box."""
    rows = np.array([(b.cx, b.cy, b.cz, b.l / 2.0, b.w / 2.0, b.h / 2.0) for b in boxes])
    rotations = np.array([_rotation_rows(b.yaw) for b in boxes])
    return rows[:, :3], rotations, rows[:, 3:]


# Corner offsets of a box in units of its half sizes, x' outermost.
_CORNER_SIGNS = np.array(
    [[sx, sy, sz] for sx in (-1.0, 1.0) for sy in (-1.0, 1.0) for sz in (-1.0, 1.0)]
)


def box_corners(centers: np.ndarray, rotations: np.ndarray, half: np.ndarray) -> np.ndarray:
    """The 8 world-frame corners (B, 8, 3) of the boxes whose `box_frames`
    are given."""
    return centers[:, None, :] + (_CORNER_SIGNS * half[:, None, :]) @ rotations.transpose(0, 2, 1)


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
    n, n_boxes = xyz.shape[0], len(boxes)
    if n == 0 or n_boxes == 0:
        return np.zeros(n_boxes + 1, dtype=np.intp), np.empty(0, dtype=np.intp), np.empty((0, 3))
    circles = []
    for b in boxes:
        r = 0.5 * math.hypot(b.l, b.w)
        r += 1e-6 * (1.0 + abs(b.cx) + abs(b.cy) + r)
        circles.append((b.cx, b.cy, r * r))
    cx, cy, r2 = np.array(circles).T[:, :, None]
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
    centers, rotations, half = box_frames(boxes)
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
    if not (scale > 0 and math.isfinite(scale)):
        raise NonPositiveScale(f"scale must be > 0, got {scale}")
    # Each box rides along as one more row (cx, cy, cz, yaw), so its centre
    # goes through the same arithmetic as the points.
    n = scene.n_points
    box_rows = np.array([(b.cx, b.cy, b.cz, b.yaw) for b in scene.boxes]).reshape(-1, 4)
    rows = np.concatenate([scene.points, box_rows])
    yaws = rows[n:, 3]
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
    boxes = [
        Box3D(cx, cy, cz, b.w * scale, b.l * scale, b.h * scale, yaw, b.class_id, b.score)
        for b, (cx, cy, cz, yaw) in zip(scene.boxes, rows[n:].tolist())
    ]
    return Scene(rows[:n], boxes, scene.domain_tag, scene.pseudo_labeled)
