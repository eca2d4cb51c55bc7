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
    is folded back to 0.
    """
    a = np.mod(angle, TWO_PI)
    a = np.where(a >= TWO_PI, 0.0, a)
    if np.ndim(angle) == 0:
        return float(a)
    return a


def normalize_yaw(yaw):
    """Wrap heading(s) into [-pi, pi). Idempotent: in-range values pass
    through bit-identical."""
    if type(yaw) is float and -math.pi <= yaw < math.pi:
        return yaw
    in_range = np.logical_and(np.greater_equal(yaw, -math.pi), np.less(yaw, math.pi))
    wrapped = np.mod(np.asarray(yaw, dtype=np.float64) + math.pi, TWO_PI) - math.pi
    wrapped = np.where(wrapped >= math.pi, -math.pi, wrapped)
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
    az = wrap_azimuth(np.arctan2(y, x))
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
        if not all(math.isfinite(v) for v in fields):
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
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])

    def half_sizes(self) -> np.ndarray:
        """Half extents along the box axes (x' = l, y' = w, z' = h)."""
        return np.array([self.l / 2.0, self.w / 2.0, self.h / 2.0])

    def corners(self) -> np.ndarray:
        """The 8 corners in world frame, shape (8, 3)."""
        half = self.half_sizes()
        signs = np.array(
            [
                [sx, sy, sz]
                for sx in (-1.0, 1.0)
                for sy in (-1.0, 1.0)
                for sz in (-1.0, 1.0)
            ]
        )
        return self.center() + (signs * half) @ self.rotation().T


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

    def copy(self) -> "Scene":
        return Scene(self.points.copy(), list(self.boxes), self.domain_tag, self.pseudo_labeled)

    @classmethod
    def empty(cls, domain_tag: DomainTag = DomainTag.SOURCE) -> "Scene":
        return cls(np.empty((0, 4)), [], domain_tag)


def points_in_box(scene: Scene, box: Box3D) -> np.ndarray:
    """Indices of scene points inside the box, boundary inclusive."""
    if scene.n_points == 0:
        return np.empty(0, dtype=np.intp)
    local = (scene.xyz - box.center()) @ box.rotation()
    inside = np.all(np.abs(local) <= box.half_sizes(), axis=1)
    return np.nonzero(inside)[0]


def _transform_box(box: Box3D, flip_x: bool, flip_y: bool, rot_z: float, scale: float) -> Box3D:
    cx, cy, cz, yaw = box.cx, box.cy, box.cz, box.yaw
    if flip_x:
        cy, yaw = -cy, -yaw
    if flip_y:
        cx, yaw = -cx, -(yaw + math.pi)
    if rot_z != 0.0:
        c, s = math.cos(rot_z), math.sin(rot_z)
        cx, cy = cx * c - cy * s, cx * s + cy * c
        yaw = yaw + rot_z
    return Box3D(
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
    boxes = [_transform_box(b, flip_x, flip_y, rot_z, scale) for b in scene.boxes]
    return Scene(pts, boxes, scene.domain_tag, scene.pseudo_labeled)
