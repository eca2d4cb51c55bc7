"""Polar-coordinate sector mixing of two scenes.

A SectorMask partitions the azimuth circle into K disjoint sectors owned
by the target scene; the complement is owned by the (distribution-matched)
source scene. Object boxes cut by a sector boundary are removed together
with their interior points before the crop, so no mixed output contains a
partially amputated object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import TWO_PI, Box3D, DomainTag, Scene, points_in_box, wrap_azimuth


class SectorPackingFailed(RuntimeError):
    """Disjoint sector placement could not be found."""


class DegenerateAzimuth(ValueError):
    """Box center too close to the z-axis for a meaningful azimuth."""


@dataclass(frozen=True)
class SectorParams:
    """Sampling parameters for sector masks."""

    k: int = 2
    min_width: float = math.pi / 6
    max_width: float = math.pi / 2

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not (0.0 < self.min_width <= self.max_width):
            raise ValueError(
                f"need 0 < min_width <= max_width, got ({self.min_width}, {self.max_width})"
            )


def _sectors_disjoint(sectors) -> bool:
    # Half-open arcs [s, s+w) on the circle; overlap test per pair.
    for i in range(len(sectors)):
        s1, w1 = sectors[i]
        for j in range(i + 1, len(sectors)):
            s2, w2 = sectors[j]
            if (s2 - s1) % TWO_PI < w1 or (s1 - s2) % TWO_PI < w2:
                return False
    return True


@dataclass(frozen=True)
class SectorMask:
    """K disjoint azimuth sectors, each a (start, width) pair with start
    wrapped to [0, 2pi). Membership is half-open: start <= az < start+width
    (mod 2pi), so every azimuth is on exactly one side."""

    sectors: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.sectors) < 1:
            raise ValueError("mask needs at least one sector")
        wrapped = []
        total = 0.0
        for start, width in self.sectors:
            if not (0.0 < width < TWO_PI):
                raise ValueError(f"sector width must be in (0, 2pi), got {width}")
            wrapped.append((wrap_azimuth(float(start)), float(width)))
            total += width
        if total >= TWO_PI:
            raise ValueError(f"total sector width {total} must stay below 2pi")
        if not _sectors_disjoint(wrapped):
            raise ValueError("sectors overlap after wrapping")
        object.__setattr__(self, "sectors", tuple(wrapped))

    @property
    def k(self) -> int:
        return len(self.sectors)

    def contains(self, azimuth):
        """Whether azimuth(s) fall inside any sector."""
        az = np.asarray(azimuth, dtype=np.float64)
        inside = np.zeros(az.shape, dtype=bool)
        for start, width in self.sectors:
            inside |= np.mod(az - start, TWO_PI) < width
        if np.ndim(azimuth) == 0:
            return bool(inside)
        return inside

    def boundary_angles(self) -> np.ndarray:
        """All 2K sector edge angles, wrapped."""
        edges = []
        for start, width in self.sectors:
            edges.append(start)
            edges.append(wrap_azimuth(start + width))
        return np.array(edges)


def sample_sectors(
    rng: np.random.Generator, k: int, min_width: float, max_width: float
) -> SectorMask:
    """Draw K disjoint sectors with widths uniform in [min_width, max_width]
    by rejection sampling (at most 1000 attempts)."""
    SectorParams(k, min_width, max_width)  # raises ValueError on bad arguments
    for _ in range(1000):
        widths = rng.uniform(min_width, max_width, size=k)
        if widths.sum() >= TWO_PI:
            continue
        starts = rng.uniform(0.0, TWO_PI, size=k)
        candidate = tuple(zip(starts.tolist(), widths.tolist()))
        if _sectors_disjoint([(wrap_azimuth(s), w) for s, w in candidate]):
            return SectorMask(candidate)
    raise SectorPackingFailed(
        f"could not place {k} disjoint sectors with widths in [{min_width}, {max_width}]"
    )


def _footprint_contains_origin(box: Box3D) -> bool:
    local = (-box.center()) @ box.rotation()
    return abs(local[0]) <= box.l / 2.0 and abs(local[1]) <= box.w / 2.0


def _min_covering_arc(angles: np.ndarray) -> tuple[float, float]:
    """Shortest arc (start, width) covering all given angles."""
    a = np.sort(np.asarray(angles, dtype=np.float64))
    gaps = np.diff(a, append=a[0] + TWO_PI)
    i = int(np.argmax(gaps))
    start = a[(i + 1) % a.size]
    return float(start), float(TWO_PI - gaps[i])


def box_crosses_boundary(box: Box3D, mask: SectorMask) -> bool:
    """Whether any sector edge falls inside the azimuth arc spanned by the
    box's corners. Boxes whose footprint reaches over the sensor origin
    span every azimuth and always cross."""
    if math.hypot(box.cx, box.cy) < 1e-6:
        raise DegenerateAzimuth(f"box center ({box.cx}, {box.cy}) sits on the z-axis")
    if _footprint_contains_origin(box):
        return True
    corners = box.corners()
    az = wrap_azimuth(np.arctan2(corners[:, 1], corners[:, 0]))
    arc_start, arc_width = _min_covering_arc(az)
    edges = mask.boundary_angles()
    return bool(np.any(np.mod(edges - arc_start, TWO_PI) <= arc_width))


def enhanced_filter(scene: Scene, mask: SectorMask, keep_inside: bool) -> Scene:
    """Crop a scene to one side of the mask, first removing every
    boundary-crossing box together with all points inside it. Surviving
    boxes are kept when their center azimuth is on the kept side.
    """
    crossing, safe = [], []
    for box in scene.boxes:
        try:
            cut = box_crosses_boundary(box, mask)
        except DegenerateAzimuth:
            cut = True  # footprint hugs the z-axis; treat as cut
        (crossing if cut else safe).append(box)

    remove = np.zeros(scene.n_points, dtype=bool)
    for box in crossing:
        remove[points_in_box(scene, box)] = True

    az = wrap_azimuth(np.arctan2(scene.points[:, 1], scene.points[:, 0]))
    inside = mask.contains(az)
    keep = ~remove & (inside == keep_inside)

    kept_boxes = [
        b
        for b in safe
        if mask.contains(wrap_azimuth(math.atan2(b.cy, b.cx))) == keep_inside
    ]
    return Scene(scene.points[keep], kept_boxes, scene.domain_tag, scene.pseudo_labeled)


def polar_mix(source: Scene, target: Scene, mask: SectorMask) -> Scene:
    """Fill the mask's sectors with the target scene and the complement
    with the source scene; concatenate points and labels (source first)."""
    if source.domain_tag is not DomainTag.SOURCE:
        raise ValueError(f"source scene must be SOURCE-tagged, got {source.domain_tag}")
    if target.domain_tag is not DomainTag.TARGET_LABELED:
        raise ValueError(f"target scene must be TARGET_LABELED, got {target.domain_tag}")
    src_part = enhanced_filter(source, mask, keep_inside=False)
    tgt_part = enhanced_filter(target, mask, keep_inside=True)
    points = np.vstack([src_part.points, tgt_part.points])
    return Scene(points, src_part.boxes + tgt_part.boxes, DomainTag.MIXED)


def targetmix_sample(
    rng: np.random.Generator,
    p_tm: float,
    source: Scene,
    target: Scene,
    params: SectorParams = SectorParams(),
) -> Scene:
    """With probability p_tm return a polar mix under a freshly sampled
    mask, otherwise the matched source scene unchanged."""
    if not 0.0 <= p_tm <= 1.0:
        raise ValueError(f"p_tm must be in [0, 1], got {p_tm}")
    if rng.random() < p_tm:
        mask = sample_sectors(rng, params.k, params.min_width, params.max_width)
        return polar_mix(source, target, mask)
    return source
