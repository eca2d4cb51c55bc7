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
from typing import Sequence

import numpy as np

from .geometry import (
    TWO_PI,
    Box3D,
    BoxSet,
    DomainTag,
    Scene,
    _azimuth,
    _check_count,
    _check_real,
    assign_points,
    wrap_azimuth,
)


@dataclass(frozen=True)
class SectorParams:
    """Sampling parameters for sector masks."""

    k: int = 2
    min_width: float = math.pi / 6
    max_width: float = math.pi / 2

    def __post_init__(self):
        _check_count("k", self.k)
        min_width = _check_real("min_width", self.min_width, 0.0, above=True)
        object.__setattr__(self, "min_width", min_width)
        object.__setattr__(self, "max_width", _check_real("max_width", self.max_width, min_width))
        if self.k * min_width >= TWO_PI:
            raise ValueError(f"k * min_width = {self.k * min_width} must stay below 2pi")


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
            start = _check_real("sector start", start)
            # a width of 2pi is refused as a total below
            width = _check_real("sector width", width, 0.0, TWO_PI, above=True)
            wrapped.append((wrap_azimuth(start), width))
            total += width
        if total >= TWO_PI:
            raise ValueError(f"total sector width {total} must stay below 2pi")
        if not _sectors_disjoint(wrapped):
            raise ValueError("sectors overlap after wrapping")
        object.__setattr__(self, "sectors", tuple(wrapped))

    def contains(self, azimuth):
        """Whether azimuth(s) fall inside any sector. On [0, 2pi) the offset
        az - start, plus 2pi where negative, is np.mod(az - start, 2pi) bit
        for bit; any other input takes np.mod."""
        az = np.asarray(azimuth, dtype=np.float64)
        on_circle = az.size and 0.0 <= az.min() and az.max() < TWO_PI
        inside = np.zeros(az.shape, dtype=bool)
        for start, width in self.sectors:
            offset = az - start
            if on_circle:
                offset = np.where(offset < 0.0, offset + TWO_PI, offset)
            else:
                offset = np.mod(offset, TWO_PI)
            inside |= offset < width
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
    by rejection sampling; RuntimeError after 1000 failed attempts."""
    SectorParams(k, min_width, max_width)  # raises ValueError on bad arguments
    for _ in range(1000):
        widths = rng.uniform(min_width, max_width, size=k)
        if widths.sum() >= TWO_PI:
            continue
        starts = rng.uniform(0.0, TWO_PI, size=k)
        candidate = tuple(zip(starts.tolist(), widths.tolist()))
        if _sectors_disjoint([(wrap_azimuth(s), w) for s, w in candidate]):
            return SectorMask(candidate)
    raise RuntimeError(
        f"could not place {k} disjoint sectors with widths in [{min_width}, {max_width}]"
    )


def boxes_cross_boundary(boxes: Sequence[Box3D], mask: SectorMask) -> np.ndarray:
    """For each box, whether a sector edge falls inside the shortest
    azimuth arc covering its corners, as one test over all boxes. Boxes
    whose footprint reaches over the sensor origin span every azimuth and
    always cross; boxes centred on the z-axis have no meaningful azimuth
    and count as crossing too."""
    boxes = BoxSet.of(boxes)
    if not len(boxes):
        return np.zeros(0, dtype=bool)
    _, arc_start, arc_width, whole = boxes.azimuths()
    edges = mask.boundary_angles()
    cut = np.any(np.mod(edges - arc_start[:, None], TWO_PI) <= arc_width[:, None], axis=1)
    return whole | cut


def box_crosses_boundary(box: Box3D, mask: SectorMask) -> bool:
    """Whether a sector edge cuts the box: the one-box call of
    `boxes_cross_boundary`, so a box centred on the z-axis counts as cut."""
    return bool(boxes_cross_boundary([box], mask)[0])


def enhanced_filter(scene: Scene, mask: SectorMask, keep_inside: bool) -> Scene:
    """Crop a scene to one side of the mask, first removing every
    boundary-crossing box together with all points inside it. Surviving
    boxes are kept when their center azimuth is on the kept side.

    One `boxes_cross_boundary` test covers all of the scene's boxes, and
    one `assign_points` pass finds the points of the crossing ones.
    """
    boxes = scene.boxes
    cut = boxes_cross_boundary(boxes, mask)
    az = _azimuth(scene.points[:, 1], scene.points[:, 0])
    keep = mask.contains(az) == keep_inside
    if cut.any():
        keep[assign_points(scene.xyz, boxes[cut])[1]] = False
    side = mask.contains(boxes.azimuths()[0]) == keep_inside
    return Scene(scene.points[keep], boxes[side & ~cut], scene.domain_tag, scene.pseudo_labeled)


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
    _check_real("p_tm", p_tm, 0.0, 1.0)
    if rng.random() < p_tm:
        mask = sample_sectors(rng, params.k, params.min_width, params.max_width)
        return polar_mix(source, target, mask)
    return source
