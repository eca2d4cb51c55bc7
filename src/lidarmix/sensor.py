"""LiDAR distribution matching between sensors.

A scan is rasterized into a range image on the source sensor's grid,
downsampled by integer strides derived from the channel / points-per-channel
/ VFOV ratios of the two sensors, and back-projected to Cartesian points.
The chain adjusts beam count, points per channel, and vertical field of
view so a source-domain scan statistically matches a target sensor.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import (
    TWO_PI,
    DomainTag,
    Scene,
    spherical_from_xyz,
    xyz_from_spherical,
)


class UpsampleRequired(UserWarning):
    """The target sensor is denser than the source along some axis; the
    raw resampling factor was < 1 and has been floored at 1."""


@dataclass(frozen=True)
class SensorSpec:
    """LiDAR configuration: beam channels, points per channel, and
    vertical field of view bounds in radians."""

    channels: int
    points_per_channel: int
    vfov_min: float
    vfov_max: float

    def __post_init__(self):
        if self.channels < 1:
            raise ValueError(f"channels must be >= 1, got {self.channels}")
        if self.points_per_channel < 1:
            raise ValueError(f"points_per_channel must be >= 1, got {self.points_per_channel}")
        if not self.vfov_min < self.vfov_max:
            raise ValueError(f"need vfov_min < vfov_max, got [{self.vfov_min}, {self.vfov_max}]")

    @classmethod
    def from_degrees(
        cls, channels: int, points_per_channel: int, vfov_min_deg: float, vfov_max_deg: float
    ) -> "SensorSpec":
        return cls(channels, points_per_channel, math.radians(vfov_min_deg), math.radians(vfov_max_deg))

    @property
    def span(self) -> float:
        return self.vfov_max - self.vfov_min

    @property
    def row_pitch(self) -> float:
        return self.span / self.channels

    @property
    def col_pitch(self) -> float:
        return TWO_PI / self.points_per_channel


# Published sensor configurations, handy as defaults and in tests.
WAYMO_64 = SensorSpec.from_degrees(64, 2200, -17.6, 2.4)
NUSCENES_32 = SensorSpec.from_degrees(32, 1100, -30.0, 10.0)


@dataclass
class RangeImage:
    """H x W grid of (range, intensity) cells. Empty cells hold range 0;
    occupied cells have range > 0. Rows index elevation (bottom row at
    vfov_min), columns index azimuth over the full circle.
    """

    ranges: np.ndarray
    intensities: np.ndarray
    spec: SensorSpec

    def __post_init__(self):
        expected = (self.spec.channels, self.spec.points_per_channel)
        if self.ranges.shape != expected or self.intensities.shape != expected:
            raise ValueError(
                f"image shape {self.ranges.shape} does not match spec grid {expected}"
            )

    @property
    def height(self) -> int:
        return self.ranges.shape[0]

    @property
    def width(self) -> int:
        return self.ranges.shape[1]

    def occupancy(self) -> np.ndarray:
        return self.ranges > 0.0

    @property
    def n_occupied(self) -> int:
        return int(np.count_nonzero(self.ranges > 0.0))

    @classmethod
    def empty(cls, spec: SensorSpec) -> "RangeImage":
        shape = (spec.channels, spec.points_per_channel)
        return cls(np.zeros(shape), np.zeros(shape), spec)

    def copy(self) -> "RangeImage":
        return RangeImage(self.ranges.copy(), self.intensities.copy(), self.spec)


def build_range_image(scene: Scene, spec: SensorSpec) -> RangeImage:
    """Rasterize a scene onto the sensor grid.

    Points outside the spec's VFOV (and degenerate zero-norm points) are
    discarded; when several points fall into one cell the nearest range
    wins, modeling first-return behavior.
    """
    img = RangeImage.empty(spec)
    if scene.n_points == 0:
        return img
    aer = spherical_from_xyz(scene.xyz)
    az, el, rng = aer[:, 0], aer[:, 1], aer[:, 2]
    valid = (rng > 0.0) & (el >= spec.vfov_min) & (el <= spec.vfov_max)
    if not valid.any():
        return img
    az, el, rng = az[valid], el[valid], rng[valid]
    inten = scene.intensities[valid]
    h, w = spec.channels, spec.points_per_channel
    rows = np.floor((el - spec.vfov_min) / spec.span * h).astype(np.intp)
    rows[rows == h] = h - 1  # elevation exactly at vfov_max
    cols = np.floor(az / TWO_PI * w).astype(np.intp) % w
    cells = rows * w + cols
    # Sort by cell then range so the first entry per cell is the nearest.
    order = np.lexsort((rng, cells))
    cells, rng, inten = cells[order], rng[order], inten[order]
    winners_cells, winners_idx = np.unique(cells, return_index=True)
    img.ranges.flat[winners_cells] = rng[winners_idx]
    img.intensities.flat[winners_cells] = inten[winners_idx]
    return img


def raw_downsample_ratios(src: SensorSpec, tgt: SensorSpec) -> tuple[float, float]:
    """Unrounded (vertical, horizontal) resampling ratios between sensors."""
    v = (tgt.span / src.span) * (src.channels / tgt.channels)
    h = src.points_per_channel / tgt.points_per_channel
    return v, h


def downsample_factors(src: SensorSpec, tgt: SensorSpec) -> tuple[int, int]:
    """Integer stride factors taking a source grid to the target density.

    Vertical combines the VFOV span ratio with the channel ratio;
    horizontal is the points-per-channel ratio. Factors are rounded to the
    nearest integer and floored at 1; a raw factor below 1 (target denser
    than source) emits an UpsampleRequired warning.
    """
    raw_v, raw_h = raw_downsample_ratios(src, tgt)
    for name, raw in (("vertical", raw_v), ("horizontal", raw_h)):
        if raw < 1.0 - 1e-12:
            warnings.warn(
                UpsampleRequired(
                    f"{name} factor {raw:.4f} < 1: target denser than source, flooring at 1"
                ),
                stacklevel=2,
            )
    v = max(1, int(math.floor(raw_v + 0.5)))
    h = max(1, int(math.floor(raw_h + 0.5)))
    return v, h


def downsample_range_image(
    img: RangeImage, v: int, h: int, row_offset: int = 0, col_offset: int = 0
) -> RangeImage:
    """Keep rows == row_offset (mod v) and cols == col_offset (mod h).

    Retained cells are copied bit-identically. The output spec's VFOV is
    shifted so the new (fatter) cells are centered exactly on the retained
    source rows; backprojection then reproduces the retained beams'
    elevations.
    """
    if v < 1 or h < 1:
        raise ValueError(f"stride factors must be >= 1, got ({v}, {h})")
    if not (0 <= row_offset < v and 0 <= col_offset < h):
        raise ValueError(f"offsets ({row_offset}, {col_offset}) out of range for ({v}, {h})")
    if v == 1 and h == 1:
        return img.copy()
    ranges = img.ranges[row_offset::v, col_offset::h].copy()
    intensities = img.intensities[row_offset::v, col_offset::h].copy()
    h2, w2 = ranges.shape
    pitch = img.spec.row_pitch
    new_vmin = img.spec.vfov_min + (row_offset + 0.5 * (1 - v)) * pitch
    new_vmax = new_vmin + h2 * v * pitch
    return RangeImage(ranges, intensities, SensorSpec(h2, w2, new_vmin, new_vmax))


def backproject(img: RangeImage, domain_tag: DomainTag = DomainTag.SOURCE) -> Scene:
    """Emit one point per occupied cell, at the cell-center azimuth and
    elevation with the stored range and intensity. Boxes are the caller's
    business."""
    rows, cols = np.nonzero(img.ranges > 0.0)
    if rows.size == 0:
        return Scene.empty(domain_tag)
    spec = img.spec
    el = spec.vfov_min + (rows + 0.5) * spec.row_pitch
    az = (cols + 0.5) * (TWO_PI / img.width)
    rng = img.ranges[rows, cols]
    xyz = xyz_from_spherical(np.column_stack([az, el, rng]))
    pts = np.column_stack([xyz, img.intensities[rows, cols]])
    return Scene(pts, [], domain_tag)


def lidar_distribution_match(
    scene: Scene,
    src: SensorSpec,
    tgt: SensorSpec,
    rng: np.random.Generator | None = None,
    random_stride: bool = False,
) -> Scene:
    """Resample a source-domain scene so its beam count, points per
    channel, and VFOV match the target sensor.

    Composition: build_range_image -> downsample -> backproject. Labels are
    copied verbatim, even for boxes emptied of points. With random_stride
    the stride offsets are drawn per scene from rng (required then) for
    training diversity instead of always starting at index 0.
    """
    if scene.domain_tag is not DomainTag.SOURCE:
        raise ValueError(f"expected a SOURCE-tagged scene, got {scene.domain_tag}")
    if random_stride and rng is None:
        raise ValueError("random_stride needs an rng to draw the stride offsets from")
    v, h = downsample_factors(src, tgt)
    row_offset = col_offset = 0
    if random_stride:
        row_offset = int(rng.integers(v))
        col_offset = int(rng.integers(h))
    img = downsample_range_image(build_range_image(scene, src), v, h, row_offset, col_offset)
    out = backproject(img, DomainTag.SOURCE)
    out.boxes = list(scene.boxes)
    return out
