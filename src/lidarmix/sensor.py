"""LiDAR distribution matching between sensors.

A scan is rasterized into a range image and back-projected to Cartesian
points. Integer strides derived from the channel / points-per-channel /
VFOV ratios of the two sensors, and the row phase nearest the target's
beams, pick the lattice of source cells to keep: the build rasterizes
points in those cells straight onto the target-size grid and drops every
other point before the per-cell nearest-range sort.
The chain adjusts beam count, points per channel, and vertical field of
view so a source-domain scan statistically matches a target sensor.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import (
    TWO_PI,
    DomainTag,
    Scene,
    _azimuth,
    _check_count,
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
        _check_count("channels", self.channels)
        _check_count("points_per_channel", self.points_per_channel)
        if not -math.inf < self.vfov_min < self.vfov_max < math.inf:
            raise ValueError(
                f"need finite vfov_min < vfov_max, got [{self.vfov_min}, {self.vfov_max}]"
            )

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
    def n_occupied(self) -> int:
        return int(np.count_nonzero(self.ranges > 0.0))

    @classmethod
    def empty(cls, spec: SensorSpec) -> "RangeImage":
        shape = (spec.channels, spec.points_per_channel)
        return cls(np.zeros(shape), np.zeros(shape), spec)


def _check_stride(v: int, h: int, row_offset: int, col_offset: int) -> None:
    if v < 1 or h < 1:
        raise ValueError(f"stride factors must be >= 1, got ({v}, {h})")
    if not (0 <= row_offset < v and 0 <= col_offset < h):
        raise ValueError(f"offsets ({row_offset}, {col_offset}) out of range for ({v}, {h})")


def _lattice_spec(spec: SensorSpec, v: int, h: int, row_offset: int, col_offset: int) -> SensorSpec:
    """The grid of spec's rows == row_offset (mod v) and cols == col_offset
    (mod h), its VFOV shifted so the new (fatter) cells are centered exactly
    on the kept source rows, whose elevations backprojection reproduces."""
    if v == 1 and h == 1:
        return spec
    n_rows = len(range(row_offset, spec.channels, v))
    n_cols = len(range(col_offset, spec.points_per_channel, h))
    vfov_min = spec.vfov_min + (row_offset + 0.5 * (1 - v)) * spec.row_pitch
    return SensorSpec(n_rows, n_cols, vfov_min, vfov_min + n_rows * v * spec.row_pitch)


def build_range_image(
    scene: Scene,
    spec: SensorSpec,
    v: int = 1,
    h: int = 1,
    row_offset: int = 0,
    col_offset: int = 0,
) -> RangeImage:
    """Rasterize a scene onto the sensor grid.

    Points outside the spec's VFOV (and degenerate zero-norm points) are
    discarded; when several points fall into one cell the nearest range
    wins, ties going to the earlier point, modeling first-return behavior.

    With strides (v, h), points off the kept rows and columns are dropped
    before the per-cell sort and the rest land straight on the lattice grid:
    the image is bit for bit `downsample_range_image` of the unstrided one.
    """
    _check_stride(v, h, row_offset, col_offset)
    img = RangeImage.empty(_lattice_spec(spec, v, h, row_offset, col_offset))
    # The steps of spherical_from_xyz, elementwise and so bit for bit, but
    # the azimuth is only computed for points in a kept row.
    x, y, z = scene.points[:, 0], scene.points[:, 1], scene.points[:, 2]
    horiz = np.hypot(x, y)
    el = np.arctan2(z, horiz)
    rng = np.hypot(horiz, z)
    kept = np.flatnonzero((rng > 0.0) & (el >= spec.vfov_min) & (el <= spec.vfov_max))
    n_rows, n_cols = spec.channels, spec.points_per_channel
    rows = np.floor((el[kept] - spec.vfov_min) / spec.span * n_rows).astype(np.intp)
    rows[rows == n_rows] = n_rows - 1  # elevation exactly at vfov_max
    if v > 1:
        on_row = rows % v == row_offset
        kept, rows = kept[on_row], rows[on_row] // v
    az = _azimuth(y[kept], x[kept])
    cols = np.floor(az / TWO_PI * n_cols).astype(np.intp) % n_cols
    if h > 1:
        on_col = cols % h == col_offset
        kept, rows, cols = kept[on_col], rows[on_col], cols[on_col] // h
    rng, inten = rng[kept], scene.intensities[kept]
    cells = rows * img.spec.points_per_channel + cols
    # Sort by cell then range so the first entry per cell is the nearest;
    # the sort is stable, so a tied range keeps the earlier point first.
    order = np.lexsort((rng, cells))
    cells = cells[order]
    first = np.empty(cells.size, dtype=bool)
    first[:1] = True
    np.not_equal(cells[1:], cells[:-1], out=first[1:])
    cells, winners = cells[first], order[first]
    img.ranges.flat[cells] = rng[winners]
    img.intensities.flat[cells] = inten[winners]
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


@functools.cache
def _nearest_row_offset(src: SensorSpec, tgt: SensorSpec, v: int) -> int:
    """The row offset in range(v) whose kept source-row centres lie nearest
    the target's beam centres, by mean distance in target row pitches; ties,
    within rounding, go to the smallest. Offsets past the last source row
    keep no row and are not tried. Cached: it depends on the specs alone."""
    # source row r's centre is first + r * step pitches above tgt's lowest beam
    step = src.row_pitch / tgt.row_pitch
    first = (src.vfov_min - tgt.vfov_min) / tgt.row_pitch + 0.5 * step - 0.5

    def mean_miss(offset: int) -> float:
        beams = [first + row * step for row in range(offset, src.channels, v)]
        return round(sum([abs(b - round(b)) for b in beams]) / len(beams), 9)

    return min(range(min(v, src.channels)), key=mean_miss)


def downsample_range_image(
    img: RangeImage, v: int, h: int, row_offset: int = 0, col_offset: int = 0
) -> RangeImage:
    """Keep rows == row_offset (mod v) and cols == col_offset (mod h).

    Retained cells are copied bit-identically onto the lattice grid, whose
    cells are centered on the retained source rows (see _lattice_spec).
    """
    _check_stride(v, h, row_offset, col_offset)
    ranges = img.ranges[row_offset::v, col_offset::h].copy()
    intensities = img.intensities[row_offset::v, col_offset::h].copy()
    return RangeImage(ranges, intensities, _lattice_spec(img.spec, v, h, row_offset, col_offset))


def backproject(img: RangeImage, domain_tag: DomainTag = DomainTag.SOURCE) -> Scene:
    """Emit one point per occupied cell, at the cell-center azimuth and
    elevation with the stored range and intensity. Boxes are the caller's
    business."""
    rows, cols = np.nonzero(img.ranges > 0.0)
    spec = img.spec
    el = spec.vfov_min + (rows + 0.5) * spec.row_pitch
    az = (cols + 0.5) * spec.col_pitch
    rng = img.ranges[rows, cols]
    xyz = xyz_from_spherical(np.column_stack([az, el, rng]))
    pts = np.column_stack([xyz, img.intensities[rows, cols]])
    return Scene(pts, [], domain_tag)


def lidar_distribution_match(scene: Scene, src: SensorSpec, tgt: SensorSpec) -> Scene:
    """Resample a source-domain scene so its beam count, points per
    channel, and VFOV match the target sensor.

    Composition: build_range_image -> backproject, where the strided build
    writes straight onto the target-size lattice. The kept rows start at
    the offset that puts them nearest the target's beams; the kept columns
    start at 0. The labels are the source's immutable BoxSet, shared even
    for boxes emptied of points.

    A target VFOV reaching past the source's gets no warning: the default
    pair always does, for about 43% of native NUSCENES_32 returns, so the
    warning would fire on every scene.
    """
    if scene.domain_tag is not DomainTag.SOURCE:
        raise ValueError(f"expected a SOURCE-tagged scene, got {scene.domain_tag}")
    v, h = downsample_factors(src, tgt)
    out = backproject(build_range_image(scene, src, v, h, _nearest_row_offset(src, tgt, v)))
    out.boxes = scene.boxes
    return out
