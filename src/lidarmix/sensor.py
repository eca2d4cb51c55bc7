"""LiDAR distribution matching between sensors.

A scan is rasterized into a range image and back-projected to Cartesian
points. Integer strides derived from the channel / points-per-channel /
VFOV ratios of the two sensors, and the row phase nearest the target's
beams, pick the lattice of source cells to keep: the build rasterizes
points in those cells straight onto the target-size grid and drops every
other point before choosing each cell's nearest return.
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
    _check_real,
    xyz_from_spherical,
)

_BLOCK = 1 << 15  # points per block of build_range_image, whose temporaries it bounds


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
        vfov_min = _check_real("vfov_min", self.vfov_min)
        vfov_max = _check_real("vfov_max", self.vfov_max, vfov_min, above=True)
        object.__setattr__(self, "vfov_min", vfov_min)
        object.__setattr__(self, "vfov_max", vfov_max)

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
    """Strides are integers >= 1, offsets integers in [0, stride): no bool or float."""
    _check_count("v", v)
    _check_count("h", h)
    _check_count("row_offset", row_offset, 0)
    _check_count("col_offset", col_offset, 0)
    if not (row_offset < v and col_offset < h):
        raise ValueError(f"offsets ({row_offset}, {col_offset}) out of range for ({v}, {h})")


@functools.cache
def _lattice_spec(spec: SensorSpec, v: int, h: int, row_offset: int, col_offset: int) -> SensorSpec:
    """The grid of spec's rows == row_offset (mod v) and cols == col_offset
    (mod h), its VFOV shifted so the new (fatter) cells are centered exactly
    on the kept source rows, whose elevations backprojection reproduces. Cached."""
    if v == 1 and h == 1:
        return spec
    n_rows = len(range(row_offset, spec.channels, v))
    n_cols = len(range(col_offset, spec.points_per_channel, h))
    vfov_min = spec.vfov_min + (row_offset + 0.5 * (1 - v)) * spec.row_pitch
    return SensorSpec(n_rows, n_cols, vfov_min, vfov_min + n_rows * v * spec.row_pitch)


@functools.cache
def _lattice_index(n: int, stride: int, offset: int, top: int) -> np.ndarray:
    """i // stride for each raster index i in 0..n with i == offset (mod stride),
    else -1; index n, past the axis's last cell, maps as `top`. Cached, read-only."""
    raster = np.append(np.arange(n), top)
    lut = np.where(raster % stride == offset, raster // stride, -1)
    lut.flags.writeable = False
    return lut


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
    first and the rest land straight on the lattice grid: the image is bit
    for bit `downsample_range_image` of the unstrided one.
    """
    _check_stride(v, h, row_offset, col_offset)
    img = RangeImage.empty(_lattice_spec(spec, v, h, row_offset, col_offset))
    n_rows, n_cols = spec.channels, spec.points_per_channel
    # floor reaches n_rows at vfov_max (top row), n_cols at most next to 2pi (column 0)
    row_index = _lattice_index(n_rows, v, row_offset, n_rows - 1)
    col_index = _lattice_index(n_cols, h, col_offset, 0)
    # The steps of spherical_from_xyz, elementwise and so bit for bit, in
    # blocks of points, the azimuth and range only where the row or cell is
    # kept. hypot(horiz, z) > 0 iff either is non-zero; NaN fails the VFOV.
    parts = []
    for start in range(0, max(scene.n_points, 1), _BLOCK):
        x, y, z = scene.points[start : start + _BLOCK, :3].T
        horiz = np.hypot(x, y)
        el = np.arctan2(z, horiz)
        kept = np.flatnonzero(((horiz > 0.0) | (z != 0.0)) & (el >= spec.vfov_min) & (el <= spec.vfov_max))
        rows = row_index[np.floor((el[kept] - spec.vfov_min) / spec.span * n_rows).astype(np.intp)]
        on = rows >= 0
        kept, rows = kept[on], rows[on]
        cols = col_index[np.floor(_azimuth(y[kept], x[kept]) / TWO_PI * n_cols).astype(np.intp)]
        on = cols >= 0
        kept, cells = kept[on], rows[on] * img.spec.points_per_channel + cols[on]
        parts.append((kept + start, cells, np.hypot(horiz[kept], z[kept])))
    kept, cells, rng = parts[0] if len(parts) == 1 else (np.concatenate(c) for c in zip(*parts))
    # A cell's winner is its nearest range, ties going to the earliest point:
    # two per-cell minimums over the points grouped by cell, so the sort's
    # order within a cell is moot. A ray-cast scan's one point per cell needs neither.
    order = np.argsort(cells)
    grouped = cells[order]
    first = np.empty(cells.size, dtype=bool)
    first[:1] = True
    np.not_equal(grouped[1:], grouped[:-1], out=first[1:])
    if not first.all():
        starts = np.flatnonzero(first)
        ranges = rng[order]
        nearest = np.minimum.reduceat(ranges, starts)[np.cumsum(first) - 1]
        winners = np.minimum.reduceat(np.where(ranges == nearest, order, cells.size), starts)
        kept, cells, rng = kept[winners], cells[winners], rng[winners]
    img.ranges.flat[cells] = rng
    img.intensities.flat[cells] = scene.intensities[kept]
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


def backproject(img: RangeImage) -> Scene:
    """Emit one point per occupied cell, at the cell-center azimuth and
    elevation with the stored range and intensity. Boxes are the caller's
    business. The scene is SOURCE-tagged, as matching's input is."""
    rows, cols = np.nonzero(img.ranges > 0.0)
    spec = img.spec
    el = spec.vfov_min + (rows + 0.5) * spec.row_pitch
    az = (cols + 0.5) * spec.col_pitch
    rng = img.ranges[rows, cols]
    xyz = xyz_from_spherical(np.column_stack([az, el, rng]))
    pts = np.column_stack([xyz, img.intensities[rows, cols]])
    return Scene(pts)


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
