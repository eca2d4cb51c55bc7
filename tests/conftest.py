import functools
import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from lidarmix.geometry import TWO_PI, Box3D, DomainTag, Scene, _azimuth, xyz_from_spherical
from lidarmix.sensor import NUSCENES_32, WAYMO_64, RangeImage, _check_stride, _lattice_spec


def reference_points_in_box(xyz, box):
    """The per-box full-cloud scan that assign_points replaced: reference
    for the shared point-to-box kernel."""
    if xyz.shape[0] == 0:
        return np.empty(0, dtype=np.intp)
    local = (xyz - box.center()) @ box.rotation()
    inside = np.all(np.abs(local) <= box.half_sizes(), axis=1)
    return np.nonzero(inside)[0]


def reference_range_image(scene, spec, v=1, h=1, row_offset=0):
    """build_range_image as it was with one two-key lexsort of (cell, range)
    per build: reference for the nearest-return choice that replaced it."""
    _check_stride(v, h, row_offset)
    img = RangeImage.empty(_lattice_spec(spec, v, h, row_offset))
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
        on_col = cols % h == 0
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


def reference_backproject(img):
    """backproject as it was with cos and sin taken per point: reference for
    the cell-centre points read from per-spec direction tables."""
    rows, cols = np.nonzero(img.ranges > 0.0)
    spec = img.spec
    el = spec.vfov_min + (rows + 0.5) * spec.row_pitch
    az = (cols + 0.5) * spec.col_pitch
    rng = img.ranges[rows, cols]
    xyz = xyz_from_spherical(np.column_stack([az, el, rng]))
    pts = np.column_stack([xyz, img.intensities[rows, cols]])
    return Scene(pts)


@functools.cache
def load_bench_module(name):
    """lidarbench/<name>.py as the module lidarbench_<name>, registered in
    sys.modules, where dataclasses look their module up. It is executed from
    its source, so no bytecode is written under lidarbench/."""
    path = Path(__file__).resolve().parents[1] / "lidarbench" / f"{name}.py"
    module = types.ModuleType(f"lidarbench_{name}")
    sys.modules[module.__name__] = module
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


@functools.cache
def raycast_world(seed):
    """One ray-cast world seen by both sensors: the WAYMO_64 source scan
    (about 115k points), the native NUSCENES_32 scan (about 25k) and the 25
    cars. Cached, so each seed is ray-cast once per session; the points are
    read-only, as every test shares them."""
    scans = load_bench_module("scans")
    rng = np.random.default_rng(seed)
    cars = scans.place_cars(rng, 25)
    source = scans.raycast_scan(rng, WAYMO_64, cars, DomainTag.SOURCE)
    native = scans.raycast_scan(rng, NUSCENES_32, cars, DomainTag.TARGET_LABELED)
    source.points.flags.writeable = native.points.flags.writeable = False
    return source, native, cars


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_box(rng, dist_range=(3.0, 30.0)):
    dist = rng.uniform(*dist_range)
    az = rng.uniform(0.0, 2.0 * math.pi)
    return Box3D(
        dist * math.cos(az),
        dist * math.sin(az),
        rng.uniform(-2.0, 2.0),
        w=rng.uniform(0.5, 3.0),
        l=rng.uniform(0.5, 5.0),
        h=rng.uniform(0.5, 2.5),
        yaw=rng.uniform(-math.pi, math.pi),
    )


def random_scene(rng, n=200, spread=40.0, domain_tag=DomainTag.SOURCE, boxes=()):
    pts = np.column_stack(
        [
            rng.uniform(-spread, spread, n),
            rng.uniform(-spread, spread, n),
            rng.uniform(-3.0, 3.0, n),
            rng.uniform(0.0, 1.0, n),
        ]
    )
    return Scene(pts, list(boxes), domain_tag)


def cluster_scene(rng, centers, n_per=50, size=(4.0, 2.0, 1.5), domain_tag=DomainTag.TARGET_UNLABELED):
    """Dense clusters wrapped in ground-truth boxes, no ground noise."""
    parts, boxes = [], []
    length, w, h = size
    for cx, cy, cz in centers:
        local = rng.uniform(-0.45, 0.45, size=(n_per, 3)) * np.array(size)
        world = np.array([cx, cy, cz]) + local
        parts.append(np.column_stack([world, rng.uniform(0, 1, n_per)]))
        boxes.append(Box3D(cx, cy, cz, w=w, l=length, h=h, yaw=0.0))
    return Scene(np.vstack(parts), boxes, domain_tag)
