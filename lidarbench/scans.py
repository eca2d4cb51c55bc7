"""Ray-cast LiDAR scans of a flat ground plane with parked cars.

One return per sensor grid cell, cast from the cell-center azimuth and
elevation, so a 64x2200 scan holds about 112k points and a 32x1100 scan
about 24k: the sizes of real scans, spread over every beam row the ground
reaches. (`synthesize_scene` with a large `ground_points` piles its
returns into a few rows instead, and shrinks to a few thousand points
after distribution matching.)
"""

from __future__ import annotations

import math

import numpy as np

from lidarmix.geometry import Box3D, DomainTag, Scene
from lidarmix.sensor import SensorSpec

SENSOR_HEIGHT = 1.8
MAX_RANGE = 75.0
DROPOUT = 0.02
RANGE_NOISE = 0.01


def place_cars(rng: np.random.Generator, n: int) -> list[Box3D]:
    """n car-sized boxes resting on the ground, centers at least 6 m apart.
    Distances are stratified over 6-50 m, one car per stratum, because the
    points a car returns fall with the square of its distance."""
    boxes: list[Box3D] = []
    while len(boxes) < n:
        dist = 6.0 + 44.0 * (len(boxes) + rng.uniform()) / n
        az = rng.uniform(0.0, 2.0 * math.pi)
        cx, cy = dist * math.cos(az), dist * math.sin(az)
        if any(math.hypot(cx - b.cx, cy - b.cy) < 6.0 for b in boxes):
            continue
        h = rng.uniform(1.4, 1.8)
        boxes.append(
            Box3D(
                cx,
                cy,
                -SENSOR_HEIGHT + h / 2.0,
                w=rng.uniform(1.7, 2.1),
                l=rng.uniform(3.8, 4.8),
                h=h,
                yaw=rng.uniform(-math.pi, math.pi),
            )
        )
    return boxes


def azimuth_arc(box: Box3D) -> tuple[float, float, float]:
    """(center, lo, hi): the box's corners span azimuths center + [lo, hi].
    Valid for boxes whose footprint keeps clear of the sensor origin."""
    corners = box.corners()
    center = math.atan2(box.cy, box.cx)
    offsets = np.mod(np.arctan2(corners[:, 1], corners[:, 0]) - center + math.pi, 2.0 * math.pi) - math.pi
    return center, float(offsets.min()), float(offsets.max())


def raycast_scan(
    rng: np.random.Generator, spec: SensorSpec, boxes: list[Box3D], tag: DomainTag
) -> Scene:
    """First returns of every grid ray against the ground and the boxes,
    with 2% dropout and 1 cm range noise. The scene carries no labels."""
    width = spec.points_per_channel
    el = spec.vfov_min + (np.arange(spec.channels) + 0.5) * spec.row_pitch
    az = (np.arange(width) + 0.5) * spec.col_pitch
    d = np.stack(
        np.broadcast_arrays(
            np.cos(el)[:, None] * np.cos(az), np.cos(el)[:, None] * np.sin(az), np.sin(el)[:, None]
        ),
        axis=-1,
    )
    with np.errstate(divide="ignore"):
        t = np.where(d[..., 2] < 0.0, -SENSOR_HEIGHT / d[..., 2], np.inf)
    for box in boxes:
        # Only the columns inside the azimuth arc of the box can hit it.
        center, lo, hi = azimuth_arc(box)
        first = math.floor((center + lo) / spec.col_pitch) - 1
        last = math.ceil((center + hi) / spec.col_pitch) + 1
        cols = np.arange(first, last + 1) % width
        rot = box.rotation()
        origin = -box.center() @ rot
        local = d[:, cols] @ rot
        half = box.half_sizes()
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = (-half - origin) / local
            t2 = (half - origin) / local
        t_near = np.nanmax(np.minimum(t1, t2), axis=-1)
        t_far = np.nanmin(np.maximum(t1, t2), axis=-1)
        hit = (t_near <= t_far) & (t_near > 0.0)
        t[:, cols] = np.where(hit & (t_near < t[:, cols]), t_near, t[:, cols])
    d, t = d.reshape(-1, 3), t.reshape(-1)
    keep = (t <= MAX_RANGE) & (rng.random(t.size) >= DROPOUT)
    r = t[keep] + rng.normal(0.0, RANGE_NOISE, size=int(keep.sum()))
    xyz = d[keep] * r[:, None]
    return Scene(np.column_stack([xyz, rng.uniform(0.0, 1.0, size=r.size)]), [], tag)
