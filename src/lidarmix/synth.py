"""Synthetic scene and dataset generation for tests and the demo pipeline.

The geometry is fixed: the sensor sits 1.8 m above a flat ground plane,
ground returns fill the 4-55 m annulus around it, and every object cluster
holds 35-70 points. Ground returns are scattered on the sensor's beam
pattern (azimuth at a column center, elevation snapped to the nearest beam
row for the sampled range), sparse enough that the clustering oracle sees
mostly small fragments. Object clusters are dense uniform fills of
car-sized boxes. The one knob is `ground_points`, the ground returns per
scene.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import Box3D, DomainTag, Scene, _check_count, xyz_from_spherical
from .pipeline import DatasetBundle, seeded_rng
from .sensor import NUSCENES_32, WAYMO_64, SensorSpec

_SENSOR_HEIGHT = 1.8  # meters above the ground plane
_RANGE_MIN, _RANGE_MAX = 4.0, 55.0  # meters, the ground annulus
_CLUSTER_POINTS_MIN, _CLUSTER_POINTS_MAX = 35, 70  # points per object, inclusive


def _ground_returns(rng: np.random.Generator, spec: SensorSpec, n: int) -> np.ndarray:
    if n == 0:
        return np.empty((0, 4))
    # Uniform in area over the annulus, then snap elevation to a beam row.
    u = rng.uniform(size=n)
    r = np.sqrt(_RANGE_MIN**2 + u * (_RANGE_MAX**2 - _RANGE_MIN**2))
    ideal_el = -np.arctan2(_SENSOR_HEIGHT, r)
    rows = np.clip(
        np.round((ideal_el - spec.vfov_min) / spec.row_pitch - 0.5), 0, spec.channels - 1
    )
    el = spec.vfov_min + (rows + 0.5) * spec.row_pitch
    cols = rng.integers(spec.points_per_channel, size=n)
    az = (cols + 0.5) * spec.col_pitch
    xyz = xyz_from_spherical(np.column_stack([az, el, r]))
    return np.column_stack([xyz, rng.uniform(0.0, 1.0, size=n)])


def _object_cluster(rng: np.random.Generator) -> tuple[np.ndarray, Box3D]:
    dist = rng.uniform(8.0, 35.0)
    az = rng.uniform(0.0, 2.0 * math.pi)
    w = rng.uniform(1.6, 2.2)
    length = rng.uniform(3.6, 4.8)
    h = rng.uniform(1.3, 1.8)
    box = Box3D(
        dist * math.cos(az),
        dist * math.sin(az),
        -_SENSOR_HEIGHT + h / 2.0,
        w=w,
        l=length,
        h=h,
        yaw=rng.uniform(-math.pi, math.pi),
    )
    n = int(rng.integers(_CLUSTER_POINTS_MIN, _CLUSTER_POINTS_MAX + 1))
    local = rng.uniform(-0.45, 0.45, size=(n, 3)) * np.array([length, w, h])
    world = box.center() + local @ box.rotation().T
    return np.column_stack([world, rng.uniform(0.0, 1.0, size=n)]), box


def synthesize_scene(
    rng: np.random.Generator,
    n_objects: int,
    spec: SensorSpec,
    ground_points: int = 1200,
    domain_tag: DomainTag = DomainTag.SOURCE,
) -> Scene:
    """ground_points returns on the sensor's beams plus n_objects dense
    clusters, each wrapped in a ground-truth box holding at least 20 points."""
    _check_count("n_objects", n_objects, 0)
    _check_count("ground_points", ground_points, 0)
    parts = [_ground_returns(rng, spec, ground_points)]
    boxes = []
    for _ in range(n_objects):
        pts, box = _object_cluster(rng)
        parts.append(pts)
        boxes.append(box)
    return Scene(np.vstack(parts), boxes, domain_tag)


def synthesize_dataset(
    seed: int,
    n_source: int = 20,
    n_labeled: int = 4,
    n_unlabeled: int = 16,
    max_objects: int = 4,
    source_spec: SensorSpec = WAYMO_64,
    target_spec: SensorSpec = NUSCENES_32,
    ground_points: int = 1200,
) -> DatasetBundle:
    """Deterministic bundle of synthetic scenes for all three roles.

    Unlabeled scenes are generated with objects but shipped without boxes;
    pseudo-labeling is the pipeline's job.
    """
    for name, count in (
        ("n_source", n_source),
        ("n_labeled", n_labeled),
        ("n_unlabeled", n_unlabeled),
        ("ground_points", ground_points),
    ):
        _check_count(name, count, 0)
    _check_count("max_objects", max_objects)
    rng = seeded_rng(seed, 17)

    def make(count, spec, tag, keep_boxes):
        scenes = []
        for _ in range(count):
            n_obj = int(rng.integers(1, max_objects + 1))
            scene = synthesize_scene(rng, n_obj, spec, ground_points, tag)
            if not keep_boxes:
                scene.boxes = []
            scenes.append(scene)
        return scenes

    return DatasetBundle(
        source=make(n_source, source_spec, DomainTag.SOURCE, keep_boxes=True),
        target_labeled=make(n_labeled, target_spec, DomainTag.TARGET_LABELED, keep_boxes=True),
        target_unlabeled=make(
            n_unlabeled, target_spec, DomainTag.TARGET_UNLABELED, keep_boxes=False
        ),
    )
