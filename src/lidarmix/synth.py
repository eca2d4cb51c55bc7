"""Synthetic scene and dataset generation for tests and the demo pipeline.

Ground returns are scattered on the sensor's beam pattern (azimuth at a
column center, elevation snapped to the nearest beam row for the sampled
range), sparse enough that the clustering oracle sees mostly small
fragments. Object clusters are dense uniform fills of car-sized boxes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Box3D, DomainTag, Scene, xyz_from_spherical
from .pipeline import DatasetBundle, seeded_rng
from .sensor import NUSCENES_32, WAYMO_64, SensorSpec


@dataclass(frozen=True)
class NoiseParams:
    ground_points: int = 1200
    sensor_height: float = 1.8
    range_min: float = 4.0
    range_max: float = 55.0
    cluster_points_min: int = 35
    cluster_points_max: int = 70

    def __post_init__(self):
        if self.ground_points < 0:
            raise ValueError("ground_points must be >= 0")
        if not 0.0 < self.range_min < self.range_max < math.inf:
            raise ValueError("need finite 0 < range_min < range_max")
        if not math.isfinite(self.sensor_height):
            raise ValueError(f"sensor_height must be finite, got {self.sensor_height}")
        if not 20 <= self.cluster_points_min <= self.cluster_points_max:
            raise ValueError("need 20 <= cluster_points_min <= cluster_points_max")


def _ground_returns(rng: np.random.Generator, spec: SensorSpec, noise: NoiseParams) -> np.ndarray:
    n = noise.ground_points
    if n == 0:
        return np.empty((0, 4))
    # Uniform in area over the annulus, then snap elevation to a beam row.
    u = rng.uniform(size=n)
    r = np.sqrt(noise.range_min**2 + u * (noise.range_max**2 - noise.range_min**2))
    ideal_el = -np.arctan2(noise.sensor_height, r)
    rows = np.clip(
        np.round((ideal_el - spec.vfov_min) / spec.row_pitch - 0.5), 0, spec.channels - 1
    )
    el = spec.vfov_min + (rows + 0.5) * spec.row_pitch
    cols = rng.integers(spec.points_per_channel, size=n)
    az = (cols + 0.5) * spec.col_pitch
    xyz = xyz_from_spherical(np.column_stack([az, el, r]))
    return np.column_stack([xyz, rng.uniform(0.0, 1.0, size=n)])


def _object_cluster(
    rng: np.random.Generator, noise: NoiseParams
) -> tuple[np.ndarray, Box3D]:
    dist = rng.uniform(8.0, 35.0)
    az = rng.uniform(0.0, 2.0 * math.pi)
    w = rng.uniform(1.6, 2.2)
    length = rng.uniform(3.6, 4.8)
    h = rng.uniform(1.3, 1.8)
    box = Box3D(
        dist * math.cos(az),
        dist * math.sin(az),
        -noise.sensor_height + h / 2.0,
        w=w,
        l=length,
        h=h,
        yaw=rng.uniform(-math.pi, math.pi),
    )
    n = int(rng.integers(noise.cluster_points_min, noise.cluster_points_max + 1))
    local = rng.uniform(-0.45, 0.45, size=(n, 3)) * np.array([length, w, h])
    world = box.center() + local @ box.rotation().T
    return np.column_stack([world, rng.uniform(0.0, 1.0, size=n)]), box


def synthesize_scene(
    rng: np.random.Generator,
    n_objects: int,
    spec: SensorSpec,
    noise: NoiseParams = NoiseParams(),
    domain_tag: DomainTag = DomainTag.SOURCE,
) -> Scene:
    """Ground returns on the sensor's beams plus n_objects dense clusters,
    each wrapped in a ground-truth box holding at least 20 points."""
    if n_objects < 0:
        raise ValueError(f"n_objects must be >= 0, got {n_objects}")
    parts = [_ground_returns(rng, spec, noise)]
    boxes = []
    for _ in range(n_objects):
        pts, box = _object_cluster(rng, noise)
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
    noise: NoiseParams = NoiseParams(),
) -> DatasetBundle:
    """Deterministic bundle of synthetic scenes for all three roles.

    Unlabeled scenes are generated with objects but shipped without boxes;
    pseudo-labeling is the pipeline's job.
    """
    for name, count in (("n_source", n_source), ("n_labeled", n_labeled), ("n_unlabeled", n_unlabeled)):
        if count < 0:
            raise ValueError(f"{name} must be >= 0, got {count}")
    if max_objects < 1:
        raise ValueError(f"max_objects must be >= 1, got {max_objects}")
    rng = seeded_rng(seed, 17)

    def make(count, spec, tag, keep_boxes):
        scenes = []
        for _ in range(count):
            n_obj = int(rng.integers(1, max_objects + 1))
            scene = synthesize_scene(rng, n_obj, spec, noise, tag)
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
