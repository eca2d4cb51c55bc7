import math
import types
from pathlib import Path

import numpy as np
import pytest

from lidarmix.geometry import Box3D, DomainTag, Scene


def reference_points_in_box(xyz, box):
    """The per-box full-cloud scan that assign_points replaced: reference
    for the shared point-to-box kernel."""
    if xyz.shape[0] == 0:
        return np.empty(0, dtype=np.intp)
    local = (xyz - box.center()) @ box.rotation()
    inside = np.all(np.abs(local) <= box.half_sizes(), axis=1)
    return np.nonzero(inside)[0]


def load_scans():
    """lidarbench/scans.py, the ray-cast scan generator, as a module. It is
    executed from its source, so no bytecode is written under lidarbench/."""
    path = Path(__file__).resolve().parents[1] / "lidarbench" / "scans.py"
    module = types.ModuleType("lidarbench_scans")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


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
