"""Finite-difference verification of the surrogate loss gradient.

The check displaces every coordinate of every point by +-step and compares
central differences of the loss value against the analytic gradient. Only
the loss *value* is consumed along the way, so the reference stays
independent of the analytic-gradient code path.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .adversarial import surrogate_loss
from .geometry import Box3D, DomainTag, Scene, _check_count, _check_real
from .pipeline import seeded_rng

DEFAULT_STEP = 1e-5


def finite_difference_gradient(
    scene: Scene, boxes: Sequence[Box3D], step: float = DEFAULT_STEP
) -> np.ndarray:
    _check_real("step", step, 0.0, above=True)
    grads = np.zeros((scene.n_points, 3))
    for i in range(scene.n_points):
        for axis in range(3):
            plus = scene.points.copy()
            plus[i, axis] += step
            minus = scene.points.copy()
            minus[i, axis] -= step
            lp, _ = surrogate_loss(Scene(plus, [], scene.domain_tag), boxes)
            lm, _ = surrogate_loss(Scene(minus, [], scene.domain_tag), boxes)
            grads[i, axis] = (lp - lm) / (2.0 * step)
    return grads


def gradient_relative_error(
    scene: Scene, boxes: Sequence[Box3D], step: float = DEFAULT_STEP
) -> float:
    """Max-norm relative error of the analytic gradient against central
    finite differences."""
    _, field = surrogate_loss(scene, boxes)
    reference = finite_difference_gradient(scene, boxes, step)
    scale = max(float(np.abs(reference).max(initial=0.0)), 1e-12)
    return float(np.abs(field.grads - reference).max(initial=0.0)) / scale


def make_gradcheck_fixture(rng: np.random.Generator) -> tuple[Scene, list[Box3D]]:
    """Random scene/box fixture conditioned for finite differencing.

    Points keep a margin from every box face so a +-step displacement never
    flips containment, and centroids stay 0.02 m off the smooth-L1 knee at
    1 m, where the second derivative jumps.
    """
    margin = 0.05
    n_boxes = int(rng.integers(1, 4))
    boxes = []
    rows = []
    for i in range(n_boxes):
        # Spread boxes around the circle, far enough apart not to overlap.
        az = i * (2.0 * math.pi / n_boxes) + rng.uniform(-0.2, 0.2)
        dist = rng.uniform(5.0, 8.0)
        center = np.array(
            [dist * math.cos(az), dist * math.sin(az), rng.uniform(-1.0, 1.0)]
        )
        w, le = rng.uniform(1.5, 4.0, size=2)
        h = rng.uniform(1.0, 2.5)
        box = Box3D(*center, w=w, l=le, h=h, yaw=rng.uniform(-math.pi, math.pi))
        boxes.append(box)
        half = box.half_sizes() - margin
        n_in = int(rng.integers(3, 9))
        while True:
            local = rng.uniform(-half, half, size=(n_in, 3))
            if abs(float(np.linalg.norm(local.mean(axis=0))) - 1.0) > 0.02:
                break
        world = center + local @ box.rotation().T
        rows.append(np.column_stack([world, rng.uniform(0.0, 1.0, size=n_in)]))
    # A few far-away points that no box can reach.
    n_out = int(rng.integers(2, 6))
    az = rng.uniform(0.0, 2.0 * math.pi, size=n_out)
    dist = rng.uniform(15.0, 20.0, size=n_out)
    far = np.column_stack(
        [
            dist * np.cos(az),
            dist * np.sin(az),
            rng.uniform(-1.0, 1.0, size=n_out),
            rng.uniform(0.0, 1.0, size=n_out),
        ]
    )
    rows.append(far)
    scene = Scene(np.vstack(rows), [], DomainTag.TARGET_UNLABELED)
    return scene, boxes


def run_gradcheck(seed: int = 0, trials: int = 50, step: float = DEFAULT_STEP) -> float:
    """Max relative gradient error over a batch of random fixtures."""
    _check_count("trials", trials)
    rng = seeded_rng(seed)
    worst = 0.0
    for _ in range(trials):
        scene, boxes = make_gradcheck_fixture(rng)
        worst = max(worst, gradient_relative_error(scene, boxes, step))
    return worst
