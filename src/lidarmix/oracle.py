"""Detector-oracle contract and the desk-scale reference implementation.

The reference detector clusters points by 8-connected components over the
occupied cells of a 2D grid and fits axis-aligned boxes. Only occupied
cells are stored, so cost follows the point count, not the scene extent,
and a far outlier cannot blow up memory. The detector has no trainable
state, so "training" passes in the pipeline reduce to loss evaluation.
Real detectors plug in through the same contract.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .adversarial import GradientField, GradientProvider, surrogate_loss
from .geometry import Box3D, Scene


class DetectorOracle(GradientProvider, Protocol):
    """Prediction plus loss/gradient evaluation over scenes. Read-only by
    construction, so a frozen teacher cannot drift during stage 2."""

    def predict(self, scene: Scene) -> list[Box3D]: ...


def _component_labels(cells: np.ndarray, width: int) -> np.ndarray:
    """8-connected component of each occupied cell, numbered 0, 1, ... in
    the raster order of each component's first cell.

    cells are sorted, unique raster keys i * width + j + 1, where width
    leaves an empty guard column on each side of every row. Union-find
    over the edges to the forward neighbours (E, SW, S, SE): roots are
    hooked onto the smaller root, then every pointer jumps to its root,
    until each edge joins equal roots. A root is then its component's
    smallest index, i.e. its first cell in raster order.
    """
    n = cells.size
    idx = np.arange(n)
    # E neighbours are adjacent keys: the guard column keeps key + 1 in
    # the same row.
    east = np.flatnonzero(cells[1:] - cells[:-1] == 1)
    src, dst = [east], [east + 1]
    # SW, S and SE keys (key + width - 1 .. key + width + 1) sit in the three
    # sorted positions from the first key >= key + width - 1. The third is
    # SE only when SW and S are both occupied, and then S joins SE through
    # its E edge, so two positions suffice. Two keys past the last cell keep
    # those positions in range and never match.
    pos = np.searchsorted(cells, cells + (width - 1))
    padded = np.concatenate((cells, np.full(2, cells[-1] + width + 2)))
    for step in range(2):
        hit = padded[pos + step] - cells <= width + 1
        src.append(idx[hit])
        dst.append(pos[hit] + step)
    src, dst = np.concatenate(src), np.concatenate(dst)
    parent = idx.copy()
    while True:
        root_src, root_dst = parent[src], parent[dst]
        split = root_src != root_dst
        if not split.any():
            break
        root_src, root_dst = root_src[split], root_dst[split]
        low = np.minimum(root_src, root_dst)
        np.minimum.at(parent, root_src, low)
        np.minimum.at(parent, root_dst, low)
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
    is_root = parent == idx
    return (np.cumsum(is_root) - 1)[parent]


@dataclass(frozen=True)
class GridClusterOracle:
    """Connected-component clustering detector.

    Points are binned into cell_size cells in the xy-plane; 8-connected
    components of occupied cells with at least min_points members become
    axis-aligned boxes with score = min(1, points / score_saturation).
    Boxes come out in the raster order (x cell, then y cell) of each
    component's first cell. There is no limit on the scene extent.
    """

    cell_size: float = 1.0
    min_points: int = 5
    score_saturation: int = 50
    smooth_l1_knee: float = 1.0
    min_box_size: float = 0.1

    def __post_init__(self):
        if not 0.0 < self.cell_size < math.inf:
            raise ValueError(f"cell_size must be finite and > 0, got {self.cell_size}")
        if not 0.0 < self.smooth_l1_knee < math.inf:
            raise ValueError(f"smooth_l1_knee must be finite and > 0, got {self.smooth_l1_knee}")
        if not self.score_saturation > 0:
            raise ValueError(f"score_saturation must be > 0, got {self.score_saturation}")

    def predict(self, scene: Scene) -> list[Box3D]:
        if scene.n_points == 0:
            return []
        xyz = scene.xyz
        ij = np.floor(xyz[:, :2] / self.cell_size).astype(np.int64)
        ij -= ij.min(axis=0)
        # Raster keys with an empty guard column on each side of every row,
        # so a cell's W/E neighbour never wraps onto the adjacent row.
        width = int(ij[:, 1].max()) + 3
        cells, cell_of_point = np.unique(ij[:, 0] * width + ij[:, 1] + 1, return_inverse=True)
        label = _component_labels(cells, width)[cell_of_point]

        sorted_xyz = xyz[np.argsort(label, kind="stable")]
        counts = np.bincount(label)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        mn = np.minimum.reduceat(sorted_xyz, starts, axis=0)
        mx = np.maximum.reduceat(sorted_xyz, starts, axis=0)
        keep = counts >= self.min_points
        mn, mx, counts = mn[keep], mx[keep], counts[keep]
        sizes = np.maximum(mx - mn, self.min_box_size)
        scores = np.minimum(1.0, counts / self.score_saturation)
        # One row per box in Box3D's field order: center, (w, l, h) = the
        # (y, x, z) sizes, then the score.
        rows = np.column_stack(((mn + mx) / 2.0, sizes[:, [1, 0, 2]], scores))
        return [
            Box3D(cx, cy, cz, w, l, h, 0.0, 0, score)
            for cx, cy, cz, w, l, h, score in rows.tolist()
        ]

    def loss_and_gradient(
        self, scene: Scene, boxes: Sequence[Box3D]
    ) -> tuple[float, GradientField]:
        return surrogate_loss(scene, boxes, knee=self.smooth_l1_knee)

    def clone(self) -> "GridClusterOracle":
        return dataclasses.replace(self)
