"""Detector-oracle contract and the desk-scale reference implementation.

The reference detector clusters points by 8-connected components over the
occupied cells of a 2D grid and fits axis-aligned boxes. Only occupied
cells are stored, so cost follows the point count, not the scene extent,
and a far outlier cannot blow up memory. One sort of the points' cell
keys yields the occupied cells; each component's count and extremes are
then scattered from its points, with no second sort. The detector has no
trainable state, so "training" passes in the pipeline reduce to loss
evaluation. Real detectors plug in through the same contract.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .adversarial import GradientField, GradientProvider, surrogate_loss
from .geometry import Box3D, BoxSet, Scene


class DetectorOracle(GradientProvider, Protocol):
    """Prediction plus loss/gradient evaluation over scenes. Read-only by
    construction, so a frozen teacher cannot drift during stage 2."""

    def predict(self, scene: Scene) -> Sequence[Box3D]:
        """The boxes detected in scene, each with a score: a BoxSet, or any
        sequence of Box3Ds, which the pipeline converts once."""
        ...


def _component_labels(cells: np.ndarray, width: int) -> np.ndarray:
    """8-connected component of each occupied cell, numbered 0, 1, ... in
    the raster order of each component's first cell.

    cells are sorted, unique raster keys i * width + j + 1, where width
    leaves an empty guard column on each side of every row. Union-find
    over the edges to the forward neighbours (E, SW, S, SE): the larger
    root of each split edge is hooked onto the smaller one, then every
    pointer jumps to its root, until each edge joins equal roots. A root
    is then its component's smallest index, i.e. its first cell in raster
    order.
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
        # Only the larger root moves: the smaller one already points at itself.
        np.minimum.at(parent, np.maximum(root_src, root_dst), np.minimum(root_src, root_dst))
        while True:
            jumped = parent[parent]
            if (jumped == parent).all():
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

    def predict(self, scene: Scene) -> BoxSet:
        """One sort of the cell keys gives the occupied cells and each point's
        cell; each component's count, min and max are scattered from its points."""
        if scene.n_points == 0:
            return BoxSet()
        xyz = scene.xyz
        i, j = np.floor(xyz[:, 0] / self.cell_size), np.floor(xyz[:, 1] / self.cell_size)
        i_min, i_max, j_min, j_max = i.min(), i.max(), j.min(), j.max()
        if not all(map(math.isfinite, (i_min, i_max, j_min, j_max))):
            raise ValueError("scene has non-finite point coordinates")
        # Raster keys with an empty guard column on each side of every row,
        # so a cell's W/E neighbour never wraps onto the adjacent row.
        width = int(j_max) - int(j_min) + 3
        keys = (i.astype(np.int64) - int(i_min)) * width + (j.astype(np.int64) - int(j_min)) + 1
        order = np.argsort(keys)
        sorted_keys = keys[order]
        first = np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
        label = np.empty(len(keys), dtype=np.int64)
        label[order] = _component_labels(sorted_keys[first], width)[np.cumsum(first) - 1]

        counts = np.bincount(label)
        mn, mx = np.full((3, len(counts)), np.inf), np.full((3, len(counts)), -np.inf)
        with np.errstate(invalid="ignore"):  # a NaN z is refused just below
            for axis in range(3):
                np.minimum.at(mn[axis], label, xyz[:, axis])
                np.maximum.at(mx[axis], label, xyz[:, axis])
        if not np.isfinite((mn[2], mx[2])).all():  # x and y are checked above
            raise ValueError("scene has non-finite point coordinates")
        keep = counts >= self.min_points
        mn, mx, counts = mn[:, keep].T, mx[:, keep].T, counts[keep]
        sizes = np.maximum(mx - mn, self.min_box_size)
        scores = np.minimum(1.0, counts / self.score_saturation)
        # One BoxSet row per box: center, (w, l, h) = the (y, x, z) sizes,
        # yaw 0, class 0, then the score.
        zeros = np.zeros((len(scores), 2))
        return BoxSet(np.column_stack(((mn + mx) / 2.0, sizes[:, [1, 0, 2]], zeros, scores)))

    def loss_and_gradient(
        self, scene: Scene, boxes: Sequence[Box3D]
    ) -> tuple[float, GradientField]:
        return surrogate_loss(scene, boxes, knee=self.smooth_l1_knee)

    def clone(self) -> "GridClusterOracle":
        return dataclasses.replace(self)
