"""Detector-oracle contract and the desk-scale reference implementation.

The reference detector clusters points by 8-connected components over the
occupied cells of a 2D grid and fits axis-aligned boxes. Memory follows the
point count, not the scene extent, so a far outlier cannot blow it up. A
compact scene finds its occupied cells and their neighbours in a dense
table indexed by cell key, which is used only while it has at most 12
entries per point. Any other scene sorts its cell keys and searches them
instead. Both ways give the same components, numbered the same way. Each
component's count and extremes are then scattered from its points. The
detector has no trainable state, so "training" passes in the pipeline
reduce to loss evaluation. Real detectors plug in through the same
contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .adversarial import GradientField, GradientProvider, surrogate_loss
from .geometry import Box3D, BoxSet, Scene, _check_count, _check_real

_MIN_BOX_SIZE = 0.1  # meters, the floor of every box size
_SCORE_SATURATION = 50  # points from which a cluster scores 1
# predict labels cells through a dense key table (1 + 4 bytes an entry)
# while the key span holds at most this many entries per point, so the
# table never takes more than twice the cloud's 32 bytes a point; past it,
# predict sorts the keys. Memory sets the bound, not speed: on 2 vCPUs the
# table took 0.72-0.81, 0.36-0.71 and 0.25-0.69 of the sort's time on a
# 1.3k-point synth scene and 25k- and 115k-point ray-cast scans whose span
# one far point stretched to 1-64 entries a point. Synth scenes hold 4-10.
_TABLE_ENTRIES_PER_POINT = 12


class DetectorOracle(GradientProvider, Protocol):
    """Prediction plus loss/gradient evaluation over scenes. Read-only by
    construction: nothing trains, so `run_full` hands one object both the
    teacher's and the student's role and the teacher cannot drift.

    Answers depend only on the scene's points and the given boxes, not on
    its domain tag or pseudo flag, so `run_full` may reuse an answer within
    one call: the teacher's prediction on an unlabeled scene stands for its
    pseudo-labeled copy, and the loss the perturbation took on a scene
    stands for that scene's detection loss against the same boxes."""

    def predict(self, scene: Scene) -> Sequence[Box3D]:
        """The boxes detected in scene, each with a score: a BoxSet, or any
        sequence of Box3Ds, which the pipeline converts once."""
        ...


def _join(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Component of each of n cells given forward edges src[e] < dst[e],
    numbered 0, 1, ... in the order of each component's smallest cell.

    Union-find: the larger root of each split edge is hooked onto the
    smaller one, then every pointer jumps to its root, until each edge
    joins equal roots. A root is then its component's smallest index. At
    first every cell is its own root, so each edge hooks dst onto src.
    """
    parent = np.arange(n)
    hi, lo = dst, src
    while hi.size:
        # Only the larger root moves: the smaller one already points at itself.
        np.minimum.at(parent, hi, lo)
        while True:
            jumped = parent[parent]
            if (jumped == parent).all():
                break
            parent = jumped
        root_src, root_dst = parent[src], parent[dst]
        # An edge whose ends share a root keeps it: only split edges go on.
        split = np.flatnonzero(root_src != root_dst)
        src, dst, root_src, root_dst = src[split], dst[split], root_src[split], root_dst[split]
        hi, lo = np.maximum(root_src, root_dst), np.minimum(root_src, root_dst)
    is_root = parent == np.arange(n)
    return (np.cumsum(is_root) - 1)[parent]


def _sorted_labels(keys: np.ndarray, width: int) -> np.ndarray:
    """8-connected component of each point's cell, numbered in the raster
    order of each component's first cell, from one sort of the keys.

    keys are raster keys i * width + j + 1, where width leaves an empty
    guard column on each side of every row; the edges go to the forward
    neighbours (E, SW, S, SE). Memory follows the point count.
    """
    order = np.argsort(keys)
    sorted_keys = keys[order]
    first = np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
    cells = sorted_keys[first]
    idx = np.arange(cells.size)
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
    label = np.empty(len(keys), dtype=np.int64)
    label[order] = _join(cells.size, np.concatenate(src), np.concatenate(dst))[np.cumsum(first) - 1]
    return label


def _table_labels(keys: np.ndarray, width: int, span: int) -> np.ndarray:
    """`_sorted_labels` through a dense table indexed by key, for keys
    below span: no sort and no search, but memory follows span.

    `occupied` marks the keys that hold a point. `table` holds each
    occupied cell's number and is read only at occupied keys, so the rest
    of it is never set. Both run width + 2 entries past span, so the SE
    probe from the last row stays in range and finds nothing.
    """
    occupied = np.zeros(span + width + 2, dtype=bool)
    occupied[keys] = True
    cells = np.flatnonzero(occupied)  # ascending, so numbered in raster order
    table = np.empty(occupied.size, dtype=np.int32)
    table[cells] = np.arange(cells.size, dtype=np.int32)
    # The keys of every cell's E, SW, S and SE neighbours, one block each.
    probe = (cells + np.array([[1], [width - 1], [width], [width + 1]])).ravel()
    hit = np.flatnonzero(occupied[probe])
    return _join(cells.size, hit % cells.size, table[probe[hit]])[table[keys]]


@dataclass(frozen=True)
class GridClusterOracle:
    """Connected-component clustering detector.

    Points are binned into cell_size cells in the xy-plane; 8-connected
    components of occupied cells with at least min_points members become
    axis-aligned boxes with sizes floored at 0.1 m and score
    min(1, points / 50), so pseudo_score_threshold = t keeps the clusters
    of at least 50 * t points. The loss is `surrogate_loss`, a smooth-L1
    with its knee at 1 m in the box frame. Boxes come out in the raster
    order (x cell, then y cell) of each component's first cell. The scene
    extent is limited only by the int64 raster keys of its cells; a scene
    whose keys would overflow is refused. A scene whose cell keys span at
    most 12 entries per point is labelled through a dense key table, any
    other by sorting its keys, so memory stays within a fixed multiple of
    the point count; both give the same boxes, byte for byte.
    """

    cell_size: float = 1.0
    min_points: int = 5

    def __post_init__(self):
        cell_size = _check_real("cell_size", self.cell_size, 0.0, above=True)
        object.__setattr__(self, "cell_size", cell_size)
        _check_count("min_points", self.min_points)

    def predict(self, scene: Scene) -> BoxSet:
        """Each point's component, from the key table or the key sort, then
        each component's count, min and max scattered from its points."""
        if scene.n_points == 0:
            return BoxSet()
        xyz = scene.xyz
        i, j = np.floor(xyz[:, 0] / self.cell_size), np.floor(xyz[:, 1] / self.cell_size)
        i_min, i_max, j_min, j_max = i.min(), i.max(), j.min(), j.max()
        # Raster keys with an empty guard column on each side of every row,
        # so a cell's W/E neighbour never wraps onto the adjacent row. Every
        # cell index, and every key up to those the labelling probes one row
        # past the last, must fit in int64; a NaN or inf index never does.
        if not (
            all(abs(e) < 2**62 for e in (i_min, i_max, j_min, j_max))
            and (int(i_max) - int(i_min) + 2) * (int(j_max) - int(j_min) + 3) < 2**63
        ):
            raise ValueError("scene has non-finite point coordinates or exceeds the int64 cell range")
        width = int(j_max) - int(j_min) + 3
        keys = (i.astype(np.int64) - int(i_min)) * width + (j.astype(np.int64) - int(j_min)) + 1
        span = (int(i_max) - int(i_min) + 1) * width
        # The table numbers its cells in int32.
        if span <= _TABLE_ENTRIES_PER_POINT * len(keys) < 2**31:
            label = _table_labels(keys, width, span)
        else:
            label = _sorted_labels(keys, width)

        counts = np.bincount(label)
        mn, mx = np.full((3, len(counts)), np.inf), np.full((3, len(counts)), -np.inf)
        with np.errstate(invalid="ignore"):  # a NaN z is refused just below
            for axis in range(3):
                np.minimum.at(mn[axis], label, xyz[:, axis])
                np.maximum.at(mx[axis], label, xyz[:, axis])
        if not np.isfinite((mn[2], mx[2])).all():  # x and y are checked above
            raise ValueError("scene has non-finite point coordinates")
        keep = counts >= self.min_points
        mn, mx, counts = mn[:, keep], mx[:, keep], counts[keep]
        # The BoxSet columns, one row each: center, (w, l, h) = the (y, x, z)
        # sizes, yaw 0, class 0, then the score.
        columns = np.zeros((9, len(counts)))
        np.add(mn, mx, out=columns[:3])
        columns[:3] /= 2.0
        np.maximum((mx - mn)[[1, 0, 2]], _MIN_BOX_SIZE, out=columns[3:6])
        np.minimum(1.0, counts / _SCORE_SATURATION, out=columns[8])
        return BoxSet(columns.T)

    def loss_and_gradient(
        self, scene: Scene, boxes: Sequence[Box3D]
    ) -> tuple[float, GradientField]:
        return surrogate_loss(scene, boxes)
