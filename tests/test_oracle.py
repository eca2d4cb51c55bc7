import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from conftest import cluster_scene, raycast_world
from lidarmix import oracle as oracle_module
from lidarmix.geometry import Box3D, BoxSet, DomainTag, Scene, points_in_box
from lidarmix.oracle import GridClusterOracle
from lidarmix.pipeline import PipelineConfig, generate_pseudo_labels, run_full
from lidarmix.synth import synthesize_dataset


class TestGridClusterOracle:
    def test_empty_scene(self):
        assert GridClusterOracle().predict(Scene(np.empty((0, 4)))) == []

    def test_three_planted_clusters(self, rng):
        scene = cluster_scene(rng, [(10, 0, 0), (0, 15, 0), (-12, -12, 0)], n_per=60)
        boxes = GridClusterOracle().predict(scene)
        assert len(boxes) == 3
        for box in boxes:
            assert box.score == pytest.approx(1.0)  # 60 points saturates 50
        # each predicted box contains the centroid of one planted cluster
        for i in range(3):
            centroid = scene.points[i * 60 : (i + 1) * 60, :3].mean(axis=0)
            probe = Scene(np.array([[*centroid, 0.0]]))
            assert sum(points_in_box(probe, b).size for b in boxes) == 1

    def test_min_points_filter(self, rng):
        pts = np.column_stack([rng.uniform(-0.3, 0.3, (4, 2)), np.zeros((4, 2))])
        scene = Scene(np.column_stack([pts[:, :2] + 10.0, pts[:, 2:]]))
        assert GridClusterOracle(min_points=5).predict(scene) == []

    def test_score_is_count_over_saturation(self, rng):
        scene = cluster_scene(rng, [(10, 0, 0)], n_per=20)
        boxes = GridClusterOracle().predict(scene)
        assert len(boxes) == 1
        assert boxes[0].score == pytest.approx(20 / 50)

    def test_score_threshold_keeps_clusters_of_50_t_points(self, rng):
        # pseudo_score_threshold = 0.3 keeps the clusters of 15 points or more
        small = (0.8, 0.8, 0.5)  # within a 2 x 2 block of cells: one cluster
        centers = [(10, 0, 0), (0, 15, 0), (-12, -12, 0)]
        parts = [cluster_scene(rng, [c], n, small).points for c, n in zip(centers, (14, 15, 16))]
        scene = Scene(np.vstack(parts), [], DomainTag.TARGET_UNLABELED)
        assert len(GridClusterOracle().predict(scene)) == 3
        (kept,) = generate_pseudo_labels(GridClusterOracle(), [scene], 0.3)
        assert sorted(b.score for b in kept.boxes) == [15 / 50, 16 / 50]

    def test_axis_aligned_fit(self, rng):
        scene = cluster_scene(rng, [(10, 5, 0)], n_per=50)
        box = GridClusterOracle().predict(scene)[0]
        assert box.yaw == 0.0
        pts = scene.points[:, :3]
        assert box.cx == pytest.approx((pts[:, 0].min() + pts[:, 0].max()) / 2)
        assert box.l == pytest.approx(pts[:, 0].max() - pts[:, 0].min())
        assert box.w == pytest.approx(pts[:, 1].max() - pts[:, 1].min())

    def test_deterministic(self, rng):
        scene = cluster_scene(rng, [(10, 0, 0), (0, 15, 0)])
        oracle = GridClusterOracle()
        assert oracle.predict(scene) == oracle.predict(scene)

    def test_flat_cluster_gets_floored_height(self, rng):
        xy = rng.uniform(-1.0, 1.0, size=(30, 2)) + np.array([10.0, 0.0])
        pts = np.column_stack([xy, np.zeros(30), np.zeros(30)])  # all z = 0
        box = GridClusterOracle().predict(Scene(pts))[0]
        assert box.h == pytest.approx(0.1)

    def test_far_outlier_keeps_cluster(self, rng):
        cluster = np.column_stack([rng.uniform(-0.4, 0.4, (6, 3)) + [10.0, 0.0, 0.0], np.zeros(6)])
        outliers = np.array([[0.0, 0.0, 0.0, 0.0], [5000.0, 5000.0, 0.0, 0.0]])
        boxes = GridClusterOracle().predict(Scene(np.vstack([outliers, cluster])))
        mn, mx = cluster[:, :3].min(axis=0), cluster[:, :3].max(axis=0)
        sizes = np.maximum(mx - mn, 0.1)
        assert boxes == [
            Box3D(*((mn + mx) / 2.0), w=sizes[1], l=sizes[0], h=sizes[2], yaw=0.0, score=6 / 50)
        ]

    @pytest.mark.parametrize("min_points", [0, -3, np.nan, 2.5, 5.0, True])
    def test_rejects_min_points_not_a_positive_integer(self, min_points):
        with pytest.raises(ValueError, match="min_points must be an integer >= 1"):
            GridClusterOracle(min_points=min_points)

    def test_accepts_numpy_integer_min_points(self):
        assert GridClusterOracle(min_points=np.int64(3)).min_points == 3

    @pytest.mark.parametrize("cell_size", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_cell_size_not_finite_positive(self, cell_size):
        # such a grid used to bin a whole scene into one ~108 m box
        with pytest.raises(ValueError, match="cell_size must be finite and > 0"):
            GridClusterOracle(cell_size=cell_size)

    @pytest.mark.parametrize("column", [0, 1, 2])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_point_is_refused(self, rng, column, value):
        # an in-memory scene can hold what read_cloud refuses: one plain
        # error, not a cast warning and a complaint about a box field
        scene = cluster_scene(rng, [(10, 0, 0), (0, 15, 0)], n_per=20)
        scene.points[7, column] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="scene has non-finite point coordinates"):
                GridClusterOracle().predict(scene)

    def test_outlier_past_the_int64_cell_range_is_refused(self, rng):
        # its cell index used to be cast with a RuntimeWarning, and the
        # garbage key joined the cluster into one box 1e300 m long
        scene = cluster_scene(rng, [(0, 0, 0)], n_per=30)
        scene.points = np.vstack([scene.points, [[1e300, 0.0, 0.0, 0.0]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="exceeds the int64 cell range"):
                GridClusterOracle().predict(scene)

    def test_raster_keys_past_int64_are_refused(self, rng):
        # each cell index fits, but 1e10 x 1e10 raster keys do not: they
        # used to wrap around silently
        scene = cluster_scene(rng, [(0, 0, 0), (100, 100, 0)], n_per=10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="exceeds the int64 cell range"):
                GridClusterOracle(cell_size=1e-8).predict(scene)

    def test_run_full_survives_far_outlier(self):
        bundle = synthesize_dataset(0)
        scene = bundle.target_unlabeled[0]
        scene.points = np.vstack([scene.points, [[5000.0, 5000.0, 0.0, 0.0]]])
        report_tm, report_am = run_full(PipelineConfig(seed=0), bundle)
        assert report_tm.to_dict() and report_am.to_dict()


def reference_predict(oracle: GridClusterOracle, scene: Scene) -> list[Box3D]:
    """Dense-grid reference: scipy.ndimage.label over the whole bounding
    grid, then one mask per component."""
    if scene.n_points == 0:
        return []
    ij = np.floor(scene.xyz[:, :2] / oracle.cell_size).astype(np.int64)
    ij -= ij.min(axis=0)
    grid = np.zeros(ij.max(axis=0) + 1, dtype=bool)
    grid[ij[:, 0], ij[:, 1]] = True
    labels, n_labels = ndimage.label(grid, structure=np.ones((3, 3), dtype=bool))
    point_labels = labels[ij[:, 0], ij[:, 1]]
    boxes = []
    for label in range(1, n_labels + 1):
        member = point_labels == label
        count = int(member.sum())
        if count < oracle.min_points:
            continue
        pts = scene.xyz[member]
        mn, mx = pts.min(axis=0), pts.max(axis=0)
        sizes = np.maximum(mx - mn, 0.1)
        boxes.append(
            Box3D(
                *((mn + mx) / 2.0),
                w=float(sizes[1]),
                l=float(sizes[0]),
                h=float(sizes[2]),
                yaw=0.0,
                score=min(1.0, count / 50),
            )
        )
    return boxes


def assert_same_bytes(oracle: GridClusterOracle, scene: Scene) -> None:
    """predict equals the reference box for box and byte for byte."""
    expected = reference_predict(oracle, scene)
    got = oracle.predict(scene)
    assert got == expected
    assert got.data.tobytes() == BoxSet.of(expected).data.tobytes()


@st.composite
def clouds(draw):
    """(N, 4) clouds, N >= 1, some collinear along x, y or a diagonal and
    some with duplicated rows."""
    extent = draw(st.sampled_from([0.5, 3.0, 10.0, 40.0]))
    coord = st.floats(-extent, extent, allow_nan=False, width=64)
    xyz = np.array(draw(st.lists(st.tuples(coord, coord, coord), min_size=1, max_size=300)))
    shape = draw(st.sampled_from(["scatter", "x-line", "y-line", "diagonal", "duplicates"]))
    if shape == "x-line":
        xyz[:, 1] = xyz[0, 1]
    elif shape == "y-line":
        xyz[:, 0] = xyz[0, 0]
    elif shape == "diagonal":
        xyz[:, 1] = xyz[:, 0]
    elif shape == "duplicates":
        xyz = np.repeat(xyz, draw(st.integers(2, 6)), axis=0)
    return np.column_stack([xyz, np.zeros(len(xyz))])


@st.composite
def dense_clouds(draw):
    """(N, 4) clouds with 2,000-6,000 points: uniform scatter, tight
    clusters on a sparse background, or points on one x or y line."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2000, 6000))
    extent = draw(st.sampled_from([80.0, 40.0, 150.0]))
    shape = draw(st.sampled_from(["scatter", "clusters", "x-line", "y-line"]))
    xyz = rng.uniform(-extent, extent, size=(n, 3))
    if shape == "clusters":
        centres = rng.uniform(-extent, extent, size=(draw(st.integers(1, 40)), 3))
        near = np.flatnonzero(rng.random(n) < 0.8)
        picked = centres[rng.integers(0, len(centres), near.size)]
        xyz[near] = picked + rng.normal(0.0, 0.6, (near.size, 3))
    elif shape == "x-line":
        xyz[:, 1] = xyz[0, 1]
    elif shape == "y-line":
        xyz[:, 0] = xyz[0, 0]
    return np.column_stack([xyz, np.zeros(n)])


def grid_scene(cells, per_cell):
    """per_cell points spread along the diagonal of each (i, j) unit cell,
    each at its own height."""
    offsets = (np.arange(per_cell) + 0.5) / per_cell
    xy = np.repeat(np.asarray(cells, dtype=float), per_cell, axis=0)
    xy += np.tile(offsets, len(cells))[:, None]
    z = np.arange(len(xy), dtype=float) * 0.01
    return Scene(np.column_stack([xy, z, np.zeros(len(xy))]))


class TestDenseGridEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(clouds(), st.sampled_from([0.25, 0.5, 0.7, 1.0, 2.0]), st.integers(1, 8))
    def test_same_boxes_same_order(self, points, cell_size, min_points):
        oracle = GridClusterOracle(cell_size=cell_size, min_points=min_points)
        scene = Scene(points)
        assert oracle.predict(scene) == reference_predict(oracle, scene)

    @pytest.mark.parametrize("cell_size", [0.5, 1.0, 2.0])
    def test_synthetic_bundle(self, cell_size):
        oracle = GridClusterOracle(cell_size=cell_size)
        bundle = synthesize_dataset(1)
        for scene in bundle.source + bundle.target_labeled + bundle.target_unlabeled:
            assert_same_bytes(oracle, scene)

    @pytest.mark.parametrize("sensor_index", [0, 1], ids=["64x2200", "32x1100"])
    def test_raycast_scans(self, sensor_index):
        # real scan density: about 115k and 25k points, 25 cars on a ground plane
        scene = raycast_world(0)[sensor_index]
        assert scene.n_points > 20_000
        assert_same_bytes(GridClusterOracle(), scene)

    @settings(max_examples=40, deadline=None)
    @given(dense_clouds(), st.sampled_from([0.25, 0.5, 1.0, 2.0]), st.integers(1, 8))
    def test_dense_clouds(self, points, cell_size, min_points):
        oracle = GridClusterOracle(cell_size=cell_size, min_points=min_points)
        scene = Scene(points)
        assert oracle.predict(scene) == reference_predict(oracle, scene)

    # Cells whose SW/S/SE search runs past the last sorted key, and grids
    # one row or one column (width 3) wide.
    @pytest.mark.parametrize(
        "cells",
        [
            pytest.param([(0, 0), (0, 1), (1, 0), (1, 1), (1, 2)], id="last-row-full"),
            pytest.param([(0, 0), (0, 3), (2, 0), (2, 1), (2, 2), (2, 3)], id="last-row-apart"),
            pytest.param([(0, 0), (1, 1)], id="se-only-last"),
            pytest.param([(0, 0), (0, 5), (1, 1)], id="se-only-last-past-gap"),
            pytest.param([(0, 2), (0, 4), (1, 5)], id="se-only-last-row-end"),
            pytest.param([(0, 1), (1, 0)], id="sw-only-last"),
            pytest.param([(0, 1), (1, 0), (1, 2)], id="sw-and-se-last"),
            pytest.param([(0, 0), (0, 1), (0, 2), (0, 4), (0, 5), (0, 9)], id="one-row"),
            pytest.param([(0, 0), (1, 0), (2, 0), (4, 0), (6, 0), (7, 0)], id="one-column"),
            pytest.param([(0, 0)], id="one-cell"),
        ],
    )
    @pytest.mark.parametrize("per_cell", [1, 3])
    def test_neighbour_search_corners(self, cells, per_cell):
        oracle = GridClusterOracle(min_points=1)
        scene = grid_scene(cells, per_cell)
        assert oracle.predict(scene) == reference_predict(oracle, scene)


# The cell layouts of test_neighbour_search_corners, read from its mark.
(CORNER_PARAMS,) = [
    mark.args[1]
    for mark in TestDenseGridEquivalence.test_neighbour_search_corners.pytestmark
    if mark.args[0] == "cells"
]
CORNER_LAYOUTS = [param.values[0] for param in CORNER_PARAMS]


@st.composite
def cell_keys(draw):
    """(keys, width, span): the raster keys of a few points per occupied
    cell, in a drawn order, as predict builds them. The cells are a corner
    layout or a drawn set of up to 60 cells in a grid of up to 12 x 12."""
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    drawn = st.sets(st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)), min_size=1, max_size=60)
    cells = np.array(sorted(draw(st.sampled_from(CORNER_LAYOUTS) | drawn)))
    i, j = cells[:, 0] - cells[:, 0].min(), cells[:, 1] - cells[:, 1].min()
    width = int(j.max()) + 3
    keys = np.repeat(i * width + j + 1, draw(st.lists(st.integers(1, 3), min_size=len(cells), max_size=len(cells))))
    order = draw(st.permutations(range(len(keys))))
    return keys[np.array(order)].astype(np.int64), width, (int(i.max()) + 1) * width


class TestLabellingPaths:
    """predict labels cells through a dense key table, or by sorting the
    keys when the table would hold more than _TABLE_ENTRIES_PER_POINT
    entries a point. Both must give the same labels."""

    @settings(max_examples=300, deadline=None)
    @given(cell_keys())
    def test_table_and_sort_give_the_same_labels(self, drawn):
        keys, width, span = drawn
        table = oracle_module._table_labels(keys, width, span)
        assert np.array_equal(table, oracle_module._sorted_labels(keys, width))

    # N = 10 points whose keys span 12 x 10 = 120 (the bound) or 11 x 11 =
    # 121 (one key past it) entries: a 6- and a 4-point cluster in opposite
    # corners.
    @pytest.mark.parametrize(
        "rows, cols, path",
        [(12, 8, "_table_labels"), (11, 9, "_sorted_labels")],
        ids=["at-the-bound", "one-key-past"],
    )
    def test_both_sides_of_the_bound(self, monkeypatch, rows, cols, path):
        assert oracle_module._TABLE_ENTRIES_PER_POINT == 12  # the layouts are built for 12
        scene = grid_scene([(0, 0), (0, 1), (rows - 1, cols - 1), (rows - 2, cols - 1)], 3)
        scene.points = scene.points[:10]
        assert rows * (cols + 2) - 12 * scene.n_points == (path == "_sorted_labels")
        taken = []

        def spy(name):
            labels = getattr(oracle_module, name)

            def counted(*args):
                taken.append(name)
                return labels(*args)

            return counted

        for name in ("_table_labels", "_sorted_labels"):
            monkeypatch.setattr(oracle_module, name, spy(name))
        assert_same_bytes(GridClusterOracle(min_points=1), scene)
        assert taken == [path]

    def test_far_outlier_gets_no_table(self, rng):
        # a table over the outlier's extent would take about 20 MB
        scene = cluster_scene(rng, [(0, 0, 0)], n_per=30)
        scene.points = np.vstack([scene.points, [[1e6, 0.0, 0.0, 0.0]]])
        tracemalloc.start()
        try:
            boxes = GridClusterOracle().predict(scene)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(boxes) == 1
        assert peak < 1_000_000
