"""BoxSet, the array-backed box sequence, against the list of Box3Ds it
replaces: the same boxes, the same refusals and the same pipeline results."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidarmix.geometry import Box3D, BoxSet, DomainTag, Scene, normalize_yaw
from lidarmix.oracle import GridClusterOracle
from lidarmix.pipeline import PipelineConfig, generate_pseudo_labels, run_full
from lidarmix.synth import synthesize_dataset
from test_digest import DEFAULT_PIPELINE_SHA256, sha256

coords = st.floats(-1e6, 1e6, allow_nan=False)
sizes = st.floats(1e-6, 1e3, allow_nan=False)
yaws = st.floats(-50.0, 50.0, allow_nan=False) | st.sampled_from([-math.pi, math.pi, 0.0, -0.0])
boxes = st.builds(
    Box3D,
    coords,
    coords,
    coords,
    sizes,
    sizes,
    sizes,
    yaws,
    st.integers(-(2**53), 2**53),
    st.none() | st.floats(0.0, 1.0),
)
box_lists = st.lists(boxes, max_size=6)
# Raw rows with every kind of value a file or a caller can hand over.
anything = st.floats(allow_nan=True, allow_infinity=True)
raw_rows = st.lists(
    st.one_of(anything, st.sampled_from([0.0, -1.0, 0.5, 1.5, 2.0**53, 2.0**53 + 2.0])),
    min_size=9,
    max_size=9,
)


def subset_keys(n):
    """The keys that take a subset of n boxes: slices, masks and index arrays."""
    ends = st.integers(-8, 8) | st.none()
    slices = st.builds(slice, ends, ends, st.sampled_from([1, 2, -1]))
    masks = st.lists(st.booleans(), min_size=n, max_size=n).map(lambda m: np.array(m, dtype=bool))
    indices = st.lists(st.integers(-n, n - 1), max_size=8) if n else st.just([])
    return slices | masks | indices.map(lambda i: np.array(i, dtype=np.intp))


def box_of_row(row):
    """The Box3D that holds the row's values: an integral class id as an
    int, a NaN score as no score."""
    *fields, class_id, score = row
    class_id = int(class_id) if class_id.is_integer() else class_id
    return Box3D(*fields, class_id, None if math.isnan(score) else score)


def refusal(make):
    try:
        make()
    except ValueError as exc:
        return str(exc)
    return None


class TestSequence:
    @settings(max_examples=200, deadline=None)
    @given(box_lists)
    def test_list_round_trip_is_identity(self, bs):
        boxes = BoxSet.of(bs)
        assert len(boxes) == len(bs)
        assert list(boxes) == bs
        assert [boxes[i] for i in range(-len(bs), 0)] == bs
        assert all(type(b.class_id) is int for b in boxes)
        assert BoxSet(boxes.data) == boxes

    @settings(max_examples=200, deadline=None)
    @given(box_lists, box_lists, st.data())
    def test_add_mask_and_slice_match_the_list(self, a, b, data):
        set_a, set_b = BoxSet.of(a), BoxSet.of(b)
        assert list(set_a + set_b) == a + b
        assert list(set_a + b) == a + b
        mask = data.draw(st.lists(st.booleans(), min_size=len(a), max_size=len(a)))
        assert list(set_a[np.array(mask, dtype=bool)]) == [x for x, m in zip(a, mask) if m]
        start, stop = data.draw(st.integers(-8, 8)), data.draw(st.integers(-8, 8))
        step = data.draw(st.sampled_from([1, 2, -1]))
        assert list(set_a[start:stop:step]) == a[start:stop:step]

    @settings(max_examples=200, deadline=None)
    @given(box_lists, box_lists)
    def test_equality_matches_the_list(self, a, b):
        same = BoxSet.of(a) == BoxSet.of(b)
        assert type(same) is bool and same == (a == b)
        assert (BoxSet.of(a) == b) == (a == b)
        assert (a == BoxSet.of(b)) == (a == b)
        assert BoxSet.of(a) == BoxSet.of(list(a))

    def test_immutable(self):
        boxes = BoxSet.of([Box3D(1.0, 2.0, 0.0, 1.0, 2.0, 1.0, 0.5)])
        with pytest.raises(ValueError, match="read-only"):
            boxes.data[0, 0] = 5.0
        assert not hasattr(boxes, "append")

    @settings(max_examples=200, deadline=None)
    @given(box_lists)
    def test_frames_and_corners_match_the_box(self, bs):
        # byte for byte, row by row: the set's libm rotations are Box3D's
        centers, rotations, half = BoxSet.of(bs).frames()
        assert rotations.shape == (len(bs), 3, 3)
        for b, center, rotation, h in zip(bs, centers, rotations, half):
            assert center.tobytes() == b.center().tobytes()
            assert rotation.tobytes() == b.rotation().tobytes()
            assert h.tobytes() == b.half_sizes().tobytes()
            assert b.corners().shape == (8, 3)

    @settings(max_examples=200, deadline=None)
    @given(box_lists, st.data())
    def test_subset_frames_match_a_fresh_box_set(self, bs, data):
        # a subset slices the frames and azimuths its parent holds, and
        # builds those it does not hold from its own rows
        parent = BoxSet.of(bs)
        if data.draw(st.booleans()):
            parent.frames()
        if data.draw(st.booleans()):
            parent.azimuths()
        key = data.draw(subset_keys(len(bs)))
        subset = parent[key]
        if isinstance(key, np.ndarray):  # the caller's key may change after the subset is taken
            key[...] = 0
        fresh = BoxSet(subset.data)
        for got, computed in zip(subset.frames() + subset.azimuths(), fresh.frames() + fresh.azimuths()):
            assert got.shape == computed.shape
            assert got.tobytes() == computed.tobytes()
            assert not got.flags.writeable

    def test_subset_slices_the_parents_arrays(self):
        parent = BoxSet.of([Box3D(float(k), 1.0, 0.0, 1.0, 2.0, 1.0, 0.1 * k) for k in range(1, 6)])
        assert parent[1:4]._rows_of is None  # nothing cached, nothing to slice
        parent.frames()
        parent.azimuths()
        for got, held in zip(parent[1:4].frames() + parent[1:4].azimuths(), parent.frames() + parent.azimuths()):
            assert np.shares_memory(got, held)  # a view of the parent's rows, not a rebuild


class TestValidation:
    @settings(max_examples=500, deadline=None)
    @given(raw_rows)
    def test_refuses_what_box3d_refuses(self, row):
        expected = refusal(lambda: box_of_row(row))
        assert refusal(lambda: BoxSet([row])) == expected
        good = [1.0, 2.0, 3.0, 1.0, 1.0, 1.0, 0.0, 0.0, math.nan]
        # the first refused row decides the message, as in a list of Box3Ds
        assert refusal(lambda: BoxSet([good, row, good])) == expected

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-1e9, 1e9, allow_nan=False), min_size=1, max_size=8))
    def test_yaws_normalised_like_normalize_yaw(self, ys):
        rows = [[0.0, 0.0, 0.0, 1.0, 1.0, 1.0, y, 0.0, math.nan] for y in ys]
        got = BoxSet(rows).data[:, 6]
        one_by_one = np.array([normalize_yaw(y) for y in ys])
        assert got.tobytes() == one_by_one.tobytes()
        assert [b.yaw for b in BoxSet(rows)] == [Box3D(0, 0, 0, 1, 1, 1, y).yaw for y in ys]

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="shape"):
            BoxSet(np.zeros((2, 8)))

    @pytest.mark.parametrize("class_id", [2.5, True, 2**53 + 1, -(2**53) - 1, "1"])
    def test_class_id_must_be_exact_in_float64(self, class_id):
        with pytest.raises(ValueError, match="class id"):
            Box3D(0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, class_id)

    def test_numpy_integer_class_id_accepted(self):
        assert Box3D(0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, np.int64(2**53)).class_id == 2**53


class TestScene:
    def test_boxes_coerced_at_construction_and_assignment(self):
        box = Box3D(1.0, 2.0, 0.0, 1.0, 2.0, 1.0, 0.5)
        scene = Scene(np.zeros((0, 4)), [box])
        assert type(scene.boxes) is BoxSet and scene.boxes == [box]
        scene.boxes = []
        assert type(scene.boxes) is BoxSet and len(scene.boxes) == 0
        assert type(Scene(np.zeros((0, 4))).boxes) is BoxSet

    def test_set_is_shared_not_copied(self):
        boxes = BoxSet.of([Box3D(1.0, 2.0, 0.0, 1.0, 2.0, 1.0, 0.5)])
        assert Scene(np.zeros((0, 4)), boxes).boxes is boxes


class _ListOracle:
    """A third-party detector whose predict returns a plain list."""

    def __init__(self):
        self.inner = GridClusterOracle()

    def predict(self, scene):
        return list(self.inner.predict(scene))

    def loss_and_gradient(self, scene, boxes):
        return self.inner.loss_and_gradient(scene, boxes)


class TestPipelineBoundary:
    def test_predict_builds_no_box3d(self, monkeypatch):
        calls = {"predict": 0, "box3d": 0}
        inside = []
        post_init, predict = Box3D.__post_init__, GridClusterOracle.predict

        def counting_post_init(self):
            calls["box3d"] += bool(inside)
            post_init(self)

        def tracking_predict(self, scene):
            calls["predict"] += 1
            inside.append(True)
            try:
                return predict(self, scene)
            finally:
                inside.pop()

        monkeypatch.setattr(Box3D, "__post_init__", counting_post_init)
        monkeypatch.setattr(GridClusterOracle, "predict", tracking_predict)
        run_full(PipelineConfig(seed=0), synthesize_dataset(0))
        assert calls["predict"] > 0
        assert calls["box3d"] == 0

    def test_list_returning_oracle_gives_the_default_digest(self):
        reports = run_full(PipelineConfig(seed=0), synthesize_dataset(0), _ListOracle())
        digest = sha256({"targetmix": reports[0].to_dict(), "advmix": reports[1].to_dict()})
        assert digest == DEFAULT_PIPELINE_SHA256

    def test_pseudo_labels_drop_boxes_without_score(self):
        class Fixed:
            def predict(self, scene):
                return [
                    Box3D(5.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, score=0.9),
                    Box3D(6.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0),
                    Box3D(7.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, score=0.1),
                ]

        scene = Scene(np.zeros((0, 4)), [], DomainTag.TARGET_UNLABELED)
        (out,) = generate_pseudo_labels(Fixed(), [scene], 0.3)
        assert [b.cx for b in out.boxes] == [5.0]
