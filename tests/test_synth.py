import hashlib

import numpy as np
import pytest

from conftest import raycast_world
from lidarmix.geometry import BoxSet, DomainTag, points_in_box, spherical_from_xyz
from lidarmix.sensor import NUSCENES_32, WAYMO_64
from lidarmix.synth import synthesize_dataset, synthesize_scene


class TestSynthesizeScene:
    def test_zero_objects(self, rng):
        scene = synthesize_scene(rng, 0, NUSCENES_32)
        assert scene.boxes == []
        assert scene.n_points == 1200  # the default ground_points

    def test_every_box_holds_at_least_20_points(self, rng):
        for _ in range(10):
            scene = synthesize_scene(rng, 3, NUSCENES_32)
            for box in scene.boxes:
                assert points_in_box(scene, box).size >= 20

    def test_fixed_seed_reproducible(self):
        a = synthesize_scene(np.random.default_rng(9), 2, WAYMO_64)
        b = synthesize_scene(np.random.default_rng(9), 2, WAYMO_64)
        assert np.array_equal(a.points, b.points)
        assert a.boxes == b.boxes

    def test_ground_points_on_beam_rows(self, rng):
        spec = NUSCENES_32
        scene = synthesize_scene(rng, 0, spec)
        el = spherical_from_xyz(scene.xyz)[:, 1]
        rows = (el - spec.vfov_min) / spec.row_pitch - 0.5
        assert np.abs(rows - np.round(rows)).max() < 1e-6

    def test_intensities_in_unit_interval(self, rng):
        scene = synthesize_scene(rng, 2, WAYMO_64)
        assert scene.intensities.min() >= 0.0
        assert scene.intensities.max() <= 1.0

    def test_rejects_negative_objects(self, rng):
        with pytest.raises(ValueError):
            synthesize_scene(rng, -1, WAYMO_64)

    @pytest.mark.parametrize("ground_points", [1200, 0, 5000])
    def test_ground_points_sets_the_ground_returns(self, rng, ground_points):
        scene = synthesize_scene(rng, 2, NUSCENES_32, ground_points)
        assert np.isfinite(scene.points).all()
        # each object cluster holds 35 to 70 points
        assert 35 * 2 <= scene.n_points - ground_points <= 70 * 2

    @pytest.mark.parametrize(
        "name, value",
        [("n_objects", 1.5), ("n_objects", True), ("ground_points", -1), ("ground_points", 2.0)],
    )
    def test_rejects_non_count_arguments(self, rng, name, value):
        # n_objects=1.5 used to fail mid-run with a TypeError
        args = {"n_objects": 1, "ground_points": 10, name: value}
        with pytest.raises(ValueError, match=f"{name} must be an integer >= 0"):
            synthesize_scene(rng, spec=NUSCENES_32, **args)


class TestSynthesizeDataset:
    def test_role_counts_and_tags(self):
        bundle = synthesize_dataset(1, n_source=3, n_labeled=2, n_unlabeled=4)
        assert len(bundle.source) == 3
        assert len(bundle.target_labeled) == 2
        assert len(bundle.target_unlabeled) == 4
        assert all(s.domain_tag is DomainTag.SOURCE for s in bundle.source)
        assert all(s.domain_tag is DomainTag.TARGET_LABELED for s in bundle.target_labeled)
        assert all(s.domain_tag is DomainTag.TARGET_UNLABELED for s in bundle.target_unlabeled)

    def test_unlabeled_ship_without_boxes(self):
        bundle = synthesize_dataset(1, n_source=1, n_labeled=1, n_unlabeled=2)
        assert all(s.boxes == [] for s in bundle.target_unlabeled)
        assert all(s.boxes for s in bundle.source)

    def test_deterministic(self):
        a = synthesize_dataset(4, n_source=2, n_labeled=1, n_unlabeled=1)
        b = synthesize_dataset(4, n_source=2, n_labeled=1, n_unlabeled=1)
        for sa, sb in zip(a.source + a.target_labeled, b.source + b.target_labeled):
            assert np.array_equal(sa.points, sb.points)
            assert sa.boxes == sb.boxes

    @pytest.mark.parametrize(
        "name, value",
        [
            ("n_source", -1),
            ("n_labeled", -1),
            ("n_unlabeled", -2),
            ("max_objects", 0),
            ("ground_points", -1),
            # non-integers: n_source=1.5 used to fail mid-run with a TypeError,
            # max_objects=2.5 was accepted silently
            ("n_source", 1.5),
            ("n_labeled", True),
            ("n_unlabeled", 2.0),
            ("max_objects", 2.5),
            ("ground_points", 10.0),
        ],
    )
    def test_rejects_negative_counts_and_no_objects(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            synthesize_dataset(0, **{name: value})

    def test_ground_points_reaches_every_role(self):
        bundle = synthesize_dataset(2, n_source=1, n_labeled=1, n_unlabeled=1, ground_points=0)
        for scene in bundle.source + bundle.target_labeled:
            assert 35 * len(scene.boxes) <= scene.n_points <= 70 * len(scene.boxes)

    def test_zero_role_counts_are_valid(self):
        bundle = synthesize_dataset(0, n_source=0, n_labeled=0, n_unlabeled=0)
        assert bundle.source == bundle.target_labeled == bundle.target_unlabeled == []

    @pytest.mark.parametrize("seed", range(4))
    def test_labeled_tail_is_the_unlabeled_role_with_boxes(self, seed):
        # The roles draw from one stream in order, so the hidden truth of the
        # default unlabeled scenes is the tail of a 20-scene labeled role.
        unlabeled = synthesize_dataset(seed).target_unlabeled
        tail = synthesize_dataset(seed, n_labeled=20, n_unlabeled=0).target_labeled[4:]
        assert len(tail) == len(unlabeled) == 16
        for truth, shipped in zip(tail, unlabeled):
            assert np.array_equal(truth.points, shipped.points)
            assert truth.boxes and shipped.boxes == []


# sha256 of the ray-cast world's source points, native points and car rows
# (BoxSet data) per seed, so that moving the generator is shown bit for bit.
RAYCAST_DIGESTS = {
    0: (
        "19ce3911df3dd2760ae95ea3805a79f2f6e6d5c683f4dea6afbf4f40316c402a",
        "feb62bb3b6b6768fc543777e639e476f4ce78ab42ad31d5a467a32ef134d97c2",
        "c67ce496c05d92c7ca0e837c4330f414956f1da5b16088adc5346a74dbe318b4",
    ),
    1: (
        "042c598e010569240501fced942fc5d4a87292c894cccc685db100d18f8b153e",
        "a3b6126070b8d2c1e3f7c3b871dc3c393191a9d0195d897baf80dd7603b9f1d3",
        "e85bad136a2f93253d50947b7637a8b80d7eb77226828de6c794025b31df5d6b",
    ),
}


@pytest.mark.parametrize("seed", sorted(RAYCAST_DIGESTS))
def test_raycast_world_is_pinned(seed):
    source, native, cars = raycast_world(seed)
    arrays = (source.points, native.points, BoxSet.of(cars).data)
    assert tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in arrays) == RAYCAST_DIGESTS[seed]


def _scenes_digest(scenes):
    """sha256 over each scene's points, then its box rows (BoxSet data)."""
    h = hashlib.sha256()
    for scene in scenes:
        h.update(scene.points.tobytes())
        h.update(scene.boxes.data.tobytes())
    return h.hexdigest()


# sha256 of every role of the default bundles of seeds 0 and 1, source,
# target-labeled and target-unlabeled, and of one dense WAYMO_64 scene, so
# that a faster generator is shown to draw and write the same bits.
SYNTH_DIGESTS = {
    0: (
        "00b96e75e31b562823de1f8e4766512cb781c7f6c8cd9792f5b39e5dc84df6f3",
        "bf1d53326cf34789e724ea8bffeee7347489a88ac924b8d148fb384efe31fea5",
        "b2abcb6dace04847f1633d429702483b4c0622218c2cd66e9ac451aa6ffb798e",
    ),
    1: (
        "510f0c1e34169bee900fa456d0bbf35b87be84cb8f592589d811945802a2c2d2",
        "faf90b6ec500307837d81c7ff86467b24fe2f33ea97001493e26a6086d87254a",
        "934126c09b7a611bc5d95e843bbf2f4656e355142395abd14fd180f7bc422ffd",
    ),
}
DENSE_SCENE_DIGEST = "3a2078c8578bc5e14e5f1531d18674d39dad6b8330f3667296110ac3bd4b4e1f"


def test_synth_bundle_is_pinned():
    for seed, expected in SYNTH_DIGESTS.items():
        bundle = synthesize_dataset(seed)
        roles = (bundle.source, bundle.target_labeled, bundle.target_unlabeled)
        assert tuple(map(_scenes_digest, roles)) == expected
    dense = synthesize_scene(np.random.default_rng(3), 4, WAYMO_64, ground_points=5000)
    assert _scenes_digest([dense]) == DENSE_SCENE_DIGEST
