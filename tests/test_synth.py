import numpy as np
import pytest

from lidarmix.geometry import DomainTag, points_in_box, spherical_from_xyz
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
