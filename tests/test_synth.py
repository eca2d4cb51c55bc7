import numpy as np
import pytest

from lidarmix.geometry import DomainTag, points_in_box, spherical_from_xyz
from lidarmix.sensor import NUSCENES_32, WAYMO_64
from lidarmix.synth import NoiseParams, synthesize_dataset, synthesize_scene


class TestSynthesizeScene:
    def test_zero_objects(self, rng):
        scene = synthesize_scene(rng, 0, NUSCENES_32)
        assert scene.boxes == []
        assert scene.n_points == NoiseParams().ground_points

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


class TestNoiseParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"range_max": np.inf},
            {"sensor_height": np.inf},
            {"sensor_height": -np.inf},
            {"sensor_height": np.nan},
            {"cluster_points_min": 40, "cluster_points_max": 39},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            NoiseParams(**kwargs)

    @pytest.mark.parametrize(
        "kwargs", [{}, {"ground_points": 0}, {"ground_points": 5000}, {"cluster_points_max": 35}]
    )
    def test_accepts_valid_values(self, rng, kwargs):
        noise = NoiseParams(**kwargs)
        scene = synthesize_scene(rng, 2, NUSCENES_32, noise)
        assert np.isfinite(scene.points).all()


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
        "name, value", [("n_source", -1), ("n_labeled", -1), ("n_unlabeled", -2), ("max_objects", 0)]
    )
    def test_rejects_negative_counts_and_no_objects(self, name, value):
        with pytest.raises(ValueError, match=name):
            synthesize_dataset(0, **{name: value})

    def test_zero_role_counts_are_valid(self):
        bundle = synthesize_dataset(0, n_source=0, n_labeled=0, n_unlabeled=0)
        assert bundle.source == bundle.target_labeled == bundle.target_unlabeled == []
