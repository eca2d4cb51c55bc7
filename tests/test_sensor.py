import math

import numpy as np
import pytest

from lidarmix.geometry import DomainTag, Scene, spherical_from_xyz, xyz_from_spherical
from lidarmix.sensor import (
    NUSCENES_32,
    WAYMO_64,
    RangeImage,
    SensorSpec,
    UpsampleRequired,
    backproject,
    build_range_image,
    downsample_factors,
    downsample_range_image,
    lidar_distribution_match,
    raw_downsample_ratios,
)

SMALL = SensorSpec(16, 64, -0.3, 0.1)


def scene_from_spherical(aer, intensities=None, domain_tag=DomainTag.SOURCE):
    aer = np.asarray(aer, dtype=np.float64)
    xyz = xyz_from_spherical(aer)
    if intensities is None:
        intensities = np.full(len(aer), 0.5)
    return Scene(np.column_stack([xyz, intensities]), [], domain_tag)


def all_cell_centers(spec):
    rows, cols = np.meshgrid(np.arange(spec.channels), np.arange(spec.points_per_channel), indexing="ij")
    el = spec.vfov_min + (rows.ravel() + 0.5) * spec.row_pitch
    az = (cols.ravel() + 0.5) * spec.col_pitch
    rng = np.full(el.size, 20.0)
    return np.column_stack([az, el, rng])


class TestSensorSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SensorSpec(0, 100, -0.1, 0.1)
        with pytest.raises(ValueError):
            SensorSpec(8, 100, 0.2, 0.1)

    def test_from_degrees(self):
        assert WAYMO_64.vfov_min == pytest.approx(math.radians(-17.6))
        assert WAYMO_64.span == pytest.approx(math.radians(20.0))


class TestBuildRangeImage:
    def test_bottom_row_inclusive(self):
        # vfov_min = 0 is exactly representable, so a point in the z=0
        # plane reproduces elevation 0.0 and must land in row 0.
        spec = SensorSpec(8, 32, 0.0, 0.4)
        scene = Scene(np.array([[10.0, 0.5, 0.0, 0.9]]))
        img = build_range_image(scene, spec)
        assert img.ranges[0, 0] > 0
        assert img.n_occupied == 1

    def test_nearest_range_wins(self):
        aer = [[0.5, -0.1, 10.0], [0.5, -0.1, 5.0]]
        scene = scene_from_spherical(aer, intensities=[0.2, 0.8])
        img = build_range_image(scene, SMALL)
        assert img.n_occupied == 1
        cell = np.nonzero(img.ranges)
        assert img.ranges[cell][0] == pytest.approx(5.0)
        assert img.intensities[cell][0] == pytest.approx(0.8)

    def test_one_point_per_cell_fills_grid(self):
        scene = scene_from_spherical(all_cell_centers(SMALL))
        img = build_range_image(scene, SMALL)
        assert img.n_occupied == SMALL.channels * SMALL.points_per_channel

    def test_out_of_vfov_discarded(self):
        aer = [[1.0, SMALL.vfov_max + 0.05, 10.0], [1.0, SMALL.vfov_min - 0.05, 10.0]]
        img = build_range_image(scene_from_spherical(aer), SMALL)
        assert img.n_occupied == 0

    def test_empty_scene(self):
        img = build_range_image(Scene.empty(), SMALL)
        assert img.n_occupied == 0


class TestDownsampleFactors:
    def test_published_sensor_pair(self):
        # VFOV ratio 40/20 deg times channel ratio 64/32 -> 4 vertical;
        # 2200/1100 -> 2 horizontal.
        assert downsample_factors(WAYMO_64, NUSCENES_32) == (4, 2)

    def test_identical_specs(self):
        assert downsample_factors(SMALL, SMALL) == (1, 1)

    def test_channel_only_ratio(self):
        src = SensorSpec.from_degrees(64, 1000, -15.0, 15.0)
        tgt = SensorSpec.from_degrees(16, 1000, -15.0, 15.0)
        assert downsample_factors(src, tgt) == (4, 1)

    def test_upsample_warns_and_floors(self):
        with pytest.warns(UpsampleRequired):
            factors = downsample_factors(NUSCENES_32, WAYMO_64)
        assert factors == (1, 1)

    def test_raw_ratios_invert_on_swap(self):
        v_ab, h_ab = raw_downsample_ratios(WAYMO_64, NUSCENES_32)
        v_ba, h_ba = raw_downsample_ratios(NUSCENES_32, WAYMO_64)
        assert v_ab * v_ba == pytest.approx(1.0, rel=1e-12)
        assert h_ab * h_ba == pytest.approx(1.0, rel=1e-12)


class TestDownsampleRangeImage:
    def test_unit_factors_unchanged(self, rng):
        scene = scene_from_spherical(all_cell_centers(SMALL))
        img = build_range_image(scene, SMALL)
        out = downsample_range_image(img, 1, 1)
        assert np.array_equal(out.ranges, img.ranges)
        assert out.spec == img.spec

    def test_published_grid_shape(self):
        img = RangeImage.empty(WAYMO_64)
        out = downsample_range_image(img, 4, 2)
        assert (out.height, out.width) == (16, 1100)

    def test_retained_cells_bit_identical(self, rng):
        ranges = rng.uniform(1.0, 50.0, size=(16, 64))
        img = RangeImage(ranges, rng.uniform(0, 1, (16, 64)), SMALL)
        out = downsample_range_image(img, 4, 2)
        for r in range(out.height):
            for c in range(out.width):
                assert out.ranges[r, c] == img.ranges[4 * r, 2 * c]
                assert out.intensities[r, c] == img.intensities[4 * r, 2 * c]

    def test_stride_offsets(self, rng):
        ranges = rng.uniform(1.0, 50.0, size=(16, 64))
        img = RangeImage(ranges, np.zeros((16, 64)), SMALL)
        out = downsample_range_image(img, 4, 2, row_offset=1, col_offset=1)
        assert out.ranges[0, 0] == img.ranges[1, 1]

    def test_retained_row_elevations_preserved(self):
        # New (fat) cell centers must sit exactly on the retained source rows.
        out_spec = downsample_range_image(RangeImage.empty(SMALL), 4, 1).spec
        for r in range(out_spec.channels):
            new_center = out_spec.vfov_min + (r + 0.5) * out_spec.row_pitch
            old_center = SMALL.vfov_min + (4 * r + 0.5) * SMALL.row_pitch
            assert new_center == pytest.approx(old_center, abs=1e-12)

    def test_validation(self):
        img = RangeImage.empty(SMALL)
        with pytest.raises(ValueError):
            downsample_range_image(img, 0, 1)
        with pytest.raises(ValueError):
            downsample_range_image(img, 2, 1, row_offset=2)


class TestBackproject:
    def test_empty_image(self):
        scene = backproject(RangeImage.empty(SMALL))
        assert scene.n_points == 0

    def test_cell_center_convention(self):
        img = RangeImage.empty(SMALL)
        img.ranges[0, 0] = 10.0
        img.intensities[0, 0] = 0.7
        scene = backproject(img)
        assert scene.n_points == 1
        aer = spherical_from_xyz(scene.xyz)[0]
        assert aer[1] == pytest.approx(SMALL.vfov_min + SMALL.row_pitch / 2, abs=1e-12)
        assert aer[0] == pytest.approx(SMALL.col_pitch / 2, abs=1e-12)
        assert aer[2] == pytest.approx(10.0, abs=1e-12)
        assert scene.points[0, 3] == 0.7

    def test_one_point_per_occupied_cell(self, rng):
        ranges = np.where(rng.random((16, 64)) < 0.3, rng.uniform(2, 50, (16, 64)), 0.0)
        img = RangeImage(ranges, np.zeros((16, 64)), SMALL)
        assert backproject(img).n_points == img.n_occupied

    def test_round_trip_recovers_survivors(self, rng):
        # random in-VFOV points; survivors must come back with exact range
        # and angles within half a cell pitch
        n = 5000
        aer = np.column_stack(
            [
                rng.uniform(0, 2 * math.pi, n),
                rng.uniform(SMALL.vfov_min, SMALL.vfov_max, n),
                rng.uniform(2.0, 80.0, n),
            ]
        )
        scene = scene_from_spherical(aer)
        img = downsample_range_image(build_range_image(scene, SMALL), 1, 1)
        out = backproject(img)
        assert out.n_points == img.n_occupied
        out_aer = spherical_from_xyz(out.xyz)
        # match each output point to its source by range (unique to ~0.016 m
        # spacing, so a < 1e-9 match is unambiguous)
        order = np.argsort(aer[:, 2])
        sorted_ranges = aer[order, 2]
        half_row = SMALL.row_pitch / 2
        half_col = SMALL.col_pitch / 2
        for az, el, r in out_aer:
            i = np.searchsorted(sorted_ranges, r)
            candidates = sorted_ranges[max(0, i - 1) : i + 1]
            assert np.abs(candidates - r).min() < 1e-9
            src = order[max(0, i - 1) + int(np.abs(candidates - r).argmin())]
            d_az = abs((aer[src, 0] - az + math.pi) % (2 * math.pi) - math.pi)
            assert d_az <= half_col * (1 + 1e-9)
            assert abs(aer[src, 1] - el) <= half_row * (1 + 1e-9)


class TestDistributionMatch:
    def test_requires_source_tag(self, rng):
        scene = scene_from_spherical([[1.0, 0.0, 10.0]], domain_tag=DomainTag.MIXED)
        with pytest.raises(ValueError):
            lidar_distribution_match(scene, SMALL, SMALL)

    def test_identical_specs_collision_only_loss(self, rng):
        n = 2000
        aer = np.column_stack(
            [
                rng.uniform(0, 2 * math.pi, n),
                rng.uniform(SMALL.vfov_min, SMALL.vfov_max, n),
                rng.uniform(2.0, 80.0, n),
            ]
        )
        scene = scene_from_spherical(aer)
        occupancy = build_range_image(scene, SMALL).n_occupied
        out = lidar_distribution_match(scene, SMALL, SMALL)
        assert out.n_points == occupancy
        assert out.n_points <= scene.n_points

    def test_dense_scan_eighth_survival(self):
        scene = scene_from_spherical(all_cell_centers(WAYMO_64))
        out = lidar_distribution_match(scene, WAYMO_64, NUSCENES_32)
        assert out.n_points == scene.n_points // 8

    def test_never_increases_count(self, rng):
        from conftest import random_scene

        scene = random_scene(rng, n=500)
        out = lidar_distribution_match(scene, WAYMO_64, NUSCENES_32)
        assert out.n_points <= scene.n_points

    def test_ranges_preserved_through_chain(self, rng):
        n = 300
        aer = np.column_stack(
            [
                rng.uniform(0, 2 * math.pi, n),
                rng.uniform(WAYMO_64.vfov_min, WAYMO_64.vfov_max, n),
                rng.uniform(2.0, 80.0, n),
            ]
        )
        scene = scene_from_spherical(aer)
        # at the image level the stored cell values are bit-identical to
        # the ranges computed from the input points
        point_ranges = spherical_from_xyz(scene.xyz)[:, 2]
        img = downsample_range_image(build_range_image(scene, WAYMO_64), 4, 2)
        stored = img.ranges[img.ranges > 0]
        assert np.isin(stored, point_ranges).all()
        # end to end the only extra error is the trig round trip (~1 ulp)
        out = lidar_distribution_match(scene, WAYMO_64, NUSCENES_32)
        out_ranges = np.sort(spherical_from_xyz(out.xyz)[:, 2])
        diffs = np.abs(np.sort(point_ranges)[None, :] - out_ranges[:, None]).min(axis=1)
        assert diffs.max() < 1e-9

    def test_labels_copied_verbatim(self, rng):
        from conftest import random_box

        boxes = [random_box(rng) for _ in range(3)]
        scene = scene_from_spherical([[1.0, 0.0, 10.0]])
        scene.boxes = boxes
        out = lidar_distribution_match(scene, SMALL, SMALL)
        assert out.boxes == boxes
        assert out.domain_tag is DomainTag.SOURCE

    def test_source_vfov_crop_only(self):
        # nuScenes -> Waymo: a -25 deg point is outside the target VFOV but
        # inside the source VFOV, so it must survive the match.
        el = math.radians(-25.0)
        scene = scene_from_spherical([[1.0, el, 12.0]])
        with pytest.warns(UpsampleRequired):
            out = lidar_distribution_match(scene, NUSCENES_32, WAYMO_64)
        assert out.n_points == 1
        got_el = spherical_from_xyz(out.xyz)[0, 1]
        assert abs(got_el - el) <= NUSCENES_32.row_pitch / 2 + 1e-12

    def test_random_stride_stays_deterministic(self, rng):
        n = 400
        aer = np.column_stack(
            [
                rng.uniform(0, 2 * math.pi, n),
                rng.uniform(WAYMO_64.vfov_min, WAYMO_64.vfov_max, n),
                rng.uniform(2.0, 80.0, n),
            ]
        )
        scene = scene_from_spherical(aer)
        out1 = lidar_distribution_match(
            scene, WAYMO_64, NUSCENES_32, rng=np.random.default_rng(3), random_stride=True
        )
        out2 = lidar_distribution_match(
            scene, WAYMO_64, NUSCENES_32, rng=np.random.default_rng(3), random_stride=True
        )
        assert np.array_equal(out1.points, out2.points)

    def test_random_stride_requires_rng(self, rng):
        scene = scene_from_spherical([[0.5, 0.0, 10.0]])
        with pytest.raises(ValueError, match="random_stride"):
            lidar_distribution_match(scene, WAYMO_64, NUSCENES_32, random_stride=True)
