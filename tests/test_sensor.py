import functools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load_scans
from lidarmix import sensor
from lidarmix.geometry import DomainTag, Scene, assign_points, spherical_from_xyz, xyz_from_spherical
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

    @pytest.mark.parametrize(
        "channels, points_per_channel",
        [(2.5, 100), (8, 100.0), (np.nan, 100), (8, "100"), (True, 100), (8, True)],
    )
    def test_counts_must_be_integers(self, channels, points_per_channel):
        # a 2.5-channel spec used to construct, and matching then ran on it
        with pytest.raises(ValueError, match="must be an integer >= 1"):
            SensorSpec(channels, points_per_channel, -0.1, 0.1)

    def test_accepts_numpy_integer_counts(self):
        assert SensorSpec(np.int64(8), np.int32(100), -0.1, 0.1) == SensorSpec(8, 100, -0.1, 0.1)

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
        img = build_range_image(Scene(np.empty((0, 4))), SMALL)
        assert img.n_occupied == 0


@st.composite
def strided_cases(draw):
    """A small grid, strides (v, h), and a scene of random points in and
    around the VFOV plus the inputs a raster rounds at: a point whose
    elevation is exactly vfov_max, azimuths next to 2pi, and repeated
    points that tie for a cell at one range."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    channels, width = draw(st.integers(1, 12)), draw(st.integers(1, 40))
    # a stride longer than the grid would leave no row or column to keep
    v, h = draw(st.integers(1, min(4, channels))), draw(st.integers(1, min(4, width)))
    top = rng.uniform(-5.0, 5.0, size=(1, 3))
    vfov_max = spherical_from_xyz(top)[0, 1]
    spec = SensorSpec(channels, width, vfov_max - rng.uniform(0.05, 1.0), vfov_max)
    n = draw(st.integers(0, 80))
    aer = np.column_stack(
        [
            rng.uniform(0.0, 2 * math.pi, n),
            rng.uniform(spec.vfov_min - 0.1, spec.vfov_max + 0.1, n),
            rng.uniform(0.5, 50.0, n),
        ]
    )
    z = 10.0 * math.tan(0.5 * (spec.vfov_min + spec.vfov_max))
    near_two_pi = [[10.0, y, z] for y in (-1e-12, -1e-15, -1e-300, -0.0, 0.0)]
    xyz = np.vstack([xyz_from_spherical(aer), top, near_two_pi])
    repeats = rng.integers(0, len(xyz), size=draw(st.integers(0, 20)))
    xyz = np.vstack([xyz, xyz[repeats]])
    # distinct intensities, so the winner of a tied cell is identifiable
    intensities = rng.permutation(len(xyz)) / len(xyz)
    return Scene(np.column_stack([xyz, intensities])), spec, v, h


class TestStridedBuild:
    @given(strided_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_full_raster_at_every_offset(self, case):
        scene, spec, v, h = case
        full = build_range_image(scene, spec)
        for row_offset in range(v):
            for col_offset in range(h):
                got = build_range_image(scene, spec, v, h, row_offset, col_offset)
                want = downsample_range_image(full, v, h, row_offset, col_offset)
                assert got.spec == want.spec
                assert got.ranges.tobytes() == want.ranges.tobytes()
                assert got.intensities.tobytes() == want.intensities.tobytes()

    @pytest.mark.parametrize("row_offset, col_offset", [(0, 0), (1, 1)])
    def test_tied_range_keeps_first_point(self, row_offset, col_offset):
        cell = all_cell_centers(SMALL).reshape(16, 64, 3)[row_offset, col_offset]
        scene = scene_from_spherical([cell, cell, cell], intensities=[0.2, 0.8, 0.5])
        img = build_range_image(scene, SMALL, 2, 2, row_offset, col_offset)
        assert img.n_occupied == 1
        assert img.intensities[0, 0] == 0.2  # lattice cell of source cell (ro, co)

    @pytest.mark.parametrize(
        "v, h, row_offset, col_offset", [(4, 2, 4, 0), (4, 2, 0, 2), (4, 2, -1, 0), (0, 1, 0, 0)]
    )
    def test_bad_strides_raise_like_downsample(self, v, h, row_offset, col_offset):
        scene = scene_from_spherical(all_cell_centers(SMALL))
        with pytest.raises(ValueError) as from_downsample:
            downsample_range_image(RangeImage.empty(SMALL), v, h, row_offset, col_offset)
        with pytest.raises(ValueError, match=re.escape(str(from_downsample.value))):
            build_range_image(scene, SMALL, v, h, row_offset, col_offset)


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


class TestNearestRowOffset:
    def test_published_sensor_pair(self):
        # Offset 0 keeps WAYMO_64 rows 0.455 of a NUSCENES_32 pitch off its
        # beams; offset 2 keeps them 0.045 off.
        assert sensor._nearest_row_offset(WAYMO_64, NUSCENES_32, 4) == 2

    def test_unit_stride_keeps_every_row(self):
        assert sensor._nearest_row_offset(WAYMO_64, NUSCENES_32, 1) == 0
        assert sensor._nearest_row_offset(SMALL, SMALL, 1) == 0

    def test_tie_goes_to_smallest_offset(self):
        # source rows at -0.375, -0.125, 0.125, 0.375 about one beam at 0:
        # both offsets keep rows 1/16 and 3/16 of a target pitch off
        src, tgt = SensorSpec(4, 64, -0.5, 0.5), SensorSpec(1, 64, -1.0, 1.0)
        assert sensor._nearest_row_offset(src, tgt, 2) == 0
        # shift the beam onto row 3 and offset 1 wins
        assert sensor._nearest_row_offset(src, SensorSpec(1, 64, -0.625, 1.375), 2) == 1

    def test_stride_past_the_last_row_keeps_a_row(self):
        src, tgt = SensorSpec(2, 64, -0.1, 0.1), SensorSpec(1, 64, -1.0, 1.0)
        v, _ = downsample_factors(src, tgt)
        assert v == 20 and sensor._nearest_row_offset(src, tgt, v) == 0
        scene = scene_from_spherical(all_cell_centers(src))
        assert lidar_distribution_match(scene, src, tgt).n_points == 64

    def test_matched_rows_sit_on_the_target_beams(self):
        scene = scene_from_spherical(all_cell_centers(WAYMO_64))
        el = spherical_from_xyz(lidar_distribution_match(scene, WAYMO_64, NUSCENES_32).xyz)[:, 1]
        beams = (el - NUSCENES_32.vfov_min) / NUSCENES_32.row_pitch - 0.5
        assert np.abs(beams - np.round(beams)).max() == pytest.approx(0.045, abs=1e-9)

    def test_computed_once_per_spec_pair(self):
        scene = scene_from_spherical(all_cell_centers(WAYMO_64))
        sensor._nearest_row_offset.cache_clear()
        for _ in range(3):
            lidar_distribution_match(scene, WAYMO_64, NUSCENES_32)
        info = sensor._nearest_row_offset.cache_info()
        assert (info.misses, info.hits) == (1, 2)


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
        assert out.ranges.shape == (16, 1100)

    def test_retained_cells_bit_identical(self, rng):
        ranges = rng.uniform(1.0, 50.0, size=(16, 64))
        img = RangeImage(ranges, rng.uniform(0, 1, (16, 64)), SMALL)
        out = downsample_range_image(img, 4, 2)
        rows, cols = out.ranges.shape
        for r in range(rows):
            for c in range(cols):
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

    def test_each_stage_called_once_on_the_whole_scene(self, monkeypatch):
        # Matching is build -> backproject. downsample_range_image is off
        # the path, so the benchmark trace entry of that name reads 0, and
        # a stage matching bypassed would read 0 in its entry too.
        calls = {}
        for name in ("build_range_image", "downsample_range_image", "backproject"):
            stage = getattr(sensor, name)

            def counted(*args, _name=name, _stage=stage, **kwargs):
                result = _stage(*args, **kwargs)
                calls.setdefault(_name, []).append((args, result))
                return result

            monkeypatch.setattr(sensor, name, counted)
        scene = scene_from_spherical(all_cell_centers(WAYMO_64))
        out = lidar_distribution_match(scene, WAYMO_64, NUSCENES_32)
        assert {name: len(c) for name, c in calls.items()} == {
            "build_range_image": 1,
            "backproject": 1,
        }
        ((built_from, spec, *strides), built), = calls["build_range_image"]
        assert built_from is scene and built_from.n_points == 64 * 2200
        assert spec == WAYMO_64 and strides == [4, 2, 2]
        ((projected, *_), _), = calls["backproject"]
        assert projected is built
        assert out.n_points == scene.n_points // 8

    def test_builds_no_source_size_grid(self, monkeypatch):
        shapes = []
        post_init = RangeImage.__post_init__

        def recorded(img):
            shapes.append(img.ranges.shape)
            post_init(img)

        monkeypatch.setattr(RangeImage, "__post_init__", recorded)
        scene = scene_from_spherical(all_cell_centers(WAYMO_64))
        out = lidar_distribution_match(scene, WAYMO_64, NUSCENES_32)
        assert out.n_points == scene.n_points // 8
        assert shapes == [(16, 1100)]


FIDELITY_SEEDS = range(8)


@functools.cache
def fidelity_case(seed):
    """One ray-cast world seen by both sensors: the WAYMO_64 scan matched to
    NUSCENES_32, the native NUSCENES_32 scan, and the 25 cars."""
    scans = load_scans()
    rng = np.random.default_rng(seed)
    cars = scans.place_cars(rng, 25)
    source = scans.raycast_scan(rng, WAYMO_64, cars, DomainTag.SOURCE)
    native = scans.raycast_scan(rng, NUSCENES_32, cars, DomainTag.TARGET_LABELED)
    return lidar_distribution_match(source, WAYMO_64, NUSCENES_32), native, cars


@functools.cache
def car_point_counts():
    """Points per car over FIDELITY_SEEDS: matched, then native."""
    matched_counts, native_counts = [], []
    for seed in FIDELITY_SEEDS:
        matched, native, cars = fidelity_case(seed)
        matched_counts.append(np.diff(assign_points(matched.xyz, cars)[0]))
        native_counts.append(np.diff(assign_points(native.xyz, cars)[0]))
    return np.concatenate(matched_counts), np.concatenate(native_counts)


def in_source_vfov(scene):
    el = spherical_from_xyz(scene.xyz)[:, 1]
    return scene.xyz[(el >= WAYMO_64.vfov_min) & (el <= WAYMO_64.vfov_max)]


class TestMatchFidelity:
    """Matching a ray-cast WAYMO_64 scan to NUSCENES_32 against the native
    NUSCENES_32 scan of the same world, seeds 0-7, compared only inside the
    source VFOV: about 43% of a native scan lies outside it, and matching
    cannot produce those returns.

    Bounds, set from seeds 0-15 and then checked on the held-out seeds
    16-47:
    - matched points / native points inside the source VFOV, per seed, in
      [0.99, 1.01] (seen 0.9972-1.0019; held out 0.9934-1.0028);
    - the set of target beam rows holding points is the same on both sides,
      per seed (16 of 16, 14 rows each; held out 32 of 32);
    - over the seeds, summed car points matched / native in [0.93, 1.05]
      (seen 0.954 on seeds 0-7, 0.969 on 0-15; held-out windows of 8 seeds
      0.972-0.994), and the median per-car ratio, over cars with a native
      point, in [0.90, 1.10] (seen 0.935 on 0-7, 0.963 on 0-15; held-out
      windows 0.945-1.000);
    - at most 3% of the cars with a native point get no matched point (seen
      1 of 170 on 0-7, 4 of 340 on 0-15; held out 18 of 719, at most 5 of
      ~180 per window of 8 seeds).
    Cars get about 3% fewer points than natively, all of it near ones
    (seeds 0-15 pooled: 0.96 at 6-20 m, 1.00 at 20-35 m and at 35-50 m);
    against the native points inside the source VFOV, near cars get 0.98.
    """

    @pytest.mark.parametrize("seed", FIDELITY_SEEDS)
    def test_point_budget_matches_inside_the_source_vfov(self, seed):
        matched, native, _ = fidelity_case(seed)
        assert 0.99 <= matched.n_points / len(in_source_vfov(native)) <= 1.01

    @pytest.mark.parametrize("seed", FIDELITY_SEEDS)
    def test_beam_rows_match_inside_the_source_vfov(self, seed):
        matched, native, _ = fidelity_case(seed)

        def rows(xyz):
            el = spherical_from_xyz(xyz)[:, 1]
            return set(np.floor((el - NUSCENES_32.vfov_min) / NUSCENES_32.row_pitch).astype(int).tolist())

        assert rows(matched.xyz) == rows(in_source_vfov(native))

    def test_car_points_match(self):
        got, want = car_point_counts()
        assert 0.93 <= got.sum() / want.sum() <= 1.05
        seen = want > 0
        assert 0.90 <= np.median(got[seen] / want[seen]) <= 1.10

    def test_few_seen_cars_get_no_matched_point(self):
        got, want = car_point_counts()
        seen = want > 0
        assert np.count_nonzero(got[seen] == 0) <= 0.03 * np.count_nonzero(seen)
