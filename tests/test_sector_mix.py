import math

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from conftest import random_box, random_scene, reference_points_in_box
from lidarmix.geometry import TWO_PI, Box3D, DomainTag, Scene, points_in_box, wrap_azimuth
from lidarmix.sector_mix import (
    SectorMask,
    SectorParams,
    box_crosses_boundary,
    boxes_cross_boundary,
    enhanced_filter,
    polar_mix,
    sample_sectors,
    targetmix_sample,
)

HALF_PLANE = SectorMask(((0.0, math.pi),))


def loop_contains(mask, azimuth):
    """The per-sector membership loop that SectorMask.contains replaced:
    reference for its one-pass form."""
    az = np.asarray(azimuth, dtype=np.float64)
    inside = np.zeros(az.shape, dtype=bool)
    for start, width in mask.sectors:
        inside |= np.mod(az - start, TWO_PI) < width
    return inside


# Azimuths where a membership test can round differently: both ends of the
# circle, tiny values, and values a caller forgot to wrap.
CIRCLE_EDGES = [0.0, -0.0, 5e-324, 1e-300, np.nextafter(TWO_PI, 0.0), TWO_PI, -1e-17, 7.0, -7.0]


def edge_azimuths(mask):
    """Each sector's start and end, wrapped and not, with their float
    neighbours, plus CIRCLE_EDGES."""
    values = list(CIRCLE_EDGES)
    for start, width in mask.sectors:
        for edge in (start, start + width, wrap_azimuth(start + width)):
            values += [edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)]
    return np.array(values)


@st.composite
def sector_masks(draw):
    """Masks of 1-4 sectors, each either touching the previous one's end
    or after a gap; starts past 2pi wrap, so the last sector may wrap."""
    start = draw(st.one_of(st.sampled_from(CIRCLE_EDGES[:5]), st.floats(0.0, TWO_PI)))
    sectors = []
    for _ in range(draw(st.integers(1, 4))):
        width = draw(st.floats(1e-9, 2.5))
        sectors.append((start, width))
        start += width + draw(st.one_of(st.just(0.0), st.floats(5e-324, 1.0)))
    try:
        return SectorMask(tuple(sectors))
    except ValueError:
        reject()


def small_box_at(azimuth, dist=10.0, size=0.5):
    return Box3D(
        dist * math.cos(azimuth),
        dist * math.sin(azimuth),
        0.0,
        w=size,
        l=size,
        h=size,
        yaw=0.0,
    )


class TestSectorMask:
    def test_contains_half_open(self):
        mask = SectorMask(((1.0, 0.5),))
        assert mask.contains(1.0)
        assert mask.contains(1.49)
        assert not mask.contains(1.5)
        assert not mask.contains(0.99)

    def test_wraparound_sector(self):
        mask = SectorMask(((6.0, 1.0),))  # wraps through 0
        assert mask.contains(6.2)
        assert mask.contains(0.3)
        assert not mask.contains(1.5)

    def test_contains_named_edges_match_per_sector_loop(self):
        mask = SectorMask(((1.0, 0.5), (6.0, 1.0)))  # the second wraps through 0
        # each start is inside and each end, wrapped or not, outside
        values = [1.0, 1.5, 6.0, 7.0, wrap_azimuth(7.0), np.nextafter(TWO_PI, 0.0), -1e-17, 0.0]
        expected = loop_contains(mask, values)
        assert expected.tolist() == [True, False, True, False, False, True, True, True]
        assert np.array_equal(mask.contains(np.array(values)), expected)
        for value, inside in zip(values, expected):
            assert mask.contains(value) is bool(inside)
        assert mask.contains(np.empty(0)).shape == (0,)

    @given(sector_masks(), st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=20))
    @settings(max_examples=500, deadline=None)
    def test_contains_matches_per_sector_loop(self, mask, extra):
        az = np.concatenate([edge_azimuths(mask), extra])
        in_range = az[(az >= 0.0) & (az < TWO_PI)]
        with np.errstate(invalid="ignore"):  # np.mod of inf
            for values in (az, in_range):  # a mixed array and the in-range path
                assert np.array_equal(mask.contains(values), loop_contains(mask, values))
            for value in az.tolist():
                assert mask.contains(value) is bool(loop_contains(mask, value))

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            SectorMask(((0.0, 1.0), (0.5, 1.0)))

    @pytest.mark.parametrize("start", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_start(self, start):
        # such a start was stored as NaN, and the mask then held no azimuth
        with pytest.raises(ValueError, match="sector start must be finite"):
            SectorMask(((start, 1.0),))

    def test_rejects_full_circle(self):
        with pytest.raises(ValueError):
            SectorMask(((0.0, 3.5), (3.5, 2.9)))

    def test_boundary_angles(self):
        mask = SectorMask(((6.0, 1.0), (2.0, 0.5)))
        edges = sorted(mask.boundary_angles().tolist())
        expected = sorted([6.0, wrap_azimuth(7.0), 2.0, 2.5])
        assert edges == pytest.approx(expected)


class TestSampleSectors:
    def test_single_half_plane(self, rng):
        mask = sample_sectors(rng, 1, math.pi, math.pi)
        assert len(mask.sectors) == 1
        assert mask.sectors[0][1] == math.pi

    def test_disjointness_over_many_draws(self, rng):
        for _ in range(10_000):
            mask = sample_sectors(rng, 2, math.pi / 6, math.pi / 2)
            (s1, w1), (s2, w2) = mask.sectors
            assert (s2 - s1) % (2 * math.pi) >= w1
            assert (s1 - s2) % (2 * math.pi) >= w2

    def test_exact_full_packing_fails(self, rng):
        # k sectors at least this wide total 2*pi or more: pigeonhole, cannot
        # pack, so the params are refused before any draw
        for k, width in ((4, math.pi / 2), (7, 1.0)):
            with pytest.raises(ValueError, match=r"k \* min_width = .* must stay below 2pi"):
                SectorParams(k, width, width)
            with pytest.raises(ValueError, match=r"k \* min_width"):
                sample_sectors(rng, k, width, width)

    def test_packing_that_rejection_sampling_cannot_find_fails(self, rng):
        # these widths fit with 4e-9 rad to spare, which 1000 random draws miss
        width = math.pi / 2 - 1e-9
        with pytest.raises(RuntimeError, match="could not place 4 disjoint sectors"):
            sample_sectors(rng, 4, width, width)

    def test_bad_params(self, rng):
        with pytest.raises(ValueError):
            sample_sectors(rng, 0, 0.1, 0.2)
        with pytest.raises(ValueError):
            sample_sectors(rng, 1, 0.5, 0.2)

    @pytest.mark.parametrize("k", [1.5, 2.0, np.nan, True])
    def test_k_must_be_an_integer(self, k):
        # SectorParams(k=1.5) used to construct and then fail mid-run
        with pytest.raises(ValueError, match="k must be an integer >= 1"):
            SectorParams(k=k)


class TestBoxCrossesBoundary:
    def test_inside_sector(self):
        box = small_box_at(math.pi / 2)
        assert not box_crosses_boundary(box, HALF_PLANE)

    def test_straddles_boundary(self):
        # corners reach azimuths on both sides of the 0 edge
        box = small_box_at(0.0, dist=5.0, size=2.0)
        assert box_crosses_boundary(box, HALF_PLANE)

    def test_wraparound_without_boundary(self):
        mask = SectorMask(((math.pi / 2, math.pi / 4),))
        box = small_box_at(0.0, dist=5.0, size=2.0)  # spans the 0/2pi wrap
        assert not box_crosses_boundary(box, mask)

    def test_degenerate_center(self):
        # a box centred on the z-axis counts as cut by every sector edge
        box = Box3D(0.0, 0.0, 5.0, w=1, l=1, h=1, yaw=0.0)
        assert box_crosses_boundary(box, HALF_PLANE) is True

    def test_footprint_over_origin_always_crosses(self):
        box = Box3D(0.5, 0.0, 0.0, w=2.0, l=4.0, h=1.0, yaw=0.2)
        assert box_crosses_boundary(box, SectorMask(((2.0, 0.5),)))

    def test_corner_arc_matches_independent_azimuths(self, rng):
        # fixture chosen via independently computed corner azimuths
        for _ in range(200):
            box = random_box(rng, dist_range=(4.0, 25.0))
            corners = box.corners()
            az = np.arctan2(corners[:, 1], corners[:, 0]) % (2 * math.pi)
            # pick a boundary angle inside the corner span: must cross
            mid = wrap_azimuth(float(np.angle(np.exp(1j * az).mean())))
            mask = SectorMask(((mid, 0.3),))
            assert box_crosses_boundary(box, mask)


class OnZAxis(ValueError):
    """The reference's refusal of a box centred on the z-axis."""


def reference_box_crosses_boundary(box, mask):
    """The per-box test that boxes_cross_boundary replaced."""
    if math.hypot(box.cx, box.cy) < 1e-6:
        raise OnZAxis(f"box center ({box.cx}, {box.cy}) sits on the z-axis")
    local = (-box.center()) @ box.rotation()
    if abs(local[0]) <= box.l / 2.0 and abs(local[1]) <= box.w / 2.0:
        return True  # the footprint reaches over the origin
    arc_start, arc_width = reference_corner_arc(box)
    edges = mask.boundary_angles()
    return bool(np.any(np.mod(edges - arc_start, TWO_PI) <= arc_width))


def reference_corner_arc(box):
    """Shortest (start, width) arc covering the azimuths of the corners,
    each corner taken by the one-box product."""
    signs = np.array([[sx, sy, sz] for sx in (-1.0, 1.0) for sy in (-1.0, 1.0) for sz in (-1.0, 1.0)])
    corners = box.center() + (signs * box.half_sizes()) @ box.rotation().T
    az = np.sort(wrap_azimuth(np.arctan2(corners[:, 1], corners[:, 0])))
    gaps = np.diff(az, append=az[0] + TWO_PI)
    i = int(np.argmax(gaps))
    return float(az[(i + 1) % az.size]), float(TWO_PI - gaps[i])


def reference_enhanced_filter(scene, mask, keep_inside):
    """enhanced_filter as it was before the batched boundary test."""
    crossing, safe = [], []
    for box in scene.boxes:
        try:
            cut = reference_box_crosses_boundary(box, mask)
        except OnZAxis:
            cut = True
        (crossing if cut else safe).append(box)
    remove = np.zeros(scene.n_points, dtype=bool)
    for box in crossing:
        remove[reference_points_in_box(scene.xyz, box)] = True
    az = wrap_azimuth(np.arctan2(scene.points[:, 1], scene.points[:, 0]))
    keep = ~remove & (mask.contains(az) == keep_inside)
    kept = [b for b in safe if mask.contains(wrap_azimuth(math.atan2(b.cy, b.cx))) == keep_inside]
    return Scene(scene.points[keep], kept, scene.domain_tag, scene.pseudo_labeled)


def _edge_cases(rng, mask):
    """Boxes centred on the z-axis (some tiny), boxes over the origin, and
    small boxes centred exactly on a sector edge."""
    boxes = []
    for _ in range(3):
        size = float(rng.choice([1e-9, 1e-3, 1.0, 3.0]))
        cx, cy = rng.uniform(-9e-7, 9e-7, size=2) * rng.integers(0, 2)
        boxes.append(Box3D(cx, cy, rng.uniform(-2, 2), w=size, l=size, h=1.0, yaw=rng.uniform(-3, 3)))
    for _ in range(3):
        boxes.append(
            Box3D(*rng.uniform(-1.0, 1.0, size=3), w=rng.uniform(2.5, 6), l=rng.uniform(2.5, 6),
                  h=1.0, yaw=rng.uniform(-math.pi, math.pi))
        )
    for edge in mask.boundary_angles():
        dist = rng.uniform(2.0, 30.0)
        boxes.append(
            Box3D(dist * math.cos(edge), dist * math.sin(edge), 0.0, w=0.2, l=0.3, h=1.0,
                  yaw=rng.uniform(-math.pi, math.pi))
        )
    return boxes


class TestBatchedBoundaryTest:
    """boxes_cross_boundary and box_crosses_boundary against the per-box
    reference they replaced."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 3))
    def test_matches_scalar_reference(self, seed, k):
        rng = np.random.default_rng(seed)
        mask = sample_sectors(rng, k, 0.2, 1.5)
        boxes = [random_box(rng, dist_range=(0.5, 40.0)) for _ in range(8)] + _edge_cases(rng, mask)
        expected = []
        for box in boxes:
            try:
                cut = reference_box_crosses_boundary(box, mask)
            except OnZAxis:
                cut = True
            assert box_crosses_boundary(box, mask) is cut
            expected.append(cut)
        got = boxes_cross_boundary(boxes, mask)
        assert got.dtype == bool
        assert got.tolist() == expected
        # the one-box call is the batched test, z-axis centres included
        for box, batched in zip(boxes, got):
            assert box_crosses_boundary(box, mask) == batched

    def test_no_boxes(self):
        assert boxes_cross_boundary([], HALF_PLANE).shape == (0,)

    def test_edge_at_the_end_of_the_arc_crosses(self, rng):
        # the arc is closed: an edge exactly at its last corner cuts the box
        ties = 0
        for _ in range(100):
            box = random_box(rng, dist_range=(4.0, 25.0))
            start, width = reference_corner_arc(box)
            mask = SectorMask(((wrap_azimuth(start + width), 0.2),))
            ties += (mask.sectors[0][0] - start) % TWO_PI == width
            assert boxes_cross_boundary([box], mask)[0] == reference_box_crosses_boundary(box, mask)
        assert ties > 0

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), keep_inside=st.booleans())
    def test_enhanced_filter_matches_reference(self, seed, keep_inside):
        rng = np.random.default_rng(seed)
        mask = sample_sectors(rng, int(rng.integers(1, 4)), 0.2, 1.5)
        boxes = [random_box(rng, dist_range=(0.5, 30.0)) for _ in range(5)] + _edge_cases(rng, mask)
        scene = random_scene(rng, n=400, boxes=boxes)
        # plant points in every box so removals show
        planted = np.vstack([b.center() + rng.uniform(-0.5, 0.5, size=(10, 3)) * b.half_sizes()
                             for b in boxes])
        scene.points = np.vstack([scene.points, np.column_stack([planted, np.ones(len(planted))])])
        got = enhanced_filter(scene, mask, keep_inside)
        want = reference_enhanced_filter(scene, mask, keep_inside)
        assert np.array_equal(got.points, want.points)
        assert got.boxes == want.boxes


class TestEnhancedFilter:
    def test_pure_crop_without_boxes(self, rng):
        scene = random_scene(rng, n=500)
        inside = enhanced_filter(scene, HALF_PLANE, keep_inside=True)
        outside = enhanced_filter(scene, HALF_PLANE, keep_inside=False)
        assert inside.n_points + outside.n_points == scene.n_points
        az = wrap_azimuth(np.arctan2(inside.points[:, 1], inside.points[:, 0]))
        assert (az < math.pi).all()

    def test_box_inside_kept_sector_retained(self, rng):
        box = small_box_at(math.pi / 2, dist=8.0)
        scene = random_scene(rng, n=100, boxes=[box])
        out = enhanced_filter(scene, HALF_PLANE, keep_inside=True)
        assert out.boxes == [box]

    def test_straddler_removed_with_its_points(self, rng):
        box = small_box_at(0.0, dist=6.0, size=2.0)
        # plant points inside the straddling box, on both azimuth sides
        planted = box.center() + rng.uniform(-0.9, 0.9, size=(40, 3))
        scene = Scene(
            np.vstack(
                [
                    np.column_stack([planted, np.full(40, 0.5)]),
                    random_scene(rng, n=100).points,
                ]
            ),
            [box],
        )
        for keep_inside in (True, False):
            out = enhanced_filter(scene, HALF_PLANE, keep_inside)
            assert out.boxes == []
            assert points_in_box(out, box).size == 0

    def test_idempotent(self, rng):
        for _ in range(20):
            boxes = [random_box(rng) for _ in range(3)]
            scene = random_scene(rng, n=300, boxes=boxes)
            mask = sample_sectors(rng, 2, math.pi / 6, math.pi / 2)
            once = enhanced_filter(scene, mask, keep_inside=True)
            twice = enhanced_filter(once, mask, keep_inside=True)
            assert np.array_equal(once.points, twice.points)
            assert once.boxes == twice.boxes

    def test_degenerate_box_treated_as_cut(self, rng):
        box = Box3D(0.0, 0.0, 0.0, w=2, l=2, h=2, yaw=0.0)
        scene = random_scene(rng, n=50, boxes=[box])
        out = enhanced_filter(scene, HALF_PLANE, keep_inside=True)  # must not raise
        assert box not in out.boxes


class TestPolarMix:
    def make_pair(self, rng, n=400):
        source = random_scene(rng, n=n, domain_tag=DomainTag.SOURCE)
        source.points[:, 3] = 0.25  # provenance tag
        target = random_scene(rng, n=n, domain_tag=DomainTag.TARGET_LABELED)
        target.points[:, 3] = 0.75
        return source, target

    def test_rejects_wrong_tags(self, rng):
        source, target = self.make_pair(rng)
        with pytest.raises(ValueError):
            polar_mix(target, target, HALF_PLANE)
        with pytest.raises(ValueError):
            polar_mix(source, source, HALF_PLANE)

    def test_near_full_mask_returns_mostly_target(self, rng):
        source, target = self.make_pair(rng, n=1000)
        mask = SectorMask(((0.0, 2 * math.pi - 1e-6),))
        out = polar_mix(source, target, mask)
        assert out.domain_tag is DomainTag.MIXED
        frac_target = (out.points[:, 3] == 0.75).mean()
        assert frac_target > 0.99

    def test_partition_matches_provenance(self, rng):
        for _ in range(50):
            source, target = self.make_pair(rng)
            mask = sample_sectors(rng, 2, math.pi / 6, math.pi / 2)
            out = polar_mix(source, target, mask)
            az = np.arctan2(out.points[:, 1], out.points[:, 0]) % (2 * math.pi)
            inside = mask.contains(az)
            is_target = out.points[:, 3] == 0.75
            assert (inside == is_target).all()

    def test_point_count_bounded(self, rng):
        source, target = self.make_pair(rng)
        mask = sample_sectors(rng, 3, 0.2, 0.8)
        out = polar_mix(source, target, mask)
        assert out.n_points <= source.n_points + target.n_points

    def test_no_output_box_crosses_boundary(self, rng):
        for _ in range(100):
            source = random_scene(
                rng, n=50, domain_tag=DomainTag.SOURCE, boxes=[random_box(rng) for _ in range(3)]
            )
            target = random_scene(
                rng,
                n=50,
                domain_tag=DomainTag.TARGET_LABELED,
                boxes=[random_box(rng) for _ in range(3)],
            )
            mask = sample_sectors(rng, 2, math.pi / 6, math.pi / 2)
            out = polar_mix(source, target, mask)
            for box in out.boxes:
                assert not box_crosses_boundary(box, mask)

    def test_dense_circle_has_2k_transitions(self, rng):
        n = 20_000
        source, target = self.make_pair(rng, n=n)
        mask = sample_sectors(rng, 2, math.pi / 6, math.pi / 2)
        out = polar_mix(source, target, mask)
        az = np.arctan2(out.points[:, 1], out.points[:, 0]) % (2 * math.pi)
        tags = (out.points[np.argsort(az), 3] == 0.75).astype(int)
        transitions = int((tags != np.roll(tags, 1)).sum())
        assert transitions == 2 * len(mask.sectors)


class TestTargetmixSample:
    def test_p_zero_returns_source(self, rng):
        source = random_scene(rng, domain_tag=DomainTag.SOURCE)
        target = random_scene(rng, domain_tag=DomainTag.TARGET_LABELED)
        for _ in range(20):
            assert targetmix_sample(rng, 0.0, source, target) is source

    def test_p_one_returns_mixed(self, rng):
        source = random_scene(rng, domain_tag=DomainTag.SOURCE)
        target = random_scene(rng, domain_tag=DomainTag.TARGET_LABELED)
        for _ in range(20):
            out = targetmix_sample(rng, 1.0, source, target)
            assert out.domain_tag is DomainTag.MIXED

    def test_rejects_bad_probability(self, rng):
        source = random_scene(rng, domain_tag=DomainTag.SOURCE)
        target = random_scene(rng, domain_tag=DomainTag.TARGET_LABELED)
        with pytest.raises(ValueError):
            targetmix_sample(rng, 1.5, source, target)

    def test_default_params(self):
        params = SectorParams()
        assert params.k == 2
        assert params.min_width == pytest.approx(math.pi / 6)
        assert params.max_width == pytest.approx(math.pi / 2)
