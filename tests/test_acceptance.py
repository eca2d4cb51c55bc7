"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`."""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import cluster_scene, random_box, random_scene
from lidarmix.adversarial import (
    PerturbationConfig,
    adversarial_perturb_detailed,
    advmix_sample,
    consistency_loss,
    surrogate_loss,
)
from lidarmix.cli import cli_dispatch
from lidarmix.geometry import Box3D, DomainTag, Scene, xyz_from_spherical, spherical_from_xyz
from lidarmix.gradcheck import run_gradcheck
from lidarmix.pipeline import PipelineConfig, run_full
from lidarmix.sector_mix import box_crosses_boundary, polar_mix, sample_sectors, targetmix_sample
from lidarmix.sensor import (
    NUSCENES_32,
    WAYMO_64,
    backproject,
    build_range_image,
    downsample_factors,
    downsample_range_image,
)
from lidarmix.synth import synthesize_dataset


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL  {description}")
        raise
    print(f"[criterion {number}] PASS  {description}")


def test_criterion_1_sensor_arithmetic():
    with criterion(1, "published sensor pair downsamples by (4, 2) in < 1 ms"):
        downsample_factors(WAYMO_64, NUSCENES_32)  # warm up
        t0 = time.perf_counter()
        factors = downsample_factors(WAYMO_64, NUSCENES_32)
        elapsed = time.perf_counter() - t0
        assert factors == (4, 2)
        assert elapsed < 1e-3


def test_criterion_2_range_image_round_trip(rng):
    with criterion(2, "range-image round trip: range < 1e-9 m, angles within half a cell, < 1 s"):
        spec = WAYMO_64
        n = 10_000
        aer = np.column_stack(
            [
                rng.uniform(0.0, 2 * math.pi, n),
                rng.uniform(spec.vfov_min, spec.vfov_max, n),
                rng.uniform(2.0, 100.0, n),
            ]
        )
        scene = Scene(np.column_stack([xyz_from_spherical(aer), np.full(n, 0.5)]))
        t0 = time.perf_counter()
        img = downsample_range_image(build_range_image(scene, spec), 1, 1)
        out = backproject(img)
        elapsed = time.perf_counter() - t0
        assert out.n_points == img.n_occupied

        out_aer = spherical_from_xyz(out.xyz)
        order = np.argsort(aer[:, 2])
        sorted_ranges = aer[order, 2]
        half_row = spec.row_pitch / 2
        half_col = spec.col_pitch / 2
        pos = np.searchsorted(sorted_ranges, out_aer[:, 2])
        for (az, el, r), i in zip(out_aer, pos):
            window = sorted_ranges[max(0, i - 1) : i + 1]
            offset = int(np.abs(window - r).argmin())
            assert abs(window[offset] - r) < 1e-9
            src = order[max(0, i - 1) + offset]
            d_az = abs((aer[src, 0] - az + math.pi) % (2 * math.pi) - math.pi)
            assert d_az <= half_col * (1 + 1e-9)
            assert abs(aer[src, 1] - el) <= half_row * (1 + 1e-9)
        assert elapsed < 1.0


def test_criterion_3_gradient_oracle():
    with criterion(3, "analytic gradient vs central differences: rel err < 1e-5 over 50 fixtures, < 5 s"):
        t0 = time.perf_counter()
        worst = run_gradcheck(seed=0, trials=50, step=1e-5)
        elapsed = time.perf_counter() - t0
        assert worst < 1e-5
        assert elapsed < 5.0


def test_criterion_4_perturbation_norm_in_stage_2():
    with criterion(4, "all translate/add deltas in a stage-2 run have ||delta|| = 0.001 within 1e-9"):
        bundle = synthesize_dataset(123, n_source=6, n_labeled=3, n_unlabeled=8)
        cfg = PipelineConfig(seed=123)
        assert cfg.perturbation.epsilon == 0.001
        _, report = run_full(cfg, bundle)
        moved = sum(e.points_perturbed + e.points_added for e in report.epochs)
        assert moved > 0
        assert report.max_delta_norm_error < 1e-9


def test_criterion_5_descent_property():
    with criterion(5, "translate-only perturbation reduces surrogate loss in >= 95% of 200 trials"):
        rng = np.random.default_rng(2024)
        cfg = PerturbationConfig(epsilon=0.001, rho=0.5, mode_weights=(1.0, 0.0, 0.0))

        class Provider:
            def loss_and_gradient(self, scene, boxes):
                return surrogate_loss(scene, boxes)

        provider = Provider()
        reduced = 0
        trials = 200
        for _ in range(trials):
            centers = [
                (rng.uniform(5, 25), rng.uniform(-12, 12), rng.uniform(-1, 1))
                for _ in range(int(rng.integers(1, 4)))
            ]
            scene = cluster_scene(rng, centers, n_per=int(rng.integers(20, 50)))
            bare = Scene(scene.points, [], DomainTag.TARGET_UNLABELED)
            before, _ = provider.loss_and_gradient(bare, scene.boxes)
            out, _ = adversarial_perturb_detailed(bare, scene.boxes, provider, cfg, rng)
            after, _ = provider.loss_and_gradient(out, scene.boxes)
            if after < before:
                reduced += 1
        assert reduced >= 0.95 * trials


def test_criterion_6_mix_partition(rng):
    with criterion(6, "1000 mask/scene draws: no straddling output boxes, all points on their side"):
        for _ in range(1000):
            source = random_scene(
                rng, n=60, domain_tag=DomainTag.SOURCE,
                boxes=[random_box(rng) for _ in range(2)],
            )
            source.points[:, 3] = 0.25
            target = random_scene(
                rng, n=60, domain_tag=DomainTag.TARGET_LABELED,
                boxes=[random_box(rng) for _ in range(2)],
            )
            target.points[:, 3] = 0.75
            mask = sample_sectors(rng, int(rng.integers(1, 4)), math.pi / 8, math.pi / 2)
            out = polar_mix(source, target, mask)
            for box in out.boxes:
                assert not box_crosses_boundary(box, mask)
            # independent angle computation: plain atan2, wrapped
            az = np.arctan2(out.points[:, 1], out.points[:, 0]) % (2 * math.pi)
            inside = mask.contains(az)
            is_target = out.points[:, 3] == 0.75
            assert np.array_equal(inside, is_target)


def test_criterion_7_consistency_identities(rng):
    with criterion(7, "consistency loss: identical sets 0, symmetric to 1e-12, hand case = 1"):
        boxes = [random_box(rng) for _ in range(5)]
        assert consistency_loss(boxes, list(boxes)) == 0.0
        for _ in range(100):
            a = [random_box(rng) for _ in range(int(rng.integers(1, 6)))]
            b = [random_box(rng) for _ in range(int(rng.integers(1, 6)))]
            assert abs(consistency_loss(a, b) - consistency_loss(b, a)) <= 1e-12
        one = Box3D(0, 0, 0, w=1, l=1, h=1, yaw=0)
        other = Box3D(1, 0, 0, w=1, l=1, h=1, yaw=0)
        assert consistency_loss([one], [other]) == pytest.approx(1.0, abs=1e-12)


def test_criterion_8_probability_calibration():
    with criterion(8, "empirical mix fractions within 1% of p_tm = 0.4 and p_am = 0.6 over 1e5 draws"):
        rng = np.random.default_rng(777)
        source = Scene(np.array([[10.0, 0.0, 0.0, 0.25]]), [], DomainTag.SOURCE)
        target = Scene(np.array([[0.0, 10.0, 0.0, 0.75]]), [], DomainTag.TARGET_LABELED)
        draws = 100_000
        mixed = sum(
            targetmix_sample(rng, 0.4, source, target).domain_tag is DomainTag.MIXED
            for _ in range(draws)
        )
        assert abs(mixed / draws - 0.4) < 0.01

        labeled = Scene(np.array([[5.0, 0.0, 0.0, 0.5]]), [], DomainTag.TARGET_LABELED)
        raw = Scene(np.array([[0.0, 5.0, 0.0, 0.5]]), [], DomainTag.TARGET_UNLABELED)
        adv = Scene(np.array([[0.0, 5.0, 0.001, 0.5]]), [], DomainTag.TARGET_UNLABELED)
        mixups = sum(
            advmix_sample(rng, 0.6, labeled, adv, raw)[2] for _ in range(draws)
        )
        assert abs(mixups / draws - 0.6) < 0.01


def test_criterion_9_end_to_end_determinism_and_smoke(tmp_path):
    with criterion(9, "40-scene manifest pipeline: both stages < 60 s, byte-identical reports"):
        manifest = tmp_path / "manifest"
        t0 = time.perf_counter()
        assert cli_dispatch(
            ["synth", "--out", str(manifest), "--seed", "5",
             "--sources", "20", "--labeled", "4", "--unlabeled", "16"]
        ) == 0
        out1, out2 = tmp_path / "run1.json", tmp_path / "run2.json"
        assert cli_dispatch(["pipeline", str(manifest), "--out", str(out1)]) == 0
        assert cli_dispatch(["pipeline", str(manifest), "--out", str(out2)]) == 0
        elapsed = time.perf_counter() - t0
        assert out1.read_bytes() == out2.read_bytes()
        summary = json.loads(out1.read_text())
        assert summary["targetmix"]["epochs"][0]["scenes_processed"] == 24
        assert summary["advmix"]["epochs"][0]["scenes_processed"] == 20
        assert elapsed < 60.0
