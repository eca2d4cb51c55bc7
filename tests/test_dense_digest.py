"""Golden digest of run_full at real scan density: ray-cast 64x2200 sources
(about 115k points) and 32x1100 targets (about 25k), 25 cars each. The
synthetic digests in test_digest.py hold about 2k points per scene; this one
pins the same reports, and the oracle calls of stage 2, on scans of the size
the reference detector meets in practice."""

import numpy as np
import pytest

from conftest import load_bench_module
from lidarmix import pipeline
from lidarmix.geometry import DomainTag
from lidarmix.pipeline import DatasetBundle, PipelineConfig, run_full
from lidarmix.sensor import NUSCENES_32, WAYMO_64
from test_digest import sha256
from test_pipeline import CountingOracle

STAGE_SHA256 = {
    "targetmix": "ee68dcb5e101b63f7d369442776d5a36ab44738cb690040bc5d6c40ce8ff8d28",
    "advmix": "0033d0cad27530287fb765e294a58d40aa202fe2c36a79c9bb40b1519ff2d5b4",
}
# (predict, loss_and_gradient) calls made inside run_advmix_stage.
STAGE_TWO_CALLS = (7, 11)


def dense_bundle() -> DatasetBundle:
    """Two WAYMO_64 sources and two labeled and two unlabeled NUSCENES_32
    scans, all from one generator; the unlabeled scans carry no boxes."""
    scans = load_bench_module("scans")
    rng = np.random.default_rng(0)

    def scan(spec, tag, labeled):
        cars = scans.place_cars(rng, 25)
        scene = scans.raycast_scan(rng, spec, cars, tag)
        if labeled:
            scene.boxes = cars
        return scene

    return DatasetBundle(
        source=[scan(WAYMO_64, DomainTag.SOURCE, True) for _ in range(2)],
        target_labeled=[scan(NUSCENES_32, DomainTag.TARGET_LABELED, True) for _ in range(2)],
        target_unlabeled=[scan(NUSCENES_32, DomainTag.TARGET_UNLABELED, False) for _ in range(2)],
    )


@pytest.fixture(scope="module")
def dense_run():
    proxy = CountingOracle()
    at_stage_two = []
    stage_two = pipeline.run_advmix_stage

    def counted_stage_two(*args, **kwargs):
        at_stage_two.append(proxy.counts())
        return stage_two(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "run_advmix_stage", counted_stage_two)
        report_tm, report_am = run_full(PipelineConfig(seed=0), dense_bundle(), proxy)
    (before,) = at_stage_two
    calls = tuple(after - start for after, start in zip(proxy.counts(), before))
    return {"targetmix": report_tm.to_dict(), "advmix": report_am.to_dict()}, calls


@pytest.mark.parametrize("stage", sorted(STAGE_SHA256))
def test_dense_stage_digest(dense_run, stage):
    reports, _ = dense_run
    assert sha256(reports[stage]) == STAGE_SHA256[stage]


def test_dense_stage_two_oracle_calls(dense_run):
    _, calls = dense_run
    assert calls == STAGE_TWO_CALLS
