"""Golden digest of the default pipeline: any change to what run_full
computes on the default synthetic bundle shows up here. Each stage has its
own digest too, so a change shows which stage it moved. A second bundle
(seed 1, a different box count per scene) is pinned as a whole, so a
bit-identity claim is checked on two bundles, not one."""

import hashlib
import json

import pytest

from lidarmix.pipeline import PipelineConfig, run_full
from lidarmix.synth import synthesize_dataset

DEFAULT_PIPELINE_SHA256 = "c503074a3a5734b27d1777a1d94e87961f55ba0c0ff74ba356ca9f63dfc3bc1e"
STAGE_SHA256 = {
    "targetmix": "6bcf712c46303f6cfd73a88d32623aa8671afdefbdcaa7207479a22b9cdd647d",
    "advmix": "3d9d260c5e8650be2be4e238d73bc3aeb8ee2f5df1507686e46adde5c1c01318",
}
SEED1_PIPELINE_SHA256 = "ae6b23c90edc2fd87bd8d372149b2f7112058365f1612b7680b831ca3f21f7e4"


def sha256(report: dict) -> str:
    return hashlib.sha256(json.dumps(report, sort_keys=True, indent=2).encode()).hexdigest()


def run_reports(seed: int) -> dict:
    report_tm, report_am = run_full(PipelineConfig(seed=seed), synthesize_dataset(seed))
    return {"targetmix": report_tm.to_dict(), "advmix": report_am.to_dict()}


@pytest.fixture(scope="module")
def reports():
    return run_reports(0)


def test_default_pipeline_digest(reports):
    assert sha256(reports) == DEFAULT_PIPELINE_SHA256


@pytest.mark.parametrize("stage", sorted(STAGE_SHA256))
def test_stage_digest(reports, stage):
    assert sha256(reports[stage]) == STAGE_SHA256[stage]


def test_seed1_pipeline_digest():
    assert sha256(run_reports(1)) == SEED1_PIPELINE_SHA256
