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

DEFAULT_PIPELINE_SHA256 = "6117cf462b72d74ddedc12db26fd2131a6102e1fdb7f5317dc322287157566a0"
STAGE_SHA256 = {
    "targetmix": "a938b9725c12fb890a23890a038eca1e40eceb5f80df7275f82e44c4c9623f77",
    "advmix": "3d9d260c5e8650be2be4e238d73bc3aeb8ee2f5df1507686e46adde5c1c01318",
}
SEED1_PIPELINE_SHA256 = "3aea6587367336fac1cb8c0c4eb9c5a0fb8875c65c89f4b44a558740b60250ca"


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
