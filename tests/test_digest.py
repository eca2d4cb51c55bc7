"""Golden digest of the default pipeline: any change to what run_full
computes on the default synthetic bundle shows up here."""

import hashlib
import json

from lidarmix.pipeline import PipelineConfig, run_full
from lidarmix.synth import synthesize_dataset

DEFAULT_PIPELINE_SHA256 = "dbb2a8d9f1da2a6e8076be667b1fbf749ee213e8e3f9934bf441643e246ad0a7"


def test_default_pipeline_digest():
    report_tm, report_am = run_full(PipelineConfig(seed=0), synthesize_dataset(0))
    summary = json.dumps(
        {"targetmix": report_tm.to_dict(), "advmix": report_am.to_dict()},
        sort_keys=True,
        indent=2,
    )
    assert hashlib.sha256(summary.encode()).hexdigest() == DEFAULT_PIPELINE_SHA256
