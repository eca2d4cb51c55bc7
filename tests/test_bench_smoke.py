"""Each lidarbench workload runs a short traced pass and passes its own
correctness checks, so a library change the benchmark depends on fails
here rather than only in a full benchmark run. A RuntimeWarning is an
error there, as it is in the test suite."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["pipeline-synth", "scan-dense", "augment-small"])
def test_workload_runs_correct(workload):
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "lidarbench/run.py"]
        + ["--workload", workload, "--seconds", "0.2", "--trace", "1"],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
