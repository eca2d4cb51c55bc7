"""The runtime import graph is numpy only; scipy is a test dependency."""

import os
import subprocess
import sys
from pathlib import Path


def test_import_does_not_load_scipy():
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    code = (
        "import sys, lidarmix, lidarmix.cli, lidarmix.gradcheck; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
