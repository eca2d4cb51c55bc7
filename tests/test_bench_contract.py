"""The benchmark traces lidarmix entry points by name (`ENTRIES` in
lidarbench/tracing.py). Every name must resolve, so that deleting or
renaming a traced function fails here rather than as a missing entry in a
benchmark run."""

import importlib
import sys
import types
from pathlib import Path

import pytest

from lidarmix.oracle import GridClusterOracle

TRACING = Path(__file__).resolve().parents[1] / "lidarbench" / "tracing.py"


def _load_tracing():
    # executed from its source, so no bytecode is written under lidarbench/
    module = types.ModuleType("lidarbench_tracing")
    sys.modules[module.__name__] = module  # dataclasses look their module up
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


ENTRIES = _load_tracing().ENTRIES


def test_entries_listed():
    assert len(ENTRIES) > 0


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.name)
def test_entry_resolves(entry):
    if entry.proxied:
        # traced through a DetectorOracle proxy, so a GridClusterOracle method
        assert callable(getattr(GridClusterOracle, entry.func, None))
    else:
        home = importlib.import_module(f"lidarmix.{entry.layer}")
        assert callable(getattr(home, entry.func, None))
