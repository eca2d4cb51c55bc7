"""The benchmark traces lidarmix entry points by name (`ENTRIES` in
lidarbench/tracing.py). Every name must resolve, so that deleting or
renaming a traced function fails here rather than as a missing entry in a
benchmark run."""

import importlib

import pytest

from conftest import load_bench_module
from lidarmix.oracle import GridClusterOracle

ENTRIES = load_bench_module("tracing").ENTRIES


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
