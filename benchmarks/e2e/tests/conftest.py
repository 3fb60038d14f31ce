"""Shared fixtures: quick-preset runs of every workload, made once."""

import sys
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parents[1]
REPO = E2E.parents[1]
for entry in (str(REPO / "src"), str(E2E)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import harness  # noqa: E402
import run  # noqa: E402


@pytest.fixture(scope="session")
def data_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("e2e-data")


@pytest.fixture(scope="session")
def quick_documents(data_dir):
    """{(workload, traced): result document} on the quick preset, seed 0."""
    return {
        (name, traced): harness.run_workload(
            name, seed=0, seconds=0.0, trace=traced, preset="quick",
            data_dir=data_dir, log=lambda line: None,
        )
        for name in run.WORKLOAD_NAMES
        for traced in (False, True)
    }
