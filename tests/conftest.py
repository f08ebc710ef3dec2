"""Shared fixtures."""

import os
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def cli_env():
    """Environment for a ``python -m hypjacobi.cli`` child process that
    imports the package from this checkout's ``src``, as the tests do."""
    paths = [str(SRC), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
