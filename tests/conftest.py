"""Shared fixtures.

The update codecs and the reporting-window tuner are support modules of
their ablations in ``benchmarks/`` (no fleet runs them); their unit tests
here import them from there.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def rng2() -> np.random.Generator:
    return np.random.default_rng(99)
