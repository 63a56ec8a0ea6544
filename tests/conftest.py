import random

import pytest

from selmerlab import descent
from selmerlab.curve_family import FamilyWindow, enumerate_window


@pytest.fixture(scope="session")
def e60():
    return list(enumerate_window(FamilyWindow(60)))


@pytest.fixture(scope="session")
def e60_sample(e60):
    return random.Random(11).sample(e60, 120)


class NeverStores(dict):
    """A memo that stays empty: every lookup misses and every store is dropped."""

    def __setitem__(self, key, value):
        pass

    def setdefault(self, key, default=None):
        return default


@pytest.fixture
def scan_oracle(monkeypatch):
    """Every chart verdict, and so every place-2 image, from a fresh scan:
    the chart memo stores nothing.  Without it a chart that agrees with an
    earlier one to its digit count is a memo hit, and a test of the count
    checks the memo against itself."""
    monkeypatch.setattr(descent, "_CHART_MEMO", NeverStores())
