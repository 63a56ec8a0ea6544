import random

import pytest

from selmerlab import descent
from selmerlab.curve_family import enumerate_window


@pytest.fixture(scope="session")
def e60():
    return list(enumerate_window(60))


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
    """Every chart verdict from a fresh scan: the chart memo stores nothing.
    A memo hit returns what a fresh scan returns, so this changes no answer.
    It exists so that certificate tests scan each moved chart instead of
    replaying the chart it was moved from, which would check the memo
    against itself."""
    monkeypatch.setattr(descent, "_CHART_MEMO", NeverStores())
