import pytest

import polarcb.parallel
from polarcb import ArrayConfig, PolarRegion


@pytest.fixture(scope="session")
def cfg387():
    return ArrayConfig(387, carrier_frequency=30e9)


@pytest.fixture(scope="session")
def cfg129():
    return ArrayConfig(129, carrier_frequency=30e9)


@pytest.fixture(scope="session")
def region():
    "Default service region: angles [-0.5, 0.5], ranges [4, 120] m."
    return PolarRegion(-0.5, 0.5, 4.0, 120.0)


@pytest.fixture
def recorded_pools(monkeypatch):
    "Worker counts of the thread pools polarcb starts, in order; no real pool changes."
    sizes = []

    class Recorder(polarcb.parallel.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(polarcb.parallel, "ThreadPoolExecutor", Recorder)
    return sizes
