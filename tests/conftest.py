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
    """Worker counts of the `thread_map` sections that run on a pool (more than
    one worker), in order; the pools themselves are the process's own."""
    sizes = []
    pool = polarcb.parallel._pool
    monkeypatch.setattr(polarcb.parallel, "_pool",
                        lambda workers: sizes.append(workers) or pool(workers))
    return sizes
