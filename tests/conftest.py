from contextlib import nullcontext

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
def threads_warning():
    "threads -> a context that expects the deprecated-`threads` FutureWarning, unless it is 1."
    def expect(threads):
        if int(threads) == 1:
            return nullcontext()
        return pytest.warns(FutureWarning, match="threads is deprecated")
    return expect


@pytest.fixture
def recorded_pools(monkeypatch):
    """Sizes of the pools that `thread_map` sections run on (none where a section
    runs inline, on one CPU), in order; the pools themselves are the process's own."""
    sizes = []
    pool = polarcb.parallel._pool
    monkeypatch.setattr(polarcb.parallel, "_pool",
                        lambda workers: sizes.append(workers) or pool(workers))
    return sizes
