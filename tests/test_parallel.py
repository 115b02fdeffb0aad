import threading

import numpy as np
import pytest

import polarcb.feedback as feedback
from polarcb import PolarCoord, parallel
from polarcb.channels import los_channel
from polarcb.feedback import best_codeword_scan

BLAS = parallel._openblas()
needs_openblas = pytest.mark.skipif(BLAS is None, reason="no OpenBLAS thread control found")


@pytest.fixture
def blas_count():
    "OpenBLAS's thread-count getter, with the count set to 4 for the test and restored after."
    get, set_ = BLAS
    before = get()
    set_(4)
    yield get
    set_(before)


@needs_openblas
@pytest.mark.parametrize("workers,inside", [(2, 2), (3, 1), (8, 1)])
def test_pool_shares_blas_threads_among_workers(blas_count, workers, inside):
    with parallel.thread_map(workers) as pmap:
        seen = set(pmap(lambda _: blas_count(), range(4 * workers)))
    assert seen == {inside}
    assert blas_count() == 4


@needs_openblas
def test_blas_count_restored_when_a_job_raises(blas_count):
    with pytest.raises(ZeroDivisionError):
        with parallel.thread_map(2) as pmap:
            list(pmap(lambda x: 1 / x, [1, 0, 2]))
    assert blas_count() == 4
    with pytest.raises(ZeroDivisionError):
        with parallel.thread_map(2) as pmap:     # the block raises with a map under way
            next(pmap(lambda _: blas_count(), range(4)))
            1 / 0
    assert blas_count() == 4


@needs_openblas
def test_one_worker_leaves_blas_count_alone(blas_count):
    for workers in (1, 0):
        with parallel.thread_map(workers) as pmap:
            assert list(pmap(lambda _: blas_count(), range(3))) == [4, 4, 4]
    assert blas_count() == 4


@needs_openblas
def test_overlapping_pools_restore_the_first_count(blas_count):
    # pool a opens, pool b opens, a closes while b still runs, then b closes
    a_open, b_open, a_closed = threading.Event(), threading.Event(), threading.Event()
    seen = {}

    def pool_a():
        with parallel.thread_map(2) as pmap:
            a_open.set()
            b_open.wait(10)
            seen["a"] = set(pmap(lambda _: blas_count(), range(4)))
        a_closed.set()

    def pool_b():
        a_open.wait(10)
        with parallel.thread_map(4) as pmap:
            b_open.set()
            a_closed.wait(10)
            seen["b"] = set(pmap(lambda _: blas_count(), range(4)))
            with parallel.thread_map(2) as nested:
                seen["b nested"] = set(nested(lambda _: blas_count(), range(4)))

    threads = [threading.Thread(target=pool_a), threading.Thread(target=pool_b)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(30)
    assert seen == {"a": {1}, "b": {1}, "b nested": {1}}
    assert blas_count() == 4


@needs_openblas
def test_scan_workers_run_single_threaded_blas(cfg129, monkeypatch, blas_count):
    counts = []
    scores = feedback._bulk_scores
    monkeypatch.setattr(feedback, "_bulk_scores",
                        lambda *args: counts.append(blas_count()) or scores(*args))
    monkeypatch.setattr(feedback, "available_cpus", lambda: 2)
    h = los_channel(cfg129, PolarCoord(0.1, 30.0)).vector
    best_codeword_scan(cfg129, h, np.linspace(-0.5, 0.5, 3000), np.array([30.0]))
    assert counts and set(counts) == {2}
    assert blas_count() == 4


def test_pool_without_openblas_runs_unchanged(monkeypatch, recorded_pools):
    monkeypatch.setattr(parallel, "_openblas", lambda: None)
    before = BLAS[0]() if BLAS else None
    with parallel.thread_map(2) as pmap:
        inside = list(pmap(lambda x: (x * x, BLAS[0]() if BLAS else None), range(5)))
    assert inside == [(x * x, before) for x in range(5)]
    assert recorded_pools == [2]
