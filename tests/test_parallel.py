import sys
import threading
from contextlib import nullcontext

import numpy as np
import pytest

import polarcb.experiments as experiments
import polarcb.feedback as feedback
from polarcb import PolarCoord, PolarRegion, parallel, rvq_generate, scheme_codebook
from polarcb.array_model import steering_matrix_exact
from polarcb.channels import channel_vectors, los_channel
from polarcb.experiments import ExperimentConfig
from polarcb.feedback import RVQCodebook, best_codeword_scan, run_protocol_batch

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


@needs_openblas
def test_single_blas_sections_and_pools_never_raise_the_count(blas_count):
    with parallel.single_blas():
        assert blas_count() == 1
        with parallel.thread_map(2) as pmap:
            assert set(pmap(lambda _: blas_count(), range(4))) == {1}
        with parallel.single_blas():
            assert blas_count() == 1
        assert blas_count() == 1
    assert blas_count() == 4

    def section(_):
        with parallel.single_blas():
            return blas_count()

    with parallel.thread_map(2) as pmap:
        assert set(pmap(section, range(4))) == {1}
        assert blas_count() == 1
    assert blas_count() == 4
    with pytest.raises(ZeroDivisionError):
        with parallel.single_blas():
            1 / 0
    assert blas_count() == 4


@needs_openblas
def test_sections_and_pools_on_many_threads_restore_the_count(blas_count):
    # 8 threads on 2 CPUs open one-thread sections while 2 more open pools
    # of 2; a lost update of the shared section count leaves the count low
    seen = {"section": set(), "pool": set()}
    lock = threading.Lock()

    def sections():
        counts = set()
        for _ in range(3000):
            with parallel.single_blas():
                counts.add(blas_count())
        with lock:
            seen["section"] |= counts

    def pools():
        counts = set()
        for _ in range(20):
            with parallel.thread_map(2) as pmap:
                counts |= set(pmap(lambda _: blas_count(), range(2)))
        with lock:
            seen["pool"] |= counts

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=job) for job in [sections] * 8 + [pools] * 2]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert seen["section"] == {1}
    assert seen["pool"] <= {1, 2}
    assert blas_count() == 4


def _recording(cb: RVQCodebook, count, fail: bool):
    """`cb` with codewords that record `count()` at each matmul they enter, then
    raise there if `fail`; and the list of counts."""
    seen = []

    class Recording(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                seen.append(count())
                if fail:
                    raise FloatingPointError("product failed")
            inputs = [x.view(np.ndarray) if isinstance(x, Recording) else x for x in inputs]
            return getattr(ufunc, method)(*inputs, **kwargs)

    return RVQCodebook(cb.codewords.view(Recording), cb.mode, cb.seed), seen


@needs_openblas
@pytest.mark.parametrize("fail", [False, True], ids=["ok", "raises"])
@pytest.mark.parametrize("caller", ["protocol", "path_gains"])
def test_phase2_products_run_on_one_blas_thread(cfg129, blas_count, fail, caller):
    # RVQ products (phase 2's, and the path gains' through the same selector)
    # are far too small to share; at OpenBLAS's full count each would wake
    # its idle threads beside the scan's workers
    rng = np.random.default_rng(3)
    if caller == "protocol":
        cb1 = scheme_codebook(cfg129, PolarRegion(-0.5, 0.5, 4.0, 120.0), "geometric", 4, 2)
        vectors = steering_matrix_exact(cfg129, rng.uniform(-0.5, 0.5, (3, 4)),
                                        rng.uniform(4.0, 120.0, (3, 4)))
        width, run = 4, lambda cb: run_protocol_batch(cfg129, vectors, cb1, cb).ghat
    else:
        gains = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        width, run = 3, lambda cb: feedback.quantize_path_gains(gains, cb)
    cb2, phase2 = _recording(rvq_generate(width, 6, seed=1), blas_count, fail)
    with pytest.raises(FloatingPointError) if fail else nullcontext():
        picked = run(cb2)
    assert blas_count() == 4
    assert phase2 and set(phase2) == {1}
    if not fail:
        assert picked.tobytes() == run(rvq_generate(width, 6, seed=1)).tobytes()


def test_pool_without_openblas_runs_unchanged(monkeypatch, recorded_pools):
    monkeypatch.setattr(parallel, "_openblas", lambda: None)
    before = BLAS[0]() if BLAS else None
    with parallel.thread_map(2) as pmap:
        inside = list(pmap(lambda x: (x * x, BLAS[0]() if BLAS else None), range(5)))
    assert inside == [(x * x, before) for x in range(5)]
    assert recorded_pools == [2]
    with parallel.single_blas():
        assert (BLAS[0]() if BLAS else None) == before


def test_run_steps_covers_each_step_once(monkeypatch, recorded_pools):
    for cpus, n, step, pools in ((3, 10, 3, [3]), (2, 10, 3, [2]), (1, 10, 3, []),
                                 (4, 2, 3, []), (2, 0, 3, [])):
        monkeypatch.setattr(parallel, "available_cpus", lambda cpus=cpus: cpus)
        recorded_pools.clear()
        seen, lock = [], threading.Lock()

        def record(rows):
            with lock:
                seen.append((rows.start, rows.stop))

        parallel.run_steps(n, step, record)
        assert sorted(seen) == [(lo, lo + step) for lo in range(0, n, step)]
        assert recorded_pools == pools


def _serial_steps(n, step, fn):
    "`parallel.run_steps` one step after another on the calling thread."
    for lo in range(0, n, step):
        fn(slice(lo, lo + step))


def _path_run(c, cb):
    "The drawn vectors, and `multipath_feedback_batch`'s reconstructions and correlations."
    channels = experiments.draw_channels(c, c.distribution_spec())
    out = np.empty_like(channels.vectors)
    corr = feedback.multipath_feedback_batch(c.array_config(), channels, channels.gains, cb, out)
    return channels.vectors.tobytes(), out.tobytes(), corr.tobytes()


@pytest.mark.parametrize("paths,n", [(1, 37), (3, 37), (1, 101)])
def test_path_assembly_independent_of_cpu_count(cfg129, region, monkeypatch, recorded_pools,
                                                 paths, n):
    # the last step is partial: 37 channels are 16 + 16 + 5 at three paths
    # and one step at one; 101 are 48 + 48 + 5 at one
    c = ExperimentConfig(num_antennas=129, k_users=1, l_paths=paths, n_trials=n, seed=4,
                         distribution="gmm", gmm_components="0.5:15:5;0.5:60:20")
    assert c.array_config() == cfg129
    cb = scheme_codebook(cfg129, region, "geometric", 5, 3)
    steps = -(-n // (feedback._PATH_ROWS // paths))
    runs = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(parallel, "available_cpus", lambda cpus=cpus: cpus)
        recorded_pools.clear()
        runs.append(_path_run(c, cb))
        # one pool for the draw and one for the feedback pass
        assert recorded_pools == ([min(cpus, steps)] * 2 if min(cpus, steps) > 1 else [])
    for module in (experiments, feedback):
        monkeypatch.setattr(module, "run_steps", _serial_steps)
    assert runs == [_path_run(c, cb)] * 3


def test_path_step_exception_propagates_from_the_pool(cfg129, region, monkeypatch,
                                                      recorded_pools):
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    c = ExperimentConfig(num_antennas=129, k_users=1, l_paths=3, n_trials=37, seed=4)
    channels = experiments.draw_channels(c, c.distribution_spec())
    cb = scheme_codebook(cfg129, region, "geometric", 5, 3)

    def failing(cfg, thetas, *args):
        if len(thetas) < 16:
            raise FloatingPointError("the partial step failed")
        return channel_vectors(cfg, thetas, *args)

    recorded_pools.clear()
    monkeypatch.setattr(feedback, "channel_vectors", failing)
    with pytest.raises(FloatingPointError, match="partial step"):
        feedback.multipath_feedback_batch(cfg129, channels, channels.gains, cb)
    monkeypatch.setattr(experiments, "channel_vectors", failing)
    with pytest.raises(FloatingPointError, match="partial step"):
        experiments.draw_channels(c, c.distribution_spec())
    assert recorded_pools == [2, 2]
