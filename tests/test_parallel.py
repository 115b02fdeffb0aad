import functools
import os
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
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
def two_cpus(monkeypatch):
    "The process's pool at two threads, whatever the host's CPUs."
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)


@pytest.fixture
def blas_count():
    "OpenBLAS's thread-count getter, with the count set to 4 for the test and restored after."
    get, set_ = BLAS
    before = get()
    set_(4)
    yield get
    set_(before)


@needs_openblas
@pytest.mark.parametrize("workers", [2, 3, 8])
def test_pool_leaves_blas_on_one_thread(monkeypatch, blas_count, workers):
    monkeypatch.setattr(parallel, "available_cpus", lambda: workers)
    for _ in range(2):
        with parallel.thread_map() as pmap:
            seen = set(pmap(lambda _: blas_count(), range(4 * workers)))
        assert seen == {1}
        assert blas_count() == 1


def test_pool_at_one_blas_thread_never_sets_the_count(monkeypatch, two_cpus):
    calls = []
    monkeypatch.setattr(parallel, "_openblas", lambda: (lambda: 1, calls.append))
    with parallel.thread_map() as pmap:
        assert list(pmap(abs, [-1, -2])) == [1, 2]
    assert calls == []


@needs_openblas
def test_blas_count_stays_at_one_when_a_job_raises(blas_count, two_cpus):
    with pytest.raises(ZeroDivisionError):
        with parallel.thread_map() as pmap:
            list(pmap(lambda x: 1 / x, [1, 0, 2]))
    assert blas_count() == 1
    BLAS[1](4)
    with pytest.raises(ZeroDivisionError):
        with parallel.thread_map() as pmap:      # the block raises with a map under way
            assert next(pmap(lambda _: blas_count(), range(4))) == 1
            1 / 0
    assert blas_count() == 1


@needs_openblas
def test_raising_map_waits_for_its_running_jobs(blas_count, two_cpus):
    # one job raises while the other still runs: the block re-raises only
    # once that job has ended
    started, finished, inside = threading.Event(), threading.Event(), []

    def job(item):
        if item == "raise":
            started.wait(10)
            raise ZeroDivisionError
        started.set()
        time.sleep(0.2)
        inside.append(blas_count())
        finished.set()

    with pytest.raises(ZeroDivisionError):
        with parallel.thread_map() as pmap:
            list(pmap(job, ["raise", "sleep"]))
    assert finished.is_set()
    assert inside == [1]
    assert blas_count() == 1


@needs_openblas
def test_one_cpu_leaves_blas_count_alone(monkeypatch, blas_count, recorded_pools):
    for cpus in (1, 0):
        monkeypatch.setattr(parallel, "available_cpus", lambda cpus=cpus: cpus)
        with parallel.thread_map() as pmap:
            assert list(pmap(lambda _: blas_count(), range(3))) == [4, 4, 4]
    assert blas_count() == 4
    assert recorded_pools == []


@needs_openblas
def test_overlapping_maps_run_on_one_blas_thread(blas_count, two_cpus):
    # map a opens, map b opens, a closes while b still runs, then b closes
    a_open, b_open, a_closed = threading.Event(), threading.Event(), threading.Event()
    seen = {}

    def pool_a():
        with parallel.thread_map() as pmap:
            a_open.set()
            b_open.wait(10)
            seen["a"] = set(pmap(lambda _: blas_count(), range(4)))
        a_closed.set()

    def pool_b():
        a_open.wait(10)
        with parallel.thread_map() as pmap:
            b_open.set()
            a_closed.wait(10)
            seen["b"] = set(pmap(lambda _: blas_count(), range(4)))
            with parallel.thread_map() as nested:
                seen["b nested"] = set(nested(lambda _: blas_count(), range(4)))

    threads = [threading.Thread(target=pool_a), threading.Thread(target=pool_b)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(30)
    assert seen == {"a": {1}, "b": {1}, "b nested": {1}}
    assert blas_count() == 1


@needs_openblas
def test_maps_on_many_threads_stay_ordered_on_one_blas_thread(blas_count, two_cpus):
    # 6 threads each open 20 maps at once on the one pool of two threads: every
    # map yields its own results in order, and every job runs on one thread
    results, lock = [], threading.Lock()

    def maps(first):
        for _ in range(20):
            with parallel.thread_map() as pmap:
                out = list(pmap(lambda x: (x, blas_count()), range(first, first + 6)))
            with lock:
                results.append(out)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=maps, args=(10 * i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(results) == [[(x, 1) for x in range(10 * i, 10 * i + 6)]
                               for i in range(6) for _ in range(20)]
    assert blas_count() == 1


@needs_openblas
def test_scan_workers_run_single_threaded_blas(cfg129, monkeypatch, blas_count):
    counts = []
    scores = feedback._bulk_scores
    monkeypatch.setattr(feedback, "_bulk_scores",
                        lambda *args: counts.append(blas_count()) or scores(*args))
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    h = los_channel(cfg129, PolarCoord(0.1, 30.0)).vector
    best_codeword_scan(cfg129, h, np.linspace(-0.5, 0.5, 3000), np.array([30.0]))
    assert counts and set(counts) == {1}
    assert blas_count() == 1


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
def test_phase2_products_run_on_one_blas_thread(cfg129, monkeypatch, blas_count, fail,
                                                 caller):
    # RVQ products (phase 2's, and the path gains' through the same selector)
    # are far too small to share; at OpenBLAS's full count each would wake
    # its idle threads beside the scan's workers.  Neither run maps on a pool
    # here (one CPU runs the scan inline), so the selector itself sets the count
    monkeypatch.setattr(parallel, "available_cpus", lambda: 1)
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
    assert blas_count() == 1
    assert phase2 and set(phase2) == {1}
    if not fail:
        assert picked.tobytes() == run(rvq_generate(width, 6, seed=1)).tobytes()


def test_pool_without_openblas_runs_unchanged(monkeypatch, two_cpus, recorded_pools):
    monkeypatch.setattr(parallel, "_openblas", lambda: None)
    before = BLAS[0]() if BLAS else None
    with parallel.thread_map() as pmap:
        inside = list(pmap(lambda x: (x * x, BLAS[0]() if BLAS else None), range(5)))
    assert inside == [(x * x, before) for x in range(5)]
    assert recorded_pools == [2]
    assert (BLAS[0]() if BLAS else None) == before


def test_run_steps_covers_each_step_once(monkeypatch, recorded_pools):
    for cpus, n, step, pools in ((3, 10, 3, [3]), (2, 10, 3, [2]), (1, 10, 3, []),
                                 (4, 2, 3, [4]), (2, 0, 3, [2])):
        monkeypatch.setattr(parallel, "available_cpus", lambda cpus=cpus: cpus)
        recorded_pools.clear()
        seen, lock = [], threading.Lock()

        def record(rows):
            with lock:
                seen.append((rows.start, rows.stop))

        parallel.run_steps(n, step, record)
        assert sorted(seen) == [(lo, lo + step) for lo in range(0, n, step)]
        assert recorded_pools == pools


def test_scans_and_steps_reuse_one_pool_of_threads(cfg129, monkeypatch, two_cpus):
    # two scans and a run of steps on two CPUs: every call's jobs run on
    # the same two threads, and no thread starts after the first call
    calls = []
    scores = feedback._bulk_scores

    def note():
        calls[-1].add(threading.get_ident())
        time.sleep(0.01)                  # hold the job so that both workers take some

    monkeypatch.setattr(feedback, "_bulk_scores", lambda *args: note() or scores(*args))
    h = los_channel(cfg129, PolarCoord(0.1, 30.0)).vector
    scan = lambda: best_codeword_scan(cfg129, h, np.linspace(-0.5, 0.5, 3000), np.array([30.0]))
    started, start = [], threading.Thread.start
    for call in (scan, scan, lambda: parallel.run_steps(4, 1, lambda rows: note())):
        calls.append(set())
        call()
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: started.append(thread) or start(thread))
    assert started == []
    assert len(calls[0]) == 2 and calls == [calls[0]] * 3
    assert threading.get_ident() not in calls[0]


def test_every_map_shares_one_pool_of_available_cpus_threads(cfg129, region, monkeypatch):
    # scans of tiny and of full chunks, runs of 1, 2 and 100 steps and a
    # protocol batch, all on three CPUs, start at most three threads in all
    monkeypatch.setattr(parallel, "available_cpus", lambda: 3)
    made, started, start = [], [], threading.Thread.start
    monkeypatch.setattr(parallel, "_pool", functools.cache(
        lambda workers: made.append(ThreadPoolExecutor(workers)) or made[-1]))
    monkeypatch.setattr(threading.Thread, "start",
                        lambda thread: started.append(thread) or start(thread))
    rng = np.random.default_rng(3)
    h = los_channel(cfg129, PolarCoord(0.1, 30.0)).vector
    vectors = steering_matrix_exact(cfg129, rng.uniform(-0.5, 0.5, (3, 4)),
                                    rng.uniform(4.0, 120.0, (3, 4)))
    cb1 = scheme_codebook(cfg129, region, "geometric", 4, 2)
    try:
        for block in (4, 4096):
            best_codeword_scan(cfg129, h, np.linspace(-0.5, 0.5, 3000), np.array([30.0]),
                               block=block)
        for n in (1, 2, 100):
            parallel.run_steps(n, 1, lambda rows: time.sleep(0.001))
        run_protocol_batch(cfg129, vectors, cb1, rvq_generate(4, 6, seed=1))
        assert len(made) == 1
        assert 2 <= len(started) <= 3
        assert sum(thread.is_alive() for thread in started) <= 3
    finally:
        for pool in made:
            pool.shutdown()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_forked_child_maps_on_a_pool_of_its_own(two_cpus):
    # a child forked after a map has none of the parent's pool threads: its
    # maps must start their own, not queue jobs that no thread serves
    both = threading.Barrier(2)
    with parallel.thread_map() as pmap:               # both threads of the pool start
        list(pmap(lambda _: both.wait(10), range(2)))
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            with parallel.thread_map() as pmap:
                code = 0 if list(pmap(abs, [-3, -4])) == [3, 4] else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0


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
    runs = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(parallel, "available_cpus", lambda cpus=cpus: cpus)
        recorded_pools.clear()
        runs.append(_path_run(c, cb))
        # one map on the pool for the draw and one for the feedback pass
        assert recorded_pools == ([cpus] * 2 if cpus > 1 else [])
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
