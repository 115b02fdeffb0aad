"""polarcb's thread pool: the phase-1 scan, and channel assembly from drawn or fed-back paths.

Threads pay off here because the work is numpy ufuncs and BLAS calls, which
release the GIL.  Each caller fixes the boundaries its results depend on, so
they never depend on the number of threads; only the jobs (`runs`) do.
Every map runs on the process's one pool of `available_cpus()` threads.

The pool owns the cores: every map on it, and every RVQ pick, sets numpy's
OpenBLAS to one thread per call for the rest of the process
(`_one_blas_thread`).  At its full count OpenBLAS would start one thread per
CPU for every call a worker makes, and the RVQ products on the calling thread,
too small to share, would wake its idle threads to spin beside the workers.
`_openblas` looks the thread-count functions up on numpy's own linear-algebra
extension: the dynamic linker searches its dependencies, so they are those of
the BLAS numpy calls, whatever other copies (scipy's) the process has loaded.
"""

from __future__ import annotations

import ctypes
import functools
import os
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager

_THREAD_SYMBOLS = (
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
)
"OpenBLAS's (get, set) thread-count functions, as plain builds and numpy's wheels name them."


def available_cpus() -> int:
    "CPUs this process may run on (its affinity mask where the OS reports one)."
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _openblas():
    "numpy's OpenBLAS (get, set) thread-count functions, or None where none is found."
    import numpy

    lib = ctypes.CDLL(numpy.linalg._umath_linalg.__file__)
    for get, set_ in _THREAD_SYMBOLS:
        if hasattr(lib, get) and hasattr(lib, set_):
            return getattr(lib, get), getattr(lib, set_)
    return None


def _one_blas_thread() -> None:
    "Set numpy's OpenBLAS, where found and not at one already, to one thread per call."
    blas = _openblas()
    if blas is not None and blas[0]() > 1:
        blas[1](1)


_pool = functools.cache(ThreadPoolExecutor)       # of `available_cpus()` threads, made on first use
os.register_at_fork(after_in_child=_pool.cache_clear)   # a forked child has none of the threads


@contextmanager
def thread_map():
    """An ordered map for the `with` block: map(fn, items) yields fn(item) in item order.

    The calls run on the process's pool of `available_cpus()` threads (inline
    on one CPU), and OpenBLAS runs one thread per call from then on (see the
    module docstring).  However the block ends, it cancels the jobs not yet
    started and waits for those running.
    """
    if (workers := available_cpus()) <= 1:
        yield map
        return
    _one_blas_thread()
    pool, maps = _pool(workers), []

    def pmap(fn, *iterables):
        jobs = [pool.submit(fn, *args) for args in zip(*iterables)][::-1]
        maps.append(jobs)
        while jobs:
            jobs[-1].result()                 # a job stays on the books until it has ended
            yield jobs.pop().result()

    try:
        yield pmap
    finally:
        wait([job for jobs in maps for job in jobs if not job.cancel()])


def runs(n: int, most: int) -> list[range]:
    """range(n) cut into k runs of consecutive indices, lengths within one: the jobs of a map.

    k = max(min(n, 2W), ceil(n / max(1, most))), W = `available_cpus()`: two runs
    per worker, so that a worker the host slows leaves little to wait for, or
    more where runs of at most `most` indices need them."""
    k = max(min(n, 2 * available_cpus()), -(-n // max(1, most)))
    return [range(i * n // k, (i + 1) * n // k) for i in range(k)]


def run_steps(n: int, step: int, fn) -> None:
    """Call fn(rows) for each slice `rows` of `step` consecutive indices of range(n).

    The steps run on the pool, a run of steps per job (`runs`).  The slices
    depend on `step` alone, so what fn writes to its slice's rows does not
    depend on the CPU count; exceptions propagate.
    """
    def job(run):
        for i in run:
            fn(slice(i * step, (i + 1) * step))

    with thread_map() as pmap:
        list(pmap(job, runs(-(-n // step), n)))    # most = n caps nothing
