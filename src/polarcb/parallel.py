"""polarcb's thread pool: the phase-1 scan, and channel assembly from drawn or fed-back paths.

Threads pay off here because the work is numpy ufuncs and BLAS calls, which
release the GIL.  Each caller fixes the boundaries its results depend on, so
they never depend on the number of threads; only the grouping into jobs
does: about two per worker where the work allows (`run_steps`, the scan's
passes A and C), so that a worker the host slows leaves little to wait for.

A pool owns the cores while it runs: numpy's OpenBLAS, which would start one
thread per CPU for every call a worker makes, runs with its thread count
divided among the workers, and gets its count back when the last pool joins.
Phase-2 selection's small products on the calling thread run in a
`single_blas` section: each such call would wake OpenBLAS's idle threads for
a product too small to share, and they then spin beside the scan's workers.
Library callers may run scans on several threads at once, so pools and
sections that overlap or nest share one count under a lock.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

_THREAD_SYMBOLS = (
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
)
"OpenBLAS's (get, set) thread-count functions, as plain builds and numpy's wheels name them."

_blas_lock = threading.Lock()
_blas_sections = 0
_blas_prior = 0


def available_cpus() -> int:
    "CPUs this process may run on (its affinity mask where the OS reports one)."
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _mapped_openblas() -> list[str]:
    """Paths of the OpenBLAS libraries mapped into this process, numpy's first.

    numpy's wheels vendor OpenBLAS in `numpy.libs` next to the package; a
    system numpy links a system OpenBLAS, outside any wheel's `.libs`
    directory.  Other wheels' copies (scipy's) are left out.
    """
    import numpy

    try:
        with open("/proc/self/maps") as fh:
            paths = {fields[5] for fields in map(str.split, fh)
                     if len(fields) == 6 and "openblas" in os.path.basename(fields[5])}
    except OSError:
        return []
    wheel = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    own = sorted(p for p in paths if os.path.dirname(p) == wheel)
    return own or sorted(p for p in paths if not os.path.dirname(p).endswith(".libs"))


@functools.cache
def _openblas():
    "numpy's OpenBLAS (get, set) thread-count functions, or None where none is found."
    for path in _mapped_openblas():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get, set_ in _THREAD_SYMBOLS:
            if hasattr(lib, get) and hasattr(lib, set_):
                return getattr(lib, get), getattr(lib, set_)
    return None


@contextmanager
def _blas_shared(threads):
    """OpenBLAS runs with max(1, threads(prior)) threads per call inside the block.

    `prior` is OpenBLAS's count when the first of the open sections opened; a
    section never raises the count, and the last one to close restores it.
    Without a known OpenBLAS the block runs as it is.
    """
    global _blas_sections, _blas_prior
    blas = _openblas()
    if blas is None:
        yield
        return
    get, set_ = blas
    with _blas_lock:
        if _blas_sections == 0:
            _blas_prior = get()
        _blas_sections += 1
        cap = max(1, threads(_blas_prior))
        if cap < get():
            set_(cap)
    try:
        yield
    finally:
        with _blas_lock:
            _blas_sections -= 1
            if _blas_sections == 0:
                set_(_blas_prior)


def single_blas():
    """A section in which OpenBLAS runs one thread per call (see `_blas_shared`).

    For products on the calling thread far too small to gain from BLAS
    threads, which would otherwise wake OpenBLAS's idle threads to spin
    beside the work of other threads.
    """
    return _blas_shared(lambda prior: 1)


@contextmanager
def thread_map(workers: int):
    """An ordered map for the `with` block: map(fn, items) yields fn(item) in item order.

    The calls run on `workers` threads that serve every map made in the
    block; with one worker (or fewer) they run inline, without a pool.  While
    the pool runs, OpenBLAS's threads are shared among its workers.
    """
    if workers <= 1:
        yield map
        return
    with _blas_shared(lambda prior: prior // workers), \
            ThreadPoolExecutor(max_workers=workers) as pool:
        yield pool.map


def run_steps(n: int, step: int, fn) -> None:
    """Call fn(rows) for each slice `rows` of `step` consecutive indices of range(n).

    The steps run on a pool of min(available_cpus(), steps) workers, a
    contiguous run of steps per job, about two jobs per worker.  The slices
    depend on `step` alone, so what fn writes to the disjoint rows of its
    slice does not depend on the CPU count.  An exception in fn propagates.
    """
    starts = range(0, n, step)
    if not starts:
        return
    workers = min(available_cpus(), len(starts))
    run = -(-len(starts) // (2 * workers))

    def job(first):
        for lo in starts[first:first + run]:
            fn(slice(lo, lo + step))

    with thread_map(workers) as pmap:
        for _ in pmap(job, range(0, len(starts), run)):
            pass
