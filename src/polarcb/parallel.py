"""Thread pools shared by the phase-1 scan and the trial loop.

Threads pay off here because the work is numpy ufuncs and BLAS calls, which
release the GIL.  Callers fix how work is split, so results never depend on
the number of threads.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager


def available_cpus() -> int:
    "CPUs this process may run on (its affinity mask where the OS reports one)."
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextmanager
def thread_map(workers: int):
    """An ordered map for the `with` block: map(fn, items) yields fn(item) in item order.

    The calls run on `workers` threads that serve every map made in the
    block; with one worker (or fewer) they run inline, without a pool.
    """
    if workers <= 1:
        yield map
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield pool.map


def ordered_map(fn, items, workers: int):
    "Yield fn(item) for every item, in item order, computed on `workers` threads."
    with thread_map(workers) as pmap:
        yield from pmap(fn, items)
