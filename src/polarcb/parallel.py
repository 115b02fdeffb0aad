"""Thread pools shared by the phase-1 scan and the trial loop.

Threads pay off here because the work is numpy ufuncs and BLAS calls, which
release the GIL.  Callers fix how work is split, so results never depend on
the number of threads.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def available_cpus() -> int:
    "CPUs this process may run on (its affinity mask where the OS reports one)."
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def ordered_map(fn, items, workers: int):
    """Yield fn(item) for every item, in item order, computed on `workers` threads.

    With one worker (or fewer) the calls run inline, without a pool.
    """
    if workers <= 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, items)
