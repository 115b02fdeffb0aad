"""Span tracing of polarcb's layers from outside the package.

`install` wraps the module-level bindings the CLI pipeline calls at run time.
`from .x import y` binds at import time, so every polarcb module holding the
original function object gets the wrapper, not only the defining module.
Spans (name, start, end, parent) are kept in memory and written out at the
end; a layer's self time is its span's duration minus the part of that
interval its child spans cover.  Worker-thread spans with no parent in their
own thread take the main thread's open span as parent.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import math
import sys
import threading
import time
from collections import Counter, defaultdict

import numpy as np

# (defining module, function, span name)
LAYERS = (
    ("polarcb.array_model", "steering_matrix_exact", "array_model.steering"),
    ("polarcb.feedback", "best_codeword_scan", "feedback.scan"),
    ("polarcb.feedback", "multipath_feedback", "feedback.multipath"),
    ("polarcb.feedback", "phase2_select", "feedback.phase2_select"),
    ("polarcb.experiments", "_batched_beamformers", "experiments.beamform"),
    ("polarcb.experiments", "draw_channels", "experiments.draw_channels"),
    ("polarcb.channels", "multipath_channel", "channels.multipath"),
    ("polarcb.channels", "multipath_channel_equal", "channels.multipath"),
    ("polarcb.distributions", "sample_locations", "distributions.sample"),
    ("polarcb.codebooks", "scheme_codebook", "codebooks.build"),
    ("polarcb.codebooks", "lloyd_range_samples", "codebooks.lloyd"),
    ("polarcb.allocation", "optimize_allocation", "allocation.optimize"),
)
ROOT = "cli.run"
ZF_CHECK = "trace.zf_check"
"Span of the tracer's own condition-number check; its time belongs to no layer."

ZGEMM_SHAPE = (1000, 387, 4096)
"(n, M, codewords) of the roofline probe: one angle block of the phase-1 scan."


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self.counters = Counter()
        self.scan_digest = hashlib.sha256()
        self._stacks = {}
        self._lock = threading.Lock()
        self._main = threading.main_thread().ident

    def _stack(self) -> list:
        return self._stacks.setdefault(threading.get_ident(), [])

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main)
            parent = main[-1] if main and threading.get_ident() != self._main else None
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent])
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def current(self) -> str | None:
        stack = self._stack()
        return self.spans[stack[-1]][0] if stack else None

    def count(self, key: str, n) -> None:
        with self._lock:
            self.counters[key] += n

    def digest(self, indices: np.ndarray) -> None:
        "Fold one phase-1 index array into the run's digest, in call order."
        with self._lock:
            self.scan_digest.update(np.ascontiguousarray(indices, dtype="<i8").tobytes())

    def call(self, name: str, fn, *args, **kwargs):
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


def _count_steering(tracer, args, kwargs, result):
    tracer.count("array_model.steering.elements", result.size)


def _count_scan(sig, tracer, args, kwargs, result):
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    n = np.atleast_2d(a["vectors"]).shape[0]
    m = a["cfg"].num_antennas
    n_ang, n_rng = len(a["angle_samples"]), len(a["range_samples"])
    block = a["block"]
    cw = n_ang * n_rng
    blocks = math.ceil(n_ang / block)
    tracer.count("feedback.scan.vectors", n)
    tracer.count("feedback.scan.codewords", cw)
    tracer.count("feedback.scan.cmacs", n * cw * m)
    # one gemm per (angle block, range ring): vectors, codeword block and gains, complex128
    tracer.count("feedback.scan.bytes", 16 * (blocks * n_rng * n * m + cw * m + n * cw))
    tracer.digest(result[1])


def _count_sample(tracer, args, kwargs, result):
    tracer.count("distributions.sample.points", len(result))


_COUNTERS = {"array_model.steering": _count_steering, "distributions.sample": _count_sample}


def _wrap(tracer, name, fn, count=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = tracer.call(name, fn, *args, **kwargs)
        if count is not None:
            count(tracer, args, kwargs, result)
        return result

    return wrapper


def _wrap_lloyd(tracer, fn, error_type):
    "Counts Lloyd iterations from the history the function can return."
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        wanted = bound.arguments["return_history"]
        bound.arguments["return_history"] = True
        try:
            samples, history = tracer.call("codebooks.lloyd", fn, *bound.args, **bound.kwargs)
        except error_type:
            tracer.count("codebooks.lloyd.iters", bound.arguments["max_iters"])
            raise
        # one distortion per iteration plus the final one
        tracer.count("codebooks.lloyd.iters", len(history) - 1)
        return (samples, history) if wanted else samples

    return wrapper


def _wrap_pinv(tracer, fn, max_condition):
    "Counts the zero-forcing inputs of the beamformer above the condition limit."

    @functools.wraps(fn)
    def wrapper(a, *args, **kwargs):
        if tracer.current() == "experiments.beamform":
            index = tracer.open(ZF_CHECK)
            try:
                with np.errstate(all="ignore"):
                    cond = np.linalg.cond(a)
                tracer.count("experiments.zf.rank_deficient",
                             int(np.count_nonzero(~(cond <= max_condition))))
            finally:
                tracer.close(index)
        return fn(a, *args, **kwargs)

    return wrapper


def install(tracer: Tracer) -> None:
    "Replace every polarcb binding of the traced functions with a span-recording wrapper."
    from polarcb import codebooks, feedback

    modules = [m for name, m in list(sys.modules.items())
               if name == "polarcb" or name.startswith("polarcb.")]
    for module_name, attr, span in LAYERS:
        original = getattr(sys.modules[module_name], attr)
        if span == "codebooks.lloyd":
            wrapper = _wrap_lloyd(tracer, original, codebooks.LloydConvergenceError)
        elif span == "feedback.scan":
            wrapper = _wrap(tracer, span, original,
                            functools.partial(_count_scan, inspect.signature(original)))
        else:
            wrapper = _wrap(tracer, span, original, _COUNTERS.get(span))
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    np.linalg.pinv = _wrap_pinv(tracer, np.linalg.pinv, feedback.MAX_ZF_CONDITION)


def zgemm_peak_gflops(repeats: int = 5) -> float:
    "Best rate of one (n, M) x (M, C) complex128 product, at 8 flops per complex MAC."
    n, m, c = ZGEMM_SHAPE
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    b = rng.standard_normal((m, c)) + 1j * rng.standard_normal((m, c))
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - start)
    return 8.0 * n * m * c / best / 1e9


def _union(intervals) -> float:
    total, end = 0.0, -math.inf
    for lo, hi in sorted(intervals):
        if hi > max(lo, end):
            total += hi - max(lo, end)
            end = hi
    return total


def layer_metrics(tracer: Tracer, zgemm_gflops: float) -> dict:
    "Per-layer counts and times from the recorded spans; names match BENCHMARK.json."
    spans = tracer.spans
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    calls, self_s, total_s = Counter(), Counter(), Counter()
    build_s = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        total_s[name] += end - start
        self_s[name] += (end - start) - _union(
            (max(lo, start), min(hi, end)) for lo, hi in children[i])
        if name == "array_model.steering" and parent is not None \
                and spans[parent][0] == "feedback.scan":
            build_s += end - start
    c = tracer.counters
    scan_flops = 8.0 * c["feedback.scan.cmacs"]
    scan_gflops = scan_flops / self_s["feedback.scan"] / 1e9 if calls["feedback.scan"] else 0.0
    steer_s = self_s["array_model.steering"]
    splits = sum(1 for name, _, _, parent in spans
                 if name == "codebooks.build" and parent is not None
                 and spans[parent][0] == "allocation.optimize")
    return {
        "array_model.steering.calls": calls["array_model.steering"],
        "array_model.steering.elements": c["array_model.steering.elements"],
        "array_model.steering.self_s": float(steer_s),
        "array_model.steering.melem_per_s":
            c["array_model.steering.elements"] / steer_s / 1e6 if steer_s else 0.0,
        "feedback.scan.calls": calls["feedback.scan"],
        "feedback.scan.vectors": c["feedback.scan.vectors"],
        "feedback.scan.codewords": c["feedback.scan.codewords"],
        "feedback.scan.cmacs": c["feedback.scan.cmacs"],
        "feedback.scan.bytes": c["feedback.scan.bytes"],
        "feedback.scan.self_s": float(self_s["feedback.scan"]),
        "feedback.scan.build_s": build_s,
        "feedback.scan.gflops": scan_gflops,
        "feedback.scan.roofline_frac": scan_gflops / zgemm_gflops,
        "blas.zgemm_peak_gflops": zgemm_gflops,
        "experiments.beamform.calls": calls["experiments.beamform"],
        "experiments.beamform.self_s": float(self_s["experiments.beamform"]),
        "experiments.zf.rank_deficient": c["experiments.zf.rank_deficient"],
        "experiments.draw_channels.calls": calls["experiments.draw_channels"],
        "experiments.draw_channels.s": float(total_s["experiments.draw_channels"]),
        "experiments.other.self_s": float(self_s[ROOT]),
        "channels.multipath.calls": calls["channels.multipath"],
        "channels.multipath.self_s": float(self_s["channels.multipath"]),
        "distributions.sample.calls": calls["distributions.sample"],
        "distributions.sample.points": c["distributions.sample.points"],
        "distributions.sample.self_s": float(self_s["distributions.sample"]),
        "codebooks.build.calls": calls["codebooks.build"],
        "codebooks.build.self_s": float(self_s["codebooks.build"]),
        "codebooks.lloyd.calls": calls["codebooks.lloyd"],
        "codebooks.lloyd.iters": c["codebooks.lloyd.iters"],
        "codebooks.lloyd.self_s": float(self_s["codebooks.lloyd"]),
        "feedback.multipath.calls": calls["feedback.multipath"],
        "feedback.multipath.self_s": float(self_s["feedback.multipath"]),
        "feedback.phase2_select.calls": calls["feedback.phase2_select"],
        "feedback.phase2_select.self_s": float(self_s["feedback.phase2_select"]),
        "allocation.splits": splits,
        "allocation.optimize.s": float(total_s["allocation.optimize"]),
    }
