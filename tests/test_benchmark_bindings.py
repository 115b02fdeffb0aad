"""The package bindings the benchmark's tracer wraps (`perfbench/spans.py`) must keep resolving.

The tracer looks each one up by name on every traced run, so a renamed or
removed binding fails every benchmark invocation.  So would a config key that
a workload writes (`perfbench/workloads.py`) and the package no longer accepts.
"""

import importlib
import importlib.util
import inspect
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    "perfbench/<name>.py, loaded from its file without importing the perfbench directory."
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up while it runs
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    missing = [(name, attr) for name, attr, _ in _load("spans").LAYERS
               if not callable(getattr(importlib.import_module(name), attr, None))]
    assert missing == []


def test_traced_bindings_are_the_ones_the_pipeline_calls():
    from polarcb import experiments, feedback

    assert experiments._batched_beamformers is feedback.run_protocol_batch
    params = list(inspect.signature(feedback.best_codeword_scan).parameters)
    assert params == ["cfg", "vectors", "angle_samples", "range_samples", "block"]


def test_lloyd_binding_keeps_the_parameters_the_tracer_binds():
    # the tracer forces return_history and reads max_iters when Lloyd gives up
    from polarcb.codebooks import LloydConvergenceError, lloyd_range_samples

    params = inspect.signature(lloyd_range_samples).parameters
    assert {"max_iters", "return_history"} <= set(params)
    data = 1.0 / np.random.default_rng(3).uniform(1 / 120, 1 / 4, 5000)
    _, history = lloyd_range_samples(data, 4, 1e-9, return_history=True)
    iterations = len(history) - 1       # one distortion per iteration plus the final one
    assert iterations >= 2
    lloyd_range_samples(data, 4, 1e-9, max_iters=iterations)
    with pytest.raises(LloydConvergenceError):
        lloyd_range_samples(data, 4, 1e-9, max_iters=iterations - 1)


def test_multipath_feedback_keeps_its_signature():
    from polarcb import feedback

    params = list(inspect.signature(feedback.multipath_feedback).parameters)
    assert params == ["cfg", "h", "cb1", "gain_cb"]


@pytest.mark.parametrize("size", ["full", "tiny"])
def test_every_workload_config_loads(tmp_path, size):
    from polarcb.experiments import load_config

    for name, workload in _load("workloads").WORKLOADS.items():
        path = tmp_path / f"{name}.cfg"
        path.write_text(workload.config_text(0, size))
        load_config(path, workload.command)


def test_allocation_scans_one_split_at_a_time_in_split_order(monkeypatch):
    # The tracer folds each phase-1 index array into the run's digest when
    # `best_codeword_scan` returns, in return order (`Tracer.digest`).  Splits
    # scanned at once would make the committed reference digest depend on
    # which split finished first.
    from polarcb import ArrayConfig, PolarRegion, UniformPolar, allocation

    lock = threading.Lock()
    events = []
    scan = allocation.best_codeword_scan

    def recorded(cfg, vectors, angle_samples, range_samples, *args, **kwargs):
        split = (len(angle_samples), len(range_samples))
        with lock:
            events.append(("enter", split))
        try:
            time.sleep(0.01)            # room for another split to enter meanwhile
            return scan(cfg, vectors, angle_samples, range_samples, *args, **kwargs)
        finally:
            with lock:
                events.append(("exit", split))

    monkeypatch.setattr(allocation, "best_codeword_scan", recorded)
    b1 = 5
    allocation.optimize_allocation(b1, UniformPolar(PolarRegion(-0.5, 0.5, 4.0, 120.0)),
                                   ArrayConfig(33, carrier_frequency=30e9), 40, 3)
    assert events == [(kind, (2**p, 2**(b1 - p))) for p in range(b1 + 1)
                      for kind in ("enter", "exit")]
