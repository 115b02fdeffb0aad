"""The package bindings the benchmark's tracer wraps (`perfbench/spans.py`) must keep resolving.

The tracer looks each one up by name on every traced run, so a renamed or
removed binding fails every benchmark invocation.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    missing = [(name, attr) for name, attr, _ in _spans().LAYERS
               if not callable(getattr(importlib.import_module(name), attr, None))]
    assert missing == []


def test_traced_bindings_are_the_ones_the_pipeline_calls():
    from polarcb import experiments, feedback

    assert experiments._batched_beamformers is feedback.run_protocol_batch
    params = list(inspect.signature(feedback.best_codeword_scan).parameters)
    assert params == ["cfg", "vectors", "angle_samples", "range_samples", "block"]
