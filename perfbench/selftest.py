"""Self-test of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench/selftest.py

Runs every workload at its tiny size through the real CLI, so it takes about
a minute.
"""

import json
import re
import shutil
import subprocess
import sys

import pytest

import run
from checks import MAX_DEV, OutputError, max_deviation
from workloads import REFERENCE_SEED, WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(name, capsys):
    result = run.run_workload(name, seed=5, seconds=0, trace=True, size="tiny")
    spec = run.load_spec()
    run.report(result, spec)
    out = capsys.readouterr().out
    expected = [(m["name"], m["unit"]) for m in spec["end_to_end"] + spec["per_layer"]]
    for metric, unit in expected + list(run.REPORTED_ONLY):
        assert re.search(rf"^  {re.escape(metric)} +\S+ {re.escape(unit)}$", out, re.M), metric
    assert result["correct"], result["errors"]
    assert result["end_to_end"]["output_max_dev"] == 0.0
    assert result["end_to_end"]["failed_frac"] == 0.0
    layers = result["per_layer"]
    if name == "perpath_mixture":
        assert layers["feedback.scan.calls"] == 0
        assert layers["codebooks.lloyd.calls"] > 0
    else:
        assert layers["feedback.scan.calls"] > 0
        assert layers["codebooks.lloyd.calls"] == 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_output_check_rejects_a_perturbed_reference(name):
    text = run.reference_paths(name, "full")[0].read_text()
    assert max_deviation(text, text) == 0.0
    header, first, *rest = text.splitlines(keepends=True)
    # change the third digit of the first row's first value field
    fields = first.split(",")
    field = 3 if name != "alloc_rings" else 2
    i = [i for i, ch in enumerate(fields[field]) if ch.isdigit()][2]
    ch = fields[field][i]
    fields[field] = fields[field][:i] + ("1" if ch != "1" else "2") + fields[field][i + 1:]
    perturbed = header + ",".join(fields) + "".join(rest)
    assert max_deviation(text, perturbed) > MAX_DEV
    with pytest.raises(OutputError):
        max_deviation(text, header + "".join(rest))


def test_a_forced_nonzero_exit_counts_in_failed_frac(monkeypatch):
    real = run.run_child

    def broken_reference(run_dir, label, workload, config_text, deadline, **kwargs):
        if label == "reference":
            config_text += "no_such_key = 1\n"
        return real(run_dir, label, workload, config_text, deadline, **kwargs)

    monkeypatch.setattr(run, "run_child", broken_reference)
    result = run.run_workload("alloc_rings", seed=1, seconds=0, trace=False, size="tiny")
    assert not result["correct"]
    assert result["failed"] == 1
    assert result["end_to_end"]["failed_frac"] == 1 / result["attempted"]
    assert result["end_to_end"]["output_max_dev"] is None
    assert any("reference: process exit" in e for e in result["errors"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_the_same_seed_generates_the_same_config_text(name):
    workload = WORKLOADS[name]
    for size in workload.sizes:
        assert workload.config_text(7, size) == workload.config_text(7, size)
        assert workload.config_text(7, size) != workload.config_text(8, size)
        assert f"seed = {REFERENCE_SEED}" in workload.config_text(REFERENCE_SEED, size)


def test_without_the_sources_it_fails_and_prints_no_result():
    bare = run.RUNS / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "rate_uniform",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
