"""polarcb benchmark: time-to-curve of the CLI on seeded workloads, plus a traced per-layer run.

    python3 perfbench/run.py                      # every workload, end-to-end and per-layer
    python3 perfbench/run.py --workload rate_uniform --seed 3 --seconds 15 --trace 0

Each measurement is one fresh CLI process (perfbench/child.py) on a config the
workload generates from --seed.  Timed runs repeat for --seconds (at least
MIN_TIMED of them) with tracing off; the end-to-end metrics are their medians.
With --trace 1 one more run of the same config is traced and gives the
per-layer metrics.  Every invocation also runs the workload's reference config
(seed REFERENCE_SEED), traced, and compares its CSV and phase-1 index digest
with the committed references.  A run fails on a non-zero exit, a timeout or a
failed output check.  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import MAX_DEV, OutputError, check_run, max_deviation
from workloads import REFERENCE_SEED, WORKLOADS, evaluations, expected_keys

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
RUNS = BENCH / "runs"
REFERENCES = BENCH / "references"

MIN_TIMED = 3
MIN_SETUP = 5
"Set-up is timed in every process; set-up-only processes top the samples up to this many."
RUN_BUDGET_S = 165.0
"No new process starts once a run could no longer finish within this many seconds."
CHILD_TIMEOUT_S = 150.0

REPORTED_ONLY = (("output_max_dev", "-"), ("failed_frac", "-"))
"Printed with the end-to-end metrics; zero on a correct run, so they gate `correct` and `failed`."


class BenchmarkError(RuntimeError):
    "The benchmark cannot run here (no polarcb sources, no references)."


@dataclass
class Sample:
    kind: str
    ok: bool
    error: str = ""
    data: dict = field(default_factory=dict)
    csv: str = ""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_child(run_dir: Path, label: str, workload, config_text: str, deadline: float,
              trace: bool = False, spans: bool = False, setup_only: bool = False) -> Sample:
    "Run one fresh CLI process; the sample fails on any error, exit code or timeout."
    cfg, out, res = (run_dir / f"{label}{ext}" for ext in (".cfg", ".csv", ".json"))
    for path in (out, res):
        path.unlink(missing_ok=True)
    cfg.write_text(config_text)
    cmd = [sys.executable, str(BENCH / "child.py"), "--command", workload.command,
           "--config", str(cfg), "--out", str(out), "--result", str(res)]
    if trace:
        cmd.append("--trace")
    if spans:
        cmd += ["--spans", str(run_dir / f"{label}.spans.jsonl")]
    if setup_only:
        cmd.append("--setup-only")
    env = {**os.environ, **workload.blas_env(), "PYTHONPATH": str(ROOT / "src")}
    timeout = max(1.0, min(CHILD_TIMEOUT_S, deadline - time.perf_counter()))
    began = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return Sample(label, False, f"timeout after {timeout:.0f} s")
    process_s = time.perf_counter() - began
    tail = proc.stderr.strip().splitlines()[-1:] or [""]
    if proc.returncode != 0 or not res.exists():
        return Sample(label, False, f"process exit {proc.returncode}: {tail[0]}")
    data = {**json.loads(res.read_text()), "process_s": process_s}
    if not Path(data["polarcb_file"]).resolve().is_relative_to(ROOT / "src"):
        return Sample(label, False, f"imported polarcb from {data['polarcb_file']}")
    if data.get("rc", 0) != 0:
        return Sample(label, False, f"CLI exit {data['rc']}: {tail[0]}", data)
    return Sample(label, True, "", data, "" if setup_only else out.read_text())


def check_output(sample: Sample, workload, cfg: dict) -> None:
    "Mark the sample failed when its CSV does not match its config."
    if not sample.ok:
        return
    upper = None if cfg.get("experiment") == "rate_vs_snr" else 1.0
    trials = None if workload.command == "allocate" else int(cfg["n_trials"])
    try:
        check_run(sample.csv, expected_keys(workload, cfg), trials, cfg["seed"], upper)
    except OutputError as exc:
        sample.ok, sample.error = False, f"output check: {exc}"


def reference_paths(name: str, size: str) -> tuple[Path, Path]:
    suffix = "" if size == "full" else f".{size}"
    return REFERENCES / f"{name}{suffix}.csv", REFERENCES / "digests.json"


def check_reference(sample: Sample, name: str, size: str) -> float | None:
    """output_max_dev of the reference run.

    Marks the sample failed above MAX_DEV or when its phase-1 index digest differs.
    """
    if not sample.ok:
        return None
    csv_path, digest_path = reference_paths(name, size)
    try:
        dev = max_deviation(csv_path.read_text(), sample.csv)
    except OutputError as exc:
        sample.ok, sample.error = False, f"reference check: {exc}"
        return None
    expected = json.loads(digest_path.read_text())[name][size]
    if dev > MAX_DEV:
        sample.ok, sample.error = False, f"reference check: output_max_dev {dev!r} > {MAX_DEV}"
    elif sample.data["scan_digest"] != expected:
        sample.ok, sample.error = False, "reference check: phase-1 index digest differs"
    return dev


def preflight(name: str, size: str) -> None:
    if not (ROOT / "src" / "polarcb" / "cli.py").is_file():
        raise BenchmarkError(f"no polarcb sources under {ROOT / 'src'}")
    for path in reference_paths(name, size):
        if not path.is_file():
            raise BenchmarkError(f"missing reference {path}")


def host_cpu_ticks() -> tuple[int, int] | None:
    "(steal, total) jiffies of all CPUs from /proc/stat, or None where unavailable."
    try:
        with open("/proc/stat") as fh:
            ticks = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks[:8])


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    "Timed runs, optional traced run, reference run and set-up probes of one workload."
    preflight(name, size)
    preflight(name, "tiny")
    workload = WORKLOADS[name]
    ticks0 = host_cpu_ticks()
    start = time.perf_counter()
    deadline = start + RUN_BUDGET_S
    run_dir = RUNS / f"{name}-{size}-seed{seed}-trace{int(trace)}"
    run_dir.mkdir(parents=True, exist_ok=True)
    cfg, text = workload.config(seed, size), workload.config_text(seed, size)

    # warm-up: the first process of an invocation pays for cold file caches and bytecode
    warmup = run_child(run_dir, "warmup", workload, text, deadline, setup_only=True)
    window = time.perf_counter()
    timed = []
    while warmup.ok and (len(timed) < MIN_TIMED or time.perf_counter() - window < seconds):
        durations = [s.data.get("process_s", 0.0) for s in timed]
        longest = max(durations, default=0.0)
        if timed and time.perf_counter() + 3 * longest > deadline:
            break
        # stop once the next process would end past --seconds, so a run lasts about that long
        if (len(timed) >= MIN_TIMED
                and time.perf_counter() - window + statistics.median(durations) > seconds):
            break
        sample = run_child(run_dir, f"timed{len(timed)}", workload, text, deadline)
        check_output(sample, workload, cfg)
        timed.append(sample)
        if not sample.ok:
            break
    good = [s for s in timed if s.ok]
    if len({s.csv for s in good}) > 1:
        for s in good:
            s.ok, s.error = False, "CSV differs between repeats of one config"
        good = []

    samples = [warmup, *timed]
    traced = None
    if trace and good:
        traced = run_child(run_dir, "traced", workload, text, deadline, trace=True, spans=True)
        check_output(traced, workload, cfg)
        if traced.ok and traced.csv != good[0].csv:
            traced.ok, traced.error = False, "traced CSV differs from the untraced one"
        samples.append(traced)

    # the full-size reference costs as much as a timed run, so only traced runs pay for it
    ref_size = size if trace else "tiny"
    reference = run_child(run_dir, "reference", workload,
                          workload.config_text(REFERENCE_SEED, ref_size), deadline, trace=True)
    check_output(reference, workload, workload.config(REFERENCE_SEED, ref_size))
    output_max_dev = check_reference(reference, name, ref_size)
    samples.append(reference)

    def setup_samples():
        return [s.data["setup_s"] for s in samples if s is not warmup and s.data.get("setup_s")]

    while len(setup_samples()) < MIN_SETUP:
        samples.append(run_child(run_dir, "setup", workload, text, deadline, setup_only=True))
        if not samples[-1].ok:
            break

    failed = sum(1 for s in samples if not s.ok)
    result = {
        "workload": name, "seed": seed, "trace": int(trace), "size": size,
        "config_text": text, "seconds": seconds, "reference_size": ref_size,
        "attempted": len(samples), "failed": failed,
        "correct": failed == 0,
        "errors": [f"{s.kind}: {s.error}" for s in samples if not s.ok],
        "samples": [{"kind": s.kind, "ok": s.ok, **s.data} for s in samples],
        "timed_runs": len(good),
        "end_to_end": None, "per_layer": None,
    }
    if good:
        evals = evaluations(workload, cfg)
        result["end_to_end"] = {
            "setup_s": statistics.median(setup_samples()),
            "wall_s": statistics.median(s.data["wall_s"] for s in good),
            "evals_per_s": statistics.median(evals / s.data["wall_s"] for s in good),
            "cpu_s": statistics.median(s.data["cpu_s"] for s in good),
            "peak_rss_mb": statistics.median(s.data["peak_rss_mb"] for s in good),
            "output_max_dev": output_max_dev,
            "failed_frac": failed / len(samples),
        }
        if traced is not None and traced.ok:
            result["per_layer"] = {
                **traced.data["layers"],
                "trace.overhead_frac":
                    traced.data["wall_s"] / result["end_to_end"]["wall_s"] - 1.0,
            }
    result["meta"] = run_metadata(seed, workload)
    ticks1 = host_cpu_ticks()
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        # share of CPU time the hypervisor gave to other guests while this ran
        result["meta"]["host_steal_frac"] = (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1])
    (run_dir / "result.json").write_text(json.dumps(result, indent=1))
    return result


def run_metadata(seed: int, workload) -> dict:
    "Machine, library and source versions recorded with every result."
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "polarcb").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_num_threads": workload.blas_env()["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "git_commit": git_commit(),
        "source_sha256": source.hexdigest(),
        "workload_seed": seed,
    }


def git_commit() -> str:
    "HEAD of the checkout, or 'none' outside a git work tree (the search stops at the checkout)."
    if shutil.which("git") is None:
        return "none"
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def report(result: dict, spec: dict) -> tuple[dict, dict]:
    "Print the human-readable tables; return the end-to-end and per-layer result metrics."
    print(f"== {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"size={result['size']}: {result['timed_runs']} timed runs, "
          f"{result['attempted']} processes, {result['failed']} failed")
    print("# meta " + json.dumps(result["meta"], sort_keys=True))
    for error in result["errors"]:
        print(f"# failed {error}")
    e2e = result["end_to_end"]
    print(f"end-to-end (median of {result['timed_runs']} untraced runs; output_max_dev against "
          f"the {result['reference_size']} reference):")
    units = [(m["name"], m["unit"]) for m in spec["end_to_end"]] + list(REPORTED_ONLY)
    for name, unit in units:
        print(f"  {name:38s} {e2e[name]!r:>24} {unit}")
    end_to_end = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                  for m in spec["end_to_end"]}
    per_layer = {}
    if result["trace"]:
        layers = result["per_layer"]
        print("per-layer (one traced run; bytes and cmacs are computed, not measured):")
        for m in spec["per_layer"]:
            print(f"  {m['name']:38s} {layers[m['name']]!r:>24} {m['unit']}")
        per_layer = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                     for m in spec["per_layer"]}
    return end_to_end, per_layer


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload; default: every workload, traced")
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = [args.workload] if args.workload else list(WORKLOADS)
    trace = bool(args.trace) or not args.workload
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, trace)
        except BenchmarkError as exc:
            print(f"benchmark error: {exc}", file=sys.stderr)
            return 2
        if result["end_to_end"] is None or (trace and result["per_layer"] is None):
            print(f"{name}: no successful run: {result['errors']}", file=sys.stderr)
            return 1
        end_to_end, per_layer = report(result, spec)
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        if args.workload:
            summary["metrics"] = per_layer if args.trace else end_to_end
        else:
            summary["metrics"].update({f"{name}.{k}": v
                                       for k, v in {**end_to_end, **per_layer}.items()})
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
