"""Regenerate the committed reference CSVs and phase-1 index digests.

    python3 perfbench/make_references.py

Runs every workload's reference config (seed REFERENCE_SEED) at every size
through the CLI, traced, and writes perfbench/references/<workload>[.<size>].csv
and perfbench/references/digests.json.  Run it only at a commit whose outputs
are known to be right: the benchmark fails every later run whose output
differs from these files.
"""

import json
import sys
import time

from run import REFERENCES, RUNS, check_output, reference_paths, run_child
from workloads import REFERENCE_SEED, WORKLOADS


def main() -> int:
    REFERENCES.mkdir(exist_ok=True)
    digests = {}
    for name, workload in WORKLOADS.items():
        for size in workload.sizes:
            run_dir = RUNS / f"{name}-{size}-references"
            run_dir.mkdir(parents=True, exist_ok=True)
            sample = run_child(run_dir, "reference", workload,
                               workload.config_text(REFERENCE_SEED, size),
                               time.perf_counter() + 600, trace=True)
            check_output(sample, workload, workload.config(REFERENCE_SEED, size))
            if not sample.ok:
                print(f"{name} ({size}): {sample.error}", file=sys.stderr)
                return 1
            reference_paths(name, size)[0].write_text(sample.csv)
            digests.setdefault(name, {})[size] = sample.data["scan_digest"]
            print(f"{name} ({size}): {sample.data['wall_s']:.2f} s, digest "
                  f"{sample.data['scan_digest'][:16]}")
    (REFERENCES / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
