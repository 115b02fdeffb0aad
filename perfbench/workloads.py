"""Benchmark workloads: CLI config text generated from a seed, plus the work each one does.

Each workload stresses a different layer of polarcb, so that a change to one
layer shows on one workload and shows no change on another:

- rate_uniform: the headline sum-rate curve.  Many users face few range rings,
  so the phase-1 scan (codeword build plus matrix products) dominates; it is
  also the only workload that runs RVQ, zero forcing and the `threads` pool.
- alloc_rings: the bit-allocation table.  Few users face up to 2^b1 range
  rings, so the per-ring loop of the scan and the steering build dominate.
- perpath_mixture: per-path feedback with Gaussian-mixture users.  It never
  calls the phase-1 scan; Lloyd refinement, per-path quantization and
  rejection sampling do the work.

The seed only enters the config's `seed` key, so the amount of work does not
depend on it (apart from Lloyd iteration counts in perpath_mixture).

rate_uniform runs OpenBLAS with one thread per CPU, because its large scan
products gain from it.  The other two make many small BLAS calls from a
single-threaded Python loop; they run OpenBLAS single-threaded, since idle
worker threads spin between the calls, burn CPU time and made the timings of
those workloads noisier on a 2-vCPU host.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

REFERENCE_SEED = 0
"Seed of the committed reference CSVs and phase-1 index digests."


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    base: dict
    sizes: dict
    blas_threads: int | None = None
    "OPENBLAS_NUM_THREADS of the CLI process; None gives one thread per available CPU."

    def blas_env(self) -> dict:
        threads = self.blas_threads or len(os.sched_getaffinity(0))
        return {"OPENBLAS_NUM_THREADS": str(threads)}

    def config(self, seed: int, size: str = "full") -> dict:
        return {**self.base, **self.sizes[size], "seed": seed % 2**32}

    def config_text(self, seed: int, size: str = "full") -> str:
        lines = [f"# polarcb benchmark workload {self.name} ({size}), seed {seed}"]
        lines += [f"{key} = {value}" for key, value in self.config(seed, size).items()]
        return "\n".join(lines) + "\n"


def _values(text: str) -> list[str]:
    return [x.strip() for x in str(text).split(",") if x.strip()]


def evaluations(workload: Workload, cfg: dict) -> int:
    """Fixed count of evaluations one run performs (the numerator of evals_per_s).

    rate_uniform: trials * users * schemes; alloc_rings: n_mc * (b1 + 1) splits;
    perpath_mixture: trials * schemes * sweep points.
    """
    if workload.command == "allocate":
        return int(cfg["n_mc"]) * (int(cfg["b1"]) + 1)
    schemes = len(_values(cfg["schemes"]))
    if cfg["experiment"] == "rate_vs_snr":
        return int(cfg["n_trials"]) * int(cfg["k_users"]) * schemes
    return int(cfg["n_trials"]) * schemes * len(_values(cfg["sweep"]))


def expected_keys(workload: Workload, cfg: dict) -> set:
    "Row keys the CLI must write for this config."
    if workload.command == "allocate":
        b1 = int(cfg["b1"])
        return {(float(p), float(b1 - p)) for p in range(b1 + 1)}
    metric = ("sum_rate_bps_hz" if cfg["experiment"] == "rate_vs_snr"
              else "channel_correlation")
    return {(float(v), s, metric) for v in _values(cfg["sweep"])
            for s in _values(cfg["schemes"])}


WORKLOADS = {w.name: w for w in (
    Workload(
        name="rate_uniform",
        command="simulate",
        base={"experiment": "rate_vs_snr", "distribution": "uniform", "k_users": 4,
              "l_paths": 3, "kappa_db": 9.54, "b2": 12, "threads": 2,
              "schemes": "geometric,hyperbolic,uniform,dft,hybrid,full_csi",
              "sweep": "0,5,10,15,20,25,30"},
        sizes={"full": {"num_antennas": 387, "p": 12, "q": 3, "n_trials": 100},
               "tiny": {"num_antennas": 64, "p": 6, "q": 2, "n_trials": 8}},
    ),
    Workload(
        name="alloc_rings",
        command="allocate",
        base={"distribution": "uniform", "scheme": "geometric"},
        sizes={"full": {"num_antennas": 387, "b1": 13, "n_mc": 200},
               "tiny": {"num_antennas": 64, "b1": 6, "n_mc": 20}},
        blas_threads=1,
    ),
    Workload(
        name="perpath_mixture",
        command="simulate",
        # at the default lloyd_tolerance this mixture ends in LloydConvergenceError on
        # some seeds (see README.md), and a workload must not fail on any seed
        base={"experiment": "multipath_gain_vs_q", "distribution": "gmm",
              "gmm_components": "0.5:15:5;0.5:60:20", "k_users": 1, "l_paths": 3,
              "schemes": "geometric,hyperbolic,extended", "lloyd_tolerance": 1.0},
        sizes={"full": {"num_antennas": 387, "p": 12, "b2": 12, "sweep": "3,5,7",
                        "n_trials": 1000},
               "tiny": {"num_antennas": 64, "p": 6, "b2": 6, "sweep": "2,3",
                        "n_trials": 20, "n_train": 2000}},
        blas_threads=1,
    ),
)}
