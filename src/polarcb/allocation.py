"""Monte-Carlo codebook gain and exhaustive feedback-bit allocation between angle and range."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .array_model import ArrayConfig, steering_matrix_exact
from .codebooks import PolarCodebook, scheme_codebook
from .distributions import DistributionSpec, Empirical, mean_stderr, sample_locations
from .feedback import best_codeword_scan


@dataclass(frozen=True)
class AllocationResult:
    "Winning split plus the full (p, q) -> gain table it came from."

    p_opt: int
    q_opt: int
    gain_table: tuple
    n_mc: int
    seed: object

    def table_dict(self) -> dict:
        return {(p, q): (g, se) for p, q, g, se in self.gain_table}


def mean_best_gain(codebook: PolarCodebook, points: np.ndarray) -> tuple[float, float]:
    """Mean and standard error of max_j |a(user)^H b_j| over line-of-sight users.

    `points` is an (n, 2) array of user (theta, r).  Channel scaling drops
    out, so the scan runs directly on unit-norm steering vectors.
    """
    vecs = steering_matrix_exact(codebook.cfg, points[:, 0], points[:, 1])
    gains, _ = best_codeword_scan(codebook.cfg, vecs, codebook.angle_samples,
                                  codebook.range_samples)
    return mean_stderr(gains)


def estimate_gain_mc(codebook: PolarCodebook, dist: DistributionSpec, n_mc: int,
                     seed) -> tuple[float, float]:
    "`mean_best_gain` over `n_mc` user locations drawn from `dist`."
    if n_mc < 1:
        raise ValueError("n_mc must be >= 1")
    return mean_best_gain(codebook, sample_locations(dist, n_mc, seed))


def optimize_allocation(b1: int, dist: DistributionSpec, cfg: ArrayConfig, n_mc: int,
                        seed, scheme: str = "geometric",
                        lloyd_data=None) -> AllocationResult:
    """Scan every split p + q = b1 and keep the gain-maximizing one.

    All splits are evaluated on one common set of user draws to stabilize
    the comparison; ties go to the larger p.
    """
    if b1 < 1:
        raise ValueError("b1 must be >= 1")
    if isinstance(dist, Empirical):
        raise ValueError("allocation needs a region-carrying distribution")
    pts = sample_locations(dist, n_mc, seed)
    region = dist.region
    table = []
    best = None
    for p in range(b1 + 1):
        q = b1 - p
        cb = scheme_codebook(cfg, region, scheme, p, q, lloyd_data=lloyd_data)
        g, se = mean_best_gain(cb, pts)
        table.append((p, q, g, se))
        if best is None or g > best[2] or (g == best[2] and p > best[0]):
            best = (p, q, g, se)
    return AllocationResult(best[0], best[1], tuple(table), n_mc, seed)
