"""User-location distributions over a polar region.

All range-only variants keep the angle marginal uniform on
[theta_min, theta_max]; only the range law changes.  Samplers are pure
functions of (spec, count, seed).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .array_model import PolarRegion


@dataclass(frozen=True)
class UniformPolar:
    region: PolarRegion


@dataclass(frozen=True)
class HotSpotRange:
    "Range mass `hot_mass` uniform on [hot_lo, hot_hi], the rest uniform on the complement."

    region: PolarRegion
    hot_lo: float
    hot_hi: float
    hot_mass: float

    def __post_init__(self):
        r = self.region
        if not (r.r_min <= self.hot_lo < self.hot_hi <= r.r_max):
            raise ValueError("hot interval must sit inside [r_min, r_max]")
        if not 0.0 < self.hot_mass <= 1.0:
            raise ValueError("hot_mass must lie in (0, 1]")
        if (self.hot_lo, self.hot_hi) == (r.r_min, r.r_max) and self.hot_mass < 1.0:
            raise ValueError("hot interval covers [r_min, r_max], so hot_mass must be 1")


@dataclass(frozen=True)
class TruncatedGaussianRange:
    region: PolarRegion
    mean: float
    std: float

    def __post_init__(self):
        if self.std <= 0:
            raise ValueError("std must be positive")


@dataclass(frozen=True)
class GaussianMixtureRange:
    "components: sequence of (weight, mean, std); weights must sum to 1."

    region: PolarRegion
    components: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        comps = tuple(tuple(map(float, c)) for c in self.components)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise ValueError("need at least one component")
        if any(c[2] <= 0 for c in comps):
            raise ValueError("component std must be positive")
        if not all(c[0] >= 0 for c in comps):
            raise ValueError("component weights must be non-negative")
        if abs(sum(c[0] for c in comps) - 1.0) > 1e-9:
            raise ValueError("component weights must sum to 1")


@dataclass(frozen=True)
class Empirical:
    "Fixed list of (theta, r) points, resampled with replacement."

    points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=np.float64))
        if pts.size == 0:
            raise ValueError("empirical point list must be nonempty")
        if pts.shape[1] != 2:
            raise ValueError("points must be (n, 2) pairs of (theta, r)")
        object.__setattr__(self, "points", pts)


DistributionSpec = Union[UniformPolar, HotSpotRange, TruncatedGaussianRange,
                         GaussianMixtureRange, Empirical]


def _sample_angles(region: PolarRegion, count: int, rng) -> np.ndarray:
    return rng.uniform(region.theta_min, region.theta_max, count)


def _hotspot_ranges(spec: HotSpotRange, count: int, rng) -> np.ndarray:
    reg = spec.region
    left = spec.hot_lo - reg.r_min
    right = reg.r_max - spec.hot_hi
    cold = left + right
    u = rng.uniform(0.0, 1.0, count)
    r = np.empty(count)
    hot = u < spec.hot_mass
    r[hot] = spec.hot_lo + rng.uniform(0.0, 1.0, hot.sum()) * (spec.hot_hi - spec.hot_lo)
    n_cold = (~hot).sum()
    if n_cold:
        v = rng.uniform(0.0, cold, n_cold)
        r[~hot] = np.where(v < left, reg.r_min + v, spec.hot_hi + (v - left))
    return r


MIN_TRUNCATION_MASS = 1e-3
"""Smallest range-law mass inside [r_min, r_max] a truncated law may keep.
Rejection sampling needs at most about 1 / mass rounds, so this caps them near 1000."""

_MAX_REJECTION_ROUNDS = 50_000
"50x the expected rounds at the mass floor; reached only by a spec below it."


def _rejection_ranges(count, rng, draw, lo, hi) -> np.ndarray:
    "Sample `draw(n, rng)` until `count` values land inside [lo, hi]."
    out = np.empty(0)
    rounds = 0
    while out.size < count:
        if rounds == _MAX_REJECTION_ROUNDS:
            raise ValueError(f"rejection sampling kept {out.size} of {count} ranges in "
                             f"{rounds} rounds: the range law has too little mass "
                             f"inside [{lo}, {hi}]")
        cand = draw(max(count, 1024), rng)
        out = np.concatenate([out, cand[(cand >= lo) & (cand <= hi)]])
        rounds += 1
    return out[:count]


def _mixture_draw(spec: GaussianMixtureRange):
    """A mixture's `draw(n, rng)` for `_rejection_ranges`: the draws, and generator state, of
    rng.choice(len(w), n, p=w) and rng.normal(mu[comp], sd[comp]), its cdf built once."""
    w, mu, sd = np.array(spec.components).T
    cdf = w.cumsum()
    cdf /= cdf[-1]

    def draw(n, rng):
        comp = cdf.searchsorted(rng.random(n), side="right")
        return mu[comp] + sd[comp] * rng.standard_normal(n)

    return draw


def sample_locations(spec: DistributionSpec, count: int, seed) -> np.ndarray:
    """Draw `count` user locations; returns an (count, 2) array of (theta, r).

    Identical (spec, count, seed) triples produce identical samples.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    if isinstance(spec, Empirical):
        idx = rng.integers(0, len(spec.points), count)
        return spec.points[idx].copy()
    reg = spec.region
    theta = _sample_angles(reg, count, rng)
    if isinstance(spec, UniformPolar):
        r = rng.uniform(reg.r_min, reg.r_max, count)
    elif isinstance(spec, HotSpotRange):
        r = _hotspot_ranges(spec, count, rng)
    elif isinstance(spec, TruncatedGaussianRange):
        r = _rejection_ranges(count, rng,
                              lambda n, g: g.normal(spec.mean, spec.std, n),
                              reg.r_min, reg.r_max)
    elif isinstance(spec, GaussianMixtureRange):
        r = _rejection_ranges(count, rng, _mixture_draw(spec), reg.r_min, reg.r_max)
    else:
        raise TypeError(f"unknown distribution spec {type(spec).__name__}")
    return np.column_stack([theta, r])


def mean_stderr(values) -> tuple[float, float]:
    "Sample mean and its standard error std(ddof=1) / sqrt(n); one sample has stderr 0.0."
    values = np.asarray(values)
    se = values.std(ddof=1) / math.sqrt(len(values)) if len(values) > 1 else 0.0
    return float(values.mean()), float(se)


# The normal cdf and pdf without scipy, whose import would cost a Gaussian
# run's set-up about 0.3 s; the cdf is within 2.2e-16 of scipy.special.ndtr
# for z in [-40, 40], and the pdf equals scipy.stats.norm.pdf bit for bit
def _norm_cdf(x, mu, sd):
    return 0.5 * math.erfc(-((x - mu) / sd) / math.sqrt(2))


def _norm_pdf(x, mu, sd):
    z = (x - mu) / sd
    return np.exp(-z**2 / 2.0) / np.sqrt(2 * np.pi) / sd


def truncation_mass(spec: DistributionSpec) -> float:
    """Mass the untruncated range law puts inside [r_min, r_max].

    1 for the laws that never leave the region; below 1 for the Gaussian
    laws, which are truncated to it by rejection sampling.
    """
    if isinstance(spec, TruncatedGaussianRange):
        comps = ((1.0, spec.mean, spec.std),)
    elif isinstance(spec, GaussianMixtureRange):
        comps = spec.components
    else:
        return 1.0
    reg = spec.region
    return float(sum(w * (_norm_cdf(reg.r_max, mu, sd) - _norm_cdf(reg.r_min, mu, sd))
                     for w, mu, sd in comps))


def range_pdf(spec: DistributionSpec, r) -> np.ndarray:
    "Range-marginal density in 1/m; zero outside [r_min, r_max]."
    if isinstance(spec, Empirical):
        raise ValueError("empirical specs carry no density")
    reg = spec.region
    r = np.asarray(r, dtype=np.float64)
    inside = (r >= reg.r_min) & (r <= reg.r_max)
    if isinstance(spec, UniformPolar):
        pdf = np.full_like(r, 1.0 / reg.range_span)
    elif isinstance(spec, HotSpotRange):
        hot_w = spec.hot_hi - spec.hot_lo
        cold_w = reg.range_span - hot_w
        hot = (r >= spec.hot_lo) & (r <= spec.hot_hi)
        cold_d = (1.0 - spec.hot_mass) / cold_w if cold_w > 0 else 0.0
        pdf = np.where(hot, spec.hot_mass / hot_w, cold_d)
    elif isinstance(spec, TruncatedGaussianRange):
        pdf = _norm_pdf(r, spec.mean, spec.std) / truncation_mass(spec)
    elif isinstance(spec, GaussianMixtureRange):
        pdf = (sum(w * _norm_pdf(r, mu, sd) for w, mu, sd in spec.components)
               / truncation_mass(spec))
    else:
        raise TypeError(f"unknown distribution spec {type(spec).__name__}")
    return np.where(inside, pdf, 0.0)


def load_empirical_csv(path: str | Path) -> Empirical:
    "Load an empirical spec from a CSV with header columns `theta,r_m`."
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header] != ["theta", "r_m"]:
            raise ValueError(f"{path}: expected header 'theta,r_m'")
        rows = [(float(a), float(b)) for a, b in reader]
    return Empirical(np.array(rows))
