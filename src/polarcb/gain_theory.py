"""Closed-form analog-gain theory with numerical oracles.

The central object is the half-array gain surrogate

    f(eps_theta, u) = (2/M) |sum_{m=0}^{(M-1)/2} exp(j m pi eps_theta)
                                               * exp(j k_c m^2 d0^2 u / 2)|

with u the vartheta-scaled inverse-range error.  Everything else in this
module is either an exact one-dimensional integral of the sampling error, a
partition optimality statement, or a bit-scaling law derived from matching f
to a calibrated reference array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .array_model import ArrayConfig, PolarRegion
from .distributions import mean_stderr


def f_gain(cfg: ArrayConfig, eps_theta, u):
    """Half-array gain surrogate; broadcasts over `eps_theta` and `u`.

    f(0, 0) equals (M+1)/M, marginally above one, because the surrogate
    counts the center element twice.
    """
    m = np.arange((cfg.num_antennas - 1) // 2 + 1)
    eps_theta = np.asarray(eps_theta, dtype=np.float64)[..., None]
    u = np.asarray(u, dtype=np.float64)[..., None]
    phase = m * np.pi * eps_theta + cfg.wavenumber * m**2 * cfg.spacing**2 * u / 2.0
    s = np.exp(1j * phase).sum(axis=-1)
    out = (2.0 / cfg.num_antennas) * np.abs(s)
    return out if out.ndim else float(out)


def mean_vartheta(region: PolarRegion) -> float:
    "E[1 - theta^2] for theta uniform on the angle span."
    a, b = region.theta_min, region.theta_max
    return 1.0 - (a * a + a * b + b * b) / 3.0


_GRID_STEP = 1024
"Grid points per `slice_fn` call of `_first_derivative_root`."


def _first_derivative_root(slice_fn, x_hi: float, n_grid: int = 20001) -> float:
    """First zero of the numerical derivative of `slice_fn` on (0, x_hi).

    Scans a uniform grid for the first sign change of the central difference
    and polishes it with bracketed root-finding.  `slice_fn` broadcasts over
    an array of points; the grid goes through it `_GRID_STEP` points at a time.
    """
    xs = np.linspace(x_hi / n_grid, x_hi, n_grid)
    vals = np.concatenate([slice_fn(xs[i:i + _GRID_STEP]) for i in range(0, n_grid, _GRID_STEP)])
    dv = np.diff(vals)
    sign_flips = np.nonzero(np.sign(dv[:-1]) != np.sign(dv[1:]))[0]
    if len(sign_flips) == 0:
        raise RuntimeError("no stationary point found; enlarge the search window")
    k = sign_flips[0]
    h = xs[1] - xs[0]

    def deriv(x):
        return (slice_fn(x + h / 2) - slice_fn(x - h / 2)) / h

    lo, hi = xs[k], xs[k + 2]
    if deriv(lo) * deriv(hi) > 0:
        return float(xs[k + 1])
    from scipy.optimize import brentq

    return float(brentq(deriv, lo, hi, xtol=1e-12))


def gain_thresholds(cfg: ArrayConfig) -> tuple[float, float]:
    """First stationary point of f along each error axis (vartheta = 1).

    Located by bracketed root-finding on the numerical derivative of the
    axis slice.  For the angle axis this is the main-lobe null, for the
    range axis the first smooth local minimum of the chirped sum.  Needs
    M >= 3: below, f is constant and has no stationary point to find.
    """
    if cfg.num_antennas < 3:
        raise ValueError("gain thresholds need num_antennas >= 3: below, the gain "
                         "surrogate is constant")
    # search out to a few main-lobe widths; both slices flatten well inside
    angle_hi = 12.0 / cfg.num_antennas
    eps_theta_th = _first_derivative_root(lambda e: f_gain(cfg, e, 0.0), angle_hi)
    n_half = (cfg.num_antennas - 1) // 2
    u_hi = 24.0 / (cfg.wavenumber * n_half**2 * cfg.spacing**2 / 2.0)
    eps_r_th = _first_derivative_root(lambda u: f_gain(cfg, 0.0, u), u_hi)
    return eps_theta_th, eps_r_th


def expected_gain_approx(cfg: ArrayConfig, mean_eps_theta: float, mean_u: float) -> float:
    "Decoupled expectation: the expected gain is f evaluated at the mean errors."
    if mean_eps_theta < 0 or mean_u < 0:
        raise ValueError("mean errors must be nonnegative")
    return float(f_gain(cfg, mean_eps_theta, mean_u))


def voronoi_cell_angle_error(samples, region: PolarRegion, i: int) -> float:
    """Conditional mean angle error on the i-th Voronoi cell (1-based index).

    Exact for interior cells under a uniform angle density; the two edge
    cells are approximations because the formula treats the region boundary
    like a sample midpoint.
    """
    samples = np.sort(np.asarray(samples, dtype=np.float64))
    n = len(samples)
    if not 1 <= i <= n:
        raise IndexError(f"cell index {i} outside 1..{n}")
    padded = np.concatenate([[region.theta_min], samples, [region.theta_max]])
    a = padded[i] - padded[i - 1]
    b = padded[i + 1] - padded[i]
    return float((a * a + b * b) / (4.0 * (a + b)))


def expected_angle_error(region: PolarRegion, p: int) -> float:
    "Mean minimum angle error of the uniform sampling set: span / (4 * 2^p)."
    if p < 0:
        raise ValueError("p must be >= 0")
    return region.angle_span / (4.0 * 2**p)


def cell_surrogate_error(a: float, b: float, c: float) -> float:
    "E|1/r - 1/c| for r uniform on [a, b] and a fixed representative c > 0."
    if not 0 < a < b:
        raise ValueError("need 0 < a < b")
    if c <= 0:
        raise ValueError("representative must be positive")
    if c <= a or c >= b:
        return abs(math.log(b / a) - (b - a) / c) / (b - a)
    return (math.log(c * c / (a * b)) + (a + b - 2 * c) / c) / (b - a)


def cell_range_error(a: float, b: float) -> float:
    """Minimal conditional inverse-range error of a cell, attained at the midpoint.

    Equals (2 / (b - a)) * ln((xi + 1/xi) / 2) with xi = sqrt(b/a).
    """
    if not 0 < a < b:
        raise ValueError("need 0 < a < b")
    xi = math.sqrt(b / a)
    return (2.0 / (b - a)) * math.log((xi + 1.0 / xi) / 2.0)


def geometric_cells(region: PolarRegion, q: int) -> np.ndarray:
    "Boundaries r_min * ratio^(i/2^q), i = 0..2^q, of the optimal partition."
    n = 2**q
    ratio = region.r_max / region.r_min
    return region.r_min * ratio ** (np.arange(n + 1) / n)


def expected_range_error(region: PolarRegion, q: int) -> float:
    """Mean surrogate inverse-range error of the geometric partition.

    (2^(q+1) / span) * ln((xi^(1/2^q) + xi^(-1/2^q)) / 2), xi = sqrt(r_max/r_min).
    """
    if q < 0:
        raise ValueError("q must be >= 0")
    n = 2**q
    xi = math.sqrt(region.r_max / region.r_min)
    t = xi ** (1.0 / n)
    return (2.0 * n / region.range_span) * math.log((t + 1.0 / t) / 2.0)


class SurrogateBound(NamedTuple):
    lhs: float
    rhs: float
    lhs_stderr: float


def surrogate_bound_check(region: PolarRegion, q: int, samples, boundaries=None,
                          n_mc: int = 200_000, seed=0) -> SurrogateBound:
    """Monte-Carlo E[min inverse-range error] vs the partition-sum surrogate.

    `boundaries` is an increasing array r_min = b_0 < ... < b_{2^q} = r_max
    assigning sample i to cell [b_{i-1}, b_i]; the default uses the
    inverse-metric Voronoi boundaries of the samples, for which the bound is
    tight.  The surrogate is an upper bound up to Monte-Carlo noise.
    """
    samples = np.sort(np.asarray(samples, dtype=np.float64))
    if len(samples) != 2**q:
        raise ValueError("need exactly 2^q samples")
    if boundaries is None:
        inner = 2.0 * samples[:-1] * samples[1:] / (samples[:-1] + samples[1:])
        boundaries = np.concatenate([[region.r_min], np.clip(inner, region.r_min, region.r_max),
                                     [region.r_max]])
    boundaries = np.asarray(boundaries, dtype=np.float64)
    rng = np.random.default_rng(seed)
    r = rng.uniform(region.r_min, region.r_max, n_mc)
    err = np.abs(1.0 / r[:, None] - 1.0 / samples[None, :]).min(axis=1)
    lhs, lhs_se = mean_stderr(err)
    rhs = 0.0
    for i in range(len(samples)):
        a, b = boundaries[i], boundaries[i + 1]
        if b <= a:
            continue
        rhs += cell_surrogate_error(a, b, float(samples[i])) * (b - a) / region.range_span
    return SurrogateBound(lhs, rhs, lhs_se)


def exact_angle_gain(cfg: ArrayConfig, eps_theta):
    "Full-array angle-mismatch gain |a^H(theta) a(theta + eps)|, range effects off."
    m = cfg.num_antennas
    eps_theta = np.asarray(eps_theta, dtype=np.float64)
    x = np.pi * eps_theta / 2.0
    num = np.sin(m * x)
    den = m * np.sin(x)
    out = np.abs(np.divide(num, den, out=np.ones_like(num), where=den != 0))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class CalibrationPoint:
    "Reference errors hitting gamma0 on each error axis at a reference array size."

    gamma0: float
    m0: int
    eps_theta_cal: float
    eps_r_cal: float


def calibrate(cfg: ArrayConfig, gamma0: float, region: PolarRegion,
              m0: int = 129) -> CalibrationPoint:
    """Solve for the per-axis reference errors at the reference array size.

    The angle axis is calibrated on the physical array pattern
    (:func:`exact_angle_gain`); the folded surrogate f doubles the apparent
    angle-lobe width and would bias the bit law a full bit low.  The range
    axis is calibrated on f, whose range behavior is accurate, with the mean
    vartheta of the region folded in: f(0, mean_vartheta * eps_r) = gamma0.
    """
    if not 0.0 < gamma0 < 1.0:
        raise ValueError("gamma0 must lie in (0, 1)")
    ref = cfg.with_antennas(m0)
    vt = mean_vartheta(region)
    _, u_hi = gain_thresholds(ref)

    def angle_eq(x):
        return float(exact_angle_gain(ref, x)) - gamma0

    def range_eq(x):
        return float(f_gain(ref, 0.0, vt * x)) - gamma0

    from scipy.optimize import brentq

    eps_theta = brentq(angle_eq, 0.0, 2.0 / m0 * (1 - 1e-9), xtol=1e-15)
    eps_r = brentq(range_eq, 0.0, u_hi / vt, xtol=1e-15)
    return CalibrationPoint(gamma0, m0, float(eps_theta), float(eps_r))


def required_angle_bits(m: int, gamma0: float, region: PolarRegion,
                        cal: CalibrationPoint) -> float:
    """Angle bits needed for the target gain: log2 of M * span / (4 M0 eps_cal).

    Inverts the mean-error law span / (4 * 2^p) under the matching condition
    M * mean_error = M0 * eps_cal; grows by exactly one bit per doubling of
    the array.  The span enters positively: wider angle regions need more
    samples for the same mean error.
    """
    if not math.isclose(gamma0, cal.gamma0, rel_tol=1e-12):
        raise ValueError("calibration point solved for a different gamma0")
    return (math.log2(m) + math.log2(region.angle_span)
            - math.log2(cal.m0 * cal.eps_theta_cal) - 2.0)


def required_range_bits(m: int, gamma0: float, region: PolarRegion,
                        cal: CalibrationPoint) -> float:
    """Range bits: 2 log2 M + log2(ln^2 xi / span) - log2(M0^2 eps_cal).

    Inverts the large-q asymptote ln^2(xi) / (span * 2^q) of
    :func:`expected_range_error` (xi = sqrt(r_max/r_min)) under the matching
    condition M^2 * mean_error = M0^2 * eps_cal; grows by exactly two bits
    per doubling of the array.
    """
    if not math.isclose(gamma0, cal.gamma0, rel_tol=1e-12):
        raise ValueError("calibration point solved for a different gamma0")
    xi = math.sqrt(region.r_max / region.r_min)
    return (2.0 * math.log2(m) + math.log2(math.log(xi) ** 2 / region.range_span)
            - math.log2(cal.m0**2 * cal.eps_r_cal))


def rate_gap_bound(gamma: float, snr: float, k_users: int, b2: int) -> float:
    """Upper bound on the per-user rate gap to perfect feedback, in bps/Hz.

    -2 log2(gamma) covers the analog gain shortfall; the second term covers
    residual interference from quantizing unit-norm effective-channel
    directions with 2^b2 random codewords.  `snr` is the total transmit
    power over the noise variance, linear.
    """
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must lie in (0, 1]")
    if k_users < 2:
        raise ValueError("interference bound needs k_users >= 2")
    dr1 = -2.0 * math.log2(gamma)
    dr2 = math.log2(1.0 + (snr / k_users) * 2.0 ** (-b2 / (k_users - 1)))
    return dr1 + dr2
