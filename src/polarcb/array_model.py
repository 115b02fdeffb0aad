"""Uniform linear XL-array geometry and near-field steering vectors.

A user (or scatterer) sits at spatial angle ``theta = sin(phi)`` and range
``r`` measured from the array center.  Steering vectors carry the per-antenna
propagation phase relative to the center element, either with the exact
spherical-wavefront distance or with its second-order (Fresnel) expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

SPEED_OF_LIGHT = 299_792_458.0
"Speed of light in m/s."

MAX_APERTURE = 2.0**450
"Largest aperture, in m, of an ArrayConfig: its path differences never overflow."

_PLANE_WAVE_RANGE = 2.0**510
"""Ranges beyond which `_phase_diff_exact` takes the plane-wave difference.  Below it,
r^2 and the terms it meets stay finite for any aperture below MAX_APERTURE; beyond it,
r^2 could overflow, and the spherical correction, below d^2 / r < 2^-60 d, lies far
beneath the float64 rounding of k d theta."""


@dataclass(frozen=True)
class ArrayConfig:
    """Geometry of a symmetric uniform linear array.

    Exactly one of ``wavelength`` / ``carrier_frequency`` may be omitted; the
    other is derived.  ``spacing`` defaults to half a wavelength.
    """

    num_antennas: int
    wavelength: float | None = None
    carrier_frequency: float | None = None
    spacing: float | None = None

    def __post_init__(self):
        # odd counts give an on-element phase center; even counts are accepted
        # (half-integer offsets) so arrays can be doubled in sweeps
        if self.num_antennas < 1:
            raise ValueError("num_antennas must be a positive integer")
        if self.wavelength is None and self.carrier_frequency is None:
            raise ValueError("give wavelength or carrier_frequency")
        if not all(x is None or x > 0 for x in (self.wavelength, self.carrier_frequency)):
            raise ValueError("wavelength and carrier_frequency must be positive")
        if self.wavelength is None:
            object.__setattr__(self, "wavelength", SPEED_OF_LIGHT / self.carrier_frequency)
        elif self.carrier_frequency is None:
            object.__setattr__(self, "carrier_frequency", SPEED_OF_LIGHT / self.wavelength)
        elif not math.isclose(self.wavelength * self.carrier_frequency, SPEED_OF_LIGHT, rel_tol=1e-6):
            raise ValueError("wavelength and carrier_frequency disagree")
        if self.spacing is None:
            object.__setattr__(self, "spacing", self.wavelength / 2)
        if self.spacing <= 0:
            raise ValueError("spacing must be positive")
        if not self.aperture < MAX_APERTURE:
            raise ValueError(f"aperture {self.aperture:g} m must be below {MAX_APERTURE:g} m: "
                             f"beyond, path differences overflow")

    @property
    def aperture(self) -> float:
        "Physical array size D = (M - 1) * spacing."
        return (self.num_antennas - 1) * self.spacing

    @property
    def rayleigh_distance(self) -> float:
        "Near-field boundary 2 D^2 / wavelength."
        return 2.0 * self.aperture**2 / self.wavelength

    @property
    def wavenumber(self) -> float:
        return 2.0 * np.pi / self.wavelength

    def with_antennas(self, num_antennas: int) -> "ArrayConfig":
        "Same carrier and element spacing with a different element count."
        return ArrayConfig(num_antennas, wavelength=self.wavelength, spacing=self.spacing)


@dataclass(frozen=True)
class PolarCoord:
    "Location in the polar domain: spatial angle theta = sin(phi) and range in meters."

    theta: float
    r: float

    def __post_init__(self):
        if not -1.0 <= self.theta <= 1.0:
            raise ValueError("spatial angle must lie in [-1, 1]")
        if not self.r > 0:
            raise ValueError("range must be positive")


@dataclass(frozen=True)
class PolarRegion:
    "Bounded polar service region [theta_min, theta_max] x [r_min, r_max]."

    theta_min: float
    theta_max: float
    r_min: float
    r_max: float

    def __post_init__(self):
        if not (-1.0 <= self.theta_min < self.theta_max <= 1.0):
            raise ValueError("need -1 <= theta_min < theta_max <= 1")
        if not (0.0 < self.r_min < self.r_max):
            raise ValueError("need 0 < r_min < r_max")

    @property
    def angle_span(self) -> float:
        return self.theta_max - self.theta_min

    @property
    def range_span(self) -> float:
        return self.r_max - self.r_min

    def contains(self, theta, r) -> NDArray[np.bool_]:
        theta = np.asarray(theta)
        r = np.asarray(r)
        return ((theta >= self.theta_min) & (theta <= self.theta_max)
                & (r >= self.r_min) & (r <= self.r_max))


def antenna_offsets(cfg: ArrayConfig) -> NDArray[np.float64]:
    "Dimensionless element offsets m - (M-1)/2, symmetric about the center element."
    return np.arange(cfg.num_antennas, dtype=np.float64) - (cfg.num_antennas - 1) / 2


def _phase_diff_exact(cfg: ArrayConfig, theta, r):
    """Per-antenna path difference r^(m) - r for the spherical wavefront.

    Uses (r^(m))^2 - r^2 = (delta*d0)^2 - 2 r theta delta*d0 divided by
    r^(m) + r, which stays accurate for r far beyond the aperture.
    Ranges beyond `_PLANE_WAVE_RANGE` take the plane-wave difference
    -delta*d0*theta, evaluated only when some range is that far.  The result
    is built in place in one (..., M) array beside one temporary of its shape.
    """
    d = antenna_offsets(cfg) * cfg.spacing
    theta = np.asarray(theta, dtype=np.float64)[..., None]
    r = np.asarray(r, dtype=np.float64)[..., None]
    far = r > _PLANE_WAVE_RANGE
    if far.all():
        shape = np.broadcast_shapes(theta.shape, r.shape)[:-1] + d.shape
        return np.multiply(-d, theta, out=np.empty(shape))
    any_far = far.any()
    if any_far:
        r = np.where(far, 1.0, r)
    diff = 2.0 * r * theta * d
    np.subtract(d**2, diff, out=diff)
    root = r**2 + diff
    np.sqrt(root, out=root)
    root += r
    diff /= root
    if any_far:
        np.copyto(diff, -d * theta, where=far)
    return diff


def _phase_diff_fresnel(cfg: ArrayConfig, theta, r):
    "Second-order expansion -delta*d0*theta + (delta*d0)^2 (1-theta^2) / (2r)."
    d = antenna_offsets(cfg) * cfg.spacing
    theta = np.asarray(theta, dtype=np.float64)[..., None]
    r = np.asarray(r, dtype=np.float64)[..., None]
    inv_r = np.where(np.isinf(r), 0.0, 1.0 / r)
    return -d * theta + d**2 * (1.0 - theta**2) * inv_r / 2.0


def _steering_from_diff(cfg: ArrayConfig, diff) -> NDArray[np.complex128]:
    """Unit-norm steering rows exp(-i k diff) / sqrt(M) from per-antenna path differences.

    Built in place in the complex result; the phase is 0 - k diff, so a zero
    path difference gives the phase +0, and its entry the imaginary part +0.
    """
    diff = np.asarray(diff, dtype=np.float64)
    cw = np.empty(diff.shape, np.complex128)
    cw.real = 0.0
    np.multiply(diff, cfg.wavenumber, out=cw.imag)
    np.subtract(0.0, cw.imag, out=cw.imag)
    np.exp(cw, out=cw)
    cw /= np.sqrt(cfg.num_antennas)
    return cw


def steering_matrix_exact(cfg: ArrayConfig, theta, r) -> NDArray[np.complex128]:
    """Rows of unit-norm steering vectors at the given (theta, r) points.

    ``theta`` and ``r`` broadcast to a common leading shape; the trailing
    axis is the antenna index.  ``r = inf`` yields the far-field response.
    """
    return _steering_from_diff(cfg, _phase_diff_exact(cfg, theta, r))


def steering_matrix_fresnel(cfg: ArrayConfig, theta, r) -> NDArray[np.complex128]:
    "Fresnel-approximated counterpart of :func:`steering_matrix_exact`."
    return _steering_from_diff(cfg, _phase_diff_fresnel(cfg, theta, r))


def steering_vector_exact(cfg: ArrayConfig, p: PolarCoord) -> NDArray[np.complex128]:
    "Exact spherical-wavefront steering vector at a single point."
    return steering_matrix_exact(cfg, p.theta, p.r)


def steering_vector_fresnel(cfg: ArrayConfig, p: PolarCoord) -> NDArray[np.complex128]:
    "Fresnel-approximated steering vector at a single point."
    return steering_matrix_fresnel(cfg, p.theta, p.r)


def far_field_vector(cfg: ArrayConfig, theta: float) -> NDArray[np.complex128]:
    "Plane-wave (DFT) response, the r -> inf limit of both steering models."
    return steering_matrix_exact(cfg, theta, np.inf)


def beamforming_gain(a: NDArray[np.complex128], b: NDArray[np.complex128]) -> float:
    "|a^H b| between two equal-length vectors."
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    return float(abs(np.vdot(a, b)))
