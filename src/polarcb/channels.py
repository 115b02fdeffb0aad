"""Near-field channel generation and effective channels after analog beamforming."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .array_model import ArrayConfig, PolarCoord, steering_matrix_exact


@dataclass(frozen=True)
class PathParam:
    coord: PolarCoord
    gain: complex


@dataclass(frozen=True)
class ChannelRealization:
    "Channel vector sqrt(M) * sum_l gain_l * a(coord_l) together with its paths."

    vector: np.ndarray
    paths: tuple[PathParam, ...]

    def __post_init__(self):
        object.__setattr__(self, "paths", tuple(self.paths))


def channel_vectors(cfg: ArrayConfig, thetas, ranges, gains) -> np.ndarray:
    """Channel vectors sqrt(M) * sum_l gains[..., l] * a(thetas[..., l], ranges[..., l]).

    The path axis is the last axis of the (..., L) inputs; the result is
    (..., M).  Each row's bits do not depend on how many rows share a call.
    """
    steer = steering_matrix_exact(cfg, thetas, ranges)
    return np.sqrt(cfg.num_antennas) * (np.asarray(gains)[..., None] * steer).sum(axis=-2)


def _assemble(cfg: ArrayConfig, paths) -> ChannelRealization:
    thetas = np.array([p.coord.theta for p in paths])
    ranges = np.array([p.coord.r for p in paths])
    gains = np.array([p.gain for p in paths], dtype=np.complex128)
    return ChannelRealization(channel_vectors(cfg, thetas, ranges, gains), tuple(paths))


def los_channel(cfg: ArrayConfig, coord: PolarCoord, beta: complex = 1.0) -> ChannelRealization:
    "Single-path channel sqrt(M) * beta * a(theta, r)."
    return _assemble(cfg, [PathParam(coord, complex(beta))])


def rician_path_gains(kappa_db: float, n_scatter: int, rng) -> np.ndarray:
    """Line-of-sight gain sqrt(kappa/(1+kappa)) (kappa linear), then n_scatter Gaussian gains.

    Each scatter gain is CN(0, (1/(1+kappa))/n_scatter), so the total mean
    power is 1 for any kappa and path count; `rng` is only drawn from when
    n_scatter > 0.
    """
    kappa = 10.0 ** (kappa_db / 10.0)
    los = np.array([np.sqrt(kappa / (1.0 + kappa))], dtype=np.complex128)
    if not n_scatter:
        return los
    scatter = _gaussian_gains(rng, n_scatter, (1.0 / (1.0 + kappa)) / n_scatter)
    return np.concatenate([los, scatter])


def equal_path_gains(n_paths: int, rng) -> np.ndarray:
    "n_paths gains CN(0, 1/n_paths), for the non-dominant-path scenario."
    return _gaussian_gains(rng, n_paths, 1.0 / n_paths)


def _gaussian_gains(rng, count: int, variance: float) -> np.ndarray:
    return rng.standard_normal((count, 2)) @ np.array([1.0, 1.0j]) * np.sqrt(variance / 2)


def multipath_channel(cfg: ArrayConfig, user: PolarCoord, scatterers, kappa_db: float,
                      seed) -> ChannelRealization:
    "Rician-style channel: the user's line-of-sight path plus scatter paths (`rician_path_gains`)."
    coords = [user, *scatterers]
    gains = rician_path_gains(kappa_db, len(coords) - 1, np.random.default_rng(seed))
    return _assemble(cfg, [PathParam(c, complex(g)) for c, g in zip(coords, gains)])


def multipath_channel_equal(cfg: ArrayConfig, paths, seed) -> ChannelRealization:
    "All path gains CN(0, 1/L) (`equal_path_gains`)."
    coords = list(paths)
    if not coords:
        raise ValueError("need at least one path")
    gains = equal_path_gains(len(coords), np.random.default_rng(seed))
    return _assemble(cfg, [PathParam(c, complex(g)) for c, g in zip(coords, gains)])


@dataclass(frozen=True, eq=False)
class ChannelArrays:
    """N channels as arrays, without per-channel objects.

    Row n has the paths (thetas[n, l], ranges[n, l], gains[n, l]), path 0
    being the user's own location, and the vector vectors[n].
    """

    thetas: np.ndarray   # (N, L)
    ranges: np.ndarray   # (N, L)
    gains: np.ndarray    # (N, L) complex
    vectors: np.ndarray  # (N, M) complex

    @classmethod
    def of(cls, channels) -> "ChannelArrays":
        "The arrays of equal-path-count `ChannelRealization`s."
        paths = [ch.paths for ch in channels]
        return cls(np.array([[p.coord.theta for p in ps] for ps in paths]),
                   np.array([[p.coord.r for p in ps] for ps in paths]),
                   np.array([[p.gain for p in ps] for ps in paths], dtype=np.complex128),
                   np.array([ch.vector for ch in channels]))


def effective_channel(channels, f_rf: np.ndarray) -> np.ndarray:
    "Rows h_k^H F_RF of the K x K effective channel matrix."
    vecs = np.array([ch.vector if isinstance(ch, ChannelRealization) else ch
                     for ch in channels])
    if f_rf.shape[1] != len(vecs):
        raise ValueError("F_RF must have one column per user")
    if f_rf.shape[0] != vecs.shape[1]:
        raise ValueError("F_RF row count must match antenna count")
    return vecs.conj() @ f_rf
