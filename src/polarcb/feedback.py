"""Three-phase limited-feedback protocol: codeword selection, RVQ effective-channel
quantization, zero-forcing digital beamforming and per-user rates."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .array_model import ArrayConfig, steering_matrix_exact
from .channels import ChannelRealization, effective_channel
from .codebooks import PolarCodebook, grid_codewords
from .parallel import available_cpus, ordered_map


class ZFSingularError(RuntimeError):
    "Effective channel matrix too ill-conditioned for zero forcing."


MAX_ZF_CONDITION = 1e8


SCAN_CHUNK = 1024
"""Codewords per phase-1 scan job.  Fixed, so chunk boundaries, and with them
the selected indices and gains, do not depend on the number of CPUs."""


def best_codeword_scan(cfg: ArrayConfig, vectors: np.ndarray, angle_samples: np.ndarray,
                       range_samples: np.ndarray, block: int = 4096):
    """Exhaustive |v^H b| scan over an angle x range codeword grid.

    `vectors` is (n, M); returns (best gain, best flat index) per row with
    flat index i * len(range_samples) + j and ties resolved to the lowest
    index.  The flat index range is cut into chunks of min(block, SCAN_CHUNK)
    codewords, whatever the ring structure; each chunk costs one build, one
    product and one argmax, and yields only its per-row maximum.  Chunks run
    on up to block // chunk threads, one per available CPU (numpy's ufuncs
    and BLAS release the GIL), so at most `block` codewords are in flight.
    Chunk results are merged in increasing flat order with a strict
    improvement test, and argmax returns the first maximum, so the lowest
    index wins ties whatever the thread count.
    """
    vectors = np.atleast_2d(vectors)
    n = vectors.shape[0]
    total = len(angle_samples) * len(range_samples)
    chunk = min(block, SCAN_CHUNK)
    starts = range(0, total, chunk)
    rows = np.arange(n)

    def score(start):
        cw = grid_codewords(cfg, angle_samples, range_samples, start,
                            min(start + chunk, total))
        g = np.abs(vectors @ cw.conj().T)
        k = np.argmax(g, axis=1)
        return g[rows, k], start + k

    best = np.full(n, -1.0)
    best_idx = np.zeros(n, dtype=np.int64)
    workers = min(available_cpus(), block // chunk, len(starts))
    for gm, flat in ordered_map(score, starts, workers):
        better = gm > best
        best[better] = gm[better]
        best_idx[better] = flat[better]
    return best, best_idx


def phase1_select(h, cb: PolarCodebook) -> tuple[int, float]:
    """Best analog codeword for one channel: argmax |h^H b| over the codebook.

    Returns the flat codeword index and the achieved normalized gain
    |h^H b| / ||h||.  Ties go to the lowest index.
    """
    vec = h.vector if isinstance(h, ChannelRealization) else np.asarray(h)
    norm = np.linalg.norm(vec)
    if len(cb) == 0:
        raise ValueError("empty codebook")
    if norm == 0:
        raise ValueError("zero channel")
    gain, idx = best_codeword_scan(cb.cfg, vec[None, :], cb.angle_samples,
                                   cb.range_samples)
    return int(idx[0]), float(gain[0] / norm)


@dataclass(frozen=True, eq=False)
class RVQCodebook:
    "2^b2 random unit-norm codewords quantizing effective-channel directions."

    codewords: np.ndarray
    mode: str
    seed: object


def rvq_generate(k_users: int, b2: int, mode: str = "isotropic", seed=0,
                 direction_sampler=None) -> RVQCodebook:
    """Random vector quantization codebook of 2^b2 unit-norm K-vectors.

    `isotropic` draws i.i.d. complex Gaussian directions.  `matched` draws
    codewords from `direction_sampler(count, rng)`, which should return
    directions distributed like the effective channels being quantized.
    """
    if b2 < 0:
        raise ValueError("b2 must be >= 0")
    rng = np.random.default_rng(seed)
    n = 2**b2
    if mode == "isotropic":
        cw = rng.standard_normal((n, k_users)) + 1j * rng.standard_normal((n, k_users))
    elif mode == "matched":
        if direction_sampler is None:
            raise ValueError("matched mode needs a direction_sampler")
        cw = np.asarray(direction_sampler(n, rng), dtype=np.complex128)
        if cw.shape != (n, k_users):
            raise ValueError("direction_sampler returned wrong shape")
    else:
        raise ValueError(f"unknown RVQ mode '{mode}'")
    cw = cw / np.linalg.norm(cw, axis=1, keepdims=True)
    return RVQCodebook(cw, mode, seed)


def phase2_select(g: np.ndarray, cb: RVQCodebook) -> tuple[int, np.ndarray]:
    "Codeword maximizing |g^H b|^2; returns (index, codeword). Ties pick the lowest index."
    g = np.asarray(g)
    if np.linalg.norm(g) == 0:
        raise ValueError("zero effective channel")
    idx = int(np.argmax(np.abs(cb.codewords @ g.conj()) ** 2))
    return idx, cb.codewords[idx]


def zf_beamformer(ghat: np.ndarray) -> np.ndarray:
    """Zero-forcing digital beamformer for a row-stacked effective channel.

    `ghat` holds one quantized effective-channel row g_k^H per user; the
    returned matrix has unit-norm columns with ghat @ F diagonal, so user v
    sees none of user k's stream for v != k.
    """
    ghat = np.asarray(ghat)
    k = ghat.shape[0]
    if ghat.shape != (k, k):
        raise ValueError("effective channel matrix must be square")
    if np.linalg.cond(ghat) > MAX_ZF_CONDITION:
        raise ZFSingularError("effective channel matrix is rank deficient")
    f = np.linalg.pinv(ghat)
    return f / np.linalg.norm(f, axis=0, keepdims=True)


def user_rate(h, f_rf: np.ndarray, f_bb: np.ndarray, k: int, p_total: float,
              noise_var: float) -> float:
    "Achievable rate of user k in bps/Hz under equal power allocation."
    vec = h.vector if isinstance(h, ChannelRealization) else np.asarray(h)
    n_users = f_bb.shape[1]
    rx = vec.conj() @ f_rf @ f_bb
    p_share = p_total / n_users
    sig = p_share * abs(rx[k]) ** 2
    interf = p_share * (np.abs(rx) ** 2).sum() - sig
    return float(np.log2(1.0 + sig / (interf + noise_var)))


@dataclass(frozen=True, eq=False)
class FeedbackOutcome:
    "Everything the protocol produced for one drop of users."

    phase1_indices: np.ndarray
    f_rf: np.ndarray
    ghat: np.ndarray
    f_bb: np.ndarray
    rates: np.ndarray

    @property
    def sum_rate(self) -> float:
        return float(self.rates.sum())


def run_protocol(cfg: ArrayConfig, users, cb1: PolarCodebook | None, cb2: RVQCodebook | None,
                 p_total: float, noise_var: float, full_csi: bool = False) -> FeedbackOutcome:
    """Run the three feedback phases for one set of user channels.

    Phase 1 picks each user's analog codeword (or, under `full_csi`, aims an
    exact steering vector at the user's first path).  Phase 2 quantizes the
    direction of each exact effective-channel row with the RVQ codebook
    (skipped under `full_csi`).  Zero forcing then runs on the reconstructed
    rows, each user's digital column is rescaled so the hybrid beamformer
    carries unit power, and rates are evaluated against the true channels.
    """
    users = list(users)
    k_users = len(users)
    if k_users < 1:
        raise ValueError("need at least one user")
    if full_csi:
        coords = [u.paths[0].coord for u in users]
        f_rf = steering_matrix_exact(cfg, np.array([c.theta for c in coords]),
                                     np.array([c.r for c in coords])).T
        idx = np.full(k_users, -1, dtype=np.int64)
    else:
        vecs = np.array([u.vector for u in users])
        _, idx = best_codeword_scan(cfg, vecs, cb1.angle_samples, cb1.range_samples)
        f_rf = steering_matrix_exact(cfg, *cb1.locations(idx)).T

    g = effective_channel(users, f_rf)
    if full_csi:
        ghat = g
    else:
        ghat = np.array([phase2_select(g[k].conj(), cb2)[1].conj() for k in range(k_users)])
    f_bb = zf_beamformer(ghat)
    scale = np.linalg.norm(f_rf @ f_bb, axis=0, keepdims=True)
    f_bb = f_bb / scale

    rates = np.array([user_rate(users[k], f_rf, f_bb, k, p_total, noise_var)
                      for k in range(k_users)])
    return FeedbackOutcome(idx, f_rf, ghat, f_bb, rates)


def multipath_feedback(cfg: ArrayConfig, h: ChannelRealization, cb1: PolarCodebook,
                       gain_cb: RVQCodebook) -> tuple[np.ndarray, float]:
    """Per-path parametric feedback for multi-path channels.

    Each path's angle is quantized to the nearest angle sample, its range to
    the nearest sample in inverse range, and the stacked complex path-gain
    vector to the best RVQ direction (true magnitude retained).  Returns the
    reconstructed channel and its normalized correlation with the truth.
    """
    thetas = np.array([p.coord.theta for p in h.paths])
    ranges = np.array([p.coord.r for p in h.paths])
    gains = np.array([p.gain for p in h.paths], dtype=np.complex128)

    ai = np.abs(thetas[:, None] - cb1.angle_samples[None, :]).argmin(axis=1)
    inv_samples = np.where(np.isinf(cb1.range_samples), 0.0, 1.0 / cb1.range_samples)
    ri = np.abs(1.0 / ranges[:, None] - inv_samples[None, :]).argmin(axis=1)

    _, direction = phase2_select(gains, gain_cb)
    phase = np.vdot(direction, gains)
    phase = phase / abs(phase) if abs(phase) > 0 else 1.0
    gains_hat = np.linalg.norm(gains) * direction * phase

    steer = steering_matrix_exact(cfg, cb1.angle_samples[ai], cb1.range_samples[ri])
    h_hat = np.sqrt(cfg.num_antennas) * (gains_hat[:, None] * steer).sum(axis=0)
    corr = abs(np.vdot(h_hat, h.vector)) / (np.linalg.norm(h_hat) * np.linalg.norm(h.vector))
    return h_hat, float(corr)
