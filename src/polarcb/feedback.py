"""Three-phase limited-feedback protocol: codeword selection, RVQ effective-channel
quantization, zero-forcing digital beamforming and per-user rates."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .array_model import ArrayConfig, antenna_offsets, steering_matrix_exact
from .channels import ChannelRealization
from .codebooks import PolarCodebook, grid_locations, grid_phase_diff
from .parallel import available_cpus, thread_map


class ZFSingularError(RuntimeError):
    "Effective channel matrix too ill-conditioned for zero forcing."


MAX_ZF_CONDITION = 1e8


SCAN_CHUNK = 1024
"""Codewords per phase-1 scan job, and (row, codeword) pairs per rescoring step.
Fixed, so chunk boundaries, and with them the selected indices and gains, do
not depend on the number of CPUs."""

_U32 = 2.0**-24
"Unit roundoff of float32."

_TRIG_ERR = 2.0
"""Bound, in units of _U32, on the absolute error of numpy's float32 cos and sin
on [-pi, pi].  Checked against float64 on every float32 in [-pi, pi]: at most
1.19 for cos and 1.07 for sin (numpy 2.4, x86-64)."""

_EPS_TRIG = (np.pi + np.sqrt(2.0) * _TRIG_ERR + 1.0) * _U32
"Bound on |c'_i - c_i| per entry of a bulk codeword; see `_bulk_error_bound`."

_TWO_PI = 2.0 * np.pi


def _bulk_conj_codewords(cfg: ArrayConfig, angle_samples, range_samples, start: int,
                         stop: int) -> np.ndarray:
    """Complex64 stand-ins for sqrt(M) * conj(grid_codewords(...)), unit-modulus entries.

    The phase k (r^(m) - r) is formed in float64 exactly as the float64 build
    forms it, reduced to [-pi, pi] in float64, and only then cast to float32,
    so the float32 cos and sin see a phase whose cast costs at most pi * u.
    """
    phase = grid_phase_diff(cfg, angle_samples, range_samples, start, stop)
    phase *= cfg.wavenumber
    turns = np.multiply(phase, 1.0 / _TWO_PI)
    np.rint(turns, out=turns)
    turns *= _TWO_PI
    phase -= turns
    phase32 = phase.astype(np.float32)
    cw = np.empty(phase32.shape, np.complex64)
    np.cos(phase32, out=cw.real)
    np.sin(phase32, out=cw.imag)
    return cw


def _bulk_scores(rows32: np.ndarray, cw32: np.ndarray) -> np.ndarray:
    "Bulk scores |v^H b| * sqrt(M) of complex64 rows against `_bulk_conj_codewords`, in float64."
    return np.abs((rows32 @ cw32.T).astype(np.complex128))


def _pow2_scaled(vectors: np.ndarray) -> np.ndarray:
    "Rows scaled by powers of two (exactly) so that their largest entry modulus lies in [1/2, 1)."
    peak = np.abs(vectors).max(axis=1)
    return vectors * np.ldexp(1.0, -np.frexp(peak)[1])[:, None]


def _bulk_error_bound(cfg: ArrayConfig, rows: np.ndarray) -> np.ndarray:
    """Per-row bound E on |bulk score - sqrt(M) * float64 gain|, for any codeword.

    `rows` come from `_pow2_scaled`, so their largest entry modulus lies in
    [1/2, 1).  The bulk pass scores their complex64 casts v' against the
    codewords c' of `_bulk_conj_codewords`; the float64 gain is |v^H b| with
    b = c / sqrt(M) from `steering_matrix_exact`.  With u = 2^-24 and
    gamma_n = n u / (1 - n u), for M below 10^6:

    - Product (sqrt(2) gamma_{2M+2}).  The real and the imaginary part of
      v'^T c' are each a sum of 2M real products; in any summation order,
      with or without fused multiply-adds, each part is off by at most
      gamma_{2M} sum_i |v'_i| |c'_i| (Higham, Accuracy and Stability of
      Numerical Algorithms, section 3.1; Cauchy-Schwarz bounds the two real
      products in a part by |v'_i| |c'_i|), so the complex result by
      sqrt(2) gamma_{2M} sum_i |v'_i| |c'_i| <= sqrt(2) gamma_{2M} (1 + u)
      (1 + eps_trig) ||v|| sqrt(M).  Two extra roundings in the index absorb
      the factors (1 + u)(1 + eps_trig).  The form gamma_{M+2} would assume
      each complex product is rounded as one complex operation, which a
      BLAS kernel need not do.
    - Cast of v (eps_cast = 2u).  Each entry of v' is v_i (1 + d), |d| <= u,
      so |(v' - v)^T c'| <= u ||v|| ||c'||.  The second u covers every float64
      rounding: the modulus of the complex64 result, the rescoring sum,
      the subtraction that forms the survivor threshold, and gradual
      underflow in float32 (at most 4M 2^-150 per part, below 2^-100 ||v||
      after the scaling).
    - Codewords (eps_trig = (pi + 2 sqrt(2) + 1) u).  The reduced phase has
      |psi| <= pi (up to float64 rounding), so casting it to float32 moves it by at most pi u, which
      moves e^{i psi} by as much; cos and sin add at most _TRIG_ERR u each,
      so sqrt(2) _TRIG_ERR u to the entry; the last u covers the float64
      reduction (about 2^-50 |phase|, phases below 2^20 rad) and the float64
      cos, sin and 1 / sqrt(M) of `steering_matrix_exact`.  Summed over the
      entries, |v^T (c' - c)| <= eps_trig ||v|| sqrt(M).

    E = ||v|| sqrt(M) (sqrt(2) gamma_{2M+2} + eps_cast + eps_trig).
    """
    n = 2 * cfg.num_antennas + 2
    gamma = n * _U32 / (1.0 - n * _U32)
    rel = np.sqrt(2.0) * gamma + 2.0 * _U32 + _EPS_TRIG
    return np.linalg.norm(rows, axis=1) * np.sqrt(cfg.num_antennas) * rel


_MAX_RADIUS = 0.5
"""Largest radius, in units of a codeword's norm, of the angle clusters of the
phase-1 scan (see `_cluster_size`)."""


def _angle_clusters(cfg: ArrayConfig, angle_samples, group: int):
    """Representative angle index and radius of each cluster of `group` adjacent angle samples.

    Cluster c holds angle samples c * group ... (c + 1) * group - 1 (the last
    one may hold fewer); its representative is its middle member.  At any one
    range sample every member codeword b_i lies within the radius of the
    representative's b_rep.  With (r^(m))^2 = (d_m - r theta)^2 + r^2 (1 - theta^2),
    |d r^(m) / d theta| = r |d_m| / r^(m) <= |d_m| / sqrt(1 - theta^2) (the
    plane wave's |d_m| too), and |e^{ix} - 1| <= |x|, so

        ||b_i - b_rep|| <= k |theta_i - theta_rep| rms_m(|d_m|) / sqrt(1 - theta*^2)

    with theta* the largest |theta| in the cluster.  The radius is that bound,
    raised by a relative 2^-20 and an absolute 2^-24: that covers its own
    float64 rounding, the rounding of the float64 codewords' phases (their
    entries are exact to far better than 2^-25 for phases below 2^20 rad) and
    of the float64 sum the radius term enters.  A cluster with
    |theta*| >= 1 has an infinite radius.
    """
    theta = np.asarray(angle_samples, dtype=np.float64)
    starts = np.arange(0, len(theta), group)
    sizes = np.minimum(group, len(theta) - starts)
    rep = starts + sizes // 2
    spread = np.maximum.reduceat(np.abs(theta - np.repeat(theta[rep], sizes)), starts)
    peak = np.maximum.reduceat(np.abs(theta), starts)
    slope = cfg.wavenumber * np.sqrt(np.mean((antenna_offsets(cfg) * cfg.spacing) ** 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        radius = slope * spread / np.sqrt(1.0 - peak**2)
    return rep, np.where(peak < 1.0, radius * (1.0 + 2.0**-20) + 2.0**-24, np.inf)


def _cluster_size(cfg: ArrayConfig, angle_samples) -> int:
    """Angle samples per cluster of the phase-1 scan.

    The largest power of two whose clusters (`_angle_clusters`) all have a
    radius of at most `_MAX_RADIUS`, or 1 (every codeword its own cluster).
    """
    group = 1
    while (2 * group <= len(angle_samples)
           and _angle_clusters(cfg, angle_samples, 2 * group)[1].max() <= _MAX_RADIUS):
        group *= 2
    return group


def _rescore(cfg: ArrayConfig, vectors: np.ndarray, angle_samples, range_samples,
             rows: np.ndarray, flats: np.ndarray) -> np.ndarray:
    """Float64 gains |v^H b| of (row, flat index) pairs.

    Each distinct codeword is built once with `steering_matrix_exact`; each
    pair is reduced by an elementwise product and a numpy sum, whose order
    depends on M alone, so a pair's gain does not depend on BLAS, threads or
    which other pairs are rescored with it.
    """
    uniq, inv = np.unique(flats, return_inverse=True)
    cw = steering_matrix_exact(cfg, *grid_locations(angle_samples, range_samples, uniq))
    np.conjugate(cw, out=cw)
    prod = cw[inv]
    prod *= vectors[rows]
    return np.abs(prod.sum(axis=1))


def best_codeword_scan(cfg: ArrayConfig, vectors: np.ndarray, angle_samples: np.ndarray,
                       range_samples: np.ndarray, block: int = 4096):
    """Exhaustive |v^H b| scan over an angle x range codeword grid.

    `vectors` is (n, M); returns (best gain, best flat index) per row with
    flat index i * len(range_samples) + j and ties resolved to the lowest
    index.  The result is that of scoring every codeword in float64 with
    `_rescore`; an all-zero row gets gain 0 at index 0.

    The bulk passes score in complex64.  Each row is scaled by a power of two
    and cast; every bulk score is within E (`_bulk_error_bound`) of sqrt(M)
    times the codeword's float64 gain.  Codewords are grouped into clusters
    of G adjacent angle samples at one range sample (`_cluster_size`), each
    with a representative and a radius rho (`_angle_clusters`), so no member
    scores above its representative's exact score plus ||v|| sqrt(M) rho.

    Pass A (only when G > 1) scores the representatives and keeps each
    row's best bulk score `top`.  Pass B cuts the flat index range into
    chunks of min(block, SCAN_CHUNK) codewords, whatever the ring structure.
    A chunk rescores the representatives of its clusters and keeps, per row,
    the clusters with s_rep + ||v|| sqrt(M) rho >= top - 2E; a row that keeps
    none of them cannot reach its float64 maximum in the chunk.  The chunk
    builds its codewords only if some row keeps one of its clusters, scores
    them against those rows with one complex64 product, and keeps, per row,
    each codeword within 2E of the best of `top` and the chunk's best.  The
    main thread takes the chunks in flat order and drops, as each arrives,
    its codewords more than 2E below the row's best bulk score so far, and
    once every chunk is in, those more than 2E below the final best.  A
    codeword whose float64 gain equals the row's maximum scores within E of
    it, and no bulk score exceeds it by more than E, so all of them survive.
    With G = 1 there is no pass A and every row meets every chunk.  Both
    passes run on up to block // chunk threads, one per available CPU
    (numpy's ufuncs and BLAS release the GIL); a job builds at most `chunk`
    codewords at a time, so at most `block` are in flight.

    Pass C rescores the surviving (row, codeword) pairs in float64, in flat
    order, in steps of at most min(block, SCAN_CHUNK) pairs on the same
    threads, and keeps per row the largest gain, the lowest flat index among
    equal gains.  Which pairs survive may vary with BLAS's summation order,
    but neither the gain of a pair nor the set of pairs reaching the maximum,
    so results depend neither on the number of CPUs nor on BLAS's thread
    count.
    """
    vectors = np.atleast_2d(vectors)
    n = vectors.shape[0]
    nq = len(range_samples)
    total = len(angle_samples) * nq
    chunk = min(block, SCAN_CHUNK)
    starts = range(0, total, chunk)
    best = np.zeros(n)
    best_idx = np.zeros(n, dtype=np.int64)

    live = np.flatnonzero(np.abs(vectors).max(axis=1) > 0)
    scaled = _pow2_scaled(vectors[live])
    margin = 2.0 * _bulk_error_bound(cfg, scaled)
    rows32 = scaled.astype(np.complex64)
    everyone = np.arange(len(live))

    group = _cluster_size(cfg, angle_samples)
    rep, radius = _angle_clusters(cfg, angle_samples, group)
    rep_angles = np.asarray(angle_samples)[rep]
    reach = np.linalg.norm(scaled, axis=1) * np.sqrt(cfg.num_antennas)

    def rep_scores(lo, hi):
        "Bulk scores of every row against representatives lo..hi-1 of the (cluster, ring) grid."
        return _bulk_scores(rows32, _bulk_conj_codewords(cfg, rep_angles, range_samples, lo, hi))

    def rows_keeping(start, stop):
        "The rows that keep a cluster with a member among codewords start..stop-1."
        angle, ring = np.divmod(np.arange(start, stop), nq)
        reps = np.unique(angle // group * nq + ring)
        keeps = np.zeros(len(live), dtype=bool)
        for part in np.split(reps, np.flatnonzero(np.diff(reps // chunk)) + 1):
            s = rep_scores(part[0], part[-1] + 1)[:, part - part[0]]
            s += reach[:, None] * radius[part // nq]
            keeps |= (s >= floor[:, None]).any(axis=1)
        return np.flatnonzero(keeps)

    def score(start):
        stop = min(start + chunk, total)
        rows = rows_keeping(start, stop) if group > 1 else everyone
        if not len(rows):
            return rows, np.empty(0), rows, rows, np.empty(0)
        cw = _bulk_conj_codewords(cfg, angle_samples, range_samples, start, stop)
        g = _bulk_scores(rows32 if len(rows) == len(live) else rows32[rows], cw)
        chunk_top = g.max(axis=1)
        row, k = np.nonzero(g >= (np.maximum(chunk_top, top[rows]) - margin[rows])[:, None])
        return rows, chunk_top, rows[row], start + k, g[row, k]

    top = np.full(len(live), -np.inf)
    workers = min(available_cpus(), block // chunk, len(starts))
    with thread_map(workers) as pmap:
        if group > 1:
            n_reps = len(rep) * nq
            for part_top in pmap(lambda lo: rep_scores(lo, min(lo + chunk, n_reps)).max(axis=1),
                                 range(0, n_reps, chunk)):
                np.maximum(top, part_top, out=top)
        floor = top - margin
        final = top.copy()
        parts = [(everyone[:0], everyone[:0], np.empty(0))]
        for rows, chunk_top, row, flat, s in pmap(score, starts):
            final[rows] = np.maximum(final[rows], chunk_top)
            kept = s >= (final - margin)[row]
            parts.append((row[kept], flat[kept], s[kept]))
        rows, flats, scores = map(np.concatenate, zip(*parts))
        keep = scores >= (final - margin)[rows]
        order = np.lexsort((rows[keep], flats[keep]))
        rows, flats = live[rows[keep][order]], flats[keep][order]
        rescored = list(pmap(lambda i: _rescore(cfg, vectors, angle_samples, range_samples,
                                                rows[i:i + chunk], flats[i:i + chunk]),
                             range(0, len(rows), chunk)))
    gains = np.concatenate([np.empty(0), *rescored])
    pick = np.lexsort((flats, -gains, rows))
    first = np.ones(len(pick), dtype=bool)
    first[1:] = rows[pick][1:] != rows[pick][:-1]
    pick = pick[first]
    best[rows[pick]] = gains[pick]
    best_idx[rows[pick]] = flats[pick]
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


def _zero_forcing(ghat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit-norm-column zero-forcing precoders of (..., K, K) matrices, and which are singular.

    The pseudo-inverse drops singular values below 1 / MAX_ZF_CONDITION of
    the largest, which only a singular matrix (condition above that) has.
    """
    singular = ~(np.linalg.cond(ghat) <= MAX_ZF_CONDITION)
    f = np.linalg.pinv(ghat, rcond=1.0 / MAX_ZF_CONDITION)
    return f / np.maximum(np.linalg.norm(f, axis=-2, keepdims=True), 1e-300), singular


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
    f, singular = _zero_forcing(ghat)
    if singular:
        raise ZFSingularError("effective channel matrix is rank deficient")
    return f


def zf_rates(rx: np.ndarray, p_total: float, noise_var: float) -> np.ndarray:
    "Per-user rates in bps/Hz (..., K) from |h_k^H F f_l| (..., K, K); p_total / K per stream."
    power = (p_total / rx.shape[-1]) * rx**2
    sig = np.diagonal(power, axis1=-2, axis2=-1)
    return np.log2(1.0 + sig / (power.sum(axis=-1) - sig + noise_var))


def user_rate(h, f_rf: np.ndarray, f_bb: np.ndarray, k: int, p_total: float,
              noise_var: float) -> float:
    "Achievable rate of user k in bps/Hz under equal power allocation (`zf_rates`)."
    vec = h.vector if isinstance(h, ChannelRealization) else np.asarray(h)
    rx = np.abs(vec.conj() @ f_rf @ f_bb)
    # every row is user k's magnitudes, so diagonal entry k is user k's signal
    return float(zf_rates(np.broadcast_to(rx, (len(rx), len(rx))), p_total, noise_var)[k])


_PHASE2_SCORES = 2**20
"RVQ scores per phase-2 step (24 MiB as complex128 plus float64 modulus), in whole drops."


@dataclass(frozen=True, eq=False)
class ProtocolBatch:
    "What `run_protocol_batch` produced for T drops of K users; axis 0 is the drop."

    phase1_indices: np.ndarray          # (T, K); -1 under full CSI
    phase1_gains: np.ndarray | None     # (T, K) |h^H b|; None under full CSI
    f_rf: np.ndarray                    # (T, M, K)
    ghat: np.ndarray                    # (T, K, K) quantized effective-channel rows
    f_bb: np.ndarray                    # (T, K, K); every column of f_rf @ f_bb has unit norm
    rx: np.ndarray                      # (T, K, K) |h_k^H F_RF f_l|, the input of `zf_rates`
    singular: np.ndarray                # (T,) zero forcing met cond > MAX_ZF_CONDITION


def run_protocol_batch(cfg: ArrayConfig, vectors: np.ndarray, cb1: PolarCodebook | None,
                       cb2: RVQCodebook | None, full_csi: bool = False,
                       coords: np.ndarray | None = None) -> ProtocolBatch:
    """The three feedback phases for T drops of K users; `vectors` is (T, K, M).

    Phase 1 is one `best_codeword_scan` over all T K rows (under `full_csi`,
    exact beams aimed at `coords` (T, K, 2) of (theta, r), and no phase 2).
    Phase 2 quantizes each effective-channel row to its best RVQ codeword,
    `_PHASE2_SCORES` scores at a time.  Zero forcing runs on the quantized
    rows; a singular drop is flagged, and users sharing a direction in it
    see outage-level rates.
    """
    n_trials, k_users, m = vectors.shape
    if full_csi:
        idx, gains = np.full((n_trials, k_users), -1, dtype=np.int64), None
        f_rf = steering_matrix_exact(cfg, coords[..., 0], coords[..., 1])
    else:
        gains, idx = best_codeword_scan(cfg, vectors.reshape(n_trials * k_users, m),
                                        cb1.angle_samples, cb1.range_samples)
        f_rf = steering_matrix_exact(cfg, *cb1.locations(idx)).reshape(n_trials, k_users, m)
        gains, idx = gains.reshape(n_trials, k_users), idx.reshape(n_trials, k_users)
    f_rf = np.swapaxes(f_rf, 1, 2)
    g = np.einsum("tkm,tml->tkl", vectors.conj(), f_rf)  # rows h_k^H F_RF
    if full_csi:
        ghat = g
    else:
        step = max(1, _PHASE2_SCORES // (k_users * len(cb2.codewords)))
        pick = np.concatenate([
            np.abs(np.einsum("cj,tkj->tkc", cb2.codewords, g[t:t + step])).argmax(axis=2)
            for t in range(0, n_trials, step)])
        ghat = cb2.codewords[pick].conj()
    f_bb, singular = _zero_forcing(ghat)
    hybrid = np.einsum("tmk,tkl->tml", f_rf, f_bb)
    scale = np.maximum(np.linalg.norm(hybrid, axis=1, keepdims=True), 1e-300)
    hybrid /= scale
    rx = np.abs(np.einsum("tkm,tml->tkl", vectors.conj(), hybrid))
    return ProtocolBatch(idx, gains, f_rf, ghat, f_bb / scale, rx, singular)


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
    """`run_protocol_batch` for one drop of users; full CSI aims at each user's first path.

    Raises ZFSingularError where the batch would flag the drop as singular.
    """
    users = list(users)
    if not users:
        raise ValueError("need at least one user")
    coords = np.array([[(u.paths[0].coord.theta, u.paths[0].coord.r) for u in users]])
    out = run_protocol_batch(cfg, np.array([[u.vector for u in users]]), cb1, cb2, full_csi,
                             coords)
    if out.singular[0]:
        raise ZFSingularError("effective channel matrix is rank deficient")
    return FeedbackOutcome(out.phase1_indices[0], out.f_rf[0], out.ghat[0], out.f_bb[0],
                           zf_rates(out.rx[0], p_total, noise_var))


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
