"""Three-phase limited-feedback protocol: codeword selection, RVQ effective-channel
quantization, zero-forcing digital beamforming and per-user rates."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .array_model import ArrayConfig, _phase_diff_exact, antenna_offsets, steering_matrix_exact
from .channels import ChannelArrays, ChannelRealization, channel_vectors
from .codebooks import PolarCodebook, grid_locations
from .parallel import available_cpus, run_steps, single_blas, thread_map


class ZFSingularError(RuntimeError):
    "Effective channel matrix too ill-conditioned for zero forcing."


MAX_ZF_CONDITION = 1e8


SCAN_CHUNK = 1024
"""Grid codewords per phase-1 scan job of mirror-paired angles: the job builds
half of them and scores the other half as their mirrors.  Fixed, so chunk
boundaries do not depend on the number of CPUs."""

_ROW_BLOCK = 128
"""Rows per pair of complex64 products of the phase-1 scan.  S, A, S - A and the
two float64 moduli take 40 bytes per built codeword, 2.5 MiB at a full chunk,
whatever the number of rows."""

_BUILD_STEP = 128
"Codewords per step of `_bulk_fold_codewords`: its float64 temporaries stay near 0.4 MB at M = 387."

_RESCORE_PAIRS = 256
"(row, codeword) pairs per rescoring step of the phase-1 scan (see `_rescore`)."

_U32 = 2.0**-24
"Unit roundoff of float32."

_TRIG_ERR = 2.0
"""Bound, in units of _U32, on the absolute error of numpy's float32 cos and sin
on [-pi, pi].  Checked against float64 on every float32 in [-pi, pi]: at most
1.19 for cos and 1.07 for sin (numpy 2.4, x86-64)."""

_EPS_TRIG = (np.pi + np.sqrt(2.0) * _TRIG_ERR + 1.0) * _U32
"Bound on |c'_i - c_i| per entry of a bulk codeword; see `_bulk_error_bound`."

_TWO_PI = 2.0 * np.pi


class _Tiles:
    """Scratch arrays of a phase-1 scan job, which the scan's later jobs reuse.

    numpy maps a fresh array of a megabyte or more from the system, and every
    job would page-fault it in again; a job instead borrows a tile set
    (`_tiled`) and returns it when done, so a scan maps one set per worker.
    A tile grows when a job needs more than it holds; tiles are bytes,
    viewed as the dtype a job asks for.
    """

    def __init__(self):
        self._arrays = {}

    def get(self, name: str, shape, dtype) -> np.ndarray:
        "An uninitialized C-contiguous `shape` array of `dtype` in tile `name`."
        nbytes = math.prod(shape) * np.dtype(dtype).itemsize
        buf = self._arrays.get(name)
        if buf is None or buf.size < nbytes:
            buf = self._arrays[name] = np.empty(nbytes, np.uint8)
        return buf[:nbytes].view(dtype).reshape(shape)


def _tiled(job, spare: list):
    """`job(item, tiles)` as a job of one argument that borrows a tile set from
    `spare` (or a new one) while it runs.  `spare` ends up with as many sets
    as jobs ran at once."""
    def run(item):
        try:
            tiles = spare.pop()
        except IndexError:
            tiles = _Tiles()
        try:
            return job(item, tiles)
        finally:
            spare.append(tiles)
    return run


def _bulk_conj_codewords(cfg: ArrayConfig, theta: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Complex64 stand-ins for sqrt(M) * conj(steering_matrix_exact(cfg, theta, r)).

    Entries have unit modulus.  The phase k (r^(m) - r) is formed in
    float64 exactly as the float64 build forms it, reduced to [-pi, pi] in
    float64, and only then cast to float32, so the float32 cos and sin see a
    phase whose cast costs at most pi * u.  `_bulk_fold_codewords` calls it
    `_BUILD_STEP` codewords at a time.
    """
    cw = np.empty((len(theta), cfg.num_antennas), np.complex64)
    phase = _phase_diff_exact(cfg, theta, r)
    phase *= cfg.wavenumber
    turns = np.multiply(phase, 1.0 / _TWO_PI)
    np.rint(turns, out=turns)
    turns *= _TWO_PI
    phase -= turns
    phase32 = phase.astype(np.float32)
    np.cos(phase32, out=cw.real)
    np.sin(phase32, out=cw.imag)
    return cw


def _fold(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The folded layout of rows `x` (n, M), written to `out`.

    With h = M // 2 and m' = M - 1 - m, the mirror entry of m: the sums
    x_m + x_m' for m < h, the centre entry x_h when M is odd, then the
    differences x_m - x_m' for m < h.  Sums and centre fill the first
    ceil(M / 2) columns, differences the last h.
    """
    h = x.shape[1] // 2
    rev = x[:, ::-1][:, :h]
    np.add(x[:, :h], rev, out=out[:, :h])
    out[:, h:x.shape[1] - h] = x[:, h:x.shape[1] - h]
    np.subtract(x[:, :h], rev, out=out[:, x.shape[1] - h:])
    return out


def _fold_rows(rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Rows in the layout of `_fold` with halved sums and differences (the centre entry
    as it is), formed in the dtype of `rows` and cast once into `out` (or a new array)."""
    out = _fold(0.5 * rows, np.empty_like(rows) if out is None else out)
    h = rows.shape[1] // 2
    out[:, h:rows.shape[1] - h] = rows[:, h:rows.shape[1] - h]
    return out


def _bulk_fold_codewords(cfg: ArrayConfig, theta: np.ndarray, r: np.ndarray,
                         tiles: _Tiles | None = None) -> np.ndarray:
    """`_bulk_conj_codewords` in the layout of `_fold`, built `_BUILD_STEP` codewords at a time.

    With `_fold_rows` rows, the sum half and the difference half of a
    product give S and A: S + A is the product with codeword c and S - A
    the product with its antenna reversal J c (see `_bulk_scores`).
    The result is tile "chunk" of `tiles`.
    """
    cw = (tiles or _Tiles()).get("chunk", (len(theta), cfg.num_antennas), np.complex64)
    for lo in range(0, len(theta), _BUILD_STEP):
        part = slice(lo, lo + _BUILD_STEP)
        _fold(_bulk_conj_codewords(cfg, theta[part], r[part]), cw[part])
    return cw


def _bulk_scores(rows32: np.ndarray, cw32: np.ndarray, mirrored: int,
                 tiles: _Tiles | None = None) -> np.ndarray:
    """Bulk scores of `_fold_rows` rows, cast to complex64, against `_bulk_fold_codewords`.

    Returns (rows, len(cw32) + mirrored) float64 scores: |S + A| against
    every codeword, then |S - A| against the antenna reversals of the first
    `mirrored` codewords.  S and A are the complex64 products of the sum
    and the difference halves, each about M / 2 long; S + A and S - A are
    rounded to complex64, and the modulus is the complex128 one of that
    exactly widened result (numpy widens it in small buffers).  The result
    is tile "scores" of `tiles`.

    Codewords at theta = 0 equal their own antenna reversals, so their
    difference half is exactly 0.  A chunk without mirrors whose difference
    half is all zero skips the A product: |S| is bit for bit the |S + A|
    it stands for.
    """
    tiles = tiles or _Tiles()
    n, r = len(cw32), len(rows32)
    half = (rows32.shape[1] + 1) // 2
    s = np.matmul(rows32[:, :half], cw32[:, :half].T, out=tiles.get("s", (r, n), np.complex64))
    out = tiles.get("scores", (r, n + mirrored), np.float64)
    if mirrored or cw32[:, half:].any():
        a = np.matmul(rows32[:, half:], cw32[:, half:].T,
                      out=tiles.get("a", (r, n), np.complex64))
        diff = np.subtract(s[:, :mirrored], a[:, :mirrored],
                           out=tiles.get("diff", (r, mirrored), np.complex64))
        np.abs(diff, out=out[:, n:], dtype=np.float64)
        s += a
    np.abs(s, out=out[:, :n], dtype=np.float64)
    return out


def _pow2_scaled(vectors: np.ndarray) -> np.ndarray:
    """Rows scaled by powers of two (exactly) so that their largest entry modulus lies in [1/2, 1).

    The shift goes to `np.ldexp` and not through a factor 2^shift, which
    overflows for rows of subnormal entries (shifts above 1023).
    """
    shift = -np.frexp(np.abs(vectors).max(axis=1))[1][:, None]
    out = np.empty(vectors.shape, np.complex128)
    np.ldexp(vectors.real, shift, out=out.real)
    np.ldexp(vectors.imag, shift, out=out.imag)
    return out


def _bulk_error_bound(cfg: ArrayConfig, rows: np.ndarray, mismatch: float = 0.0) -> np.ndarray:
    """Per-row bound E on |bulk score - sqrt(M) * float64 gain|, for any codeword.

    `rows` come from `_pow2_scaled`, so their largest entry modulus lies in
    [1/2, 1).  The bulk pass scores their folded complex64 casts
    (`_fold_rows`) against the folded codewords of `_bulk_fold_codewords`;
    the float64 gain is |v^H b| with b = c / sqrt(M) from
    `steering_matrix_exact`.  Write c' for the float32 codeword entries
    before the fold, s_m, a_m for the folded row's sums and differences
    and sigma_m, alpha_m for the codeword's.  Since
    |s_m|^2 + |a_m|^2 = (|v_m|^2 + |v_m'|^2) / 2 and
    |sigma_m|^2 + |alpha_m|^2 = 2 (|c'_m|^2 + |c'_m'|^2), Cauchy-Schwarz
    gives sum_m (|s_m| |sigma_m| + |a_m| |alpha_m|) <= ||v|| ||c'||, the
    norm product of the unfolded pair.  With u = 2^-24,
    gamma_n = n u / (1 - n u) and n_s = ceil(M / 2), for M below 10^6:

    - Products (sqrt(2) gamma_{2 n_s + 4}).  The real and the imaginary
      part of S (A) are each a sum of 2 n_s (at most 2 n_s) real products;
      in any summation order, with or without fused multiply-adds, each
      part is off by at most gamma_{2 n_s} times the sum of |row entry|
      |codeword entry| (Higham, Accuracy and Stability of Numerical
      Algorithms, section 3.1), so S and A together by sqrt(2) gamma_{2 n_s}
      ||v|| ||c'||, with ||c'|| <= (1 + eps_trig) sqrt(M).  Four extra
      roundings in the index absorb that factor and those of the cast and
      the fold below.
    - Cast of the folded rows (u).  Each folded entry, formed in float64,
      is cast with a relative error of at most u: u ||v|| ||c'|| in all.
    - Fold of the codewords (u).  sigma_m and alpha_m are rounded to
      float32 once each: at most u ||v|| ||c'|| in all.
    - Combination (u).  S + A and S - A are rounded to complex64 once:
      at most u |S +- A|, about u ||v|| sqrt(M).
    - Float64 (u).  The modulus of the widened complex64 result, the
      float64 fold of the rows, the rescoring sum, the subtraction that
      forms the survivor threshold, and gradual underflow in float32 (at
      most 4M 2^-150 per part, below 2^-100 ||v|| after the scaling).
    - Codewords (eps_trig = (pi + 2 sqrt(2) + 1) u).  The fold is linear,
      so this is the unfolded codewords' error.  The reduced phase has
      |psi| <= pi (up to float64 rounding), so casting it to float32 moves it by at most pi u, which
      moves e^{i psi} by as much; cos and sin add at most _TRIG_ERR u each,
      so sqrt(2) _TRIG_ERR u to the entry; the last u covers the float64
      reduction (about 2^-50 |phase|, phases below 2^20 rad) and the float64
      cos, sin and 1 / sqrt(M) of `steering_matrix_exact`.  Summed over the
      entries, |v^T (c' - c)| <= eps_trig ||v|| sqrt(M).
    - Mirror pairs (`mismatch`, see `_mirror_mismatch`).  S - A scores
      J c, the codeword at -theta_i, in place of the grid's codeword at
      theta_j, at most ||v|| sqrt(M) times `mismatch` away.

    E = ||v|| sqrt(M) (sqrt(2) gamma_{2 n_s + 4} + 4u + eps_trig + mismatch),
    about half of the unfolded product's sqrt(2) gamma_{2M + 2}.
    """
    reach = np.linalg.norm(rows, axis=1) * np.sqrt(cfg.num_antennas)
    return reach * _bulk_error_rel(cfg, mismatch)


def _bulk_error_rel(cfg: ArrayConfig, mismatch: float = 0.0) -> float:
    "The bound E of `_bulk_error_bound` in units of ||v|| sqrt(M)."
    n = 2 * ((cfg.num_antennas + 1) // 2) + 4
    gamma = n * _U32 / (1.0 - n * _U32)
    return np.sqrt(2.0) * gamma + 4.0 * _U32 + _EPS_TRIG + mismatch


_PAIR_TOL = 8 * 2.0**-52
"""Largest |theta_i + theta_j| of a mirror pair of angle samples, a few ulps of 1:
uniform samples of a symmetric region meet their mirrors this closely."""


def _mirror_pairs(angle_samples) -> tuple[np.ndarray, np.ndarray]:
    """The folded scan's angle order: (lead, mirror) index arrays.

    A mirror pair is a positive and a negative sample, both below 1 in
    modulus, with |theta_i + theta_j| <= _PAIR_TOL; each sample is in at
    most one pair.  `lead` lists every sample once: first the positive
    member of each pair, then the unpaired samples (theta = 0, and samples
    without a mirror), each part in index order.  mirror[i] is the negative
    member of the pair that lead[i] leads, for i < len(mirror).
    """
    theta = np.asarray(angle_samples, dtype=np.float64)
    pos = np.flatnonzero((theta > 0) & (theta < 1))
    pos = pos[np.argsort(theta[pos], kind="stable")]
    neg = np.flatnonzero((theta < 0) & (theta > -1))
    neg = neg[np.argsort(-theta[neg], kind="stable")]
    # each positive takes the first negative within reach; equal starts take successive ones
    start = np.searchsorted(-theta[neg], theta[pos] - _PAIR_TOL)
    cand = start + np.arange(len(pos)) - np.searchsorted(start, start)
    ok = np.flatnonzero(cand < len(neg))
    ok = ok[np.abs(theta[pos[ok]] + theta[neg[cand[ok]]]) <= _PAIR_TOL]
    ok = ok[np.unique(cand[ok], return_index=True)[1]]
    order = np.argsort(pos[ok])
    lead, mirror = pos[ok][order], neg[cand[ok]][order]
    alone = np.ones(len(theta), dtype=bool)
    alone[lead] = alone[mirror] = False
    return np.concatenate([lead, np.flatnonzero(alone)]), mirror


def _angle_move(cfg: ArrayConfig, move, peak) -> np.ndarray:
    """Bound on ||b(theta', r) - b(theta, r)|| over all ranges r, for |theta' - theta| <= `move`
    and |theta|, |theta'| <= `peak`; infinite where `peak` >= 1.

    With (r^(m))^2 = (d_m - r theta)^2 + r^2 (1 - theta^2),
    |d r^(m) / d theta| = r |d_m| / r^(m) <= |d_m| / sqrt(1 - theta^2) (the
    plane wave's |d_m| too), and |e^{ix} - 1| <= |x|, so the bound is
    k `move` rms_m(|d_m|) / sqrt(1 - peak^2), raised by a relative 2^-20
    for its own float64 rounding.
    """
    slope = cfg.wavenumber * np.sqrt(np.mean((antenna_offsets(cfg) * cfg.spacing) ** 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = slope * move / np.sqrt(1.0 - peak**2) * (1.0 + 2.0**-20)
    return np.where(peak < 1.0, bound, np.inf)


def _mirror_mismatch(cfg: ArrayConfig, angle_samples, lead: np.ndarray,
                     mirror: np.ndarray) -> float:
    """Largest ||b(theta_j, r) - J b(theta_i, r)|| over the mirror pairs (i, j) and all ranges.

    J b(theta_i, r) = b(-theta_i, r) for the array's symmetric offsets, which
    lies within `_angle_move` of b(theta_j, r) for a move of |theta_i + theta_j|.
    """
    theta = np.asarray(angle_samples, dtype=np.float64)
    if not len(mirror):
        return 0.0
    i, j = theta[lead[:len(mirror)]], theta[mirror]
    return float(_angle_move(cfg, np.abs(i + j), np.maximum(np.abs(i), np.abs(j))).max())


_MAX_RADIUS = 0.5
"""Largest radius, in units of a codeword's norm, of the angle clusters of the
phase-1 scan (see `_cluster_size`)."""


def _angle_clusters(cfg: ArrayConfig, angle_samples, group: int, split: int = 0):
    """Representative angle index, radius and size of each cluster of `group` adjacent angle samples.

    Clusters cut the samples before and from index `split` separately:
    each part into runs of `group` samples, the last of a part may hold
    fewer.  A cluster's representative is its middle member.  At any one
    range sample every member codeword b_i lies within the radius of the
    representative's b_rep: `_angle_move` for the largest
    |theta_i - theta_rep| and the largest |theta| in the cluster, raised by an
    absolute 2^-24 for the rounding of the float64 codewords' phases (their
    entries are exact to far better than 2^-25 for phases below 2^20 rad) and
    of the float64 sum the radius term enters.  A cluster reaching
    |theta| >= 1 has an infinite radius.
    """
    theta = np.asarray(angle_samples, dtype=np.float64)
    starts = np.concatenate([np.arange(0, split, group), np.arange(split, len(theta), group)])
    sizes = np.diff(starts, append=len(theta))
    rep = starts + sizes // 2
    spread = np.maximum.reduceat(np.abs(theta - np.repeat(theta[rep], sizes)), starts)
    peak = np.maximum.reduceat(np.abs(theta), starts)
    return rep, _angle_move(cfg, spread, peak) + 2.0**-24, sizes


def _cluster_size(cfg: ArrayConfig, angle_samples, split: int = 0,
                  most: int = SCAN_CHUNK // 2) -> int:
    """Angle samples per cluster of the phase-1 scan.

    The largest power of two up to `most` whose clusters (`_angle_clusters`,
    cut at `split`) all have a radius of at most `_MAX_RADIUS`, or 1 (every
    codeword its own cluster).
    """
    group = 1
    while (2 * group <= min(len(angle_samples), most)
           and _angle_clusters(cfg, angle_samples, 2 * group, split)[1].max() <= _MAX_RADIUS):
        group *= 2
    return group


def _rescore(cfg: ArrayConfig, vectors: np.ndarray, angle_samples, range_samples,
             rows: np.ndarray, flats: np.ndarray, tiles: _Tiles | None = None) -> np.ndarray:
    """Float64 gains |v^H b| of (row, flat index) pairs.

    Each distinct codeword is built once with `steering_matrix_exact`; each
    pair is reduced by an elementwise product and a numpy sum, whose order
    depends on M alone, so a pair's gain does not depend on BLAS, threads or
    which other pairs are rescored with it.  That lets the scan rescore its
    survivors `_RESCORE_PAIRS` at a time: three (pairs, M) complex128 arrays,
    4.8 MB at M = 387, two of them in the "chunk" and "scores" tiles.
    """
    tiles = tiles or _Tiles()
    uniq, inv = np.unique(flats, return_inverse=True)
    cw = steering_matrix_exact(cfg, *grid_locations(angle_samples, range_samples, uniq))
    np.conjugate(cw, out=cw)
    shape = (len(rows), vectors.shape[1])
    prod = np.take(cw, inv, axis=0, out=tiles.get("chunk", shape, cw.dtype), mode="clip")
    prod *= np.take(vectors, rows, axis=0, out=tiles.get("scores", shape, vectors.dtype),
                    mode="clip")
    return np.abs(prod.sum(axis=1))


def _ceil32(x: np.ndarray) -> np.ndarray:
    "The least float32 values no smaller than float64 `x`."
    y = x.astype(np.float32)
    return np.where(y < x, np.nextafter(y, np.float32(np.inf)), y)


def best_codeword_scan(cfg: ArrayConfig, vectors: np.ndarray, angle_samples: np.ndarray,
                       range_samples: np.ndarray, block: int = 4096):
    """Exhaustive |v^H b| scan over an angle x range codeword grid.

    `vectors` is (n, M); returns (best gain, best flat index) per row with
    flat index i * len(range_samples) + j and ties resolved to the lowest
    index.  The result is that of scoring every codeword in float64 with
    `_rescore`; an all-zero row gets gain 0 at index 0.

    The bulk passes score in complex64, folded.  The array is symmetric
    about its centre, so the codeword at -theta is the antenna reversal
    J b(theta, r).  Angle samples are paired with their mirrors
    (`_mirror_pairs`); the scan builds codewords only for the `lead` order
    of angles, the positive member of each pair first, and one product of
    a folded chunk scores each built codeword and, for paired angles, its
    mirror (`_bulk_scores`).  Unpaired angles (theta = 0, asymmetric grids)
    are scored the same way, without the mirror; codewords at theta = 0
    have a difference half of exactly 0, so a chunk of nothing else takes
    one product in place of two.  Each row is scaled by a
    power of two and cast; every bulk score is within E
    (`_bulk_error_bound`, with the pairs' `_mirror_mismatch`) of sqrt(M)
    times the float64 gain of the grid codeword it stands for.

    Codewords are grouped into clusters of G adjacent lead angles at one
    range sample, G a power of two of at most
    step = max(1, min(block, SCAN_CHUNK) // 2) (`_cluster_size`), paired and
    unpaired angles in separate clusters, each with a representative and a
    radius rho (`_angle_clusters`): no member scores above its
    representative's exact score plus ||v|| sqrt(M) rho, and, J being an
    isometry, no mirror of a member above the representative's mirror's.
    The scan walks the folded grid (lead angles x range samples) cluster by
    cluster, ring by ring: a chunk holds step // G whole (cluster, ring)
    sets, at most step built codewords, which cover twice as many grid
    codewords where the angles are paired.  The sets of paired clusters
    come first, so a chunk's mirrored codewords are a prefix of it.

    Pass A (only when G > 1) scores each set's representative, and its
    mirror if it has one, once; a job takes the sets of a run of whole
    chunks, at most G of them, and about two jobs per worker (as
    `parallel.run_steps` splits its steps).  It keeps
    each row's best bulk score `top` and, per row and chunk, the largest
    score + ||v|| sqrt(M) rho over the chunk's sets and over both signs,
    rounded upward to float32; its jobs return both per row block and the
    main thread merges them.  In pass B a row meets a chunk only if that
    bound reaches top - 2E; a row that does not cannot reach its float64
    maximum in the chunk.  The chunk builds its codewords only if some row
    meets it.  Where G >= 4 it then checks those rows at a second level: the
    runs of G / 2 lead angles (`_angle_clusters` again) nest in the clusters,
    each with its middle member and a radius rho' of its own; the chunk
    gathers those members from its built codewords and scores them, and
    their mirrors, against the rows that met it, and a row goes on only if
    some score + ||v|| sqrt(M) rho' reaches top - 2E.  It scores the chunk's
    codewords and their mirrors against the rows that go on, and keeps, per
    row, each score within 2E of the best of the chunk's and the row's
    best bulk score merged so far (`top` and the chunks already in); only
    rows whose chunk maximum is among those are searched for them.  The
    main thread takes the chunks in order and drops, as each arrives, its
    codewords more than 2E below the row's best bulk score so far, and once
    every chunk is in, those more than 2E below the final best.  A codeword
    whose float64 gain equals the row's maximum scores within E of it, and
    no bulk score exceeds it by more than E, so all of them survive.  With
    G = 1 there is no pass A, every row meets every chunk, and the chunks
    run through the folded grid in flat order.

    Pass C rescores the surviving (row, codeword) pairs in float64, in flat
    order, in steps of at most min(block, _RESCORE_PAIRS) pairs, at least two
    per worker where there are that many pairs, and keeps per row the
    largest gain, the lowest flat index among equal gains.
    Which pairs survive may vary with BLAS's summation order and with the
    order the chunks finish in, but neither the gain of a pair nor the set
    of pairs reaching the maximum, so results depend neither on the number
    of CPUs nor on BLAS's thread count.

    Every pass runs on up to block // min(block, SCAN_CHUNK) threads, one
    per available CPU (numpy's ufuncs and BLAS release the GIL), and so does
    the rows' set-up before them: the pool's first map scales, folds and
    casts the rows `_ROW_BLOCK` at a time, with their E.  A job
    builds at most step codewords (a chunk, or the representatives of G
    chunks), so at most block / 2 are in flight, and scores them
    `_ROW_BLOCK` rows at a time, so its working memory is fixed: the chunk
    (8 M bytes per codeword), the tile of its half-cluster representatives
    (8 M bytes each, 2 step / G of them) and 40 bytes per codeword and row
    of one row block (S, A, S - A and both moduli), held in tiles that the
    worker's next job reuses (`_Tiles`).  Growing with n are a folded complex64 copy
    of the rows (8 M bytes per row), a few float64 per row, the pass-A
    bound (4 bytes per row and chunk) and the survivors (24 bytes each).
    """
    vectors = np.atleast_2d(vectors)
    n, m = vectors.shape
    nq = len(range_samples)
    angle_samples = np.asarray(angle_samples, dtype=np.float64)
    lead, mirror = _mirror_pairs(angle_samples)
    lead_angles = angle_samples[lead]
    chunk = min(block, SCAN_CHUNK)
    step = max(1, chunk // 2)
    best = np.zeros(n)
    best_idx = np.zeros(n, dtype=np.int64)
    rel = _bulk_error_rel(cfg, _mirror_mismatch(cfg, angle_samples, lead, mirror))

    group = _cluster_size(cfg, lead_angles, len(mirror), step)
    rep, radius, sizes = _angle_clusters(cfg, lead_angles, group, len(mirror))
    if group >= 4:
        sub_rep, sub_radius, _ = _angle_clusters(cfg, lead_angles, group // 2, len(mirror))
    first = rep - sizes // 2                           # each cluster's first lead position
    per = step // group                                # (cluster, ring) sets per chunk
    n_sets = len(rep) * nq
    n_chunks = -(-n_sets // per)
    paired_sets = -(-len(mirror) // group) * nq        # the sets of paired clusters
    workers = max(1, min(available_cpus(), block // chunk, n_chunks))
    run = max(1, min(group, -(-n_chunks // (2 * workers))))     # chunks per pass-A job
    rows32 = np.empty((n, m), np.complex64)
    margin, reach = np.empty(n), np.empty(n)

    def prepare(rows):
        "Rows `rows` scaled (`_pow2_scaled`), folded and cast; their ||v|| sqrt(M) and margins 2E."
        scaled = _pow2_scaled(vectors[rows])
        _fold_rows(scaled, rows32[rows])
        reach[rows] = np.linalg.norm(scaled, axis=1) * np.sqrt(cfg.num_antennas)
        margin[rows] = 2.0 * (reach[rows] * rel)        # `_bulk_error_bound`, doubled

    def pass_a(k, tiles):
        """The representatives of chunks k..k+run-1, per row block: the rows, their
        best bulk scores and their bounds for those chunks."""
        cluster, ring = np.divmod(np.arange(k * per, min((k + run) * per, n_sets)), nq)
        mirrored = min(max(paired_sets - k * per, 0), len(ring))
        cw = _bulk_fold_codewords(cfg, lead_angles[rep[cluster]], range_samples[ring], tiles)
        found = []
        for rows in blocks:
            s = _bulk_scores(rows32[rows], cw, mirrored, tiles)
            s, s_mirror = s[:, :len(ring)], s[:, len(ring):]
            s_top = np.maximum(s.max(axis=1), s_mirror.max(axis=1, initial=-np.inf))
            np.maximum(s[:, :mirrored], s_mirror, out=s[:, :mirrored])
            s += reach[rows, None] * radius[cluster]
            bounds = np.maximum.reduceat(s, np.arange(0, len(ring), per), axis=1)
            found.append((rows, s_top, _ceil32(bounds).T))
        return k, found

    def sub_check(rows, cw, angle, mirrored, tiles):
        """The rows that meet chunk `cw` at level 2: some half-cluster's representative
        (and its mirror), picked from the built chunk, scores within its radius of `floor`."""
        where = np.minimum(np.searchsorted(sub_rep, angle), len(sub_rep) - 1)
        pick = np.flatnonzero(sub_rep[where] == angle)
        subs = np.take(cw, pick, axis=0, mode="clip",
                       out=tiles.get("subs", (len(pick), m), np.complex64))
        n_sub, sub_mirrored = len(pick), np.count_nonzero(pick < mirrored)
        radii = sub_radius[where[pick]]
        met = []
        for lo in range(0, len(rows), _ROW_BLOCK):
            part = rows[lo:lo + _ROW_BLOCK]
            s = _bulk_scores(rows32[part], subs, sub_mirrored, tiles)
            np.maximum(s[:, :sub_mirrored], s[:, n_sub:], out=s[:, :sub_mirrored])
            s = s[:, :n_sub]
            s += reach[part, None] * radii
            met.append(part[s.max(axis=1) >= floor[part]])
        return np.concatenate(met)

    def score(k, tiles):
        "Chunk k against the rows that meet it: their best bulk scores and survivors."
        rows = np.flatnonzero(bound[k] >= floor) if group > 1 else everyone
        if not len(rows):
            return rows, np.empty(0), rows, rows, np.empty(0)
        cluster, ring = np.divmod(np.arange(k * per, min((k + 1) * per, n_sets)), nq)
        # the sets' members, each set's cluster's lead positions at its ring
        count = sizes[cluster]
        angle = np.arange(count.sum()) + np.repeat(first[cluster] - np.cumsum(count) + count,
                                                   count)
        ring = np.repeat(ring, count)
        mirrored = np.count_nonzero(angle < len(mirror))
        flat = np.concatenate([lead[angle] * nq + ring,
                               mirror[angle[:mirrored]] * nq + ring[:mirrored]])
        cw = _bulk_fold_codewords(cfg, lead_angles[angle], range_samples[ring], tiles)
        if group >= 4:
            rows = sub_check(rows, cw, angle, mirrored, tiles)
        tops, found = [np.empty(0)], [(rows[:0], rows[:0], np.empty(0))]
        for lo in range(0, len(rows), _ROW_BLOCK):
            part = rows[lo:lo + _ROW_BLOCK]
            g = _bulk_scores(rows32[part], cw, mirrored, tiles)
            part_top = g.max(axis=1)
            # `final` is read while the main thread raises it: any value it
            # held is some bulk score of the row, so a valid floor
            least = np.maximum(part_top, final[part]) - margin[part]
            # only rows whose chunk maximum reaches their floor keep a score;
            # they alone are searched, copied out when they are few
            hit = np.flatnonzero(part_top >= least)
            if 2 * len(hit) < len(part):
                g, least, part = g[hit], least[hit], part[hit]
            row, col = np.divmod(np.flatnonzero(g >= least[:, None]), g.shape[1])
            tops.append(part_top)
            found.append((part[row], flat[col], g[row, col]))
        return (rows, np.concatenate(tops), *map(np.concatenate, zip(*found)))

    spare = []                        # the jobs' tile sets, one per worker
    with thread_map(workers) as pmap:
        for _ in pmap(prepare, [slice(lo, lo + _ROW_BLOCK) for lo in range(0, n, _ROW_BLOCK)]):
            pass
        live = np.flatnonzero(reach > 0)               # all-zero rows keep gain 0 at index 0
        if len(live) < n:
            rows32, margin, reach = rows32[live], margin[live], reach[live]
        blocks = [slice(lo, lo + _ROW_BLOCK) for lo in range(0, len(live), _ROW_BLOCK)]
        everyone = np.arange(len(live))
        top = np.full(len(live), -np.inf)
        bound = np.full((n_chunks, len(live)) if group > 1 else (0, 0), -np.inf, np.float32)
        if group > 1:
            for k, found in pmap(_tiled(pass_a, spare), range(0, n_chunks, run)):
                for rows, s_top, b in found:
                    np.maximum(top[rows], s_top, out=top[rows])
                    bound[k:k + len(b), rows] = b
        floor = top - margin
        final = top.copy()
        parts = [(everyone[:0], everyone[:0], np.empty(0))]
        for rows, chunk_top, row, flat, s in pmap(_tiled(score, spare), range(n_chunks)):
            final[rows] = np.maximum(final[rows], chunk_top)
            kept = s >= (final - margin)[row]
            parts.append((row[kept], flat[kept], s[kept]))
        spare.clear()                 # free pass B's tiles before the survivors merge
        rows, flats, scores = map(np.concatenate, zip(*parts))
        keep = scores >= (final - margin)[rows]
        order = np.lexsort((rows[keep], flats[keep]))
        rows, flats = live[rows[keep][order]], flats[keep][order]
        pairs = min(chunk, _RESCORE_PAIRS, max(1, len(rows) // (2 * workers)))
        rescored = list(pmap(_tiled(lambda i, tiles: _rescore(
            cfg, vectors, angle_samples, range_samples, rows[i:i + pairs], flats[i:i + pairs],
            tiles), spare), range(0, len(rows), pairs)))
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
    "Codeword maximizing |g^H b| (`_rvq_pick`); returns (index, codeword). Ties pick the lowest."
    g = np.asarray(g)
    if np.linalg.norm(g) == 0:
        raise ValueError("zero effective channel")
    idx = int(_rvq_pick(g.conj()[None, None], cb.codewords)[0, 0])
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


_PHASE2_SCORES = 2**16
"""RVQ scores per `_rvq_pick` step, in whole drops (or channels, for path gains): 24 bytes
each (complex128 product and float64 modulus), 1.5 MiB.  A step holds at least one drop's
K 2^b2 scores."""


def _rvq_pick(g: np.ndarray, codewords: np.ndarray) -> np.ndarray:
    """Each row's best RVQ codeword, argmax_c |sum_j codewords[c, j] g[t, k, j]|, for g (T, K, D).

    The one RVQ selector: phase 2, `phase2_select` and `quantize_path_gains`
    all pick through it.  One matrix product per step of `_PHASE2_SCORES`
    scores, on one OpenBLAS thread (`single_blas`); ties pick the lowest index.
    """
    n_trials, k_users, dim = g.shape
    step = max(1, _PHASE2_SCORES // (k_users * len(codewords)))
    with single_blas():
        return np.concatenate([
            np.abs(g[t:t + step].reshape(-1, dim) @ codewords.T).argmax(axis=1)
            for t in range(0, n_trials, step)]).reshape(n_trials, k_users)


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
    Phase 2 quantizes each effective-channel row to its best RVQ codeword
    (`_rvq_pick`).  Zero forcing runs on the quantized rows; a singular drop
    is flagged, and users sharing a direction in it see outage-level rates.
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
    # h^H F = conj(h^T conj(F)) bit for bit, so conjugating our own F_RF (and
    # hybrid, below) in place spares a (T, K, M) copy of vectors.conj()
    np.conjugate(f_rf, out=f_rf)
    g = np.conjugate(np.einsum("tkm,tml->tkl", vectors, f_rf))  # rows h_k^H F_RF
    np.conjugate(f_rf, out=f_rf)
    if full_csi:
        ghat = g
    else:
        ghat = cb2.codewords[_rvq_pick(g, cb2.codewords)].conj()
    f_bb, singular = _zero_forcing(ghat)
    hybrid = np.einsum("tmk,tkl->tml", f_rf, f_bb)
    scale = np.maximum(np.linalg.norm(hybrid, axis=1, keepdims=True), 1e-300)
    hybrid /= scale
    np.conjugate(hybrid, out=hybrid)
    rx = np.abs(np.einsum("tkm,tml->tkl", vectors, hybrid))
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


_PATH_ROWS = 48
"""Steering rows per step of channel assembly (16 channels of 3 paths), in
`multipath_feedback_batch` and `experiments.draw_channels`: the steps are pool
jobs (`parallel.run_steps`), and each of a step's (48, M) complex temporaries is
about 300 kB at M = 387, whatever the channel or CPU count."""


def nearest_index(values: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """Index of the sample nearest each value: `np.abs(values[:, None] - samples).argmin(1)`.

    Found by binary search on the distinct sorted samples, so it costs
    O(log len(samples)) per value.  Ties go to the lowest index, as argmin's
    do, also among duplicated samples and among distinct samples whose
    rounded distances coincide.
    """
    distinct, first = np.unique(samples, return_index=True)
    last = len(distinct) - 1
    pos = np.searchsorted(distinct, values)
    lo, hi = np.maximum(pos - 1, 0), np.minimum(pos, last)
    d_lo, d_hi = np.abs(values - distinct[lo]), np.abs(values - distinct[hi])
    best = np.minimum(d_lo, d_hi)
    pick = np.minimum(np.where(d_lo == best, first[lo], len(samples)),
                      np.where(d_hi == best, first[hi], len(samples)))
    # the rounded distance |x - s| is monotone on either side of x, so any
    # further tie is contiguous with lo or hi; walk outward until none is left
    for edge, step in ((lo, -1), (hi, 1)):
        while True:
            nxt = np.clip(edge + step, 0, last)
            tie = (nxt != edge) & (np.abs(values - distinct[nxt]) == best)
            if not tie.any():
                break
            edge = np.where(tie, nxt, edge)
            pick = np.where(tie, np.minimum(pick, first[nxt]), pick)
    return pick


def quantize_path_gains(gains: np.ndarray, gain_cb: RVQCodebook) -> np.ndarray:
    """Fed-back path gains of N channels (N, L): each row's best RVQ direction,
    phase-aligned to the row and scaled to its norm.

    The directions come from `_rvq_pick`, as `phase2_select` picks them, with
    all N channels in steps of `_PHASE2_SCORES` scores on one OpenBLAS thread.
    The quantized gains depend on neither the location codebook nor its bits,
    so a run quantizes each channel once.
    """
    cw = gain_cb.codewords
    pick = _rvq_pick(gains.conj()[:, None], cw)[:, 0]
    out = np.empty_like(gains, dtype=np.complex128)
    for n, (g, direction) in enumerate(zip(gains, cw[pick])):
        norm = np.linalg.norm(g)
        if norm == 0:
            raise ValueError("zero path-gain vector")
        phase = np.vdot(direction, g)
        phase = phase / abs(phase) if abs(phase) > 0 else 1.0
        out[n] = norm * direction * phase
    return out


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a[i] @ b[i] of two (N, M) arrays, one matmul call.

    matmul takes each row pair to the BLAS dot that `ndarray.dot` calls for
    two vectors, so every entry has the bits of that per-row call; the call
    releases the GIL for the whole batch.
    """
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _row_norms(x: np.ndarray) -> np.ndarray:
    "Row-wise `np.linalg.norm` of a complex (N, M) array, with the same bits: sqrt(re.re + im.im)."
    return np.sqrt(_row_dots(x.real, x.real) + _row_dots(x.imag, x.imag))


def multipath_feedback_batch(cfg: ArrayConfig, channels: ChannelArrays, gains_hat: np.ndarray,
                             cb1: PolarCodebook, out: np.ndarray | None = None) -> np.ndarray:
    """Per-path parametric feedback for N multi-path channels; returns their (N,)
    normalized correlations with the reconstructions.

    Each path's angle is quantized to the nearest angle sample, its range to
    the nearest sample in inverse range, and the path gains are `gains_hat`
    (`quantize_path_gains`).  The reconstructions are built `_PATH_ROWS`
    steering rows per step, the steps on the shared pool, and written to
    `out` (N, M) when it is given.
    """
    n, paths = channels.thetas.shape
    ai = nearest_index(channels.thetas.ravel(), cb1.angle_samples).reshape(n, paths)
    inv_samples = np.where(np.isinf(cb1.range_samples), 0.0, 1.0 / cb1.range_samples)
    ri = nearest_index(1.0 / channels.ranges.ravel(), inv_samples).reshape(n, paths)
    thetas, ranges = cb1.angle_samples[ai], cb1.range_samples[ri]
    corr = np.empty(n)

    def build(rows):
        h_hat = channel_vectors(cfg, thetas[rows], ranges[rows], gains_hat[rows])
        if out is not None:
            out[rows] = h_hat
        h = channels.vectors[rows]
        # the per-row np.vdot(h_hat, h), |.| and np.linalg.norm, bit for bit, without the GIL
        inner = _row_dots(h_hat.conj(), h)
        corr[rows] = np.hypot(inner.real, inner.imag) / (_row_norms(h_hat) * _row_norms(h))

    run_steps(n, max(1, _PATH_ROWS // paths), build)
    return corr


def multipath_feedback(cfg: ArrayConfig, h: ChannelRealization, cb1: PolarCodebook,
                       gain_cb: RVQCodebook) -> tuple[np.ndarray, float]:
    """`multipath_feedback_batch` for one channel, its path gains quantized by `gain_cb`.

    Returns the reconstructed channel and its normalized correlation with the truth.
    """
    arrays = ChannelArrays.of([h])
    h_hat = np.empty_like(arrays.vectors)
    corr = multipath_feedback_batch(cfg, arrays, quantize_path_gains(arrays.gains, gain_cb),
                                    cb1, h_hat)
    return h_hat[0], float(corr[0])
