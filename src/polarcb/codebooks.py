"""Angle/range sampling sets and polar-domain codebooks for Phase-1 feedback.

Closed-form constructions cover the uniform-user case: equally spaced angle
samples and geometrically spaced range samples (constant adjacent ratio,
midpoints of log-uniform cells).  The prior-art hyperbolic set (uniform in
1/r), a plain uniform set, a hybrid far/near set and a far-field DFT grid
serve as benchmarks.  Non-uniform user data is handled by one-dimensional
Lloyd iterations in the matching metric.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .array_model import ArrayConfig, PolarRegion, steering_matrix_exact


def _sample_count(bits: int) -> int:
    "2^bits, the size of a `bits`-bit sampling set."
    if bits < 0:
        raise ValueError(f"bit counts must be >= 0, got {bits}")
    return 2**bits


def uniform_angle_samples(region: PolarRegion, p: int) -> np.ndarray:
    "2^p equally spaced spatial angles theta_min + i * span/(2^p + 1), i = 1..2^p."
    n = _sample_count(p)
    step = region.angle_span / (n + 1)
    return region.theta_min + step * np.arange(1, n + 1)


def geometric_range_samples(region: PolarRegion, q: int) -> np.ndarray:
    """2^q ranges with constant adjacent ratio (r_max/r_min)^(1/2^q).

    Sample i is the arithmetic midpoint of the log-uniform cell
    [r_min * ratio^(i-1), r_min * ratio^i].
    """
    n = _sample_count(q)
    ratio = (region.r_max / region.r_min) ** (1.0 / n)
    return (region.r_min / 2.0) * (1.0 / ratio + 1.0) * ratio ** np.arange(1, n + 1)


def hyperbolic_range_samples(region: PolarRegion, q: int) -> np.ndarray:
    "2^q ranges equally spaced in 1/r over [r_min, r_max], sorted ascending."
    n = _sample_count(q)
    ratio2 = region.r_max / region.r_min
    i = np.arange(1, n + 1)
    return np.sort(n * region.r_max / (i * (ratio2 - 1.0) + n))


def uniform_range_samples(region: PolarRegion, q: int) -> np.ndarray:
    "Midpoints of 2^q equal-width cells over [r_min, r_max]."
    n = _sample_count(q)
    width = region.range_span / n
    return region.r_min + width * (np.arange(n) + 0.5)


def hybrid_field_range_samples(region: PolarRegion, q: int) -> np.ndarray:
    """Hyperbolic set with the largest sample replaced by +inf.

    The infinite entry stands for the far-field DFT codeword; the remaining
    2^q - 1 entries are the hyperbolic samples i = 2..2^q.
    """
    if q < 1:
        raise ValueError("hybrid-field sampling needs q >= 1")
    hyp = hyperbolic_range_samples(region, q)
    return np.concatenate([hyp[:-1], [np.inf]])


class LloydConvergenceError(RuntimeError):
    "Raised when the alternating update fails to settle; carries the partial result."

    def __init__(self, message, samples):
        super().__init__(message)
        self.samples = samples


_OBJECTIVE_REL_TOL = 1e-8
"Stop once an iteration improves the distortion by less than this, relatively."


def _sorted_medians(values: np.ndarray, starts, counts) -> np.ndarray:
    "Medians of the runs values[start:start + count] of sorted values, as np.median gives them."
    lo = values[starts + (counts - 1) // 2]
    hi = values[starts + counts // 2]
    return np.where(counts % 2 == 1, lo, (lo + hi) / 2.0)


def _lloyd_1d(values: np.ndarray, n_codes: int, tolerance: float, max_iters: int,
              init: np.ndarray, return_history: bool):
    """1-D Lloyd loop on already-transformed values.

    Codeword update is the per-cell median, the exact minimizer of the mean
    absolute error; the values are sorted once, so every cell is a run of
    them and its median is read off by index.  Empty cells are reseeded by
    splitting the most populated cell at its median.  Terminates when the
    per-codeword movement drops below `tolerance` or the distortion stops
    improving (with finite data the movement criterion alone lets the codes
    random-walk along the flat valley of near-optimal configurations).
    """
    if len(values) < n_codes:
        raise ValueError(f"need at least {n_codes} data points")
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    values = np.sort(np.asarray(values, dtype=np.float64))
    codes = np.sort(np.asarray(init, dtype=np.float64))

    def cells(codes):
        "Start offset and count of each code's cell (values nearest it, ties to the lower)."
        ends = np.searchsorted(values, (codes[:-1] + codes[1:]) / 2.0, side="right")
        starts = np.concatenate([[0], ends])
        counts = np.diff(starts, append=len(values))
        return starts, counts, float(np.abs(values - np.repeat(codes, counts)).mean())

    history = []
    prev_obj = np.inf
    for _ in range(max_iters):
        starts, counts, obj = cells(codes)
        history.append(obj)
        new_codes = codes.copy()
        full = counts > 0
        new_codes[full] = _sorted_medians(values, starts[full], counts[full])
        for i in np.nonzero(counts == 0)[0]:
            big = int(np.argmax(counts))
            half = counts[big] // 2
            if half == 0:
                new_codes[i] = new_codes[big]
                continue
            starts[i], counts[i] = starts[big], half
            starts[big], counts[big] = starts[big] + half, counts[big] - half
            new_codes[[i, big]] = _sorted_medians(values, starts[[i, big]], counts[[i, big]])
        new_codes = np.sort(new_codes)
        shift = float(np.max(np.abs(new_codes - codes)))
        codes = new_codes
        converged = shift < tolerance or prev_obj - obj < _OBJECTIVE_REL_TOL * max(obj, 1e-300)
        prev_obj = obj
        if converged:
            history.append(cells(codes)[2])
            return codes, (history if return_history else [])
    raise LloydConvergenceError(f"no convergence after {max_iters} iterations", codes)


def lloyd_range_samples(data, q: int, tolerance: float, max_iters: int = 5000,
                        init: str = "geometric", seed=None, return_history: bool = False):
    """Range samples adapted to empirical range data, quantized in 1/r.

    Alternates nearest-neighbor partitioning under |1/r - 1/c| with the
    closed-form codeword update 1/c = median(1/r) per cell.  With uniformly
    distributed data this settles on the geometric construction.
    """
    data = np.asarray(data, dtype=np.float64)
    n = _sample_count(q)
    r_lo, r_hi = float(data.min()), float(data.max())
    region = PolarRegion(-1.0, 1.0, r_lo, max(r_hi, r_lo * (1 + 1e-12)))
    if init == "geometric":
        start = geometric_range_samples(region, q)
    elif init == "random":
        rng = np.random.default_rng(seed)
        start = rng.uniform(region.r_min, region.r_max, n)
    else:
        raise ValueError("init must be 'geometric' or 'random'")
    # iterate in the inverse domain; movement tolerance maps via |d(1/r)| ~ |dr| / r^2
    inv_tol = tolerance / region.r_max**2
    inv_codes, inv_hist = _lloyd_1d(1.0 / data, n, inv_tol, max_iters,
                                    np.sort(1.0 / start), return_history)
    samples = np.sort(1.0 / inv_codes)
    return (samples, inv_hist) if return_history else samples


def lloyd_angle_samples(data, p: int, tolerance: float, max_iters: int = 5000,
                        init: str = "uniform", seed=None, return_history: bool = False):
    "Angle samples adapted to empirical angle data, quantized in plain |theta - c|."
    data = np.asarray(data, dtype=np.float64)
    n = _sample_count(p)
    lo, hi = float(data.min()), float(data.max())
    if init == "uniform":
        span = max(hi - lo, 1e-12)
        start = lo + span * np.arange(1, n + 1) / (n + 1)
    elif init == "random":
        rng = np.random.default_rng(seed)
        start = rng.uniform(lo, hi, n)
    else:
        raise ValueError("init must be 'uniform' or 'random'")
    codes, hist = _lloyd_1d(data, n, tolerance, max_iters, np.sort(start), return_history)
    return (codes, hist) if return_history else codes


def grid_locations(angle_samples, range_samples, flat):
    """(theta, r) arrays behind flat indices of an angle x range grid.

    Grid point (i, j) pairs angle sample i with range sample j and lives at
    flat index i * len(range_samples) + j.
    """
    flat = np.asarray(flat)
    nq = len(range_samples)
    return np.asarray(angle_samples)[flat // nq], np.asarray(range_samples)[flat % nq]


def grid_codewords(cfg: ArrayConfig, angle_samples, range_samples, start: int,
                   stop: int) -> np.ndarray:
    "(stop - start, M) codewords at flat grid indices start..stop-1, by `steering_matrix_exact`."
    return steering_matrix_exact(cfg, *grid_locations(angle_samples, range_samples,
                                                      np.arange(start, stop)))


_EXPORT_BLOCK = 4096
"Codewords per block of `PolarCodebook.save_binary`."


@dataclass(frozen=True, eq=False)
class PolarCodebook:
    """Cartesian product of angle and range samples, one steering codeword each.

    Codeword (i, j) pairs angle sample i with range sample j and lives at
    flat index i * len(range_samples) + j.  Infinite range entries hold
    far-field DFT codewords.
    """

    cfg: ArrayConfig
    angle_samples: np.ndarray
    range_samples: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "angle_samples", np.asarray(self.angle_samples, dtype=np.float64))
        object.__setattr__(self, "range_samples", np.asarray(self.range_samples, dtype=np.float64))

    def __len__(self) -> int:
        return len(self.angle_samples) * len(self.range_samples)

    def flat_index(self, i: int, j: int) -> int:
        return i * len(self.range_samples) + j

    def locations(self, flat) -> tuple[np.ndarray, np.ndarray]:
        "The (theta, r) grid points behind an array of flat codeword indices."
        return grid_locations(self.angle_samples, self.range_samples, flat)

    def location(self, flat: int) -> tuple[float, float]:
        "The (theta, r) grid point behind a flat codeword index."
        theta, r = self.locations(flat)
        return float(theta), float(r)

    @property
    def codewords(self) -> np.ndarray:
        "The (len, M) codeword array, built anew on every access (len * M * 16 bytes)."
        return grid_codewords(self.cfg, self.angle_samples, self.range_samples, 0, len(self))

    def codeword(self, i: int, j: int) -> np.ndarray:
        flat = self.flat_index(i, j)
        return grid_codewords(self.cfg, self.angle_samples, self.range_samples,
                              flat, flat + 1)[0]

    def save_csv(self, path: str | Path) -> None:
        "Write `index,theta,range_m` rows; infinite ranges serialize as `inf`."
        thetas, ranges = self.locations(np.arange(len(self)))
        with open(path, "w", newline="") as fh:
            fh.write("index,theta,range_m\n")
            for flat, (th, rr) in enumerate(zip(thetas.tolist(), ranges.tolist())):
                fh.write(f"{flat},{th!r},{rr!r}\n")

    def save_binary(self, path: str | Path) -> None:
        """Header (M, angle count, range count as little-endian u32) then interleaved re/im f64.

        Codewords are built and written `_EXPORT_BLOCK` at a time.
        """
        with open(path, "wb") as fh:
            fh.write(struct.pack("<III", self.cfg.num_antennas,
                                 len(self.angle_samples), len(self.range_samples)))
            for start in range(0, len(self), _EXPORT_BLOCK):
                cw = grid_codewords(self.cfg, self.angle_samples, self.range_samples, start,
                                    min(start + _EXPORT_BLOCK, len(self)))
                fh.write(cw.astype("<c16", copy=False).tobytes())


def dft_angle_codebook(cfg: ArrayConfig, region: PolarRegion, total_bits: int) -> PolarCodebook:
    "2^total_bits uniform angle samples, all at infinite range (far-field codewords)."
    angles = uniform_angle_samples(region, total_bits)
    return PolarCodebook(cfg, angles, np.array([np.inf]))


def load_codebook_csv(cfg: ArrayConfig, path: str | Path) -> PolarCodebook:
    """Rebuild a codebook from its CSV location table.

    The rows must be the whole grid in flat order, as `save_csv` writes it:
    `index` runs 0..n-1 and each row is `locations(index)` of the rebuilt codebook.
    """
    index, thetas, ranges = [], [], []
    with open(path, newline="") as fh:
        header = fh.readline().strip()
        if header != "index,theta,range_m":
            raise ValueError(f"{path}: expected header 'index,theta,range_m'")
        for line in fh:
            i, th, rr = line.strip().split(",")
            index.append(int(i))
            thetas.append(float(th))
            ranges.append(float(rr))
    angle_samples = np.unique(thetas)
    range_samples = np.array(sorted(set(ranges), key=lambda x: (np.isinf(x), x)))
    cb = PolarCodebook(cfg, angle_samples, range_samples)
    if index != list(range(len(index))) or not np.array_equal(
            cb.locations(np.arange(len(cb))), (thetas, ranges)):
        raise ValueError(f"{path}: rows are not an angle x range grid in flat index order")
    return cb


def load_codebook_binary(path: str | Path):
    "Read back (M, codeword array) from the binary format."
    with open(path, "rb") as fh:
        m, n_ang, n_rng = struct.unpack("<III", fh.read(12))
        raw = np.frombuffer(fh.read(), dtype="<f8").reshape(n_ang * n_rng, 2 * m)
    return m, raw[:, 0::2] + 1j * raw[:, 1::2]


SCHEMES = ("geometric", "hyperbolic", "uniform", "dft", "hybrid", "extended")


def scheme_range_samples(scheme: str, region: PolarRegion, q: int) -> np.ndarray:
    builders = {
        "geometric": geometric_range_samples,
        "hyperbolic": hyperbolic_range_samples,
        "uniform": uniform_range_samples,
        "hybrid": hybrid_field_range_samples,
    }
    if scheme not in builders:
        raise ValueError(f"unknown range sampling scheme '{scheme}'")
    return builders[scheme](region, q)


def scheme_codebook(cfg: ArrayConfig, region: PolarRegion, scheme: str, p: int, q: int,
                    lloyd_data=None, lloyd_tolerance: float = 1e-6) -> PolarCodebook:
    """Benchmark codebook by name.

    `dft` spends all p + q bits on far-field angles; `extended` runs the
    Lloyd refinement on `lloyd_data` ranges and keeps uniform angles.
    """
    if scheme == "dft":
        return dft_angle_codebook(cfg, region, p + q)
    angles = uniform_angle_samples(region, p)
    if scheme == "extended":
        if lloyd_data is None:
            raise ValueError("extended scheme needs range training data")
        ranges = lloyd_range_samples(lloyd_data, q, lloyd_tolerance)
    else:
        ranges = scheme_range_samples(scheme, region, q)
    return PolarCodebook(cfg, angles, ranges)
