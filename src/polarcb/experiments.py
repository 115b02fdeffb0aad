"""Config-driven experiment runner: reproducible sweeps, CSV emission, seeding.

Rates use the array-gain-normalized SNR convention: the configured SNR is
p_total / sigma^2 with unit-power channels, realized by evaluating the rate
formula with noise variance M (channels carry ||h||^2 ~ M).  Trial seeds are
derived as (base_seed, stream, trial) so results never depend on scheduling
or worker count.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .array_model import ArrayConfig, PolarCoord, PolarRegion, steering_matrix_exact
from .allocation import optimize_allocation
from .channels import los_channel, multipath_channel, multipath_channel_equal
from .codebooks import SCHEMES, PolarCodebook, scheme_codebook
from .distributions import (MIN_TRUNCATION_MASS, DistributionSpec, GaussianMixtureRange,
                            HotSpotRange, TruncatedGaussianRange, UniformPolar,
                            load_empirical_csv, sample_locations, truncation_mass)
from .feedback import MAX_ZF_CONDITION, RVQCodebook, best_codeword_scan, rvq_generate
from .parallel import available_cpus, ordered_map
from . import gain_theory

EXPERIMENTS = ("rate_vs_snr", "gain_vs_q", "gain_vs_m", "gain_vs_rmax", "multipath_gain_vs_q")

_INTEGER_SWEEPS = ("gain_vs_q", "gain_vs_m", "multipath_gain_vs_q")
"Experiments whose sweep values are bit counts or antenna counts."

CSV_HEADER = "sweep_value,scheme,metric,mean,stderr,n_trials,seed"


class ConfigError(ValueError):
    "Invalid or unknown configuration content."


@dataclass
class ExperimentConfig:
    experiment: str = "rate_vs_snr"
    num_antennas: int = 387
    carrier_ghz: float = 30.0
    theta_min: float = -0.5
    theta_max: float = 0.5
    r_min: float = 4.0
    r_max: float = 120.0
    distribution: str = "uniform"
    hot_lo: float = 10.0
    hot_hi: float = 20.0
    hot_mass: float = 0.9
    gauss_mean: float = 20.0
    gauss_std: float = 10.0
    gmm_components: str = ""
    empirical_csv: str = ""
    schemes: tuple = ("geometric", "hyperbolic", "uniform", "dft", "hybrid", "full_csi")
    p: int = 12
    q: int = 3
    k_users: int = 4
    l_paths: int = 3
    kappa_db: float = 9.54
    b2: int = 12
    snr_db: float = 22.0
    n_trials: int = 1000
    seed: int = 0
    sweep: tuple = ()
    out: str = ""
    threads: int = 1
    n_train: int = 100000
    lloyd_tolerance: float = 1e-6
    b1: int = 16
    n_mc: int = 300
    scheme: str = "geometric"

    def array_config(self) -> ArrayConfig:
        return ArrayConfig(self.num_antennas, carrier_frequency=self.carrier_ghz * 1e9)

    def region(self) -> PolarRegion:
        return PolarRegion(self.theta_min, self.theta_max, self.r_min, self.r_max)

    def distribution_spec(self) -> DistributionSpec:
        reg = self.region()
        if self.distribution == "uniform":
            return UniformPolar(reg)
        if self.distribution == "hotspot":
            return HotSpotRange(reg, self.hot_lo, self.hot_hi, self.hot_mass)
        if self.distribution == "gaussian":
            return TruncatedGaussianRange(reg, self.gauss_mean, self.gauss_std)
        if self.distribution == "gmm":
            comps = []
            for part in self.gmm_components.split(";"):
                fields = part.split(":")
                if len(fields) != 3:
                    raise ConfigError(f"gmm component '{part}' is not 'weight:mean:std'")
                comps.append(tuple(float(x) for x in fields))
            return GaussianMixtureRange(reg, tuple(comps))
        if self.distribution == "empirical":
            return load_empirical_csv(self.empirical_csv)
        raise ConfigError(f"unknown distribution '{self.distribution}'")


_PARSERS = {
    "experiment": str, "num_antennas": int, "carrier_ghz": float,
    "theta_min": float, "theta_max": float, "r_min": float, "r_max": float,
    "distribution": str, "hot_lo": float, "hot_hi": float, "hot_mass": float,
    "gauss_mean": float, "gauss_std": float, "gmm_components": str, "empirical_csv": str,
    "schemes": lambda s: tuple(x.strip() for x in s.split(",") if x.strip()),
    "p": int, "q": int, "k_users": int, "l_paths": int, "kappa_db": float,
    "b2": int, "snr_db": float, "n_trials": int, "seed": int,
    "sweep": lambda s: tuple(float(x) for x in s.split(",") if x.strip()),
    "out": str, "threads": int, "n_train": int, "lloyd_tolerance": float,
    "b1": int, "n_mc": int, "scheme": str,
}

_FLOAT_KEYS = tuple(key for key, parse in _PARSERS.items() if parse is float)


def parse_config_text(text: str) -> dict:
    "Parse `key = value` lines; '#' starts a comment; unknown keys are errors."
    raw = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        try:
            raw[key] = _PARSERS[key](value)
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(f"line {lineno}: bad value for '{key}': {exc}") from None
    return raw


def load_config(path: str | Path, **overrides) -> ExperimentConfig:
    raw = parse_config_text(Path(path).read_text())
    raw.update({k: v for k, v in overrides.items() if v is not None})
    cfg = ExperimentConfig(**raw)
    validate_config(cfg)
    return cfg


def validate_config(c: ExperimentConfig) -> None:
    if c.experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment '{c.experiment}'")
    if c.n_trials < 1:
        raise ConfigError("n_trials must be >= 1")
    if c.threads < 1:
        raise ConfigError("threads must be >= 1")
    if c.seed < 0:
        raise ConfigError("seed must be >= 0")
    if c.k_users < 1 or c.l_paths < 1:
        raise ConfigError("k_users and l_paths must be >= 1")
    bad = [key for key in _FLOAT_KEYS if not math.isfinite(getattr(c, key))]
    if not all(map(math.isfinite, c.sweep)):
        bad.append("sweep")
    if bad:
        raise ConfigError(f"values must be finite numbers: {bad}")
    if c.carrier_ghz <= 0:
        raise ConfigError("carrier_ghz must be > 0")
    bad = [key for key in ("p", "q", "b2", "b1") if getattr(c, key) < 0]
    if bad:
        raise ConfigError(f"bit counts must be >= 0: {bad}")
    try:
        c.array_config()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    _check_distribution(c)
    if c.experiment == "gain_vs_rmax":
        for r_max in c.sweep:
            _check_distribution(replace(c, r_max=r_max))
    valid = set(SCHEMES) | {"full_csi"}
    bad = [s for s in c.schemes if s not in valid]
    if bad:
        raise ConfigError(f"unknown schemes: {bad}")
    if c.sweep and list(c.sweep) != sorted(set(c.sweep)):
        raise ConfigError("sweep values must be strictly increasing")
    if c.experiment in _INTEGER_SWEEPS and not all(float(v).is_integer() for v in c.sweep):
        raise ConfigError(f"{c.experiment} sweeps integers; got {list(c.sweep)}")
    if c.experiment != "rate_vs_snr" and "full_csi" in c.schemes:
        raise ConfigError("full_csi only applies to rate experiments")


def _check_distribution(c: ExperimentConfig) -> None:
    "Build the configured location law; reject it if invalid or sampled too slowly."
    try:
        spec = c.distribution_spec()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    mass = truncation_mass(spec)
    if mass < MIN_TRUNCATION_MASS:
        raise ConfigError(f"the {c.distribution} range law keeps mass {mass:.3g} inside "
                          f"[{c.r_min}, {c.r_max}] m, below the floor {MIN_TRUNCATION_MASS:g}")


def stream_seed(seed, stream: str, *extra) -> tuple:
    "Numeric seed tuple derived from a base seed and a named stream."
    return (seed, zlib.crc32(stream.encode()), *extra)


def trial_rng(seed, stream: str, index: int) -> np.random.Generator:
    "Counter-based per-trial generator; independent of worker scheduling."
    return np.random.default_rng(stream_seed(seed, stream, index))


def _chunks(n: int, parts: int):
    size = math.ceil(n / parts)
    return [range(lo, min(lo + size, n)) for lo in range(0, n, size)]


def _parallel_trials(fn, n_trials: int, threads: int):
    """Run fn(trial_index) for every trial, preserving trial order in the output.

    Uses at most min(threads, n_trials, available CPUs) threads; every trial
    draws from its own stream, so the count changes no result.
    """
    workers = min(threads, n_trials, available_cpus())
    if workers <= 1:
        return [fn(t) for t in range(n_trials)]
    parts = ordered_map(lambda chunk: [fn(t) for t in chunk], _chunks(n_trials, workers),
                        workers)
    return [result for part in parts for result in part]


def build_scheme_codebook(c: ExperimentConfig, scheme: str, p: int, q: int,
                          region: PolarRegion | None = None) -> PolarCodebook:
    region = region or c.region()
    lloyd_data = None
    if scheme == "extended":
        pts = sample_locations(c.distribution_spec(), c.n_train, stream_seed(c.seed, "train"))
        lloyd_data = pts[:, 1]
    return scheme_codebook(c.array_config(), region, scheme, p, q,
                           lloyd_data=lloyd_data, lloyd_tolerance=c.lloyd_tolerance)


def draw_channels(c: ExperimentConfig, spec: DistributionSpec, trial: int,
                  equal_gains: bool = False):
    """One trial's K user channels (and their location coords).

    `spec` is `c.distribution_spec()`, built once per run by the caller: an
    empirical law reads its CSV file when built.
    """
    cfg = c.array_config()
    locs = sample_locations(spec, c.k_users, trial_rng(c.seed, "loc", trial))
    coords = [PolarCoord(float(t), float(r)) for t, r in locs]
    channels = []
    for k, coord in enumerate(coords):
        if c.l_paths == 1:
            channels.append(los_channel(cfg, coord))
            continue
        scat_pts = sample_locations(UniformPolar(c.region()), c.l_paths - 1,
                                    trial_rng(c.seed, f"scat{k}", trial))
        scats = [PolarCoord(float(t), float(r)) for t, r in scat_pts]
        gain_rng = trial_rng(c.seed, f"gain{k}", trial)
        if equal_gains:
            channels.append(multipath_channel_equal(cfg, [coord] + scats, gain_rng))
        else:
            channels.append(multipath_channel(cfg, coord, scats, c.kappa_db, gain_rng))
    return channels, coords


def _batched_beamformers(c: ExperimentConfig, vectors: np.ndarray, coords: np.ndarray,
                         cb1: PolarCodebook | None, cb2: RVQCodebook | None, full_csi: bool):
    "Vectorized phase 1 + 2 + ZF across trials; vectors is (T, K, M)."
    cfg = c.array_config()
    n_trials, k_users, m = vectors.shape
    if full_csi:
        f_rf = steering_matrix_exact(cfg, coords[..., 0], coords[..., 1])
    else:
        flat = vectors.reshape(n_trials * k_users, m)
        _, idx = best_codeword_scan(cfg, flat, cb1.angle_samples, cb1.range_samples)
        f_rf = steering_matrix_exact(cfg, *cb1.locations(idx)).reshape(n_trials, k_users, m)
    f_rf = np.swapaxes(f_rf, 1, 2)                       # (T, M, K)
    g = np.einsum("tkm,tml->tkl", vectors.conj(), f_rf)  # rows h_k^H F_RF
    if full_csi:
        ghat = g
    else:
        scores = np.abs(np.einsum("cj,tkj->tkc", cb2.codewords, g))
        pick = np.argmax(scores, axis=2)
        ghat = cb2.codewords[pick].conj()
    # rank-deficient trials (users quantized onto one codeword) are kept but
    # regularized: the pinv drops the shared direction and those users see
    # outage-level rates instead of aborting the sweep
    f_bb = np.linalg.pinv(ghat, rcond=1.0 / MAX_ZF_CONDITION)
    norms = np.linalg.norm(f_bb, axis=1, keepdims=True)
    f_bb = f_bb / np.maximum(norms, 1e-300)
    hybrid = np.einsum("tmk,tkl->tml", f_rf, f_bb)
    hybrid = hybrid / np.maximum(np.linalg.norm(hybrid, axis=1, keepdims=True), 1e-300)
    return np.abs(np.einsum("tkm,tml->tkl", vectors.conj(), hybrid))  # |h_k^H F f_l|


def _rates_from_rx(rx_abs: np.ndarray, p_total: float, noise_var: float) -> np.ndarray:
    "Per-trial per-user rates from |h_k^H F f_l| magnitudes."
    k_users = rx_abs.shape[1]
    p_share = p_total / k_users
    power = p_share * rx_abs**2
    sig = np.einsum("tkk->tk", power)
    interf = power.sum(axis=2) - sig
    return np.log2(1.0 + sig / (interf + noise_var))


def run_rate_vs_snr(c: ExperimentConfig):
    "Sum-rate vs SNR rows for every configured scheme."
    cfg = c.array_config()
    snrs = c.sweep or (c.snr_db,)
    spec = c.distribution_spec()
    drawn = _parallel_trials(lambda t: draw_channels(c, spec, t), c.n_trials, c.threads)
    vectors = np.array([[ch.vector for ch in chans] for chans, _ in drawn])
    coords = np.array([[(co.theta, co.r) for co in cos] for _, cos in drawn])
    cb2 = rvq_generate(c.k_users, c.b2, "isotropic", stream_seed(c.seed, "rvq"))
    rows = []
    for scheme in sorted(c.schemes):
        full = scheme == "full_csi"
        cb1 = None if full else build_scheme_codebook(c, scheme, c.p, c.q)
        rx = _batched_beamformers(c, vectors, coords, cb1, cb2, full)
        for snr in snrs:
            rates = _rates_from_rx(rx, 10.0 ** (snr / 10.0), float(cfg.num_antennas))
            sums = rates.sum(axis=1)
            rows.append((snr, scheme, "sum_rate_bps_hz", sums.mean(),
                         sums.std(ddof=1) / math.sqrt(len(sums)) if len(sums) > 1 else 0.0))
    rows.sort(key=lambda row: (row[0], row[1]))
    return rows


def _gain_rows(c: ExperimentConfig, sweep_values, builder, points_for):
    "Shared shape of the beamforming-gain sweeps: mean best-codeword gain per scheme."
    rows = []
    for value in sweep_values:
        pts = points_for(value)
        for scheme in sorted(c.schemes):
            cb = builder(value, scheme)
            cfg = cb.cfg
            vecs = steering_matrix_exact(cfg, pts[:, 0], pts[:, 1])
            gains, _ = best_codeword_scan(cfg, vecs, cb.angle_samples, cb.range_samples)
            se = gains.std(ddof=1) / math.sqrt(len(gains)) if len(gains) > 1 else 0.0
            rows.append((value, scheme, "beamforming_gain", gains.mean(), se))
    rows.sort(key=lambda row: (row[0], row[1]))
    return rows


def run_gain_vs_q(c: ExperimentConfig):
    sweep = [int(v) for v in (c.sweep or (c.q,))]
    pts = sample_locations(c.distribution_spec(), c.n_trials, stream_seed(c.seed, "gain"))
    return _gain_rows(c, sweep, lambda q, s: build_scheme_codebook(c, s, c.p, q),
                      lambda q: pts)


def run_gain_vs_m(c: ExperimentConfig):
    sweep = [int(v) for v in (c.sweep or (c.num_antennas,))]
    pts = sample_locations(c.distribution_spec(), c.n_trials, stream_seed(c.seed, "gain"))

    def builder(m, scheme):
        sub = replace(c, num_antennas=m)
        return build_scheme_codebook(sub, scheme, c.p, c.q)

    return _gain_rows(c, sweep, builder, lambda m: pts)


def run_gain_vs_rmax(c: ExperimentConfig):
    sweep = list(c.sweep or (c.r_max,))

    def builder(rmax, scheme):
        sub = replace(c, r_max=rmax)
        return build_scheme_codebook(sub, scheme, c.p, c.q)

    def points_for(rmax):
        sub = replace(c, r_max=rmax)
        return sample_locations(sub.distribution_spec(), c.n_trials,
                                stream_seed(c.seed, "gain", int(rmax * 1000)))

    return _gain_rows(c, sweep, builder, points_for)


def run_multipath_gain_vs_q(c: ExperimentConfig):
    "Mean reconstruction correlation of per-path feedback vs range bits per path."
    from .feedback import multipath_feedback

    cfg = c.array_config()
    sweep = [int(v) for v in (c.sweep or (c.q,))]
    gain_cb = rvq_generate(c.l_paths, c.b2, "isotropic", stream_seed(c.seed, "gainrvq"))
    spec = c.distribution_spec()
    drawn = _parallel_trials(lambda t: draw_channels(c, spec, t, equal_gains=True),
                             c.n_trials, c.threads)
    channels = [ch for chans, _ in drawn for ch in chans]
    rows = []
    for q in sweep:
        for scheme in sorted(c.schemes):
            cb = build_scheme_codebook(c, scheme, c.p, q)
            corrs = np.array([multipath_feedback(cfg, ch, cb, gain_cb)[1]
                              for ch in channels])
            rows.append((q, scheme, "channel_correlation", corrs.mean(),
                         corrs.std(ddof=1) / math.sqrt(len(corrs))))
    rows.sort(key=lambda row: (row[0], row[1]))
    return rows


_RUNNERS = {
    "rate_vs_snr": run_rate_vs_snr,
    "gain_vs_q": run_gain_vs_q,
    "gain_vs_m": run_gain_vs_m,
    "gain_vs_rmax": run_gain_vs_rmax,
    "multipath_gain_vs_q": run_multipath_gain_vs_q,
}


def run_experiment(c: ExperimentConfig) -> str:
    "Run the configured experiment; returns the CSV text (also written to c.out)."
    validate_config(c)
    rows = _RUNNERS[c.experiment](c)
    lines = [CSV_HEADER]
    for value, scheme, metric, mean, stderr in rows:
        lines.append(f"{value!r},{scheme},{metric},{float(mean)!r},{float(stderr)!r},"
                     f"{c.n_trials},{c.seed}")
    text = "\n".join(lines) + "\n"
    if c.out:
        Path(c.out).write_text(text)
    return text


def emit_codebook(c: ExperimentConfig) -> tuple[Path, Path]:
    "Write the configured scheme's codebook as CSV and binary files."
    cb = build_scheme_codebook(c, c.scheme, c.p, c.q)
    base = Path(c.out) if c.out else Path("codebook")
    csv_path = base.with_suffix(".csv")
    bin_path = base.with_suffix(".bin")
    cb.save_csv(csv_path)
    cb.save_binary(bin_path)
    return csv_path, bin_path


def run_allocation(c: ExperimentConfig) -> str:
    "Exhaustive (p, q) table at p + q = b1; returns CSV text."
    result = optimize_allocation(c.b1, c.distribution_spec(), c.array_config(),
                                 c.n_mc, stream_seed(c.seed, "alloc"), scheme=c.scheme)
    lines = ["p,q,gamma_hat,stderr"]
    for p, q, g, se in result.gain_table:
        lines.append(f"{p},{q},{float(g)!r},{float(se)!r}")
    text = "\n".join(lines) + "\n"
    if c.out:
        Path(c.out).write_text(text)
    return text


def theory_report(c: ExperimentConfig) -> str:
    "Closed-form vs oracle comparison table as CSV."
    from scipy.integrate import quad

    cfg = c.array_config()
    region = c.region()
    rows = []
    rng = np.random.default_rng(stream_seed(c.seed, "theory"))

    a = rng.uniform(region.r_min, region.r_max / 2)
    b = a * rng.uniform(1.5, 3.0)
    closed = gain_theory.cell_range_error(a, b)
    mid = (a + b) / 2
    oracle = quad(lambda r: abs(1 / r - 1 / mid) / (b - a), a, b, points=[mid], limit=200)[0]
    rows.append(("cell_error_closed_vs_quadrature", closed, oracle))

    closed = gain_theory.expected_range_error(region, c.q)
    cells = gain_theory.geometric_cells(region, c.q)
    oracle = sum(quad(lambda r: abs(1 / r - 2 / (cells[i] + cells[i + 1])) / region.range_span,
                      cells[i], cells[i + 1], points=[(cells[i] + cells[i + 1]) / 2])[0]
                 for i in range(2**c.q))
    rows.append(("partition_error_closed_vs_quadrature", closed, oracle))

    mean_u = gain_theory.mean_vartheta(region) * gain_theory.expected_range_error(region, c.q)
    approx = gain_theory.expected_gain_approx(cfg, gain_theory.expected_angle_error(region, c.p),
                                              mean_u)
    pts = sample_locations(UniformPolar(region), c.n_mc, stream_seed(c.seed, "gainmc"))
    cb = build_scheme_codebook(c, "geometric", c.p, c.q)
    vecs = steering_matrix_exact(cfg, pts[:, 0], pts[:, 1])
    gains, _ = best_codeword_scan(cfg, vecs, cb.angle_samples, cb.range_samples)
    rows.append(("decoupled_gain_vs_monte_carlo", approx, float(gains.mean())))

    cal = gain_theory.calibrate(cfg, 0.95, region)
    rows.append(("angle_bits_per_doubling",
                 gain_theory.required_angle_bits(2 * cfg.num_antennas, 0.95, region, cal)
                 - gain_theory.required_angle_bits(cfg.num_antennas, 0.95, region, cal), 1.0))
    rows.append(("range_bits_per_doubling",
                 gain_theory.required_range_bits(2 * cfg.num_antennas, 0.95, region, cal)
                 - gain_theory.required_range_bits(cfg.num_antennas, 0.95, region, cal), 2.0))

    th_theta, th_r = gain_theory.gain_thresholds(cfg)
    rows.append(("angle_error_threshold", th_theta, float("nan")))
    rows.append(("range_error_threshold", th_r, float("nan")))

    # rate-gap bound vs a measured per-user gap on a short protocol run
    if c.k_users < 2:
        return _theory_csv(rows, c)
    sub = replace(c, n_trials=c.n_mc, schemes=("geometric",))
    spec = sub.distribution_spec()
    drawn = _parallel_trials(lambda t: draw_channels(sub, spec, t), sub.n_trials, sub.threads)
    vectors = np.array([[ch.vector for ch in chans] for chans, _ in drawn])
    coords = np.array([[(co.theta, co.r) for co in cos] for _, cos in drawn])
    cb2 = rvq_generate(sub.k_users, sub.b2, "isotropic", stream_seed(sub.seed, "rvq"))
    rx_geo = _batched_beamformers(sub, vectors, coords, cb, cb2, False)
    rx_full = _batched_beamformers(sub, vectors, coords, None, None, True)
    flat = vectors.reshape(-1, cfg.num_antennas)
    ph1, _ = best_codeword_scan(cfg, flat, cb.angle_samples, cb.range_samples)
    gamma_hat = float((ph1 / np.linalg.norm(flat, axis=1)).mean())
    p_tot = 10.0 ** (sub.snr_db / 10.0)
    gap = (_rates_from_rx(rx_full, p_tot, float(cfg.num_antennas))
           - _rates_from_rx(rx_geo, p_tot, float(cfg.num_antennas))).sum(axis=1) / sub.k_users
    bound = gain_theory.rate_gap_bound(gamma_hat, p_tot, sub.k_users, sub.b2)
    rows.append(("rate_gap_bound_vs_measured", bound, float(gap.mean())))
    return _theory_csv(rows, c)


def _theory_csv(rows, c: ExperimentConfig) -> str:
    lines = ["item,closed_form,oracle,rel_diff"]
    for name, closed, oracle in rows:
        rel = abs(closed - oracle) / abs(oracle) if oracle == oracle and oracle != 0 else float("nan")
        lines.append(f"{name},{float(closed)!r},{float(oracle)!r},{float(rel)!r}")
    text = "\n".join(lines) + "\n"
    if c.out:
        Path(c.out).write_text(text)
    return text
