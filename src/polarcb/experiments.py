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

from .array_model import ArrayConfig, PolarCoord, PolarRegion
from .allocation import mean_best_gain, optimize_allocation
from .channels import los_channel, multipath_channel, multipath_channel_equal
from .codebooks import SCHEMES, PolarCodebook, scheme_codebook
from .distributions import (MIN_TRUNCATION_MASS, DistributionSpec, GaussianMixtureRange,
                            HotSpotRange, TruncatedGaussianRange, UniformPolar,
                            load_empirical_csv, mean_stderr, sample_locations, truncation_mass)
# bound under this name, which the benchmark traces as the beamforming layer
from .feedback import run_protocol_batch as _batched_beamformers
from .feedback import multipath_feedback, rvq_generate, zf_rates
from .parallel import available_cpus, ordered_map
from . import gain_theory

EXPERIMENTS = ("rate_vs_snr", "gain_vs_q", "gain_vs_m", "gain_vs_rmax", "multipath_gain_vs_q")

_INTEGER_SWEEPS = {"gain_vs_q": 0, "gain_vs_m": 1, "multipath_gain_vs_q": 0}
"Experiments whose sweep values are bit counts (q) or antenna counts (M), with their least value."

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
    if c.scheme not in SCHEMES:
        raise ConfigError(f"unknown scheme '{c.scheme}'")
    if c.sweep and list(c.sweep) != sorted(set(c.sweep)):
        raise ConfigError("sweep values must be strictly increasing")
    least = _INTEGER_SWEEPS.get(c.experiment)
    if least is not None and not all(float(v).is_integer() and v >= least for v in c.sweep):
        raise ConfigError(f"{c.experiment} sweeps integers >= {least}; got {list(c.sweep)}")
    swept_q = c.experiment in ("gain_vs_q", "multipath_gain_vs_q") and c.sweep
    if (("hybrid" in c.schemes and min(c.sweep if swept_q else (c.q,)) < 1)
            or (c.scheme == "hybrid" and c.q < 1)):
        raise ConfigError("the hybrid scheme needs q >= 1, at q and at every swept q")
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


def build_scheme_codebook(c: ExperimentConfig, scheme: str) -> PolarCodebook:
    "The named scheme's codebook at the config's p and q."
    lloyd_data = None
    if scheme == "extended":
        pts = sample_locations(c.distribution_spec(), c.n_train, stream_seed(c.seed, "train"))
        lloyd_data = pts[:, 1]
    return scheme_codebook(c.array_config(), c.region(), scheme, c.p, c.q,
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
        cb1 = None if full else build_scheme_codebook(c, scheme)
        rx = _batched_beamformers(cfg, vectors, cb1, cb2, full, coords).rx
        for snr in snrs:
            sums = zf_rates(rx, 10.0 ** (snr / 10.0), float(cfg.num_antennas)).sum(axis=1)
            rows.append((snr, scheme, "sum_rate_bps_hz", *mean_stderr(sums)))
    return rows


def _gain_rows(c: ExperimentConfig, key: str, sweep_values, points_for):
    """Shared shape of the beamforming-gain sweeps: mean best-codeword gain per scheme.

    Each sweep value replaces the config field `key`; `points_for(sub, value)`
    gives the user locations for the replaced config `sub`.
    """
    rows = []
    for value in sweep_values:
        sub = replace(c, **{key: value})
        pts = points_for(sub, value)
        for scheme in sorted(c.schemes):
            cb = build_scheme_codebook(sub, scheme)
            rows.append((value, scheme, "beamforming_gain", *mean_best_gain(cb, pts)))
    return rows


def run_gain_vs_q(c: ExperimentConfig):
    pts = sample_locations(c.distribution_spec(), c.n_trials, stream_seed(c.seed, "gain"))
    return _gain_rows(c, "q", [int(v) for v in (c.sweep or (c.q,))], lambda sub, q: pts)


def run_gain_vs_m(c: ExperimentConfig):
    pts = sample_locations(c.distribution_spec(), c.n_trials, stream_seed(c.seed, "gain"))
    return _gain_rows(c, "num_antennas", [int(v) for v in (c.sweep or (c.num_antennas,))],
                      lambda sub, m: pts)


def run_gain_vs_rmax(c: ExperimentConfig):
    def points_for(sub, rmax):
        return sample_locations(sub.distribution_spec(), c.n_trials,
                                stream_seed(c.seed, "gain", int(rmax * 1000)))

    return _gain_rows(c, "r_max", list(c.sweep or (c.r_max,)), points_for)


def run_multipath_gain_vs_q(c: ExperimentConfig):
    "Mean reconstruction correlation of per-path feedback vs range bits per path."
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
            cb = build_scheme_codebook(replace(c, q=q), scheme)
            corrs = np.array([multipath_feedback(cfg, ch, cb, gain_cb)[1]
                              for ch in channels])
            rows.append((q, scheme, "channel_correlation", *mean_stderr(corrs)))
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
    rows = sorted(_RUNNERS[c.experiment](c), key=lambda row: (row[0], row[1]))
    lines = [CSV_HEADER]
    for value, scheme, metric, mean, stderr in rows:
        lines.append(f"{value!r},{scheme},{metric},{float(mean)!r},{float(stderr)!r},"
                     f"{c.n_trials},{c.seed}")
    return _csv_text(c, lines)


def _csv_text(c: ExperimentConfig, lines) -> str:
    "The CSV text of `lines`, also written to c.out when it is set."
    text = "\n".join(lines) + "\n"
    if c.out:
        Path(c.out).write_text(text)
    return text


def emit_codebook(c: ExperimentConfig) -> tuple[Path, Path]:
    "Write the configured scheme's codebook as CSV and binary files."
    cb = build_scheme_codebook(c, c.scheme)
    base = Path(c.out) if c.out else Path("codebook")
    csv_path = base.with_suffix(".csv")
    bin_path = base.with_suffix(".bin")
    cb.save_csv(csv_path)
    cb.save_binary(bin_path)
    return csv_path, bin_path


_ALLOCATION_SCHEMES = ("geometric", "hyperbolic", "uniform", "dft")
"Schemes with a codebook at every split p + q = b1 (hybrid needs q >= 1, extended training data)."


def run_allocation(c: ExperimentConfig) -> str:
    "Exhaustive (p, q) table at p + q = b1; returns CSV text."
    if c.b1 < 1 or c.n_mc < 1:
        raise ConfigError("allocate needs b1 >= 1 and n_mc >= 1")
    if c.scheme not in _ALLOCATION_SCHEMES or c.distribution == "empirical":
        raise ConfigError(f"allocate supports the schemes {list(_ALLOCATION_SCHEMES)} and no "
                          f"empirical distribution; got {c.scheme}, {c.distribution}")
    result = optimize_allocation(c.b1, c.distribution_spec(), c.array_config(),
                                 c.n_mc, stream_seed(c.seed, "alloc"), scheme=c.scheme)
    lines = ["p,q,gamma_hat,stderr"]
    for p, q, g, se in result.gain_table:
        lines.append(f"{p},{q},{float(g)!r},{float(se)!r}")
    return _csv_text(c, lines)


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
    cb = build_scheme_codebook(c, "geometric")
    rows.append(("decoupled_gain_vs_monte_carlo", approx, mean_best_gain(cb, pts)[0]))

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
    geo = _batched_beamformers(cfg, vectors, cb, cb2)
    full = _batched_beamformers(cfg, vectors, None, None, True, coords)
    gamma_hat = float((geo.phase1_gains / np.linalg.norm(vectors, axis=2)).mean())
    p_tot = 10.0 ** (sub.snr_db / 10.0)
    gap = (zf_rates(full.rx, p_tot, float(cfg.num_antennas))
           - zf_rates(geo.rx, p_tot, float(cfg.num_antennas))).sum(axis=1) / sub.k_users
    bound = gain_theory.rate_gap_bound(gamma_hat, p_tot, sub.k_users, sub.b2)
    rows.append(("rate_gap_bound_vs_measured", bound, float(gap.mean())))
    return _theory_csv(rows, c)


def _theory_csv(rows, c: ExperimentConfig) -> str:
    lines = ["item,closed_form,oracle,rel_diff"]
    for name, closed, oracle in rows:
        rel = abs(closed - oracle) / abs(oracle) if oracle == oracle and oracle != 0 else float("nan")
        lines.append(f"{name},{float(closed)!r},{float(oracle)!r},{float(rel)!r}")
    return _csv_text(c, lines)
