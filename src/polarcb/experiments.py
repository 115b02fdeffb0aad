"""Config-driven experiment runner: reproducible sweeps, CSV emission, seeding.

Rates use the array-gain-normalized SNR convention: the configured SNR is
p_total / sigma^2 with unit-power channels, realized by evaluating the rate
formula with noise variance M (channels carry ||h||^2 ~ M).  Trial seeds are
derived as (base_seed, stream, trial) so results never depend on scheduling
or worker count.
"""

from __future__ import annotations

import math
import sys
import warnings
import zlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .array_model import ArrayConfig, PolarRegion, steering_matrix_exact
from .allocation import _mean_gain, mean_best_gain, optimize_allocation
from .channels import (ChannelArrays, channel_vectors, equal_path_gains,
                       rician_path_gains)
from .codebooks import SCHEMES, PolarCodebook, scheme_codebook
from .distributions import (MIN_TRUNCATION_MASS, DistributionSpec, GaussianMixtureRange,
                            HotSpotRange, TruncatedGaussianRange, UniformPolar,
                            load_empirical_csv, mean_stderr, sample_locations, truncation_mass)
# bound under this name, which the benchmark traces as the beamforming layer
from .feedback import run_protocol_batch as _batched_beamformers
from .feedback import (_PATH_ROWS, multipath_feedback_batch, quantize_path_gains, rvq_generate,
                       zf_rates)
from . import gain_theory
from .parallel import run_steps

EXPERIMENTS = ("rate_vs_snr", "gain_vs_q", "gain_vs_m", "gain_vs_rmax", "multipath_gain_vs_q")

MAX_CODEBOOK_ENTRIES = 2**24
"""Largest codebook a config may ask for: 2^(p+q) phase-1 codewords (2^b1 for
`allocate`), or 2^b2 * K RVQ entries (2^b2 * L for the path-gain codebook)."""

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
    schemes: tuple[str, ...] = ("geometric", "hyperbolic", "uniform", "dft", "hybrid", "full_csi")
    p: int = 12
    q: int = 3
    k_users: int = 4
    l_paths: int = 3
    kappa_db: float = 9.54
    b2: int = 12
    snr_db: float = 22.0
    n_trials: int = 1000
    seed: int = 0
    sweep: tuple[float, ...] = ()
    out: str = ""
    threads: int = 1                # deprecated, no effect; validate_config warns unless 1
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


def _parser(kind):
    "Parser of a field annotated `kind`: the scalar type, or a comma list of a tuple's items."
    if get_origin(kind) is not tuple:
        return kind
    item = get_args(kind)[0]
    return lambda s: tuple(item(x.strip()) for x in s.split(",") if x.strip())


_PARSERS = {key: _parser(kind) for key, kind in get_type_hints(ExperimentConfig).items()}

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


def load_config(path: str | Path, command: str = "simulate", **overrides) -> ExperimentConfig:
    raw = parse_config_text(Path(path).read_text())
    raw.update({k: v for k, v in overrides.items() if v is not None})
    cfg = ExperimentConfig(**raw)
    validate_config(cfg, command)
    return cfg


def validate_config(c: ExperimentConfig, command: str = "simulate") -> None:
    "Raise ConfigError unless CLI `command` can run `c`, checking only what `command` reads."
    simulate = command == "simulate"
    if simulate and c.experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment '{c.experiment}'")
    if c.n_trials < 1 or c.n_mc < 1:
        raise ConfigError("n_trials and n_mc must be >= 1")
    if c.threads < 1:
        raise ConfigError("threads must be >= 1")
    if c.threads != 1:
        warnings.warn("threads is deprecated and has no effect: trials draw in one thread, "
                      "and the phase-1 scan and the channel assembly size their own pools",
                      FutureWarning)
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
    decibels = [(key, getattr(c, key)) for key in _DB_KEYS]
    if simulate and c.experiment == "rate_vs_snr":
        decibels += [("sweep", v) for v in c.sweep]
    bad = sorted({key for key, value in decibels if not _power_ratio_finite(value)})
    if bad:
        raise ConfigError(f"dB values must have a finite power ratio 10^(x/10): {bad}")
    bad = [key for key in ("p", "q", "b2", "b1") if getattr(c, key) < 0]
    if bad:
        raise ConfigError(f"bit counts must be >= 0: {bad}")
    try:
        c.array_config()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    _check_distribution(c)
    if simulate:
        if c.experiment == "gain_vs_rmax":
            for r_max in c.sweep:
                _check_distribution(replace(c, r_max=r_max))
        if not c.schemes or len(set(c.schemes)) != len(c.schemes):
            raise ConfigError(f"schemes must name at least one scheme, each once; "
                              f"got {list(c.schemes)}")
        if c.sweep and list(c.sweep) != sorted(set(c.sweep)):
            raise ConfigError("sweep values must be strictly increasing")
        least = _INTEGER_SWEEPS.get(c.experiment)
        if least is not None and not all(float(v).is_integer() and v >= least for v in c.sweep):
            raise ConfigError(f"{c.experiment} sweeps integers >= {least}; got {list(c.sweep)}")
    swept_q = simulate and c.experiment in ("gain_vs_q", "multipath_gain_vs_q") and c.sweep
    qs = [int(v) for v in c.sweep] if swept_q else [c.q]
    if command == "allocate" and (c.b1 < 1 or c.scheme not in _ALLOCATION_SCHEMES
                                  or c.distribution == "empirical"):
        raise ConfigError(f"allocate needs b1 >= 1, a scheme in {list(_ALLOCATION_SCHEMES)} and "
                          f"no empirical distribution; got {c.b1}, {c.scheme}, {c.distribution}")
    if command == "theory" and c.num_antennas < 3:
        raise ConfigError("theory needs num_antennas >= 3: below, its gain surrogate is constant")
    for bits, columns, what in _codebook_sizes(c, command, max(qs)):
        # 2^25 already exceeds the cap, so larger bit counts build no huge integer
        if columns * 2 ** min(bits, 25) > MAX_CODEBOOK_ENTRIES:
            raise ConfigError(f"{what} would hold {columns} x 2^{bits} entries, above "
                              f"the cap of 2^24 = {MAX_CODEBOOK_ENTRIES}")
    built = {"simulate": c.schemes, "theory": ("geometric",)}.get(command, (c.scheme,))
    known = set(SCHEMES) | ({"full_csi"} if simulate and c.experiment == "rate_vs_snr" else set())
    bad = [s for s in built if s not in known]
    if bad:
        raise ConfigError(f"unknown schemes: {bad} (full_csi applies to rate_vs_snr only)")
    if "hybrid" in built and min(qs) < 1:
        raise ConfigError("the hybrid scheme needs q >= 1, at q and at every swept q")
    if "extended" in built and (c.n_train < 2 ** max(qs) or c.lloyd_tolerance <= 0):
        raise ConfigError(f"the extended scheme needs n_train >= 2^q and lloyd_tolerance > 0 "
                          f"at q = {max(qs)}; got {c.n_train}, {c.lloyd_tolerance}")


_DB_KEYS = ("kappa_db", "snr_db")
"Keys given in dB; each enters the run as the power ratio 10^(x/10)."


def _power_ratio_finite(db: float) -> bool:
    "Whether 10^(db/10) is a finite float, as the run computes it."
    try:
        return math.isfinite(10.0 ** (db / 10.0))
    except OverflowError:
        return False


def _codebook_sizes(c: ExperimentConfig, command: str, q: int):
    "(bits, columns, name) of every codebook `command` builds at range bits q: columns x 2^bits."
    if command == "allocate":
        return [(c.b1, 1, f"the allocate codebook at b1 = {c.b1}")]
    sizes = [(c.p + q, 1, f"the phase-1 codebook at p + q = {c.p} + {q}")]
    if command == "theory" or (command == "simulate" and c.experiment == "rate_vs_snr"):
        sizes.append((c.b2, c.k_users, f"the RVQ codebook of K = {c.k_users} users at b2 = {c.b2}"))
    if command == "simulate" and c.experiment == "multipath_gain_vs_q":
        sizes.append((c.b2, c.l_paths, f"the path-gain codebook of L = {c.l_paths} paths "
                                       f"at b2 = {c.b2}"))
    return sizes


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


def training_ranges(c: ExperimentConfig) -> np.ndarray:
    "The `extended` scheme's n_train training ranges, drawn from the config's location law."
    return sample_locations(c.distribution_spec(), c.n_train, stream_seed(c.seed, "train"))[:, 1]


def build_scheme_codebook(c: ExperimentConfig, scheme: str, train=None) -> PolarCodebook:
    """The named scheme's codebook at the config's p and q.

    `train` holds the `extended` scheme's training ranges, `training_ranges(c)`
    when None; runs that sweep a key the location law does not depend on
    draw them once and pass them to every codebook.
    """
    if scheme == "extended" and train is None:
        train = training_ranges(c)
    return scheme_codebook(c.array_config(), c.region(), scheme, c.p, c.q,
                           lloyd_data=train if scheme == "extended" else None,
                           lloyd_tolerance=c.lloyd_tolerance)


def draw_channels(c: ExperimentConfig, spec: DistributionSpec,
                  equal_gains: bool = False) -> ChannelArrays:
    """Every trial's K user channels; row t * K + k holds user k of trial t.

    `spec` is `c.distribution_spec()`, built once per run by the caller: an
    empirical law reads its CSV file when built.  Each trial draws from its
    own streams into its own rows of the preallocated arrays, one trial after
    another on the calling thread; the vectors are then assembled from the
    drawn paths `_PATH_ROWS` steering rows per step, the steps on the shared
    pool.  Users have one line-of-sight path of gain 1 when `c.l_paths` is 1;
    otherwise L - 1 uniform scatterers and Rician gains (equal-power gains
    under `equal_gains`).
    """
    cfg = c.array_config()
    k_users, paths = c.k_users, c.l_paths
    rows = c.n_trials * k_users
    thetas, ranges = np.empty((rows, paths)), np.empty((rows, paths))
    gains = np.ones((rows, paths), dtype=np.complex128)
    scatter = UniformPolar(c.region())
    for trial in range(c.n_trials):
        users = slice(trial * k_users, (trial + 1) * k_users)
        locs = sample_locations(spec, k_users, trial_rng(c.seed, "loc", trial))
        thetas[users, 0], ranges[users, 0] = locs[:, 0], locs[:, 1]
        if paths > 1:
            for k in range(k_users):
                row = trial * k_users + k
                scat = sample_locations(scatter, paths - 1,
                                        trial_rng(c.seed, f"scat{k}", trial))
                thetas[row, 1:], ranges[row, 1:] = scat[:, 0], scat[:, 1]
                gain_rng = trial_rng(c.seed, f"gain{k}", trial)
                gains[row] = (equal_path_gains(paths, gain_rng) if equal_gains
                              else rician_path_gains(c.kappa_db, paths - 1, gain_rng))
    vectors = np.empty((rows, cfg.num_antennas), dtype=np.complex128)

    def assemble(step):
        vectors[step] = channel_vectors(cfg, thetas[step], ranges[step], gains[step])

    run_steps(rows, max(1, _PATH_ROWS // paths), assemble)
    return ChannelArrays(thetas, ranges, gains, vectors)


def _rate_inputs(c: ExperimentConfig):
    "A rate run's (T, K, M) channel vectors, (T, K, 2) user locations and RVQ codebook."
    channels = draw_channels(c, c.distribution_spec())
    vectors = channels.vectors.reshape(c.n_trials, c.k_users, -1)
    coords = np.stack([channels.thetas[:, 0], channels.ranges[:, 0]], axis=-1)
    return (vectors, coords.reshape(c.n_trials, c.k_users, 2),
            rvq_generate(c.k_users, c.b2, "isotropic", stream_seed(c.seed, "rvq")))


def run_rate_vs_snr(c: ExperimentConfig):
    """Sum-rate vs SNR rows for every configured scheme.

    Drops whose zero forcing met a singular matrix stay in the means, with
    the regularized beamformer; stderr gets one line per scheme that had any.
    """
    cfg = c.array_config()
    snrs = c.sweep or (c.snr_db,)
    vectors, coords, cb2 = _rate_inputs(c)
    rows = []
    for scheme in sorted(c.schemes):
        full = scheme == "full_csi"
        cb1 = None if full else build_scheme_codebook(c, scheme)
        out = _batched_beamformers(cfg, vectors, cb1, cb2, full, coords)
        singular = int(np.count_nonzero(out.singular))
        if singular:
            print(f"note: {scheme}: zero forcing was singular in {singular} of "
                  f"{c.n_trials} drops; their regularized rates are in the means",
                  file=sys.stderr)
        for snr in snrs:
            sums = zf_rates(out.rx, 10.0 ** (snr / 10.0), float(cfg.num_antennas)).sum(axis=1)
            rows.append((snr, scheme, "sum_rate_bps_hz", *mean_stderr(sums)))
    return rows


def _gain_rows(c: ExperimentConfig, key: str, sweep_values, points_for, train=None):
    """Shared shape of the beamforming-gain sweeps: mean best-codeword gain per scheme.

    Each sweep value replaces the config field `key`; `points_for(sub, value)`
    gives the user locations for the replaced config `sub`, and `train` the
    `extended` scheme's training ranges when `key` leaves the location law as it is.
    The users' steering vectors are built once per sweep value, for every scheme.
    """
    rows = []
    for value in sweep_values:
        sub = replace(c, **{key: value})
        pts = points_for(sub, value)
        vecs = steering_matrix_exact(sub.array_config(), pts[:, 0], pts[:, 1])
        for scheme in sorted(c.schemes):
            cb = build_scheme_codebook(sub, scheme, train)
            rows.append((value, scheme, "beamforming_gain", *_mean_gain(cb, vecs)))
    return rows


def _run_training_ranges(c: ExperimentConfig):
    "The run's `extended` training ranges, drawn once, or None when no scheme trains."
    return training_ranges(c) if "extended" in c.schemes else None


def run_gain_sweep(c: ExperimentConfig):
    "Gain rows of `gain_vs_q` and `gain_vs_m`: one set of user locations, the integer key swept."
    key = {"gain_vs_q": "q", "gain_vs_m": "num_antennas"}[c.experiment]
    pts = sample_locations(c.distribution_spec(), c.n_trials, stream_seed(c.seed, "gain"))
    return _gain_rows(c, key, [int(v) for v in (c.sweep or (getattr(c, key),))],
                      lambda sub, value: pts, _run_training_ranges(c))


def run_gain_vs_rmax(c: ExperimentConfig):
    def points_for(sub, rmax):
        return sample_locations(sub.distribution_spec(), c.n_trials,
                                stream_seed(c.seed, "gain", int(rmax * 1000)))

    return _gain_rows(c, "r_max", list(c.sweep or (c.r_max,)), points_for)


def run_multipath_gain_vs_q(c: ExperimentConfig):
    """Mean reconstruction correlation of per-path feedback vs range bits per path.

    Path gains are quantized once per run; each codebook then takes one
    batched pass over all channels.
    """
    cfg = c.array_config()
    sweep = [int(v) for v in (c.sweep or (c.q,))]
    gain_cb = rvq_generate(c.l_paths, c.b2, "isotropic", stream_seed(c.seed, "gainrvq"))
    channels = draw_channels(c, c.distribution_spec(), equal_gains=True)
    gains_hat = quantize_path_gains(channels.gains, gain_cb)
    train = _run_training_ranges(c)
    rows = []
    for q in sweep:
        for scheme in sorted(c.schemes):
            cb = build_scheme_codebook(replace(c, q=q), scheme, train)
            corrs = multipath_feedback_batch(cfg, channels, gains_hat, cb)
            rows.append((q, scheme, "channel_correlation", *mean_stderr(corrs)))
    return rows


_RUNNERS = {
    "rate_vs_snr": run_rate_vs_snr,
    "gain_vs_q": run_gain_sweep,
    "gain_vs_m": run_gain_sweep,
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
    validate_config(c, "allocate")
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
    vectors, coords, cb2 = _rate_inputs(sub)
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
