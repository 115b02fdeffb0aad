"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 2 and 3 are implemented exactly as stated and are expected to fail:
the folded gain surrogate provably cannot meet the stated angle-error grid
tolerance, and the reference thresholds match no stationary point of the
surrogate (details in the test docstrings and measured values in the
printed lines).
"""

import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

import polarcb as pc
from polarcb.allocation import optimize_allocation
from polarcb.array_model import steering_matrix_exact, steering_matrix_fresnel
from polarcb.distributions import UniformPolar, sample_locations
from polarcb.experiments import (ExperimentConfig, _rate_inputs, draw_channels,
                                 run_experiment, stream_seed)
from polarcb.feedback import (best_codeword_scan, multipath_feedback_batch, quantize_path_gains,
                              run_protocol_batch, rvq_generate, zf_rates)
from polarcb.gain_theory import (calibrate, cell_range_error, cell_surrogate_error,
                                 expected_range_error, f_gain, gain_thresholds,
                                 geometric_cells, rate_gap_bound, required_angle_bits,
                                 required_range_bits)

REGION = pc.PolarRegion(-0.5, 0.5, 4.0, 120.0)
CFG387 = pc.ArrayConfig(387, carrier_frequency=30e9)
SEED = 0


def report(num, ok, detail):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def protocol_run():
    "1000 protocol trials at the default setup, all schemes, shared by 9 and 11."
    c = ExperimentConfig(num_antennas=387, p=12, q=3, k_users=4, l_paths=3,
                         kappa_db=9.54, b2=12, n_trials=1000, seed=SEED)
    vectors, coords, cb2 = _rate_inputs(c)
    rx = {}
    for scheme in ("geometric", "hyperbolic", "uniform", "dft", "hybrid"):
        cb1 = pc.scheme_codebook(CFG387, REGION, scheme, 12, 3)
        rx[scheme] = run_protocol_batch(CFG387, vectors, cb1, cb2, False, coords).rx
    rx["full_csi"] = run_protocol_batch(CFG387, vectors, None, None, True, coords).rx
    cb_geo = pc.scheme_codebook(CFG387, REGION, "geometric", 12, 3)
    flat = vectors.reshape(-1, 387)
    gains, _ = best_codeword_scan(CFG387, flat, cb_geo.angle_samples, cb_geo.range_samples)
    gamma_hat = float((gains / np.linalg.norm(flat, axis=1)).mean())
    return {"rx": rx, "gamma_hat": gamma_hat, "vectors": vectors, "cb2": cb2}


def test_criterion_01_steering_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    th = rng.uniform(REGION.theta_min, REGION.theta_max, 10_000)
    r = rng.uniform(REGION.r_min, REGION.r_max, 10_000)
    a = steering_matrix_exact(CFG387, th, r)
    b = steering_matrix_fresnel(CFG387, th, r)
    norms_ok = (np.abs(np.linalg.norm(a, axis=1) - 1).max() < 1e-12
                and np.abs(np.linalg.norm(b, axis=1) - 1).max() < 1e-12)
    modulus_ok = (np.abs(np.abs(a) - 1 / np.sqrt(387)).max() < 1e-12)
    corr = np.abs(np.einsum("nm,nm->n", a.conj(), b))
    elapsed = time.perf_counter() - t0
    ok = norms_ok and modulus_ok and corr.mean() >= 0.99 and elapsed < 10.0
    report(1, ok, f"mean correlation {corr.mean():.5f} (>= 0.99), norms/modulus exact, "
                  f"{elapsed:.1f}s")


def test_criterion_02_gain_surrogate_accuracy():
    """Expected FAIL: the folded surrogate's angle lobe is twice the true
    width, so at eps_theta = 1e-3 the gap is ~0.047 regardless of
    implementation; 0.02 only holds for eps_theta below ~3e-4."""
    base_r = 10.0
    a = steering_matrix_exact(CFG387, np.array([0.0]), np.array([base_r]))[0]
    worst = 0.0
    for et in np.linspace(0, 1e-3, 50):
        er = np.linspace(0, 5e-3, 50)
        r_hat = 1.0 / (1.0 / base_r + er)
        b = steering_matrix_exact(CFG387, np.full_like(er, et), r_hat)
        exact = np.abs(b.conj() @ a)
        worst = max(worst, float(np.abs(f_gain(CFG387, et, er) - exact).max()))
    report(2, worst <= 0.02, f"max |f - exact| = {worst:.4f} on the stated 50x50 grid "
                             f"(tolerance 0.02; known surrogate limitation, see ledger)")


def test_criterion_03_observation1_thresholds():
    """Expected FAIL: first stationary points of the stated gain function are
    0.0103 (angle; main-lobe null) and 0.0195 (range; first smooth local
    minimum).  The reference pair (0.0058, 0.027) matches no stationary
    point, level crossing, or inflection of this function."""
    th_theta, th_r = gain_thresholds(CFG387)
    ok_theta = abs(th_theta / 0.0058 - 1) <= 0.10
    ok_r = abs(th_r / 0.027 - 1) <= 0.10
    report(3, ok_theta and ok_r,
           f"computed ({th_theta:.4f}, {th_r:.4f}) vs reference (0.0058, 0.027) +-10%")


def test_criterion_04_cell_error_oracle():
    rng = np.random.default_rng(SEED)
    worst_rel = 0.0
    worst_opt = 0.0
    for _ in range(50):
        a = rng.uniform(1.0, 80.0)
        b = a * rng.uniform(1.05, 5.0)
        mid = (a + b) / 2
        oracle, _ = quad(lambda x: abs(1 / x - 1 / mid) / (b - a), a, b, points=[mid],
                         limit=200)
        worst_rel = max(worst_rel, abs(cell_range_error(a, b) - oracle) / oracle)
        res = minimize_scalar(lambda c: cell_surrogate_error(a, b, c), bounds=(a, b),
                              method="bounded", options={"xatol": 1e-11})
        worst_opt = max(worst_opt, abs(res.x - mid) / mid)
    ok = worst_rel < 1e-9 and worst_opt < 1e-6
    report(4, ok, f"closed form vs quadrature rel diff {worst_rel:.2e} (< 1e-9), "
                  f"midpoint optimality rel dev {worst_opt:.2e} (< 1e-6)")


def test_criterion_05_partition_optimality():
    grid = np.linspace(REGION.r_min, REGION.r_max, 2001)   # 0.058 m steps
    xi = np.sqrt(grid[None, :] / grid[:, None])
    with np.errstate(invalid="ignore", divide="ignore"):
        cost = (2.0 / REGION.range_span) * np.log((xi + 1 / xi) / 2)
    cost[~np.isfinite(cost)] = np.inf
    np.fill_diagonal(cost, np.inf)

    results = {}
    best = cost[0]
    for q in (1, 2):
        cells = 2**q
        layer = best
        for _ in range(cells - 2):
            layer = (layer[:, None] + cost).min(axis=0)
        grid_min = (layer + cost[:, -1]).min() if cells > 1 else cost[0, -1]
        closed = expected_range_error(REGION, q)
        bounds = geometric_cells(REGION, q)
        oracle = sum(quad(lambda r, m=(bounds[i] + bounds[i + 1]) / 2:
                          abs(1 / r - 1 / m) / REGION.range_span,
                          bounds[i], bounds[i + 1],
                          points=[(bounds[i] + bounds[i + 1]) / 2])[0]
                     for i in range(cells))
        results[q] = (grid_min, closed, oracle)

    ok = True
    details = []
    for q, (grid_min, closed, oracle) in results.items():
        ok &= grid_min >= closed - 1e-12           # geometric is the optimum
        ok &= grid_min <= closed * (1 + 5e-3)      # grid nearly attains it
        ok &= abs(closed - oracle) / oracle < 1e-9
        details.append(f"q={q}: grid {grid_min:.8f} >= geometric {closed:.8f}, "
                       f"quad rel {abs(closed - oracle)/oracle:.1e}")
    report(5, ok, "; ".join(details))


def test_criterion_06_lloyd_recovers_geometric():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    data = rng.uniform(REGION.r_min, REGION.r_max, 1_000_000)
    samples, history = pc.lloyd_range_samples(data, 3, 1e-4, return_history=True)
    target = pc.geometric_range_samples(REGION, 3)
    dev = np.abs(samples / target - 1).max()
    history = np.array(history)
    monotone = bool(np.all(np.diff(history) <= 1e-15))
    elapsed = time.perf_counter() - t0
    ok = dev < 0.02 and monotone and elapsed < 60.0
    report(6, ok, f"max per-sample deviation {dev:.4%} (< 2%), objective monotone over "
                  f"{len(history)} iterations, {elapsed:.1f}s")


def test_criterion_07_gain_ordering():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    n = 1000
    th = rng.uniform(REGION.theta_min, REGION.theta_max, n)
    r = rng.uniform(REGION.r_min, REGION.r_max, n)
    vecs = steering_matrix_exact(CFG387, th, r)
    details = []
    ok = True
    for q in (2, 3, 4):
        gains = {}
        for scheme in ("geometric", "hyperbolic", "uniform"):
            cb = pc.scheme_codebook(CFG387, REGION, scheme, 12, q)
            g, _ = best_codeword_scan(CFG387, vecs, cb.angle_samples, cb.range_samples)
            gains[scheme] = g
        for rival in ("hyperbolic", "uniform"):
            diff = gains["geometric"] - gains[rival]
            z = diff.mean() / (diff.std(ddof=1) / np.sqrt(n))
            ok &= diff.mean() > 0 and z > 2.0
            details.append(f"q={q} vs {rival}: gap {diff.mean():+.4f} ({z:.1f} se)")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 300.0
    report(7, ok, "; ".join(details) + f"; {elapsed:.0f}s")


def test_criterion_08_sample_placement():
    hyp = pc.hyperbolic_range_samples(REGION, 3)
    geo = pc.geometric_range_samples(REGION, 3)
    n_hyp = int(((hyp >= 12) & (hyp <= 120)).sum())
    n_geo = int((geo >= 12).sum())
    ok = n_hyp == 2 and n_geo >= 5
    report(8, ok, f"hyperbolic places {n_hyp} samples in [12, 120] (expect 2), "
                  f"geometric {n_geo} (expect >= 5)")


def test_criterion_09_zf_and_full_csi_dominance(protocol_run):
    rng = np.random.default_rng(SEED)
    worst_null = 0.0
    for _ in range(50):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        f = pc.zf_beamformer(g)
        cross = g @ f
        worst_null = max(worst_null, np.abs(cross - np.diag(np.diag(cross))).max())

    rx_full = protocol_run["rx"]["full_csi"]
    interf = rx_full - np.eye(4)[None] * rx_full
    sig = np.einsum("tkk->tk", rx_full)
    rel_leak = interf.max() / sig.min()

    dominance = []
    for snr in (10.0, 22.0, 30.0):
        sums = {s: zf_rates(rx, 10 ** (snr / 10), 387.0).sum(axis=1)
                for s, rx in protocol_run["rx"].items()}
        for scheme in ("geometric", "hyperbolic", "uniform", "dft", "hybrid"):
            diff = sums["full_csi"] - sums[scheme]
            dominance.append(diff.mean() > 2 * diff.std(ddof=1) / np.sqrt(len(diff)))
    ok = worst_null < 1e-10 and rel_leak < 1e-9 and all(dominance)
    report(9, ok, f"ZF nulling residual {worst_null:.1e} (< 1e-10), full-CSI leak "
                  f"{rel_leak:.1e}, dominates all 5 limited schemes at 10/22/30 dB "
                  f"over 1000 trials")


def test_criterion_10_rvq_law():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    u = rng.standard_normal((20_000, 4)) + 1j * rng.standard_normal((20_000, 4))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    errs = {}
    for b2 in (8, 12):
        cb = rvq_generate(4, b2, "isotropic", SEED)
        errs[b2] = float((1 - (np.abs(u.conj() @ cb.codewords.T) ** 2).max(axis=1)).mean())
    ok = all(abs(errs[b2] - 2 ** (-b2 / 3)) / 2 ** (-b2 / 3) < 0.30 for b2 in errs)
    ok &= errs[12] < errs[8]
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    report(10, ok, f"E[1-|g~^H g^|^2]: B2=8 {errs[8]:.4f} (law 0.1575), "
                   f"B2=12 {errs[12]:.4f} (law 0.0625), both within 30%, {elapsed:.0f}s")


def test_criterion_11_rate_gap_bound(protocol_run):
    gamma = protocol_run["gamma_hat"]
    details = []
    ok = True
    for snr in (10.0, 22.0, 30.0):
        p_tot = 10 ** (snr / 10)
        r_full = zf_rates(protocol_run["rx"]["full_csi"], p_tot, 387.0).sum(axis=1)
        r_geo = zf_rates(protocol_run["rx"]["geometric"], p_tot, 387.0).sum(axis=1)
        gap = (r_full - r_geo) / 4.0
        se = gap.std(ddof=1) / np.sqrt(len(gap))
        bound = rate_gap_bound(gamma, p_tot, 4, 12)
        ok &= gap.mean() <= bound + 3 * se
        details.append(f"{snr:.0f}dB: gap {gap.mean():.3f} <= {bound:.3f}+3se")
    report(11, ok, f"gamma_hat={gamma:.4f}; " + "; ".join(details))


def _gain_curve(m, pts, p, q_values=None, p_values=None, q_fixed=None):
    cfg = CFG387.with_antennas(m)
    vecs = steering_matrix_exact(cfg, pts[:, 0], pts[:, 1])
    out = {}
    if q_values is not None:
        for q in q_values:
            cb = pc.scheme_codebook(cfg, REGION, "geometric", p, q)
            g, _ = best_codeword_scan(cfg, vecs, cb.angle_samples, cb.range_samples)
            out[q] = float(g.mean())
    else:
        for pv in p_values:
            cb = pc.scheme_codebook(cfg, REGION, "geometric", pv, q_fixed)
            g, _ = best_codeword_scan(cfg, vecs, cb.angle_samples, cb.range_samples)
            out[pv] = float(g.mean())
    return out


def _crossing(curve, gamma0):
    "Real-valued bit count where the gain curve crosses gamma0, log-interpolated."
    keys = sorted(curve)
    logs = {k: np.log(max(1 - curve[k], 1e-12)) for k in keys}
    target = np.log(1 - gamma0)
    if curve[keys[0]] >= gamma0:   # extrapolate backward from the first two points
        k0, k1 = keys[0], keys[1]
        slope = (logs[k1] - logs[k0]) / (k1 - k0)
        return k0 + (target - logs[k0]) / slope
    for k0, k1 in zip(keys, keys[1:]):
        if curve[k0] < gamma0 <= curve[k1]:
            return k0 + (target - logs[k0]) / (logs[k1] - logs[k0])
    raise AssertionError("gain curve never reaches the target")


def test_criterion_12_required_bits_scaling():
    t0 = time.perf_counter()
    gamma0 = 0.95
    pts = sample_locations(UniformPolar(REGION), 800, 11)
    q_emp, p_emp = {}, {}
    for m in (129, 258, 516):
        q_emp[m] = _crossing(_gain_curve(m, pts, 12, q_values=range(6)), gamma0)
        p_emp[m] = _crossing(_gain_curve(m, pts, None, p_values=range(4, 12), q_fixed=6),
                             gamma0)
    cal = calibrate(CFG387, gamma0, REGION, m0=129)
    ok = True
    details = []
    for m0, m1 in ((129, 258), (258, 516)):
        dq = q_emp[m1] - q_emp[m0]
        dp = p_emp[m1] - p_emp[m0]
        ok &= abs(dq - 2.0) <= 0.5 and abs(dp - 1.0) <= 0.5
        details.append(f"{m0}->{m1}: dq={dq:+.2f}, dp={dp:+.2f}")
    for m in (129, 258, 516):
        qf = required_range_bits(m, gamma0, REGION, cal)
        pf = required_angle_bits(m, gamma0, REGION, cal)
        ok &= abs(qf - q_emp[m]) <= 1.0 and abs(pf - p_emp[m]) <= 1.0
        details.append(f"M={m}: q {qf:+.2f}/{q_emp[m]:+.2f}, p {pf:.2f}/{p_emp[m]:.2f}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 600.0
    report(12, ok, "; ".join(details) + f"; {elapsed:.0f}s")


def test_criterion_13_allocation_trend():
    dist = UniformPolar(REGION)
    results = {}
    for m in (129, 258, 387, 774):
        cfg = CFG387.with_antennas(m)
        results[m] = optimize_allocation(16, dist, cfg, n_mc=300,
                                         seed=stream_seed(SEED, "alloc"))
    ms = sorted(results)
    ok = True
    for m0, m1 in zip(ms, ms[1:]):
        r0, r1 = results[m0], results[m1]
        if r1.q_opt >= r0.q_opt:
            continue
        # tolerate only statistically ambiguous reversals
        table1 = r1.table_dict()
        alt = table1[(16 - r0.q_opt, r0.q_opt)]
        top = table1[(r1.p_opt, r1.q_opt)]
        se = np.hypot(alt[1], top[1])
        ok &= (top[0] - alt[0]) <= 2 * se
    q_opts = [results[m].q_opt for m in ms]
    report(13, ok, f"q_opt over M {ms}: {q_opts} (non-decreasing, stderr-aware)")


def test_criterion_14_multipath_ordering():
    c = ExperimentConfig(num_antennas=387, p=12, q=3, k_users=1, l_paths=3,
                         n_trials=1000, seed=SEED)
    channels = draw_channels(c, c.distribution_spec(), equal_gains=True)
    gain_cb = rvq_generate(3, 12, "isotropic", stream_seed(SEED, "gainrvq"))
    gains_hat = quantize_path_gains(channels.gains, gain_cb)
    corr = {}
    for scheme in ("geometric", "hyperbolic", "uniform"):
        cb = pc.scheme_codebook(CFG387, REGION, scheme, 12, 3)
        corr[scheme] = multipath_feedback_batch(CFG387, channels, gains_hat, cb)
    ok = True
    details = []
    for rival in ("hyperbolic", "uniform"):
        diff = corr["geometric"] - corr[rival]
        z = diff.mean() / (diff.std(ddof=1) / np.sqrt(len(diff)))
        ok &= diff.mean() > 0 and z > 2.0
        details.append(f"vs {rival}: gap {diff.mean():+.4f} ({z:.1f} se)")
    report(14, ok, f"mean corr geometric {corr['geometric'].mean():.4f}; "
                   + "; ".join(details))


def test_criterion_15_determinism(tmp_path):
    base = dict(experiment="rate_vs_snr", num_antennas=129, p=8, q=2, k_users=3,
                l_paths=2, n_trials=25, schemes=("geometric", "uniform", "full_csi"),
                sweep=(10.0, 22.0), seed=SEED)
    t1 = run_experiment(ExperimentConfig(**base))
    t2 = run_experiment(ExperimentConfig(**base))
    t4 = run_experiment(ExperimentConfig(**base, threads=4))
    files = []
    for threads in (1, 3):
        out = tmp_path / f"run_t{threads}.csv"
        run_experiment(ExperimentConfig(**base, threads=threads, out=str(out)))
        files.append(out.read_bytes())
    ok = t1 == t2 == t4 and files[0] == files[1]
    report(15, ok, "byte-identical CSV across reruns and --threads 1/3/4")
