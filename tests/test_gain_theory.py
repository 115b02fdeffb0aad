import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from polarcb import PolarRegion, gain_theory, geometric_range_samples, steering_matrix_exact
from polarcb.gain_theory import (calibrate, cell_range_error,
                                 cell_surrogate_error, exact_angle_gain, expected_angle_error,
                                 expected_gain_approx, expected_range_error, f_gain,
                                 gain_thresholds, geometric_cells, mean_vartheta,
                                 rate_gap_bound, required_angle_bits, required_range_bits,
                                 surrogate_bound_check, voronoi_cell_angle_error)


def test_f_at_origin(cfg387):
    assert f_gain(cfg387, 0.0, 0.0) == pytest.approx(388 / 387, abs=1e-12)


def test_f_monotone_on_main_lobe(cfg387):
    eps = np.linspace(0, 0.0058, 300)
    vals = f_gain(cfg387, eps, 0.0)
    assert np.all(np.diff(vals) < 0)


def test_f_matches_exact_gain_for_small_errors(cfg387):
    # measured agreement envelope: 0.02 holds for angle errors below ~3e-4;
    # the folded surrogate's angle lobe is twice the true width, so on a
    # 1e-3 grid the gap grows to ~0.05
    base_r = 10.0
    a = steering_matrix_exact(cfg387, np.array([0.0]), np.array([base_r]))[0]
    for et_max, tol in ((3e-4, 0.02), (1e-3, 0.05)):
        worst = 0.0
        for et in np.linspace(0, et_max, 25):
            er = np.linspace(0, 5e-3, 25)
            r_hat = 1.0 / (1.0 / base_r + er)
            b = steering_matrix_exact(cfg387, np.full_like(er, et), r_hat)
            exact = np.abs(b.conj() @ a)
            worst = max(worst, np.abs(f_gain(cfg387, et, er) - exact).max())
        assert worst <= tol


def test_threshold_values_and_shrinkage(cfg387):
    th_theta, th_r = gain_thresholds(cfg387)
    # first stationary points of the surrogate along each axis for the
    # default 387-element 30 GHz setup (see decisions ledger: these differ
    # from the 0.0058 / 0.027 reference values, which match no stationary
    # point of this function)
    assert th_theta == pytest.approx(0.010309, rel=1e-3)
    assert th_r == pytest.approx(0.019515, rel=1e-3)
    big_theta, big_r = gain_thresholds(cfg387.with_antennas(775))
    assert big_theta < th_theta
    assert big_r < th_r


@pytest.mark.parametrize("m", [1, 2])
def test_thresholds_need_three_antennas(cfg387, m):
    # below three elements f is constant (and the range window would divide
    # by zero at n_half = 0), so the function itself rejects the array
    with pytest.raises(ValueError, match="num_antennas >= 3"):
        gain_thresholds(cfg387.with_antennas(m))


def test_thresholds_at_three_antennas(cfg387):
    pair = gain_thresholds(cfg387.with_antennas(3))
    assert len(pair) == 2 and all(np.isfinite(pair)) and min(pair) > 0


def test_threshold_grid_in_steps_matches_scalar_calls(cfg387, monkeypatch):
    # the grid goes through f_gain in steps of points; every value, and so
    # every threshold, is bit for bit that of one scalar call per point
    steps = gain_thresholds(cfg387)
    xs = np.linspace(0.0, 12.0 / 387, 3000)
    assert f_gain(cfg387, xs, 0.0).tobytes() == np.array([f_gain(cfg387, x, 0.0)
                                                           for x in xs]).tobytes()
    scalar = gain_theory.f_gain

    def one_point_at_a_time(cfg, eps_theta, u):
        if np.ndim(eps_theta) or np.ndim(u):
            return np.array([scalar(cfg, e, v) for e, v in np.broadcast(eps_theta, u)])
        return scalar(cfg, eps_theta, u)

    monkeypatch.setattr(gain_theory, "f_gain", one_point_at_a_time)
    assert gain_thresholds(cfg387) == steps


def test_expected_gain_approx_at_zero(cfg387):
    assert expected_gain_approx(cfg387, 0.0, 0.0) == f_gain(cfg387, 0.0, 0.0)
    with pytest.raises(ValueError):
        expected_gain_approx(cfg387, -1e-3, 0.0)


def test_expected_gain_approx_tracks_monte_carlo(cfg387, region):
    # decoupled-expectation accuracy at p=11, q=2 for the geometric set
    from polarcb.codebooks import scheme_codebook
    from polarcb.feedback import best_codeword_scan
    from polarcb.distributions import UniformPolar, sample_locations

    mean_u = mean_vartheta(region) * expected_range_error(region, 2)
    approx = expected_gain_approx(cfg387, expected_angle_error(region, 11), mean_u)
    pts = sample_locations(UniformPolar(region), 800, 42)
    cb = scheme_codebook(cfg387, region, "geometric", 11, 2)
    vecs = steering_matrix_exact(cfg387, pts[:, 0], pts[:, 1])
    gains, _ = best_codeword_scan(cfg387, vecs, cb.angle_samples, cb.range_samples)
    assert abs(approx - gains.mean()) / gains.mean() < 0.03


def test_voronoi_cell_error_single_sample():
    region = PolarRegion(0.0, 1.0, 1.0, 2.0)
    # formula value for one sample at the midpoint; the exact mean error of
    # that configuration is 0.25 (edge cells are approximate by design)
    assert voronoi_cell_angle_error([0.5], region, 1) == pytest.approx(0.125)
    with pytest.raises(IndexError):
        voronoi_cell_angle_error([0.5], region, 2)


def test_voronoi_cell_error_interior_quadrature(region):
    rng = np.random.default_rng(7)
    samples = np.sort(rng.uniform(region.theta_min, region.theta_max, 9))
    for i in (3, 4, 5, 6):
        lo = (samples[i - 2] + samples[i - 1]) / 2
        hi = (samples[i - 1] + samples[i]) / 2
        val, _ = quad(lambda t: abs(t - samples[i - 1]) / (hi - lo), lo, hi,
                      points=[samples[i - 1]])
        formula = voronoi_cell_angle_error(samples, region, i)
        assert formula == pytest.approx(val, rel=1e-9)


def test_voronoi_cell_error_symmetry(region):
    samples = np.array([-0.3, -0.1, 0.1, 0.3])
    errs = [voronoi_cell_angle_error(samples, region, i) for i in range(1, 5)]
    assert errs[0] == pytest.approx(errs[3])
    assert errs[1] == pytest.approx(errs[2])


def test_expected_angle_error_values(region):
    assert expected_angle_error(region, 12) == pytest.approx(1 / 16384)
    assert expected_angle_error(region, 5) == pytest.approx(2 * expected_angle_error(region, 6))


def test_expected_angle_error_vs_monte_carlo(region):
    from polarcb.codebooks import uniform_angle_samples
    rng = np.random.default_rng(11)
    p = 5
    samples = uniform_angle_samples(region, p)
    theta = rng.uniform(region.theta_min, region.theta_max, 200_000)
    emp = np.abs(theta[:, None] - samples[None, :]).min(axis=1).mean()
    assert abs(expected_angle_error(region, p) - emp) / emp < 0.15


def test_cell_range_error_against_quadrature():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = rng.uniform(1.0, 60.0)
        b = a * rng.uniform(1.05, 6.0)
        mid = (a + b) / 2
        val, _ = quad(lambda r: abs(1 / r - 1 / mid) / (b - a), a, b, points=[mid], limit=200)
        assert cell_range_error(a, b) == pytest.approx(val, rel=1e-9)


def test_cell_range_error_degenerate_and_scaling():
    assert cell_range_error(10.0, 10.0 + 1e-9) < 1e-10
    base = cell_range_error(4.0, 120.0)
    assert cell_range_error(8.0, 240.0) == pytest.approx(base / 2, rel=1e-12)
    with pytest.raises(ValueError):
        cell_range_error(5.0, 5.0)


def test_cell_surrogate_error_midpoint_and_offcenter():
    a, b = 8.0, 20.0
    assert cell_surrogate_error(a, b, (a + b) / 2) == pytest.approx(cell_range_error(a, b))
    for c in (9.0, 17.0, 25.0):   # interior off-center and exterior representative
        val, _ = quad(lambda r: abs(1 / r - 1 / c) / (b - a), a, b,
                      points=[c] if a < c < b else None, limit=200)
        assert cell_surrogate_error(a, b, c) == pytest.approx(val, rel=1e-9)


def test_midpoint_is_optimal_representative():
    rng = np.random.default_rng(2)
    for _ in range(50):
        a = rng.uniform(1.0, 80.0)
        b = a * rng.uniform(1.1, 4.0)
        res = minimize_scalar(lambda c: cell_surrogate_error(a, b, c), bounds=(a, b),
                              method="bounded", options={"xatol": 1e-10})
        assert abs(res.x - (a + b) / 2) / ((a + b) / 2) < 1e-6


def test_expected_range_error_closed_form(region):
    for q in (0, 1, 2, 3, 5):
        cells = geometric_cells(region, q)
        total = sum(cell_range_error(cells[i], cells[i + 1]) * (cells[i + 1] - cells[i])
                    / region.range_span for i in range(2**q))
        assert expected_range_error(region, q) == pytest.approx(total, rel=1e-12)
    vals = [expected_range_error(region, q) for q in range(11)]
    assert np.all(np.diff(vals) < 0)
    assert vals[-1] < 5e-5


def test_expected_range_error_vs_monte_carlo(region):
    rng = np.random.default_rng(3)
    samples = geometric_range_samples(region, 3)
    r = rng.uniform(region.r_min, region.r_max, 400_000)
    emp = np.abs(1 / r[:, None] - 1 / samples[None, :]).min(axis=1).mean()
    closed = expected_range_error(region, 3)
    # closed form bounds the true minimum error from above (surrogate slack)
    assert emp <= closed
    assert abs(closed - emp) / emp < 0.10


def test_surrogate_bound(region):
    samples = geometric_range_samples(region, 3)
    res = surrogate_bound_check(region, 3, samples, n_mc=100_000, seed=4)
    assert res.lhs <= res.rhs + 3 * res.lhs_stderr
    assert res.rhs == pytest.approx(res.lhs, rel=0.02)  # tight for matched partition

    # single-cell case: bound is an equality up to Monte-Carlo noise
    res0 = surrogate_bound_check(region, 0, geometric_range_samples(region, 0),
                                 n_mc=100_000, seed=5)
    assert abs(res0.lhs - res0.rhs) < 4 * res0.lhs_stderr

    # deliberately poor partition: inequality still holds (with slack)
    bad = np.linspace(region.r_min, region.r_max, 9)
    res_bad = surrogate_bound_check(region, 3, samples, boundaries=bad,
                                    n_mc=50_000, seed=6)
    assert res_bad.lhs <= res_bad.rhs + 3 * res_bad.lhs_stderr


def test_surrogate_bound_random_partitions(region):
    rng = np.random.default_rng(8)
    samples = geometric_range_samples(region, 2)
    for _ in range(100):
        inner = np.sort(rng.uniform(region.r_min, region.r_max, 3))
        bounds = np.concatenate([[region.r_min], inner, [region.r_max]])
        res = surrogate_bound_check(region, 2, samples, boundaries=bounds,
                                    n_mc=20_000, seed=int(rng.integers(1 << 31)))
        assert res.lhs <= res.rhs + 3 * res.lhs_stderr


def test_calibration_solves_reference_equations(cfg129, region):
    cal = calibrate(cfg129, 0.9, region, m0=129)
    assert cal.gamma0 == 0.9 and cal.m0 == 129
    assert exact_angle_gain(cfg129, cal.eps_theta_cal) == pytest.approx(0.9, abs=1e-9)
    vt = mean_vartheta(region)
    assert f_gain(cfg129, 0.0, vt * cal.eps_r_cal) == pytest.approx(0.9, abs=1e-9)
    with pytest.raises(ValueError):
        calibrate(cfg129, 1.5, region)


def test_required_bits_scaling(cfg129, region):
    cal = calibrate(cfg129, 0.95, region)
    p1 = required_angle_bits(387, 0.95, region, cal)
    p2 = required_angle_bits(774, 0.95, region, cal)
    assert p2 - p1 == pytest.approx(1.0, abs=1e-12)
    q1 = required_range_bits(387, 0.95, region, cal)
    q2 = required_range_bits(774, 0.95, region, cal)
    assert q2 - q1 == pytest.approx(2.0, abs=1e-12)

    strict = calibrate(cfg129, 0.99, region)
    assert required_angle_bits(387, 0.99, region, strict) > p1
    # shrinking r_min at fixed r_max widens the inverse-range spread
    wide = PolarRegion(region.theta_min, region.theta_max, 1.0, 120.0)
    assert required_range_bits(387, 0.95, wide, cal) > q1
    with pytest.raises(ValueError):
        required_angle_bits(387, 0.9, region, cal)


def test_required_angle_bits_span_sign(cfg129):
    # requirement grows with the angle span (mean error is span / (4 * 2^p));
    # an MC sweep on a wider region confirms the positive-span sign
    from polarcb.codebooks import uniform_angle_samples

    narrow = PolarRegion(-0.5, 0.5, 4.0, 120.0)
    wide = PolarRegion(-0.8, 0.8, 4.0, 120.0)
    cal = calibrate(cfg129, 0.95, narrow)
    p_wide = required_angle_bits(129, 0.95, wide, cal)
    assert p_wide - required_angle_bits(129, 0.95, narrow, cal) == pytest.approx(np.log2(1.6))

    rng = np.random.default_rng(12)
    theta = rng.uniform(wide.theta_min, wide.theta_max, 30_000)
    gains = {}
    for p in (6, 7, 8):
        samples = uniform_angle_samples(wide, p)
        eps = np.abs(theta[:, None] - samples[None, :]).min(axis=1)
        gains[p] = exact_angle_gain(cfg129, eps).mean()
    crossing = None
    for p in (6, 7):
        if gains[p] < 0.95 <= gains[p + 1]:
            crossing = p + (0.95 - gains[p]) / (gains[p + 1] - gains[p])
    assert crossing is not None
    assert abs(crossing - p_wide) < 1.0      # corrected sign tracks the sweep
    p_minus_sign = p_wide - 2 * np.log2(1.6)
    assert abs(crossing - p_minus_sign) > 1.0


def test_rate_gap_bound_values():
    assert rate_gap_bound(1.0, 1e-6, 2, 30) < 1e-6
    dr2 = rate_gap_bound(1.0, 10**2.2, 4, 12)
    assert dr2 == pytest.approx(np.log2(1 + 10**2.2 / 4 * 2**-4), abs=1e-12)
    assert dr2 == pytest.approx(1.7976, abs=2e-4)
    full = rate_gap_bound(0.95, 10**2.2, 4, 12)
    assert full == pytest.approx(dr2 - 2 * np.log2(0.95), abs=1e-12)
    with pytest.raises(ValueError):
        rate_gap_bound(0.0, 100.0, 4, 12)
    with pytest.raises(ValueError):
        rate_gap_bound(0.9, 100.0, 1, 12)
