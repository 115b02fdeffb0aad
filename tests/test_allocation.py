import numpy as np
import pytest

from polarcb import ArrayConfig, UniformPolar, estimate_gain_mc, optimize_allocation, scheme_codebook
from polarcb.allocation import mean_best_gain
from polarcb.distributions import Empirical, sample_locations


@pytest.fixture(scope="module")
def small_setup(region):
    return ArrayConfig(65, carrier_frequency=30e9), UniformPolar(region)


def test_estimate_gain_perfect_codebook(region, small_setup):
    cfg, dist = small_setup
    pts = np.array([[0.1, 20.0]])
    cb = scheme_codebook(cfg, region, "geometric", 3, 2)
    # codebook containing the exact location gives gain 1
    from polarcb.codebooks import PolarCodebook
    exact = PolarCodebook(cfg, np.array([0.1]), np.array([20.0]))
    g, se = mean_best_gain(exact, pts)
    assert g == pytest.approx(1.0, abs=1e-12)
    assert se == 0.0


def test_estimate_gain_stderr_scaling(region, small_setup):
    cfg, dist = small_setup
    cb = scheme_codebook(cfg, region, "geometric", 5, 2)
    _, se1 = estimate_gain_mc(cb, dist, 400, 3)
    _, se4 = estimate_gain_mc(cb, dist, 1600, 3)
    assert se4 == pytest.approx(se1 / 2, rel=0.35)
    with pytest.raises(ValueError):
        estimate_gain_mc(cb, dist, 0, 3)


def test_allocation_table(small_setup):
    cfg, dist = small_setup
    res = optimize_allocation(6, dist, cfg, n_mc=150, seed=5)
    assert len(res.gain_table) == 7
    assert res.p_opt + res.q_opt == 6
    table = res.table_dict()
    assert table[(res.p_opt, res.q_opt)][0] == max(v[0] for v in table.values())
    assert {p for p, _, _, _ in res.gain_table} == set(range(7))


def test_allocation_table_is_the_per_split_mean_gain(region, small_setup):
    # the sweep builds the users' steering vectors once: the same bytes as
    # `mean_best_gain` building them for every split
    cfg, dist = small_setup
    res = optimize_allocation(6, dist, cfg, n_mc=150, seed=5)
    pts = sample_locations(dist, 150, 5)
    assert res.gain_table == tuple(
        (p, 6 - p, *mean_best_gain(scheme_codebook(cfg, region, "geometric", p, 6 - p), pts))
        for p in range(7))


def test_allocation_minimal_budget(small_setup):
    cfg, dist = small_setup
    res = optimize_allocation(1, dist, cfg, n_mc=60, seed=1)
    assert len(res.gain_table) == 2
    assert res.p_opt + res.q_opt == 1


def test_allocation_validation(small_setup):
    cfg, dist = small_setup
    with pytest.raises(ValueError):
        optimize_allocation(0, dist, cfg, n_mc=10, seed=0)
    with pytest.raises(ValueError):
        optimize_allocation(4, Empirical(np.array([[0.0, 10.0]])), cfg, n_mc=10, seed=0)
