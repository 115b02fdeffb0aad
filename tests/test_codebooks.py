import numpy as np
import pytest

from polarcb import (LloydConvergenceError, assemble_codebook, dft_angle_codebook,
                     geometric_range_samples, hybrid_field_range_samples,
                     hyperbolic_range_samples, lloyd_angle_samples, lloyd_range_samples,
                     scheme_codebook, steering_vector_exact, uniform_angle_samples,
                     uniform_range_samples)
from polarcb.array_model import PolarCoord, antenna_offsets
from polarcb.codebooks import load_codebook_binary, load_codebook_csv, scheme_range_samples


def test_uniform_angle_values(region):
    assert np.allclose(uniform_angle_samples(region, 2), [-0.3, -0.1, 0.1, 0.3])
    assert np.allclose(uniform_angle_samples(region, 0), [0.0])
    s = uniform_angle_samples(region, 5)
    assert np.allclose(np.diff(s), s[1] - s[0])
    assert s[0] > region.theta_min and s[-1] < region.theta_max


def test_geometric_values(region):
    s = geometric_range_samples(region, 3)
    ratio = 30.0 ** (1 / 8)
    expected = (4 / 2) * (1 / ratio + 1) * ratio ** np.arange(1, 9)
    assert np.allclose(s, expected, rtol=1e-14)
    assert np.allclose(s[:3], [5.0596, 7.7405, 11.8413], atol=5e-4)
    ratios = s[1:] / s[:-1]
    assert np.allclose(ratios, ratio, rtol=1e-12)
    assert np.allclose(geometric_range_samples(region, 0), [62.0])


def test_geometric_samples_are_cell_midpoints(region):
    q = 3
    s = geometric_range_samples(region, q)
    ratio = (region.r_max / region.r_min) ** (1 / 2**q)
    cells = region.r_min * ratio ** np.arange(2**q + 1)
    assert np.allclose(s, (cells[:-1] + cells[1:]) / 2, rtol=1e-14)


def test_hyperbolic_values(region):
    s = hyperbolic_range_samples(region, 3)
    assert s[-1] == pytest.approx(960 / 37)
    assert s[0] == pytest.approx(4.0)
    inv = np.sort(1 / s)
    assert np.allclose(np.diff(inv), np.diff(inv)[0], rtol=1e-12)
    in_band = (s >= 12) & (s <= 120)
    assert in_band.sum() == 2
    assert (geometric_range_samples(region, 3) >= 12).sum() >= 5


def test_uniform_range_values(region):
    assert np.allclose(uniform_range_samples(region, 2), [18.5, 47.5, 76.5, 105.5])
    assert np.allclose(uniform_range_samples(region, 0), [62.0])
    s = uniform_range_samples(region, 4)
    assert np.allclose(np.diff(s), np.diff(s)[0])


def test_hybrid_field_values(region):
    s = hybrid_field_range_samples(region, 3)
    assert np.isinf(s).sum() == 1 and np.isinf(s[-1])
    hyp = hyperbolic_range_samples(region, 3)
    assert np.allclose(s[:-1], hyp[:-1])   # drops the largest finite sample
    with pytest.raises(ValueError):
        hybrid_field_range_samples(region, 0)


def test_dft_codebook(cfg129, region):
    cb = dft_angle_codebook(cfg129, region, 4)
    assert len(cb) == 16
    cw = cb.codewords
    assert np.allclose(np.linalg.norm(cw, axis=1), 1.0, atol=1e-12)
    # far-field phases are linear in the element offsets
    d = antenna_offsets(cfg129)
    ph = np.unwrap(np.angle(cw[3] * np.sqrt(129)))
    slope = np.diff(ph)
    assert np.allclose(slope, slope[0], atol=1e-9)


def test_assemble_codebook(cfg129, region):
    with pytest.deprecated_call():
        cb = assemble_codebook(cfg129, uniform_angle_samples(region, 2),
                               geometric_range_samples(region, 3))
    assert len(cb) == 32
    cw = cb.codewords
    assert np.allclose(np.linalg.norm(cw, axis=1), 1.0, atol=1e-12)
    i, j = 1, 5
    flat = cb.flat_index(i, j)
    direct = steering_vector_exact(cfg129, PolarCoord(cb.angle_samples[i],
                                                      cb.range_samples[j]))
    assert np.abs(cw[flat] - direct).max() < 1e-12
    assert cb.location(flat) == (cb.angle_samples[i], cb.range_samples[j])


def test_lloyd_range_uniform_recovers_geometric(region):
    # a dense deterministic grid is the continuum limit: the geometric set
    # is exactly the stable fixed point there
    grid = np.linspace(region.r_min, region.r_max, 200_001)
    samples = lloyd_range_samples(grid, 3, 1e-6)
    target = geometric_range_samples(region, 3)
    assert np.all(np.abs(samples / target - 1) < 1e-3)
    # random draws sit on a flat empirical plateau; recovery is coarser
    rng = np.random.default_rng(1)
    data = rng.uniform(region.r_min, region.r_max, 200_000)
    samples = lloyd_range_samples(data, 3, 1e-4)
    assert np.all(np.abs(samples / target - 1) < 0.05)


def test_lloyd_range_objective_monotone(region):
    rng = np.random.default_rng(1)
    data = rng.uniform(region.r_min, region.r_max, 20_000)
    samples, hist = lloyd_range_samples(data, 3, 1e-5, init="random", seed=3,
                                        return_history=True)
    hist = np.array(hist)
    assert np.all(np.diff(hist) <= 1e-15)
    assert len(samples) == 8


def test_lloyd_degenerate_data():
    samples = lloyd_range_samples(np.full(100, 10.0), 2, 1e-9)
    assert np.allclose(samples, 10.0)


def test_lloyd_nonconvergence_carries_partial():
    rng = np.random.default_rng(2)
    data = rng.uniform(4, 120, 5000)
    with pytest.raises(LloydConvergenceError) as err:
        lloyd_range_samples(data, 3, 1e-15, max_iters=2, init="random", seed=1)
    assert len(err.value.samples) == 8


def test_lloyd_validation():
    with pytest.raises(ValueError):
        lloyd_range_samples(np.array([10.0]), 2, 1e-6)
    with pytest.raises(ValueError):
        lloyd_range_samples(np.linspace(4, 120, 100), 2, 0.0)
    with pytest.raises(ValueError):
        lloyd_range_samples(np.linspace(4, 120, 100), 2, 1e-6, init="bogus")


def test_lloyd_angle_uniform_recovers_midpoints():
    # the L1-optimal quantizer of uniform data is the equal-cell midpoint
    # set; the closed-form equal-gap construction differs at the edges and
    # is not the Lloyd fixed point
    rng = np.random.default_rng(3)
    data = rng.uniform(-0.5, 0.5, 100_000)
    samples = lloyd_angle_samples(data, 2, 1e-5)
    assert np.all(np.abs(samples - [-0.375, -0.125, 0.125, 0.375]) < 0.01)


def test_lloyd_angle_objective_and_degenerate():
    rng = np.random.default_rng(4)
    data = rng.uniform(-0.5, 0.5, 20_000)
    _, hist = lloyd_angle_samples(data, 3, 1e-6, init="random", seed=5, return_history=True)
    assert np.all(np.diff(np.array(hist)) <= 1e-15)
    flat = lloyd_angle_samples(np.full(50, 0.25), 2, 1e-9)
    assert np.allclose(flat, 0.25)


def test_codebook_csv_roundtrip(cfg129, region, tmp_path):
    cb = scheme_codebook(cfg129, region, "hybrid", 2, 2)
    path = tmp_path / "cb.csv"
    cb.save_csv(path)
    text = path.read_text()
    assert text.startswith("index,theta,range_m\n")
    assert ",inf" in text
    loaded = load_codebook_csv(cfg129, path)
    assert np.array_equal(loaded.angle_samples, cb.angle_samples)
    assert np.array_equal(loaded.range_samples, cb.range_samples)
    assert np.array_equal(loaded.codewords, cb.codewords)


def test_codebook_binary_roundtrip(cfg129, region, tmp_path):
    cb = scheme_codebook(cfg129, region, "geometric", 3, 2)
    path = tmp_path / "cb.bin"
    cb.save_binary(path)
    m, cw = load_codebook_binary(path)
    assert m == 129
    assert np.array_equal(cw, cb.codewords)


def test_scheme_codebook_errors(cfg129, region):
    with pytest.raises(ValueError):
        scheme_range_samples("nope", region, 2)
    with pytest.raises(ValueError):
        scheme_codebook(cfg129, region, "extended", 2, 2)   # missing training data


def test_extended_scheme_runs(cfg129, region):
    rng = np.random.default_rng(6)
    data = rng.uniform(region.r_min, region.r_max, 20_000)
    cb = scheme_codebook(cfg129, region, "extended", 2, 3, lloyd_data=data)
    assert len(cb.range_samples) == 8
    assert len(cb) == 32


def test_codebook_binary_written_in_blocks(cfg129, region, tmp_path, monkeypatch):
    import polarcb.codebooks as codebooks

    cb = scheme_codebook(cfg129, region, "hybrid", 3, 2)
    whole, blocks = tmp_path / "whole.bin", tmp_path / "blocks.bin"
    cb.save_binary(whole)
    monkeypatch.setattr(codebooks, "_EXPORT_BLOCK", 5)    # 32 codewords in 7 blocks
    cb.save_binary(blocks)
    assert blocks.read_bytes() == whole.read_bytes()
    assert np.array_equal(load_codebook_binary(blocks)[1], cb.codewords)
