import numpy as np
import pytest

from polarcb import (LloydConvergenceError, PolarCodebook, dft_angle_codebook,
                     geometric_range_samples, hybrid_field_range_samples,
                     hyperbolic_range_samples, lloyd_angle_samples, lloyd_range_samples,
                     scheme_codebook, steering_vector_exact, uniform_angle_samples,
                     uniform_range_samples)
from polarcb.array_model import PolarCoord, PolarRegion, antenna_offsets
from polarcb.codebooks import (_OBJECTIVE_REL_TOL, _lloyd_1d, load_codebook_binary,
                               load_codebook_csv, scheme_range_samples)
from polarcb.distributions import GaussianMixtureRange, sample_locations


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


def test_polar_codebook_from_sample_sets(cfg129, region):
    cb = PolarCodebook(cfg129, uniform_angle_samples(region, 2),
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


def _reference_lloyd_1d(values, n_codes, tolerance, max_iters, init, return_history):
    "The per-cell loop `_lloyd_1d` replaced: np.median of every cell on every iteration."
    if len(values) < n_codes:
        raise ValueError(f"need at least {n_codes} data points")
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    values = np.sort(np.asarray(values, dtype=np.float64))
    codes = np.sort(np.asarray(init, dtype=np.float64))
    history = []
    prev_obj = np.inf
    for _ in range(max_iters):
        edges = (codes[:-1] + codes[1:]) / 2.0
        cells = np.searchsorted(edges, values)
        obj = float(np.abs(values - codes[cells]).mean())
        history.append(obj)
        counts = np.bincount(cells, minlength=n_codes)
        offsets = np.concatenate([[0], np.cumsum(counts)])
        new_codes = codes.copy()
        chunks = {i: values[offsets[i]:offsets[i + 1]] for i in range(n_codes)}
        for i in range(n_codes):
            if counts[i]:
                new_codes[i] = np.median(chunks[i])
        for i in np.nonzero(counts == 0)[0]:
            big = int(np.argmax(counts))
            chunk = chunks[big]
            half = len(chunk) // 2
            if half == 0:
                new_codes[i] = new_codes[big]
                continue
            new_codes[i] = np.median(chunk[:half])
            new_codes[big] = np.median(chunk[half:])
            chunks[i], chunks[big] = chunk[:half], chunk[half:]
            counts[i], counts[big] = half, len(chunk) - half
        new_codes = np.sort(new_codes)
        shift = float(np.max(np.abs(new_codes - codes)))
        codes = new_codes
        converged = shift < tolerance or prev_obj - obj < _OBJECTIVE_REL_TOL * max(obj, 1e-300)
        prev_obj = obj
        if converged:
            edges = (codes[:-1] + codes[1:]) / 2.0
            cells = np.searchsorted(edges, values)
            history.append(float(np.abs(values - codes[cells]).mean()))
            return codes, (history if return_history else [])
    raise LloydConvergenceError(f"no convergence after {max_iters} iterations", codes)


def _same_lloyd(values, n_codes, tolerance, max_iters, init):
    "Both Lloyd loops on one input: equal codes and history bits, or equal partial codes."
    outcomes = []
    for lloyd in (_lloyd_1d, _reference_lloyd_1d):
        try:
            codes, history = lloyd(values, n_codes, tolerance, max_iters, init, True)
        except LloydConvergenceError as err:
            codes, history = err.samples, None
        outcomes.append((codes, history))
    (codes, history), (ref_codes, ref_history) = outcomes
    assert codes.tobytes() == ref_codes.tobytes()
    assert history == ref_history
    return history


@pytest.mark.parametrize("q", [3, 5, 7])
@pytest.mark.parametrize("tolerance", [1.0, 1e-6])
def test_lloyd_matches_per_cell_loop_on_mixture(q, tolerance):
    region = PolarRegion(-0.5, 0.5, 4.0, 120.0)
    spec = GaussianMixtureRange(region, ((0.5, 15.0, 5.0), (0.5, 60.0, 20.0)))
    ranges = sample_locations(spec, 20_000, 11)[:, 1]
    # the inputs lloyd_range_samples hands to the loop
    init = np.sort(1.0 / geometric_range_samples(
        PolarRegion(-1.0, 1.0, ranges.min(), ranges.max()), q))
    history = _same_lloyd(1.0 / ranges, 2**q, tolerance / ranges.max() ** 2, 400, init)
    assert history is None or len(history) >= 2


def test_lloyd_matches_per_cell_loop_through_reseeds():
    rng = np.random.default_rng(8)
    values = rng.uniform(0.0, 1.0, 1001)
    # every value falls in one cell, so three of the four start empty
    _same_lloyd(values, 4, 1e-9, 100, np.array([5.0, 6.0, 7.0, 8.0]))
    # stacked codes leave the middle cells empty; odd and even cell sizes
    _same_lloyd(values[:1000], 8, 1e-9, 100, np.full(8, 0.5))
    # as many values as codes: the splits end in cells of one value
    _same_lloyd(np.array([1.0, 2.0, 3.0, 4.0]), 4, 1e-9, 10, np.array([0.0, 0.0, 0.0, 10.0]))
    # duplicated values make ties at the cell edges
    _same_lloyd(np.repeat(rng.uniform(0.0, 1.0, 50), 7), 16, 1e-12, 200,
                np.sort(rng.uniform(0.0, 1.0, 16)))


def test_lloyd_matches_per_cell_loop_when_it_gives_up():
    rng = np.random.default_rng(2)
    values = 1.0 / rng.uniform(4, 120, 5000)
    assert _same_lloyd(values, 8, 1e-15, 2, np.sort(rng.uniform(1 / 120, 1 / 4, 8))) is None


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
    # a file that is not the grid in flat order: repeated points that fake
    # a 2 x 2 grid, and a range-major grid whose index column disagrees
    for rows in (["0,0.1,10.0", "1,0.1,10.0", "2,0.2,20.0", "3,0.2,20.0"],
                 ["0,0.1,10.0", "1,0.2,10.0", "2,0.1,20.0", "3,0.2,20.0"]):
        path.write_text("index,theta,range_m\n" + "\n".join(rows) + "\n")
        with pytest.raises(ValueError, match="flat index order"):
            load_codebook_csv(cfg129, path)


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
