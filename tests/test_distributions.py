import numpy as np
import pytest
from scipy.integrate import quad

from polarcb import (Empirical, GaussianMixtureRange, HotSpotRange, TruncatedGaussianRange,
                     UniformPolar, load_empirical_csv, range_pdf, sample_locations)


@pytest.fixture
def specs(region):
    return {
        "uniform": UniformPolar(region),
        "hotspot": HotSpotRange(region, 10.0, 20.0, 0.9),
        "gauss": TruncatedGaussianRange(region, 20.0, 15.0),
        "gmm": GaussianMixtureRange(region, ((0.6, 15.0, 5.0), (0.4, 80.0, 20.0))),
    }


def test_uniform_moments(specs):
    pts = sample_locations(specs["uniform"], 100_000, 1)
    assert pts[:, 0].mean() == pytest.approx(0.0, abs=0.01)
    assert pts[:, 1].mean() == pytest.approx(62.0, abs=1.0)


def test_hotspot_mass(specs):
    pts = sample_locations(specs["hotspot"], 100_000, 2)
    r = pts[:, 1]
    frac = ((r >= 10) & (r <= 20)).mean()
    assert frac == pytest.approx(0.90, abs=0.01)


def test_samples_inside_region(region, specs):
    for spec in specs.values():
        pts = sample_locations(spec, 5000, 3)
        assert region.contains(pts[:, 0], pts[:, 1]).all()


def test_empirical_replicates():
    spec = Empirical(np.array([[0.0, 10.0]]))
    pts = sample_locations(spec, 3, 0)
    assert np.allclose(pts, [[0.0, 10.0]] * 3)


def test_seed_determinism(specs):
    for spec in specs.values():
        a = sample_locations(spec, 500, 42)
        b = sample_locations(spec, 500, 42)
        c = sample_locations(spec, 500, 43)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


def test_uniform_pdf_value(specs):
    assert range_pdf(specs["uniform"], 50.0) == pytest.approx(1 / 116)
    assert range_pdf(specs["uniform"], 3.0) == 0.0
    assert range_pdf(specs["uniform"], 121.0) == 0.0


def test_hotspot_pdf_value(specs):
    assert range_pdf(specs["hotspot"], 15.0) == pytest.approx(0.09)
    assert range_pdf(specs["hotspot"], 50.0) == pytest.approx(0.1 / 106)


def test_pdf_normalization(region, specs):
    for name, spec in specs.items():
        total, err = quad(lambda r: float(range_pdf(spec, r)), region.r_min, region.r_max,
                          points=[10, 20], limit=200)
        assert total == pytest.approx(1.0, abs=1e-6), name


def test_pdf_matches_histogram(specs):
    spec = specs["gmm"]
    pts = sample_locations(spec, 200_000, 9)
    hist, edges = np.histogram(pts[:, 1], bins=40, range=(4, 120), density=True)
    mids = (edges[:-1] + edges[1:]) / 2
    assert np.max(np.abs(hist - range_pdf(spec, mids))) < 0.01


def test_empirical_has_no_pdf():
    with pytest.raises(ValueError):
        range_pdf(Empirical(np.array([[0.0, 10.0]])), 10.0)


def test_validation_errors(region):
    with pytest.raises(ValueError):
        HotSpotRange(region, 2.0, 20.0, 0.9)      # hot interval outside region
    with pytest.raises(ValueError):
        HotSpotRange(region, 10.0, 20.0, 1.5)
    with pytest.raises(ValueError, match="hot_mass must be 1"):
        HotSpotRange(region, region.r_min, region.r_max, 0.9)   # no cold range to draw from
    whole = HotSpotRange(region, region.r_min, region.r_max, 1.0)
    assert sample_locations(whole, 100, 3).shape == (100, 2)
    with pytest.raises(ValueError):
        TruncatedGaussianRange(region, 20.0, 0.0)
    with pytest.raises(ValueError):
        GaussianMixtureRange(region, ((0.5, 10.0, 5.0),))
    for weight in (-0.5, float("nan")):     # rng.choice rejected these at the first draw
        with pytest.raises(ValueError, match="non-negative"):
            GaussianMixtureRange(region, ((1.0 - weight, 10.0, 5.0), (weight, 60.0, 9.0)))
    nan, inf = float("nan"), float("inf")
    for mean, std in ((nan, 5.0), (20.0, nan), (inf, 5.0), (20.0, inf)):
        # a NaN mean or std made the truncation mass NaN, which passed its floor
        with pytest.raises(ValueError, match="finite"):
            TruncatedGaussianRange(region, mean, std)
        with pytest.raises(ValueError, match="finite"):
            GaussianMixtureRange(region, ((0.5, 30.0, 5.0), (0.5, mean, std)))
    with pytest.raises(ValueError):
        Empirical(np.empty((0, 2)))
    for point in ((nan, 30.0), (0.2, nan), (0.2, -5.0), (0.2, 0.0), (3.0, 30.0), (-1.5, 30.0)):
        with pytest.raises(ValueError, match="polar domain"):
            Empirical(np.array([(0.0, 30.0), point]))
    assert len(Empirical(np.array([(-1.0, 30.0), (1.0, np.inf)])).points) == 2
    with pytest.raises(ValueError):
        sample_locations(UniformPolar(region), 0, 1)


_MIXTURES = (((0.6, 15.0, 5.0), (0.4, 80.0, 20.0)),
             ((0.2, 10.0, 3.0), (0.0, 40.0, 9.0), (0.3, 50.0, 10.0), (0.5, 100.0, 30.0)),
             ((1.0, 30.0, 7.0),))


@pytest.mark.parametrize("components", _MIXTURES)
@pytest.mark.parametrize("count", [1, 5, 1024, 3000])
def test_mixture_draws_are_those_of_choice_and_normal(region, components, count):
    # the mixture's draws, and the generator state after them, are pinned to
    # the numpy calls they stand for, so that every mixture sample keeps its bits
    from polarcb.distributions import _mixture_draw

    spec = GaussianMixtureRange(region, components)
    w, mu, sd = np.array(components).T
    draw = _mixture_draw(spec)
    for seed in range(40):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        comp = ref.choice(len(w), size=count, p=w)
        assert np.array_equal(draw(count, rng), ref.normal(mu[comp], sd[comp]))
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("components", _MIXTURES)
def test_mixture_samples_are_those_of_choice_and_normal(region, components):
    spec = GaussianMixtureRange(region, components)
    w, mu, sd = np.array(components).T
    for count, seed in [(1, 0), (5, 1), (1000, 2), (3000, 3)]:
        rng = np.random.default_rng(seed)
        theta = rng.uniform(region.theta_min, region.theta_max, count)
        r = np.empty(0)
        while r.size < count:
            comp = rng.choice(len(w), size=max(count, 1024), p=w)
            cand = rng.normal(mu[comp], sd[comp])
            r = np.concatenate([r, cand[(cand >= region.r_min) & (cand <= region.r_max)]])
        assert np.array_equal(sample_locations(spec, count, seed),
                              np.column_stack([theta, r[:count]]))


def test_rejection_sampling_is_bounded(region):
    from polarcb.distributions import _rejection_ranges, truncation_mass

    never = lambda n, rng: np.full(n, -1.0)      # no draw lands in the region
    with pytest.raises(ValueError, match="too little mass"):
        _rejection_ranges(5, np.random.default_rng(0), never, region.r_min, region.r_max)
    assert truncation_mass(TruncatedGaussianRange(region, 5000.0, 1.0)) == 0.0
    assert truncation_mass(UniformPolar(region)) == 1.0


@pytest.mark.parametrize("name", ["gauss", "gmm"])
def test_truncation_mass_matches_ndtr(specs, region, name):
    from scipy.special import ndtr

    from polarcb.distributions import truncation_mass

    spec = specs[name]
    comps = spec.components if name == "gmm" else ((1.0, spec.mean, spec.std),)
    ref = sum(w * (ndtr((region.r_max - mu) / sd) - ndtr((region.r_min - mu) / sd))
              for w, mu, sd in comps)
    assert abs(truncation_mass(spec) - ref) <= 1e-15


def test_csv_roundtrip(tmp_path):
    path = tmp_path / "users.csv"
    path.write_text("theta,r_m\n0.1,10.0\n-0.2,55.5\n")
    spec = load_empirical_csv(path)
    assert np.allclose(spec.points, [[0.1, 10.0], [-0.2, 55.5]])
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        load_empirical_csv(bad)


def test_csv_skips_blank_lines_and_names_a_bad_line(tmp_path):
    path = tmp_path / "users.csv"
    path.write_text("theta,r_m\n0.1,30\n\n0.2,40\n \n\n")
    assert load_empirical_csv(path).points.tolist() == [[0.1, 30.0], [0.2, 40.0]]
    for row in ("0.3", "0.3,40,1", "0.3,x"):
        path.write_text(f"theta,r_m\n0.1,30\n\n{row}\n")
        with pytest.raises(ValueError, match=r"users\.csv, line 4: "):
            load_empirical_csv(path)
