import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarcb import (ArrayConfig, PolarCoord, PolarRegion, antenna_offsets, beamforming_gain,
                     far_field_vector, steering_matrix_exact, steering_matrix_fresnel,
                     scheme_codebook, steering_vector_exact, steering_vector_fresnel)
from polarcb.array_model import _phase_diff_exact
from polarcb.codebooks import grid_codewords, grid_phase_diff


def test_config_derivations(cfg387):
    assert cfg387.wavelength == pytest.approx(299792458.0 / 30e9)
    assert cfg387.spacing == pytest.approx(cfg387.wavelength / 2)
    assert cfg387.aperture == pytest.approx(386 * cfg387.spacing)
    assert cfg387.rayleigh_distance == pytest.approx(2 * cfg387.aperture**2 / cfg387.wavelength)
    assert cfg387.carrier_frequency == pytest.approx(30e9)


def test_config_validation():
    with pytest.raises(ValueError):
        ArrayConfig(0, wavelength=0.01)
    with pytest.raises(ValueError):
        ArrayConfig(3)
    with pytest.raises(ValueError):
        ArrayConfig(3, wavelength=0.01, carrier_frequency=1e9)
    with pytest.raises(ValueError):
        ArrayConfig(3, wavelength=-1.0)
    cfg = ArrayConfig(5, carrier_frequency=30e9)
    assert cfg.wavelength > 0


def test_coord_and_region_validation():
    with pytest.raises(ValueError):
        PolarCoord(1.5, 10.0)
    with pytest.raises(ValueError):
        PolarCoord(0.0, -1.0)
    with pytest.raises(ValueError):
        PolarRegion(0.5, -0.5, 4.0, 120.0)
    with pytest.raises(ValueError):
        PolarRegion(-0.5, 0.5, 120.0, 4.0)


def test_antenna_offsets_small():
    cfg = ArrayConfig(3, wavelength=0.01)
    assert antenna_offsets(cfg).tolist() == [-1.0, 0.0, 1.0]


def test_antenna_offsets_large(cfg387):
    d = antenna_offsets(cfg387)
    assert d[0] == -193.0 and d[-1] == 193.0
    assert d.sum() == 0.0


def test_single_antenna_steering():
    cfg = ArrayConfig(1, wavelength=0.01)
    a = steering_vector_exact(cfg, PolarCoord(0.3, 5.0))
    assert np.allclose(a, [1.0])


def test_self_gain_and_center_phase(cfg387):
    a = steering_vector_exact(cfg387, PolarCoord(0.0, 10.0))
    assert beamforming_gain(a, a) == pytest.approx(1.0, abs=1e-12)
    center = a[(387 - 1) // 2]
    assert np.angle(center) == pytest.approx(0.0, abs=1e-12)
    assert abs(center) == pytest.approx(1 / np.sqrt(387))


@given(theta=st.floats(-1.0, 1.0), r=st.floats(2.0, 1000.0),
       m=st.integers(1, 40).map(lambda k: 2 * k + 1))
@settings(max_examples=60, deadline=None)
def test_unit_norm_and_modulus_property(theta, r, m):
    cfg = ArrayConfig(m, wavelength=0.01)
    for fn in (steering_vector_exact, steering_vector_fresnel):
        a = fn(cfg, PolarCoord(theta, r))
        assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(np.abs(a), 1 / np.sqrt(m), atol=1e-12)


def test_far_field_limit(cfg387):
    theta = 0.37
    ff = far_field_vector(cfg387, theta)
    d = antenna_offsets(cfg387)
    # plane-wave response has phases +pi * delta * theta at half-wavelength spacing
    expected = np.exp(1j * np.pi * d * theta) / np.sqrt(387)
    assert np.allclose(ff, expected, atol=1e-12)
    fr = steering_matrix_fresnel(cfg387, theta, 1e9)
    phase_err = np.abs(np.angle(fr * ff.conj()))
    assert phase_err.max() < 1e-6
    ex = steering_matrix_exact(cfg387, theta, 1e9)
    assert np.abs(np.angle(ex * ff.conj())).max() < 1e-6


def test_fresnel_matches_exact_at_deep_ranges(cfg387, region):
    rng = np.random.default_rng(3)
    th = rng.uniform(region.theta_min, region.theta_max, 400)
    r = rng.uniform(20.0, region.r_max, 400)
    a = steering_matrix_exact(cfg387, th, r)
    b = steering_matrix_fresnel(cfg387, th, r)
    corr = np.abs(np.einsum("nm,nm->n", a.conj(), b))
    assert corr.min() >= 0.99


def test_fresnel_exact_mean_correlation(cfg387, region):
    rng = np.random.default_rng(0)
    th = rng.uniform(region.theta_min, region.theta_max, 2000)
    r = rng.uniform(region.r_min, region.r_max, 2000)
    a = steering_matrix_exact(cfg387, th, r)
    b = steering_matrix_fresnel(cfg387, th, r)
    corr = np.abs(np.einsum("nm,nm->n", a.conj(), b))
    # the aggregate agreement is high even though near-range wide-angle
    # points dip well below it
    assert corr.mean() >= 0.985
    assert corr.min() < 0.9


def test_gain_rejects_length_mismatch(cfg387):
    a = steering_vector_exact(cfg387, PolarCoord(0.0, 10.0))
    with pytest.raises(ValueError):
        beamforming_gain(a, a[:-1])


def test_gain_symmetry_and_separation(cfg387):
    a = steering_vector_exact(cfg387, PolarCoord(0.0, 10.0))
    b = steering_vector_exact(cfg387, PolarCoord(0.5, 10.0))
    assert beamforming_gain(a, b) == pytest.approx(beamforming_gain(b, a))
    assert beamforming_gain(a, b) < 0.05


def test_steering_rejects_nonpositive_range(cfg387):
    with pytest.raises(ValueError):
        steering_vector_exact(cfg387, PolarCoord(0.0, 0.0))


def test_infinite_range_matches_far_field(cfg387):
    inf_exact = steering_matrix_exact(cfg387, 0.25, np.inf)
    inf_fresnel = steering_matrix_fresnel(cfg387, 0.25, np.inf)
    ff = far_field_vector(cfg387, 0.25)
    assert np.allclose(inf_exact, ff, atol=1e-14)
    assert np.allclose(inf_fresnel, ff, atol=1e-14)


def _old_phase_diff_exact(cfg, theta, r):
    "The path-difference formula as it stood before the in-place build, kept as a reference."
    d = antenna_offsets(cfg) * cfg.spacing
    theta = np.asarray(theta, dtype=np.float64)[..., None]
    r = np.asarray(r, dtype=np.float64)[..., None]
    far = np.isinf(r)
    r_safe = np.where(far, 1.0, r)
    num = d**2 - 2.0 * r_safe * theta * d
    rm = np.sqrt(r_safe**2 + num)
    diff = num / (rm + r_safe)
    return np.where(far, -d * theta, diff)


@pytest.mark.parametrize("scheme", ["geometric", "hybrid", "dft"])
@pytest.mark.parametrize("m", [1, 64, 387])
def test_phase_diff_and_codewords_bit_identical_to_old_formula(region, scheme, m):
    cfg = ArrayConfig(m, carrier_frequency=30e9)
    cb = scheme_codebook(cfg, region, scheme, 6, 3)
    theta, r = cb.locations(np.arange(len(cb)))
    old = _old_phase_diff_exact(cfg, theta, r)
    assert grid_phase_diff(cfg, cb.angle_samples, cb.range_samples, 0, len(cb)).tobytes() \
        == old.tobytes()
    old_cw = np.exp(-1j * cfg.wavenumber * old) / np.sqrt(m)
    assert grid_codewords(cfg, cb.angle_samples, cb.range_samples, 0, len(cb)).tobytes() \
        == old_cw.tobytes()
    assert steering_matrix_exact(cfg, theta, r).tobytes() == old_cw.tobytes()


@pytest.mark.parametrize("theta,r", [
    (0.25, np.inf), (0.3, 10.0), (np.array([0.0, 0.3, -0.9]), 12.0),
    (-0.4, np.array([5.0, np.inf, 1e12])), (np.zeros((2, 3)), np.full((2, 3), np.inf)),
    (np.array([[0.1], [0.2]]), np.array([8.0, np.inf, 30.0])),
])
def test_phase_diff_broadcasting_bit_identical_to_old_formula(cfg387, theta, r):
    old = _old_phase_diff_exact(cfg387, theta, r)
    new = _phase_diff_exact(cfg387, theta, r)
    assert new.shape == old.shape and new.tobytes() == old.tobytes()
