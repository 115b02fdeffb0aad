import inspect
import sys
import threading
import time
import tracemalloc
import warnings
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import polarcb.feedback as feedback
import polarcb.parallel

from polarcb import (ArrayConfig, PolarCoord, PolarRegion, ZFSingularError, los_channel,
                     multipath_channel, multipath_channel_equal, multipath_feedback, phase1_select,
                     phase2_select, run_protocol, run_protocol_batch, rvq_generate,
                     scheme_codebook, steering_vector_exact, user_rate, zf_beamformer, zf_rates)
from polarcb.array_model import steering_matrix_exact
from polarcb.channels import ChannelArrays, ChannelRealization
from polarcb.codebooks import PolarCodebook, grid_locations
from polarcb.feedback import (best_codeword_scan, multipath_feedback_batch, nearest_index,
                              quantize_path_gains)

SCAN_STEP = inspect.signature(best_codeword_scan).parameters["block"].default // 2
"Codewords a job of `best_codeword_scan` builds at its default `block`."


@pytest.fixture(scope="module")
def small_cb(cfg129, region):
    return scheme_codebook(cfg129, region, "geometric", 5, 3)


def test_phase1_exact_sample_point(cfg129, small_cb):
    i, j = 7, 2
    coord = PolarCoord(small_cb.angle_samples[i], small_cb.range_samples[j])
    h = los_channel(cfg129, coord)
    idx, gain = phase1_select(h, small_cb)
    assert idx == small_cb.flat_index(i, j)
    assert gain == pytest.approx(1.0, abs=1e-9)


def test_phase1_scale_invariance(cfg129, small_cb):
    h = los_channel(cfg129, PolarCoord(0.123, 17.0))
    idx1, g1 = phase1_select(h, small_cb)
    idx2, g2 = phase1_select(3.7j * h.vector, small_cb)
    assert idx1 == idx2
    assert g1 == pytest.approx(g2)


def test_phase1_nearest_inverse_range(cfg387, region):
    # a boresight user at 10 m picks the range sample nearest in 1/r,
    # which is the third geometric sample
    cb = scheme_codebook(cfg387, region, "geometric", 12, 3)
    h = los_channel(cfg387, PolarCoord(0.0, 10.0))
    idx, _ = phase1_select(h, cb)
    _, r = cb.location(idx)
    expected = cb.range_samples[np.abs(1 / 10 - 1 / cb.range_samples).argmin()]
    assert r == expected
    assert r == pytest.approx(11.8413, abs=1e-3)


def test_phase1_errors(cfg129, small_cb):
    with pytest.raises(ValueError):
        phase1_select(np.zeros(129, dtype=complex), small_cb)


def test_scan_tie_breaks_to_lowest_index(cfg129):
    # duplicated grid point: both codewords achieve the max, lowest flat wins
    cb = PolarCodebook(cfg129, np.array([0.2, 0.2]), np.array([30.0]))
    h = los_channel(cfg129, PolarCoord(0.2, 30.0))
    idx, gain = phase1_select(h, cb)
    assert idx == 0 and gain == pytest.approx(1.0)


def _scan_per_ring(cfg, vectors, angle_samples, range_samples, block=4096):
    "Reference scan: one steering build and one product per (angle block, range ring)."
    vectors = np.atleast_2d(vectors)
    n = vectors.shape[0]
    nq = len(range_samples)
    best = np.full(n, -1.0)
    best_idx = np.zeros(n, dtype=np.int64)
    for a0 in range(0, len(angle_samples), block):
        ang = angle_samples[a0:a0 + block]
        for j, rj in enumerate(range_samples):
            cw = steering_matrix_exact(cfg, ang, np.full_like(ang, rj))
            g = np.abs(vectors @ cw.conj().T)
            k = np.argmax(g, axis=1)
            gm = g[np.arange(n), k]
            flat = (a0 + k) * nq + j
            better = (gm > best) | ((gm == best) & (flat < best_idx))
            best[better] = gm[better]
            best_idx[better] = flat[better]
    return best, best_idx


def _exhaustive_scan(cfg, vectors, angle_samples, range_samples):
    """Reference scan without BLAS: every (row, codeword) gain from an elementwise
    product and a numpy sum, ties to the lowest flat index.  A BLAS product may
    score duplicated codewords differently (zgemm did at M = 8), so only this
    reference decides ties."""
    theta, r = grid_locations(angle_samples, range_samples,
                              np.arange(len(angle_samples) * len(range_samples)))
    cw = np.conj(steering_matrix_exact(cfg, theta, r))
    gains = np.array([np.abs((cw * v).sum(axis=1)) for v in vectors])
    idx = gains.argmax(axis=1)
    return gains[np.arange(len(vectors)), idx], idx


def _scan_vectors(cfg, region, n):
    "LoS, Rician (9.54 dB), equal-gain and i.i.d. Gaussian rows, n of each."
    rng = np.random.default_rng(21)

    def coords(count):
        thetas = rng.uniform(region.theta_min, region.theta_max, count)
        ranges = rng.uniform(region.r_min, region.r_max, count)
        return [PolarCoord(t, r) for t, r in zip(thetas, ranges)]

    los = [los_channel(cfg, co).vector for co in coords(n)]
    rician = [multipath_channel(cfg, coords(1)[0], coords(2), 9.54, rng).vector
              for _ in range(n)]
    equal = [multipath_channel_equal(cfg, coords(3), rng).vector for _ in range(n)]
    gauss = rng.standard_normal((n, cfg.num_antennas)) \
        + 1j * rng.standard_normal((n, cfg.num_antennas))
    return np.vstack([los, rician, equal, gauss])


@pytest.mark.parametrize("scheme,p,q", [
    ("geometric", 5, 3),      # 256 codewords
    ("hybrid", 4, 3),         # far-field ring last
    ("dft", 5, 3),            # every range infinite
    ("geometric", 0, 6),      # one angle, 64 rings: the allocation's p = 0 split
])
@pytest.mark.parametrize("block", [1, 7, 4096])
def test_flat_scan_matches_per_ring_scan(cfg129, region, scheme, p, q, block):
    cb = scheme_codebook(cfg129, region, scheme, p, q)
    vecs = _scan_vectors(cfg129, region, 12)
    ref_gain, ref_idx = _scan_per_ring(cfg129, vecs, cb.angle_samples, cb.range_samples)
    gain, idx = best_codeword_scan(cfg129, vecs, cb.angle_samples, cb.range_samples,
                                   block=block)
    assert np.array_equal(idx, ref_idx)
    assert np.abs(gain - ref_gain).max() <= 1e-12


@pytest.mark.parametrize("block", [7, 4096])
def test_flat_scan_matches_on_undivided_grid(cfg129, region, block):
    # 700 angles x 7 rings = 4900 codewords: neither 7-wide angle blocks
    # nor 4096-codeword blocks line up with the rings
    angles = np.linspace(region.theta_min, region.theta_max, 700)
    ranges = scheme_codebook(cfg129, region, "geometric", 0, 3).range_samples[:7]
    vecs = _scan_vectors(cfg129, region, 8)
    ref_gain, ref_idx = _scan_per_ring(cfg129, vecs, angles, ranges)
    gain, idx = best_codeword_scan(cfg129, vecs, angles, ranges, block=block)
    assert np.array_equal(idx, ref_idx)
    assert np.abs(gain - ref_gain).max() <= 1e-12


@pytest.mark.parametrize("angles,block", [
    ([-0.1, 0.2, 0.2, 0.4], 2),           # copies at flat 1 and 2, blocks [0, 1] [2, 3]
    ([-0.3, -0.1, 0.2, 0.2, 0.4], 3),     # copies at flat 2 and 3, blocks [0, 2] [3, 4]
])
def test_scan_tie_across_block_boundary(cfg129, angles, block):
    # one grid point twice, its copies in different blocks: the lower index wins
    angles, ranges = np.array(angles), np.array([30.0])
    h = los_channel(cfg129, PolarCoord(0.2, 30.0)).vector
    lowest = int(np.argmax(angles == 0.2))
    _, ref_idx = _exhaustive_scan(cfg129, h[None], angles, ranges)
    gain, idx = best_codeword_scan(cfg129, h, angles, ranges, block=block)
    assert ref_idx[0] == idx[0] == lowest
    assert gain[0] == pytest.approx(np.linalg.norm(h))


def test_scan_independent_of_cpu_count(cfg129, region, monkeypatch, recorded_pools):
    # 450 angles x 7 rings = 3150 codewords: 3 full chunks of 1024 and a
    # partial one, with boundaries inside angle rows
    angles = np.linspace(region.theta_min, region.theta_max, 450)
    ranges = scheme_codebook(cfg129, region, "geometric", 0, 3).range_samples[:7]
    vecs = _scan_vectors(cfg129, region, 6)
    ref_gain, ref_idx = _scan_per_ring(cfg129, vecs, angles, ranges)
    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cpus in (1, 2, 3):
            monkeypatch.setattr(polarcb.parallel, "available_cpus", lambda cpus=cpus: cpus)
            runs.append(best_codeword_scan(cfg129, vecs, angles, ranges))
    finally:
        sys.setswitchinterval(interval)
    assert recorded_pools == [2, 3]
    for gain, idx in runs:
        assert np.array_equal(gain, runs[0][0])
        assert np.array_equal(idx, runs[0][1])
    assert np.array_equal(runs[0][1], ref_idx)
    assert np.abs(runs[0][0] - ref_gain).max() <= 1e-12


@pytest.mark.parametrize("block,cpus", [(2048, 2), (4096, 8), (300, 3)])
def test_scan_in_flight_codewords_bounded_by_block(cfg129, monkeypatch, recorded_pools,
                                                  block, cpus):
    lock = threading.Lock()
    live = [0, 0]            # codewords under construction now, and at most
    build = feedback._bulk_fold_codewords

    def counted(cfg, theta, r, tiles=None):
        with lock:
            live[0] += len(theta)
            live[1] = max(live)
        try:
            time.sleep(0.02)     # hold the chunk so that the workers overlap
            return build(cfg, theta, r, tiles)
        finally:
            with lock:
                live[0] -= len(theta)

    monkeypatch.setattr(feedback, "_bulk_fold_codewords", counted)
    monkeypatch.setattr(polarcb.parallel, "available_cpus", lambda: cpus)
    angles = np.linspace(-0.5, 0.5, 6000)
    h = los_channel(cfg129, PolarCoord(0.1, 30.0)).vector
    # one antenna alone scores every codeword 1 / sqrt(M) up to rounding, so
    # that row meets every chunk and the workers' chunk builds overlap
    vecs = np.vstack([h, np.eye(129)[0]])
    _, idx = best_codeword_scan(cfg129, vecs, angles, np.array([30.0]), block=block)
    assert np.array_equal(idx, _scan_per_ring(cfg129, vecs, angles, np.array([30.0]))[1])
    assert recorded_pools == [cpus]
    # a job builds at most step = block // 2 codewords and scores as many
    # more as their mirrors; the workers' builds overlap
    step = block // 2
    assert step < live[1] <= cpus * step
    assert live[0] == 0


@pytest.fixture
def recorded_maps(monkeypatch):
    "Job counts of the maps the scan's pools run, in order."
    counts = []
    pool = feedback.thread_map

    @contextmanager
    def counting():
        with pool() as pmap:
            def counted(fn, items):
                items = list(items)
                counts.append(len(items))
                return pmap(fn, items)
            yield counted

    monkeypatch.setattr(feedback, "thread_map", counting)
    return counts


def test_scan_gives_every_worker_jobs_in_every_pass(cfg129, region, monkeypatch,
                                                    recorded_pools, recorded_maps):
    # G = 8 over 8 chunks, whose pass A used to be one job of all 8 chunks'
    # representatives, and 12 rows, whose few survivors used to be one
    # rescoring step: now runs of at most G chunks, about two per worker, and
    # at least two steps per worker, with the bytes of one CPU, also on 8 CPUs,
    # past the 4 workers a scan was once capped at
    cb = scheme_codebook(cfg129, region, "geometric", 11, 2)
    lead, mirror = feedback._mirror_pairs(cb.angle_samples)
    assert feedback._cluster_size(cfg129, cb.angle_samples[lead], len(mirror), SCAN_STEP) == 8
    vecs = _scan_vectors(cfg129, region, 3)
    runs = []
    for cpus, pass_a in ((1, 2), (2, 4), (3, 6), (8, 8)):
        monkeypatch.setattr(polarcb.parallel, "available_cpus", lambda cpus=cpus: cpus)
        recorded_maps.clear()
        runs.append(best_codeword_scan(cfg129, vecs, cb.angle_samples, cb.range_samples))
        setup, jobs_a, chunks, steps = recorded_maps
        assert (setup, jobs_a, chunks) == (1, pass_a, 8)
        assert steps >= min(2 * cpus, len(vecs))      # each row keeps at least one pair
    assert recorded_pools == [2, 3, 8]
    for gain, idx in runs:
        assert np.array_equal(gain, runs[0][0])
        assert np.array_equal(idx, runs[0][1])
    ref_gain, ref_idx = _scan_per_ring(cfg129, vecs, cb.angle_samples, cb.range_samples)
    assert np.array_equal(runs[0][1], ref_idx)
    assert np.abs(runs[0][0] - ref_gain).max() <= 1e-12


@pytest.mark.parametrize("cpus", [2, 3])
def test_scan_at_a_small_block_maps_pass_b_in_runs_of_chunks(cfg129, region, monkeypatch,
                                                             recorded_pools, recorded_maps,
                                                             cpus):
    # at block 4 a chunk builds 2 codewords, and pass B mapped one job per
    # chunk: 100 jobs at 400 angles, 750 at 3000.  Now a job takes a run of
    # chunks, about two jobs per worker, of at most _BUILD_STEP = 128 built
    # codewords: 4 or 6 jobs at 400 angles, 12 of 64 chunks at 3000
    assert feedback._BUILD_STEP == 128
    monkeypatch.setattr(polarcb.parallel, "available_cpus", lambda: cpus)
    vecs = _scan_vectors(cfg129, region, 2)
    for count, jobs in ((400, 2 * cpus), (3000, 12)):
        angles = np.linspace(-0.5, 0.5, count)
        recorded_maps.clear()
        gain, idx = best_codeword_scan(cfg129, vecs, angles, np.array([30.0]), block=4)
        assert recorded_maps[-2] == jobs                # pass B, before the rescoring steps
        ref_gain, ref_idx = _scan_per_ring(cfg129, vecs, angles, np.array([30.0]))
        assert np.array_equal(idx, ref_idx)
        assert np.abs(gain - ref_gain).max() <= 1e-12
    assert recorded_pools == [cpus, cpus]


def test_scan_tie_across_chunks_of_two_workers(cfg129, monkeypatch, recorded_pools):
    # one grid point at flat 1023 and 1024, the last of chunk 0 and the first
    # of chunk 1, which two workers score: the lower index wins
    monkeypatch.setattr(polarcb.parallel, "available_cpus", lambda: 2)
    angles = np.linspace(-0.5, 0.5, 2048)
    angles[1024] = angles[1023]
    h = los_channel(cfg129, PolarCoord(angles[1023], 30.0)).vector
    vecs = np.vstack([h, 2.5j * h])
    gain, idx = best_codeword_scan(cfg129, vecs, angles, np.array([30.0]))
    assert recorded_pools == [2]
    assert list(idx) == [1023, 1023]
    assert gain == pytest.approx(np.linalg.norm(vecs, axis=1))


def test_bulk_trig_error_within_assumed_bound():
    # the bulk bound assumes float32 cos and sin within _TRIG_ERR * 2^-24 on [-pi, pi]
    x = np.linspace(-np.pi, np.pi, 2**22 + 1).astype(np.float32)
    for fn in (np.cos, np.sin):
        err = np.abs(fn(x).astype(np.float64) - fn(x.astype(np.float64)))
        assert err.max() <= feedback._TRIG_ERR * feedback._U32


def _documented_bulk_error(m, rows):
    """E as README's "Costs at a glance" gives it, without mirror mismatch:
    sqrt(2) gamma_{2 ceil(M/2) + 4} + 4u + eps_trig, times ||v|| sqrt(M)."""
    u, n = 2.0**-24, 2 * ((m + 1) // 2) + 4
    rel = np.sqrt(2.0) * n * u / (1 - n * u) + 4 * u + (np.pi + 2 * np.sqrt(2.0) + 1) * u
    return np.linalg.norm(rows, axis=1) * np.sqrt(m) * rel


@pytest.mark.parametrize("m", [128, 129, 387])
def test_bulk_score_error_within_bound(region, m):
    cfg = ArrayConfig(m, carrier_frequency=30e9)
    cb = scheme_codebook(cfg, region, "hybrid", 6, 3)    # far-field ring included
    vecs = _scan_vectors(cfg, region, 6)
    near_zero = np.vstack([1e-30 * vecs[:6], 1e-200 * vecs[6:12], 1e-300 * vecs[-6:]])
    spiky = vecs[-3:].copy()
    spiky[:, 0] *= 1e6                                   # one entry dwarfs the rest
    scaled = feedback._pow2_scaled(np.vstack([vecs, near_zero, spiky]))
    bound = feedback._bulk_error_bound(cfg, scaled)
    assert np.allclose(bound, _documented_bulk_error(m, scaled), rtol=1e-14, atol=0)
    theta, r = cb.locations(np.arange(len(cb)))
    cw32 = feedback._bulk_conj_codewords(cfg, theta, r)
    assert np.abs(cw32 - np.sqrt(m) * cb.codewords.conj()).max() <= feedback._EPS_TRIG
    # every codeword folded, scored as itself and as its mirror at -theta
    folded = feedback._bulk_fold_codewords(cfg, theta, r, feedback._Tiles())
    bulk = feedback._bulk_scores(feedback._fold_rows(scaled).astype(np.complex64), folded,
                                 len(cb), feedback._Tiles())
    for cw, got in ((cb.codewords, bulk[:, :len(cb)]),
                    (steering_matrix_exact(cfg, -theta, r), bulk[:, len(cb):])):
        exact = np.abs(scaled @ cw.conj().T) * np.sqrt(m)
        assert (np.abs(got - exact) <= bound[:, None]).all()


def test_fold_recombines_to_the_product_and_its_mirror():
    rng = np.random.default_rng(3)
    for m in (1, 2, 7, 8):
        x = rng.standard_normal((3, m)) + 1j * rng.standard_normal((3, m))
        y = rng.standard_normal((4, m)) + 1j * rng.standard_normal((4, m))
        fx, fy = feedback._fold_rows(x), feedback._fold(y, np.empty_like(y))
        half = (m + 1) // 2
        s = fx[:, :half] @ fy[:, :half].T
        a = fx[:, half:] @ fy[:, half:].T
        assert np.allclose(s + a, x @ y.T, rtol=0, atol=1e-12)
        assert np.allclose(s - a, x @ y[:, ::-1].T, rtol=0, atol=1e-12)


def test_bulk_error_bound_near_half_the_unfolded_one(cfg387):
    # unfolded, one complex64 product of length M: sqrt(2) gamma_{2M + 2} + 2u + eps_trig
    u, n = 2.0**-24, 2 * 387 + 2
    unfolded = np.sqrt(2.0) * n * u / (1 - n * u) + 2 * u + feedback._EPS_TRIG
    rel = feedback._bulk_error_bound(cfg387, np.eye(387)[:1] / np.sqrt(387))[0]
    assert rel == pytest.approx(3.37e-5, rel=1e-3)
    assert 0.5 < rel / unfolded < 0.52


def test_scan_matches_per_ring_scan_on_dense_rings(cfg129, region):
    # 1 angle x 4096 rings: neighbouring codewords differ by far less than
    # the bulk margin, so each row keeps many candidates for rescoring
    ranges = scheme_codebook(cfg129, region, "geometric", 0, 12).range_samples
    angles = np.array([0.1])
    vecs = _scan_vectors(cfg129, region, 6)
    ref_gain, ref_idx = _scan_per_ring(cfg129, vecs, angles, ranges)
    gain, idx = best_codeword_scan(cfg129, vecs, angles, ranges)
    assert np.array_equal(idx, ref_idx)
    assert np.abs(gain - ref_gain).max() <= 1e-12


def test_scan_zero_row(cfg129, small_cb):
    h = los_channel(cfg129, PolarCoord(0.2, 25.0)).vector
    vecs = np.vstack([np.zeros(129, dtype=complex), h])
    gain, idx = best_codeword_scan(cfg129, vecs, small_cb.angle_samples,
                                   small_cb.range_samples)
    assert gain[0] == 0.0 and idx[0] == 0
    ref_gain, ref_idx = _scan_per_ring(cfg129, h, small_cb.angle_samples,
                                       small_cb.range_samples)
    assert idx[1] == ref_idx[0] and gain[1] == pytest.approx(ref_gain[0], abs=1e-12)


def test_scan_of_subnormal_rows(cfg129, small_cb):
    # rows whose entries are all subnormal: their power-of-two scaling (by more
    # than 2^1023) once overflowed, and they came out as gain 0 at index 0
    h = los_channel(cfg129, PolarCoord(0.2, 25.0)).vector
    vecs = np.vstack([1e-310 * h, 3e-310j * los_channel(cfg129, PolarCoord(-0.1, 60.0)).vector])
    gain, idx = best_codeword_scan(cfg129, vecs, small_cb.angle_samples, small_cb.range_samples)
    ref_gain, ref_idx = _exhaustive_scan(cfg129, vecs, small_cb.angle_samples,
                                         small_cb.range_samples)
    assert np.array_equal(idx, ref_idx) and (gain > 0).all()
    assert gain.tobytes() == ref_gain.tobytes()


def _unpruned(monkeypatch):
    "Run the scan with one codeword per cluster: no pass A, every row meets every chunk."
    monkeypatch.setattr(feedback, "_cluster_size", lambda *args: 1)


@pytest.mark.parametrize("scheme", ["geometric", "hyperbolic", "uniform", "dft", "hybrid"])
def test_pruned_scan_matches_per_ring_scan(cfg129, region, monkeypatch, scheme):
    # p = 10, q = 3: 8192 codewords in clusters of 4 angles (32 on the dft grid)
    cb = scheme_codebook(cfg129, region, scheme, 10, 3)
    assert feedback._cluster_size(cfg129, cb.angle_samples, 0, SCAN_STEP) > 1
    vecs = _scan_vectors(cfg129, region, 12)
    ref_gain, ref_idx = _scan_per_ring(cfg129, vecs, cb.angle_samples, cb.range_samples)
    gain, idx = best_codeword_scan(cfg129, vecs, cb.angle_samples, cb.range_samples)
    assert np.array_equal(idx, ref_idx)
    assert np.abs(gain - ref_gain).max() <= 1e-12
    _unpruned(monkeypatch)
    full_gain, full_idx = best_codeword_scan(cfg129, vecs, cb.angle_samples, cb.range_samples)
    assert np.array_equal(idx, full_idx)
    assert gain.tobytes() == full_gain.tobytes()


def test_pruned_scan_with_clusters_spanning_more_rings_than_a_chunk(cfg129, region,
                                                                    monkeypatch):
    # 512 lead angles x 64 rings in clusters of 4 angles; block 256 makes
    # chunks of 128 built codewords, so a chunk holds 32 of a cluster's 64
    # (cluster, ring) sets and every chunk's bound covers its own sets only
    cb = scheme_codebook(cfg129, region, "hyperbolic", 10, 6)
    lead, mirror = feedback._mirror_pairs(cb.angle_samples)
    assert feedback._cluster_size(cfg129, cb.angle_samples[lead], len(mirror), SCAN_STEP) == 4
    rng = np.random.default_rng(2)
    vecs = steering_matrix_exact(cfg129, rng.uniform(-0.5, 0.5, 4), rng.uniform(4.0, 120.0, 4))
    built = []
    build = feedback._bulk_fold_codewords

    def counted(cfg, theta, r, tiles=None):
        built.append(len(theta))
        return build(cfg, theta, r, tiles)

    monkeypatch.setattr(feedback, "_bulk_fold_codewords", counted)
    gain, idx = best_codeword_scan(cfg129, vecs, cb.angle_samples, cb.range_samples, block=256)
    # passes A and B together: 8192 representatives and at most 16 chunks of 128
    assert sum(built) <= 10240
    ref_gain, ref_idx = _scan_per_ring(cfg129, vecs, cb.angle_samples, cb.range_samples)
    assert np.array_equal(idx, ref_idx)
    assert np.abs(gain - ref_gain).max() <= 1e-12
    _unpruned(monkeypatch)
    full_gain, full_idx = best_codeword_scan(cfg129, vecs, cb.angle_samples, cb.range_samples,
                                             block=256)
    assert np.array_equal(idx, full_idx)
    assert gain.tobytes() == full_gain.tobytes()


def test_scan_of_theta_zero_takes_one_product_per_row_block(cfg129, region, monkeypatch):
    # theta = 0 is its own mirror: its folded codewords' difference half is
    # exactly 0, so every chunk of the grid skips the product with it.  200
    # rows over 1500 rings: three chunks of two row blocks each
    angles, ranges = np.array([0.0]), np.geomspace(4.0, 120.0, 1500)
    vecs = _scan_vectors(cfg129, region, 50)
    calls, products = [], []
    scores, matmul = feedback._bulk_scores, np.matmul

    def counted(rows32, cw32, mirrored, tiles=None):
        calls.append(mirrored)
        return scores(rows32, cw32, mirrored, tiles)

    monkeypatch.setattr(feedback, "_bulk_scores", counted)
    monkeypatch.setattr(np, "matmul", lambda *args, **kw: products.append(1) or matmul(*args, **kw))
    gain, idx = best_codeword_scan(cfg129, vecs, angles, ranges)
    assert calls == [0] * 6 and len(products) == 6
    ref_gain, ref_idx = _scan_per_ring(cfg129, vecs, angles, ranges)
    assert np.array_equal(idx, ref_idx)
    assert np.abs(gain - ref_gain).max() <= 1e-12
    # |S| is the same bytes as |S + A| from both products
    monkeypatch.undo()
    half = (cfg129.num_antennas + 1) // 2
    cw32 = feedback._bulk_fold_codewords(cfg129, np.zeros(len(ranges)), ranges, feedback._Tiles())
    rows32 = feedback._fold_rows(feedback._pow2_scaled(vecs)).astype(np.complex64)
    assert not cw32[:, half:].any()
    both = (rows32[:, :half] @ cw32[:, :half].T) + (rows32[:, half:] @ cw32[:, half:].T)
    assert (scores(rows32, cw32, 0, feedback._Tiles()).tobytes()
            == np.abs(both, dtype=np.float64).tobytes())


@pytest.mark.parametrize("scheme", ["geometric", "dft", "hybrid"])
def test_cluster_radius_bounds_member_distance(cfg129, region, scheme):
    cb = scheme_codebook(cfg129, region, scheme, 10, 3)
    group = feedback._cluster_size(cfg129, cb.angle_samples, 0, SCAN_STEP)
    rep, radius, _ = feedback._angle_clusters(cfg129, cb.angle_samples, group)
    assert radius.max() <= feedback._MAX_RADIUS
    cluster = np.arange(len(cb.angle_samples)) // group
    for r in cb.range_samples:
        members = steering_matrix_exact(cfg129, cb.angle_samples, np.full(len(cluster), r))
        dist = np.linalg.norm(members - members[rep][cluster], axis=1)
        assert (dist <= radius[cluster]).all()


def _edge_member_row(cfg):
    """Angles [0, 0.003, 0.3, 0.303] at 30 m, clusters {0, 1} and {2, 3} with
    representatives 1 and 3, and a row whose best codeword, 0, is nearly
    orthogonal to its representative while representative 3 scores second."""
    angles, ranges = np.array([0.0, 0.003, 0.3, 0.303]), np.array([30.0])
    b = steering_matrix_exact(cfg, angles, np.full(4, 30.0))
    return angles, ranges, b[0] - np.vdot(b[1], b[0]) * b[1] + 0.09 * b[3]


def test_scan_gate_catches_halved_radius(cfg129, monkeypatch):
    angles, ranges, v = _edge_member_row(cfg129)
    assert feedback._cluster_size(cfg129, angles, 0, SCAN_STEP) == 2
    _, ref_idx = _scan_per_ring(cfg129, v, angles, ranges)
    assert ref_idx[0] == 0
    # block 4: each cluster is a chunk of its own, so its pruning shows
    _, idx = best_codeword_scan(cfg129, v, angles, ranges, block=4)
    assert idx[0] == 0
    clusters = feedback._angle_clusters
    monkeypatch.setattr(feedback, "_angle_clusters",
                        lambda *args: (lambda rep, radius, sizes: (rep, radius / 2, sizes))(
                            *clusters(*args)))
    _, idx = best_codeword_scan(cfg129, v, angles, ranges, block=4)
    assert idx[0] == 3


def _sub_edge_row(cfg):
    """Four islands of 8 angles, 20 / M apart, at 30 m: in each a first angle 0.4 / M
    before seven 0.01 / M apart.  With block 16 the clusters are the islands
    (G = 8) and the half-clusters their halves, with representatives 2 and 6
    lead positions in.  The row's best codeword, angle 0, is nearly orthogonal
    to its half-cluster's representative, angle 2; a weaker codeword in the
    next island sets its best representative score."""
    m = cfg.num_antennas
    gaps = np.full(32, 0.01 / m)
    gaps[1::8], gaps[::8] = 0.4 / m, 20.0 / m
    angles, ranges = 0.1 + np.cumsum(gaps) - gaps[0], np.array([30.0])
    b = steering_matrix_exact(cfg, angles, np.full(32, 30.0))
    v = b[0] - np.vdot(b[2], b[0]) * b[2]
    return angles, ranges, v + 0.7 * np.vdot(v, b[0]).real * b[11]


def test_scan_gate_catches_halved_sub_radius(cfg129, monkeypatch):
    angles, ranges, v = _sub_edge_row(cfg129)
    assert feedback._cluster_size(cfg129, angles, 0, 8) == 8
    _, ref_idx = _scan_per_ring(cfg129, v, angles, ranges)
    assert ref_idx[0] == 0
    _, idx = best_codeword_scan(cfg129, v, angles, ranges, block=16)
    assert idx[0] == 0
    # the half-clusters' radius alone halved: the row no longer meets its chunk
    clusters = feedback._angle_clusters
    monkeypatch.setattr(feedback, "_angle_clusters", lambda cfg, theta, group, split=0: (
        lambda rep, radius, sizes: (rep, radius / 2 if group == 4 else radius, sizes))(
            *clusters(cfg, theta, group, split)))
    _, idx = best_codeword_scan(cfg129, v, angles, ranges, block=16)
    assert idx[0] == 8


@pytest.mark.parametrize("scheme", ["hyperbolic", "hybrid"])
def test_level2_scores_fewer_rows_in_full_than_meet_the_chunks(cfg129, region, monkeypatch,
                                                              scheme):
    # p = 10, q = 3: clusters of 4 angles, so a chunk that some row meets first
    # scores its half-clusters' representatives, picked from the chunk it built,
    # against those rows; only the rows that go on score the whole chunk
    cb = scheme_codebook(cfg129, region, scheme, 10, 3)
    lead, mirror = feedback._mirror_pairs(cb.angle_samples)
    assert feedback._cluster_size(cfg129, cb.angle_samples[lead], len(mirror), SCAN_STEP) >= 4
    built, rows = [], {"met": 0, "full": 0}
    build, scores = feedback._bulk_fold_codewords, feedback._bulk_scores

    def recorded_build(cfg, theta, r, tiles=None):
        built.append(build(cfg, theta, r, tiles))
        return built[-1]

    def recorded_scores(rows32, cw32, mirrored, tiles=None):
        if not any(cw32 is cw for cw in built):     # a tile of half-cluster representatives
            rows["met"] += len(rows32)
        elif rows["met"]:                           # after pass A: a whole chunk
            rows["full"] += len(rows32)
        return scores(rows32, cw32, mirrored, tiles)

    monkeypatch.setattr(feedback, "_bulk_fold_codewords", recorded_build)
    monkeypatch.setattr(feedback, "_bulk_scores", recorded_scores)
    vecs = _scan_vectors(cfg129, region, 12)
    gain, idx = best_codeword_scan(cfg129, vecs, cb.angle_samples, cb.range_samples)
    assert 0 < rows["full"] < rows["met"]
    ref_gain, ref_idx = _scan_per_ring(cfg129, vecs, cb.angle_samples, cb.range_samples)
    assert np.array_equal(idx, ref_idx)
    assert np.abs(gain - ref_gain).max() <= 1e-12


def test_scan_keeps_ties_under_adversarial_bulk_rounding(cfg129, monkeypatch):
    # grid point 0.1 at flat 0, 1, 6 and 7, so clusters 0 and 3 tie in float64;
    # no angle has a mirror.  Every bulk product is pushed 0.9 E down in the
    # first half of its columns and 0.9 E up in the second, a rounding error
    # the margin must absorb (E as documented, so a smaller margin fails):
    # pass A sees cluster 3's representative 1.8 E above cluster 0's, and
    # chunk 0 (cluster 0: at block 4 a chunk holds two codewords) sees flat 0
    # 1.8 E below flat 1, yet flat 0 holds the lowest tied index and has to be kept
    angles = np.array([0.1, 0.1, -0.3, -0.298, 0.35, 0.352, 0.1, 0.1])
    ranges = np.array([30.0])
    assert feedback._cluster_size(cfg129, angles, 0, SCAN_STEP) == 2
    h = los_channel(cfg129, PolarCoord(0.1, 30.0)).vector
    e = _documented_bulk_error(129, feedback._pow2_scaled(h[None]))
    scores = feedback._bulk_scores

    def skewed(rows32, cw32, mirrored, tiles=None):
        assert mirrored == 0
        sign = np.where(np.arange(len(cw32)) < len(cw32) / 2, -0.9, 0.9)
        return scores(rows32, cw32, mirrored, tiles) + e[:, None] * sign

    monkeypatch.setattr(feedback, "_bulk_scores", skewed)
    gain, idx = best_codeword_scan(cfg129, h, angles, ranges, block=4)
    assert idx[0] == 0
    assert gain[0] == pytest.approx(np.linalg.norm(h))


def test_scan_skips_chunks_no_row_keeps(cfg129, monkeypatch):
    # one line-of-sight row at angle index ~3600 of 6000, lead position ~600
    # of the 3000 positive angles: only chunk 1 of the six 512-codeword folded
    # chunks (each scoring 1024 grid codewords with the mirrors), the one whose
    # first lead angle is lead position 512, is built
    angles = np.linspace(-0.5, 0.5, 6000)
    built = []
    build = feedback._bulk_fold_codewords

    def recorded(cfg, theta, r, tiles=None):
        lead = np.searchsorted(angles, theta) - 3000
        if np.all(np.diff(lead) == 1):       # a chunk's members, not pass A's representatives
            built.append(lead[0])
        return build(cfg, theta, r, tiles)

    monkeypatch.setattr(feedback, "_bulk_fold_codewords", recorded)
    h = los_channel(cfg129, PolarCoord(0.1, 30.0)).vector
    gain, idx = best_codeword_scan(cfg129, h, angles, np.array([30.0]))
    ref_gain, ref_idx = _scan_per_ring(cfg129, h, angles, np.array([30.0]))
    assert built == [512]
    assert idx[0] == ref_idx[0] and abs(gain[0] - ref_gain[0]) <= 1e-12


def test_scan_angles_reaching_endfire(cfg129):
    # theta = 1 has an unbounded slope: its cluster radius is infinite, and
    # near-endfire grids fall back to one codeword per cluster
    wide = scheme_codebook(cfg129, PolarRegion(-1.0, 1.0, 4.0, 120.0), "geometric", 9, 2)
    endfire = np.linspace(0.9, 1.0, 64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert feedback._cluster_size(cfg129, wide.angle_samples, 0, SCAN_STEP) == 1
        assert feedback._cluster_size(cfg129, endfire, 0, SCAN_STEP) == 1
        assert feedback._angle_clusters(cfg129, endfire, 2)[1][-1] == np.inf
        h = los_channel(cfg129, PolarCoord(0.97, 20.0)).vector
        for angles, ranges in ((wide.angle_samples, wide.range_samples),
                               (endfire, np.array([10.0, 20.0, np.inf]))):
            gain, idx = best_codeword_scan(cfg129, h, angles, ranges)
            ref_gain, ref_idx = _scan_per_ring(cfg129, h, angles, ranges)
            assert idx[0] == ref_idx[0] and abs(gain[0] - ref_gain[0]) <= 1e-12


def test_codebook_locations_match_location(cfg129, region, small_cb):
    flat = np.array([0, 5, 17, len(small_cb) - 1])
    theta, r = small_cb.locations(flat)
    assert [(float(t), float(x)) for t, x in zip(theta, r)] \
        == [small_cb.location(int(f)) for f in flat]
    i, j = divmod(17, len(small_cb.range_samples))
    assert np.array_equal(small_cb.codeword(i, j), small_cb.codewords[17])


def test_rvq_properties():
    cb = rvq_generate(4, 10, "isotropic", 3)
    assert cb.codewords.shape == (1024, 4)
    assert np.allclose(np.linalg.norm(cb.codewords, axis=1), 1.0, atol=1e-12)
    again = rvq_generate(4, 10, "isotropic", 3)
    assert np.array_equal(cb.codewords, again.codewords)
    other = rvq_generate(4, 10, "isotropic", 4)
    assert not np.array_equal(cb.codewords, other.codewords)


def test_rvq_quantization_error_law():
    rng = np.random.default_rng(5)
    means = {}
    for b2 in (8, 12):
        cb = rvq_generate(4, b2, "isotropic", 7)
        u = rng.standard_normal((3000, 4)) + 1j * rng.standard_normal((3000, 4))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        err = 1 - (np.abs(u.conj() @ cb.codewords.T) ** 2).max(axis=1)
        means[b2] = err.mean()
        assert abs(means[b2] - 2 ** (-b2 / 3)) / 2 ** (-b2 / 3) < 0.30
    assert means[12] < means[8]


def test_rvq_matched_mode():
    def sampler(count, rng):
        base = np.eye(3)[rng.integers(0, 3, count)]
        return base + 0.1 * (rng.standard_normal((count, 3))
                             + 1j * rng.standard_normal((count, 3)))

    cb = rvq_generate(3, 6, "matched", 11, direction_sampler=sampler)
    assert cb.codewords.shape == (64, 3)
    assert np.allclose(np.linalg.norm(cb.codewords, axis=1), 1.0)
    with pytest.raises(ValueError):
        rvq_generate(3, 6, "matched", 11)
    with pytest.raises(ValueError):
        rvq_generate(3, 6, "bogus", 11)


def test_phase2_select():
    cb = rvq_generate(4, 6, "isotropic", 1)
    g = 2.5 * cb.codewords[17]
    idx, picked = phase2_select(g, cb)
    assert idx == 17
    assert abs(np.vdot(picked, g / np.linalg.norm(g))) == pytest.approx(1.0)
    idx2, _ = phase2_select(np.exp(1.3j) * g, cb)
    assert idx2 == 17
    single = rvq_generate(4, 0, "isotropic", 2)
    idx3, _ = phase2_select(g, single)
    assert idx3 == 0
    with pytest.raises(ValueError):
        phase2_select(np.zeros(4, dtype=complex), cb)


def test_zf_identity_and_orthogonal():
    assert np.allclose(zf_beamformer(np.eye(3, dtype=complex)), np.eye(3))
    rng = np.random.default_rng(2)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    f = zf_beamformer(q)
    cross = q @ f
    off = cross - np.diag(np.diag(cross))
    assert np.abs(off).max() < 1e-12


def test_zf_nulling_random():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        f = zf_beamformer(g)
        cross = g @ f
        off = cross - np.diag(np.diag(cross))
        assert np.abs(off).max() < 1e-10
        assert np.allclose(np.linalg.norm(f, axis=0), 1.0, atol=1e-12)


def test_zf_singular():
    g = np.ones((3, 3), dtype=complex)
    with pytest.raises(ZFSingularError):
        zf_beamformer(g)
    with pytest.raises(ValueError):
        zf_beamformer(np.ones((2, 3), dtype=complex))


def test_user_rate_reference_points():
    # zero interference with |h^H F f|^2 = K sigma^2 / P gives exactly 1 bps/Hz
    f_rf = np.eye(1, dtype=complex)
    f_bb = np.eye(1, dtype=complex)
    h = np.array([np.sqrt(0.5)], dtype=complex)
    rate = user_rate(h, f_rf, f_bb, 0, p_total=2.0, noise_var=1.0)
    assert rate == pytest.approx(1.0)
    zero = user_rate(np.zeros(1, dtype=complex), f_rf, f_bb, 0, 2.0, 1.0)
    assert zero == 0.0
    # K = 2 interference-limited sanity: equal signal and interference
    f_rf2 = np.eye(2, dtype=complex)
    f_bb2 = np.ones((2, 2), dtype=complex) / np.sqrt(2)
    h2 = np.array([1.0, 0.0], dtype=complex)
    r2 = user_rate(h2, f_rf2, f_bb2, 0, p_total=2.0, noise_var=1.0)
    assert r2 == pytest.approx(np.log2(1 + 0.5 / (0.5 + 1.0)))


def test_run_protocol_single_user(cfg129, region, small_cb):
    h = los_channel(cfg129, PolarCoord(0.2, 25.0))
    cb2 = rvq_generate(1, 4, "isotropic", 0)
    out = run_protocol(cfg129, [h], small_cb, cb2, p_total=100.0, noise_var=129.0)
    idx, gain = phase1_select(h, small_cb)
    assert out.phase1_indices[0] == idx
    expected = np.log2(1 + 100.0 * (gain * np.sqrt(129)) ** 2 / 129.0)
    assert out.sum_rate == pytest.approx(expected, rel=1e-12)
    assert np.linalg.norm(out.f_rf @ out.f_bb, axis=0) == pytest.approx(1.0, abs=1e-12)


def test_run_protocol_duplicate_users_singular(cfg129, small_cb):
    h = los_channel(cfg129, PolarCoord(0.0, 30.0))
    cb2 = rvq_generate(2, 6, "isotropic", 0)
    with pytest.raises(ZFSingularError):
        run_protocol(cfg129, [h, h], small_cb, cb2, 100.0, 129.0)


def test_full_csi_zero_interference_and_dominance(cfg129, region, small_cb):
    rng = np.random.default_rng(9)
    cb2 = rvq_generate(3, 8, "isotropic", 1)
    wins = valid = 0
    for trial in range(30):
        coords = [PolarCoord(t, r) for t, r in
                  zip(rng.uniform(-0.5, 0.5, 3), rng.uniform(4, 120, 3))]
        users = [los_channel(cfg129, c) for c in coords]
        full = run_protocol(cfg129, users, None, None, 100.0, 129.0, full_csi=True)
        rx = np.abs(np.array([u.vector for u in users]).conj() @ full.f_rf @ full.f_bb)
        off = rx - np.diag(np.diag(rx))
        assert off.max() < 1e-9
        try:
            lim = run_protocol(cfg129, users, small_cb, cb2, 100.0, 129.0)
        except ZFSingularError:
            continue   # two users landed on one quantized direction
        valid += 1
        wins += full.sum_rate >= lim.sum_rate
    assert valid >= 25
    assert wins >= valid - 2   # statistical dominance on matched drops


def test_multipath_feedback_single_path(cfg129, region, small_cb):
    gain_cb = rvq_generate(1, 6, "isotropic", 3)
    coord = PolarCoord(small_cb.angle_samples[4], small_cb.range_samples[1])
    h = los_channel(cfg129, coord, beta=0.7 - 0.2j)
    h_hat, corr = multipath_feedback(cfg129, h, small_cb, gain_cb)
    assert corr == pytest.approx(1.0, abs=1e-9)   # on-grid path, scalar gain direction

    off = PolarCoord(0.21, 33.0)
    h2 = los_channel(cfg129, off, beta=1.0)
    _, corr2 = multipath_feedback(cfg129, h2, small_cb, gain_cb)
    ai = np.abs(off.theta - small_cb.angle_samples).argmin()
    ri = np.abs(1 / off.r - 1 / small_cb.range_samples).argmin()
    direct = abs(np.vdot(steering_vector_exact(
        cfg129, PolarCoord(small_cb.angle_samples[ai], small_cb.range_samples[ri])),
        steering_vector_exact(cfg129, off)))
    assert corr2 == pytest.approx(direct, abs=1e-9)


def test_multipath_feedback_multi_path(cfg129, region, small_cb):
    gain_cb = rvq_generate(3, 12, "isotropic", 4)
    rng = np.random.default_rng(6)
    coords = [PolarCoord(t, r) for t, r in
              zip(rng.uniform(-0.5, 0.5, 3), rng.uniform(4, 120, 3))]
    h = multipath_channel_equal(cfg129, coords, 7)
    _, corr = multipath_feedback(cfg129, h, small_cb, gain_cb)
    assert 0.5 < corr <= 1.0


def _reference_multipath_feedback(cfg, h, cb1, gain_cb):
    "The one-channel body `multipath_feedback_batch` replaced."
    thetas = np.array([p.coord.theta for p in h.paths])
    ranges = np.array([p.coord.r for p in h.paths])
    gains = np.array([p.gain for p in h.paths], dtype=np.complex128)

    ai = np.abs(thetas[:, None] - cb1.angle_samples[None, :]).argmin(axis=1)
    inv_samples = np.where(np.isinf(cb1.range_samples), 0.0, 1.0 / cb1.range_samples)
    ri = np.abs(1.0 / ranges[:, None] - inv_samples[None, :]).argmin(axis=1)

    _, direction = phase2_select(gains, gain_cb)
    phase = np.vdot(direction, gains)
    phase = phase / abs(phase) if abs(phase) > 0 else 1.0
    gains_hat = np.linalg.norm(gains) * direction * phase

    steer = steering_matrix_exact(cfg, cb1.angle_samples[ai], cb1.range_samples[ri])
    h_hat = np.sqrt(cfg.num_antennas) * (gains_hat[:, None] * steer).sum(axis=0)
    corr = abs(np.vdot(h_hat, h.vector)) / (np.linalg.norm(h_hat) * np.linalg.norm(h.vector))
    return h_hat, float(corr)


def _bits(x):
    return np.asarray(x).tobytes()


def _path_channels(cfg, n, paths, seed, region):
    rng = np.random.default_rng(seed)
    return [multipath_channel_equal(cfg, [PolarCoord(t, r) for t, r in zip(
        rng.uniform(region.theta_min, region.theta_max, paths),
        rng.uniform(region.r_min, region.r_max, paths))], rng) for _ in range(n)]


def _per_path_codebooks(cfg, region):
    "Geometric, hyperbolic, extended, hybrid (one infinite range) and a 1-angle grid."
    rng = np.random.default_rng(21)
    cbs = [scheme_codebook(cfg, region, scheme, 5, 3) for scheme in
           ("geometric", "hyperbolic", "hybrid")]
    cbs.append(scheme_codebook(cfg, region, "extended", 5, 3,
                               lloyd_data=rng.uniform(region.r_min, region.r_max, 4000)))
    cbs.append(PolarCodebook(cfg, np.array([0.1]), cbs[0].range_samples))
    assert np.isinf(cbs[2].range_samples).sum() == 1
    return cbs


def _assert_matches_reference(cfg, channels, cb, gain_cb):
    arrays = ChannelArrays.of(channels)
    h_hat = np.empty_like(arrays.vectors)
    corr = multipath_feedback_batch(cfg, arrays, quantize_path_gains(arrays.gains, gain_cb),
                                    cb, h_hat)
    for n, h in enumerate(channels):
        ref_h, ref_corr = _reference_multipath_feedback(cfg, h, cb, gain_cb)
        one_h, one_corr = multipath_feedback(cfg, h, cb, gain_cb)
        assert _bits(h_hat[n]) == _bits(one_h) == _bits(ref_h)
        assert _bits(corr[n]) == _bits(one_corr) == _bits(ref_corr)


def test_batched_multipath_feedback_matches_reference(cfg129, region):
    # 37 channels: two full steps of 16 channels and a partial one
    channels = _path_channels(cfg129, 37, 3, 5, region)
    gain_cb = rvq_generate(3, 8, "isotropic", 6)
    for cb in _per_path_codebooks(cfg129, region):
        _assert_matches_reference(cfg129, channels, cb, gain_cb)
    # one path per channel, and more paths than one step's rows
    geometric = scheme_codebook(cfg129, region, "geometric", 5, 3)
    for paths, count in ((1, 5), (50, 3)):
        chans = _path_channels(cfg129, count, paths, 7, region)
        _assert_matches_reference(cfg129, chans, geometric,
                                  rvq_generate(paths, 6, "isotropic", 8))


@pytest.mark.parametrize("m", [1, 7, 129, 387, 1025])
def test_row_dots_and_norms_have_the_per_row_bits(m):
    # the per-path correlations use these in place of a per-row np.vdot and
    # np.linalg.norm; scales far apart exercise every rounding of the sums
    rng = np.random.default_rng(m)
    scale = 10.0 ** rng.uniform(-6, 6, (21, 1))
    a = (rng.standard_normal((21, m)) + 1j * rng.standard_normal((21, m))) * scale
    b = rng.standard_normal((21, m)) + 1j * rng.standard_normal((21, m))
    assert _bits(feedback._row_dots(a.conj(), b)) == _bits([np.vdot(x, y) for x, y in zip(a, b)])
    assert _bits(feedback._row_norms(a)) == _bits([np.linalg.norm(x) for x in a])
    inner = feedback._row_dots(a.conj(), b)
    assert _bits(np.hypot(inner.real, inner.imag)) == _bits([abs(np.vdot(x, y))
                                                            for x, y in zip(a, b)])


def test_batched_multipath_feedback_ties_and_unsorted_samples(cfg129):
    # a path exactly between two angle samples and, in 1/r, between 4 m and infinity
    assert 0.5 - 0.25 == 0.75 - 0.5 and 1 / 4 - 1 / 8 == 1 / 8 - 0.0
    angles = [np.array([0.25, 0.75]), np.array([0.75, 0.25]),
              np.array([0.75, 0.25, 0.25, 0.75]), np.array([0.5, 0.25, 0.75, 0.25])]
    ranges = [np.array([4.0, np.inf]), np.array([np.inf, 4.0, 4.0, np.inf]),
              np.array([16.0, 4.0, 4.0, np.inf])]
    coords = [PolarCoord(0.5, 8.0), PolarCoord(0.25, 4.0), PolarCoord(0.75, 1e9)]
    chans = [multipath_channel_equal(cfg129, coords, seed) for seed in range(3)]
    chans.append(multipath_channel_equal(cfg129, coords[::-1], 3))
    gain_cb = rvq_generate(3, 4, "isotropic", 9)
    for a in angles:
        for r in ranges:
            _assert_matches_reference(cfg129, chans, PolarCodebook(cfg129, a, r), gain_cb)


def test_nearest_index_is_argmin():
    rng = np.random.default_rng(14)
    cases = [
        (rng.uniform(-1, 1, 500), rng.uniform(-1, 1, 37)),
        (rng.uniform(-1, 1, 500), np.repeat(rng.uniform(-1, 1, 9), 3)),    # duplicates
        (np.array([0.5, -2.0, 2.0, 0.25, 0.75]), np.array([0.75, 0.25, 0.25, 0.75])),
        (np.array([0.3]), np.array([0.3])),
    ]
    # distinct samples whose rounded distances to a far value coincide
    s = 0.01
    near = np.array([np.nextafter(s, 1.0), s, np.nextafter(np.nextafter(s, 1.0), 1.0)])
    assert len(set((0.9 - near).tolist())) == 1
    cases += [(np.array([0.9, -0.9, 0.01]), near), (np.array([0.9]), near[::-1])]
    for values, samples in cases:
        expected = np.abs(values[:, None] - samples[None, :]).argmin(axis=1)
        assert nearest_index(values, samples).tolist() == expected.tolist()


def test_quantize_path_gains_steps_match_one_channel_calls():
    rng = np.random.default_rng(15)
    gains = rng.standard_normal((40, 3)) + 1j * rng.standard_normal((40, 3))
    gain_cb = rvq_generate(3, 12, "isotropic", 16)
    assert 1 < feedback._PHASE2_SCORES // 2**12 < len(gains)    # several steps
    batch = quantize_path_gains(gains, gain_cb)
    for g, row in zip(gains, batch):
        _, direction = phase2_select(g, gain_cb)
        phase = np.vdot(direction, g)
        assert _bits(row) == _bits(np.linalg.norm(g) * direction * (phase / abs(phase)))
    with pytest.raises(ValueError):
        quantize_path_gains(np.zeros((2, 3), complex), gain_cb)


def _per_channel_path_gains(gains, gain_cb):
    "Path gains quantized one channel at a time, with the per-row norm, vdot and abs."
    cw = gain_cb.codewords
    pick = feedback._rvq_pick(gains.conj()[:, None], cw)[:, 0]
    out = np.empty_like(gains, dtype=np.complex128)
    for n, (g, direction) in enumerate(zip(gains, cw[pick])):
        norm = np.linalg.norm(g)
        phase = np.vdot(direction, g)
        phase = phase / abs(phase) if abs(phase) > 0 else 1.0
        out[n] = norm * direction * phase
    return out


@pytest.mark.parametrize("paths", [1, 2, 3, 5, 8])
def test_quantize_path_gains_matches_the_per_channel_loop(paths):
    # 750 rows per path count, their scales from 1e-100 to 1e100
    rng = np.random.default_rng(paths)
    for b2 in (3, 7, 12):
        gain_cb = rvq_generate(paths, b2, "isotropic", b2)
        gains = rng.standard_normal((250, paths)) + 1j * rng.standard_normal((250, paths))
        gains *= 10.0 ** rng.uniform(-100, 100, (250, 1))
        assert _bits(quantize_path_gains(gains, gain_cb)) == _bits(
            _per_channel_path_gains(gains, gain_cb))
    # a row exactly orthogonal to its only direction keeps the direction's phase
    gain_cb = feedback.RVQCodebook(np.array([[0.5, 0.5]], complex), "isotropic", 0)
    gains = np.array([[0.25, -0.25], [0.3, 0.4j]], complex)
    batch = quantize_path_gains(gains, gain_cb)
    assert _bits(batch) == _bits(_per_channel_path_gains(gains, gain_cb))
    assert _bits(batch[0]) == _bits(np.linalg.norm(gains[0]) * gain_cb.codewords[0])


def test_batched_path_matches_run_protocol(cfg129, region, small_cb):
    rng = np.random.default_rng(13)
    cb2 = rvq_generate(3, 8, "isotropic", 2)
    trials = []
    for _ in range(4):
        coords = [PolarCoord(t, r) for t, r in
                  zip(rng.uniform(-0.5, 0.5, 3), rng.uniform(4, 120, 3))]
        trials.append([los_channel(cfg129, co) for co in coords])
    vectors = np.array([[u.vector for u in users] for users in trials])
    coords_arr = np.array([[(u.paths[0].coord.theta, u.paths[0].coord.r) for u in users]
                           for users in trials])
    rx = run_protocol_batch(cfg129, vectors, small_cb, cb2, False, coords_arr).rx
    rates = zf_rates(rx, 10**2.2, 129.0)
    for t, users in enumerate(trials):
        out = run_protocol(cfg129, users, small_cb, cb2, 10**2.2, 129.0)
        assert np.allclose(rates[t], out.rates, rtol=1e-10)


def _reference_batched_rates(cfg, vectors, coords, cb1, cb2, full_csi, p_total, noise_var):
    "Reference batch: the einsum, pinv and rate arithmetic of the sum-rate sweep before the merge."
    n_trials, k_users, m = vectors.shape
    if full_csi:
        f_rf = steering_matrix_exact(cfg, coords[..., 0], coords[..., 1])
    else:
        flat = vectors.reshape(n_trials * k_users, m)
        _, idx = best_codeword_scan(cfg, flat, cb1.angle_samples, cb1.range_samples)
        f_rf = steering_matrix_exact(cfg, *cb1.locations(idx)).reshape(n_trials, k_users, m)
    f_rf = np.swapaxes(f_rf, 1, 2)
    g = np.einsum("tkm,tml->tkl", vectors.conj(), f_rf)
    if full_csi:
        ghat = g
    else:
        pick = np.argmax(np.abs(np.einsum("cj,tkj->tkc", cb2.codewords, g)), axis=2)
        ghat = cb2.codewords[pick].conj()
    f_bb = np.linalg.pinv(ghat, rcond=1.0 / feedback.MAX_ZF_CONDITION)
    f_bb = f_bb / np.maximum(np.linalg.norm(f_bb, axis=1, keepdims=True), 1e-300)
    hybrid = np.einsum("tmk,tkl->tml", f_rf, f_bb)
    hybrid = hybrid / np.maximum(np.linalg.norm(hybrid, axis=1, keepdims=True), 1e-300)
    rx = np.abs(np.einsum("tkm,tml->tkl", vectors.conj(), hybrid))
    power = p_total / k_users * rx**2
    sig = np.einsum("tkk->tk", power)
    return np.log2(1.0 + sig / (power.sum(axis=2) - sig + noise_var))


def _drops(cfg, n_trials, k_users, seed, duplicate=None):
    "LoS drops as (users, vectors (T, K, M), coords (T, K, 2)); drop `duplicate` repeats a user."
    rng = np.random.default_rng(seed)
    drops = []
    for t in range(n_trials):
        coords = [PolarCoord(th, r) for th, r in
                  zip(rng.uniform(-0.5, 0.5, k_users), rng.uniform(4, 120, k_users))]
        if t == duplicate:
            coords[1] = coords[0]
        drops.append([los_channel(cfg, co) for co in coords])
    vectors = np.array([[u.vector for u in users] for users in drops])
    coords = np.array([[(u.paths[0].coord.theta, u.paths[0].coord.r) for u in users]
                       for users in drops])
    return drops, vectors, coords


def test_protocol_batch_matches_reference_and_flags_the_singular_drop(cfg129, small_cb):
    drops, vectors, coords = _drops(cfg129, 5, 3, 31, duplicate=2)
    cb2 = rvq_generate(3, 8, "isotropic", 4)
    out = run_protocol_batch(cfg129, vectors, small_cb, cb2, False, coords)
    assert out.singular.tolist() == [False, False, True, False, False]
    for full in (False, True):
        batch = run_protocol_batch(cfg129, vectors, small_cb, cb2, full, coords)
        for snr_db in (0.0, 22.0, 30.0):
            p_total = 10 ** (snr_db / 10)
            ref = _reference_batched_rates(cfg129, vectors, coords, small_cb, cb2, full,
                                           p_total, 129.0)
            assert np.abs(zf_rates(batch.rx, p_total, 129.0) - ref).max() <= 1e-12
    rates = zf_rates(out.rx, 100.0, 129.0)
    for t, users in enumerate(drops):
        if t == 2:
            with pytest.raises(ZFSingularError):
                run_protocol(cfg129, users, small_cb, cb2, 100.0, 129.0)
            continue
        alone = run_protocol(cfg129, users, small_cb, cb2, 100.0, 129.0)
        assert np.array_equal(alone.rates, rates[t])
        assert np.array_equal(alone.phase1_indices, out.phase1_indices[t])


def test_protocol_batch_phase1_gains_are_the_scan_gains(cfg129, small_cb):
    _, vectors, coords = _drops(cfg129, 4, 2, 32)
    out = run_protocol_batch(cfg129, vectors, small_cb, rvq_generate(2, 6, "isotropic", 1))
    gains, idx = best_codeword_scan(cfg129, vectors.reshape(8, 129), small_cb.angle_samples,
                                    small_cb.range_samples)
    assert np.array_equal(out.phase1_gains, gains.reshape(4, 2))
    assert np.array_equal(out.phase1_indices, idx.reshape(4, 2))
    full = run_protocol_batch(cfg129, vectors, None, None, True, coords)
    assert full.phase1_gains is None and (full.phase1_indices == -1).all()


def test_phase2_chunks_pick_the_unchunked_argmax(cfg129, small_cb):
    k_users, b2 = 4, 12
    step = feedback._PHASE2_SCORES // (k_users * 2**b2)
    n_trials = 2 * step + max(1, step // 2)
    assert 1 <= step < n_trials and n_trials % step     # several steps, the last one partial
    _, vectors, _ = _drops(cfg129, n_trials, k_users, 33)
    cb2 = rvq_generate(k_users, b2, "isotropic", 5)
    out = run_protocol_batch(cfg129, vectors, small_cb, cb2)
    g = np.einsum("tkm,tml->tkl", vectors.conj(), out.f_rf)
    pick = np.argmax(np.abs(np.einsum("cj,tkj->tkc", cb2.codewords, g)), axis=2)
    assert np.array_equal(out.ghat, cb2.codewords[pick].conj())


def test_phase2_select_picks_the_protocol_codeword(cfg129, small_cb):
    # phase2_select quantizes an effective channel F_RF^H h; the batch quantizes
    # the rows h^H F_RF, its conjugates, and keeps the conjugate codeword in ghat
    _, vectors, _ = _drops(cfg129, 5, 3, 34)
    cb2 = rvq_generate(3, 8, "isotropic", 7)
    out = run_protocol_batch(cfg129, vectors, small_cb, cb2)
    for t, k in np.ndindex(5, 3):
        _, codeword = phase2_select(out.f_rf[t].conj().T @ vectors[t, k], cb2)
        assert np.array_equal(out.ghat[t, k], codeword.conj())


def test_phase2_peak_within_the_step(cfg129):
    # a step holds _PHASE2_SCORES scores at 24 bytes each; besides them only
    # the picks (8 bytes per row, twice while they are joined) are allocated
    k_users, b2, n_trials = 4, 12, 1000
    cb2 = rvq_generate(k_users, b2, "isotropic", 2)
    rng = np.random.default_rng(8)
    g = rng.standard_normal((n_trials, k_users, k_users)) \
        + 1j * rng.standard_normal((n_trials, k_users, k_users))
    tracemalloc.start()
    try:
        pick = feedback._rvq_pick(g, cb2.codewords)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * feedback._PHASE2_SCORES + 16 * n_trials * k_users + 2**16
    unstepped = np.abs(np.einsum("cj,tkj->tkc", cb2.codewords, g)).argmax(axis=2)
    assert np.array_equal(pick, unstepped)


def _scan_peak(cfg, vectors, cb) -> int:
    "Peak traced bytes of one `best_codeword_scan`."
    tracemalloc.start()
    try:
        best_codeword_scan(cfg, vectors, cb.angle_samples, cb.range_samples)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scan_memory_grows_by_a_fixed_allowance_per_row(cfg129, region, monkeypatch):
    # 8192 codewords in 8 chunks: per row the scan keeps a complex64 copy of
    # it (8 M bytes), the pass-A bound (4 bytes per chunk), and a few float64
    # and survivors (512 bytes); its products and builds do not grow with n.
    # One worker, so that the peak does not depend on how the jobs overlap.
    monkeypatch.setattr(polarcb.parallel, "available_cpus", lambda: 1)
    cb = scheme_codebook(cfg129, region, "geometric", 10, 3)
    assert feedback._cluster_size(cfg129, cb.angle_samples, 0, SCAN_STEP) > 1
    rng = np.random.default_rng(4)
    lo, hi = 256, 2048
    vecs = sum(w * steering_matrix_exact(cfg129, rng.uniform(-0.5, 0.5, hi),
                                         rng.uniform(4.0, 120.0, hi)) for w in (1.0, 0.3))
    allowance = 8 * 129 + 4 * 8 + 512
    assert _scan_peak(cfg129, vecs, cb) - _scan_peak(cfg129, vecs[:lo], cb) \
        < (hi - lo) * allowance


def test_path_feedback_memory_grows_by_a_fixed_allowance_per_channel(cfg129, region,
                                                                      monkeypatch):
    # per channel the pass keeps its correlation (8 bytes) and, per path, the
    # nearest samples and their searches' temporaries (under 64 bytes); the
    # steering rows and reconstructions stay at `_PATH_ROWS` rows whatever N.
    # One worker, so that the peak does not depend on how the jobs overlap.
    monkeypatch.setattr(polarcb.parallel, "available_cpus", lambda: 1)
    cb = scheme_codebook(cfg129, region, "geometric", 5, 3)
    rng = np.random.default_rng(4)
    lo, hi, paths = 256, 2048, 3
    arrays = ChannelArrays(rng.uniform(-0.5, 0.5, (hi, paths)),
                           rng.uniform(4.0, 120.0, (hi, paths)),
                           rng.standard_normal((hi, paths)) + 1j * rng.standard_normal((hi, paths)),
                           rng.standard_normal((hi, 129)) + 1j * rng.standard_normal((hi, 129)))

    def peak(n):
        part = ChannelArrays(arrays.thetas[:n], arrays.ranges[:n], arrays.gains[:n],
                             arrays.vectors[:n])
        tracemalloc.start()
        try:
            multipath_feedback_batch(cfg129, part, part.gains, cb)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(hi) - peak(lo) < (hi - lo) * (8 + 64 * paths)


@pytest.mark.parametrize("pruned", [True, False])
@pytest.mark.parametrize("extra", [-1, 1])
def test_scan_matches_per_ring_scan_around_a_row_block(cfg129, region, monkeypatch, pruned,
                                                      extra):
    cb = scheme_codebook(cfg129, region, "geometric", 8, 3)
    if not pruned:
        _unpruned(monkeypatch)
    n = feedback._ROW_BLOCK + extra
    vecs = _scan_vectors(cfg129, region, -(-n // 4))[:n]
    ref_gain, ref_idx = _scan_per_ring(cfg129, vecs, cb.angle_samples, cb.range_samples)
    gain, idx = best_codeword_scan(cfg129, vecs, cb.angle_samples, cb.range_samples)
    assert np.array_equal(idx, ref_idx)
    assert np.abs(gain - ref_gain).max() <= 1e-12


def test_scan_tie_across_row_blocks_and_chunks(cfg129, region):
    # one grid point at flat 1023 and 1024, in chunks 0 and 1, and rows
    # aimed at it in both row blocks: every one resolves to the lower index
    angles = np.linspace(-0.5, 0.5, 2048)
    angles[1024] = angles[1023]
    h = los_channel(cfg129, PolarCoord(angles[1023], 30.0)).vector
    n = feedback._ROW_BLOCK + 3
    vecs = _scan_vectors(cfg129, region, -(-n // 4))[:n]
    tied = [0, feedback._ROW_BLOCK - 1, feedback._ROW_BLOCK, n - 1]
    vecs[tied] = h * np.array([1.0, 2.5j, -0.7, 1e-3])[:, None]
    gain, idx = best_codeword_scan(cfg129, vecs, angles, np.array([30.0]))
    ref_gain, _ = _scan_per_ring(cfg129, vecs, angles, np.array([30.0]))
    _, ref_idx = _exhaustive_scan(cfg129, vecs, angles, np.array([30.0]))
    assert list(idx[tied]) == [1023] * 4
    assert np.array_equal(idx, ref_idx)
    assert np.abs(gain - ref_gain).max() <= 1e-12


def _symmetric_angles(n):
    "n angles of the default region, negatives the exact negations of the positives."
    pos = np.linspace(0.5, 0.0, n // 2, endpoint=False)[::-1]
    return np.concatenate([-pos[::-1], [0.0] * (n % 2), pos])


def test_mirror_pairs():
    angles = np.array([0.2, -0.3, 0.0, 0.3 + 2**-53, -0.2, 0.2, 0.7, -0.7 - 2**-40])
    lead, mirror = feedback._mirror_pairs(angles)
    # 0.2 twice but -0.2 once; 0.7 and -0.7 - 2^-40 are too far apart to pair
    assert list(lead) == [0, 3, 2, 5, 6, 7] and list(mirror) == [4, 1]
    assert sorted([*lead, *mirror]) == list(range(8))
    uniform = scheme_codebook(ArrayConfig(129, carrier_frequency=30e9),
                              PolarRegion(-0.5, 0.5, 4.0, 120.0), "geometric", 12, 0)
    lead, mirror = feedback._mirror_pairs(uniform.angle_samples)
    assert list(lead) == list(range(2048, 4096)) and list(mirror) == list(range(2047, -1, -1))
    assert feedback._mirror_pairs(np.array([0.0]))[1].size == 0


def _partly_mirrored_angles():
    "Region [-0.3, 0.5]: 500 angles 0.001 apart above 0, and the mirrors of the first 299."
    pos = 0.0005 + 0.001 * np.arange(500)
    return np.concatenate([-pos[:299][::-1], pos])


@pytest.mark.parametrize("m", [128, 129])
@pytest.mark.parametrize("angles,mirrors", [
    (_partly_mirrored_angles(), 299),       # 299 pairs and 201 angles alone
    (np.linspace(0.1, 0.6, 600), 0),        # no pairs
    (_symmetric_angles(600), 300),          # exact mirrors
    (_symmetric_angles(601), 300),          # and theta = 0 exactly
])
@pytest.mark.parametrize("pruned", [True, False])
def test_folded_scan_matches_per_ring_scan(region, monkeypatch, m, angles, mirrors, pruned):
    # odd and even M (no centre entry), partial pairs whose clusters straddle
    # the paired and the unpaired lead angles, no pairs at all, and theta = 0
    cfg = ArrayConfig(m, carrier_frequency=30e9)
    assert len(feedback._mirror_pairs(angles)[1]) == mirrors
    if pruned:
        lead, mirror = feedback._mirror_pairs(angles)
        assert feedback._cluster_size(cfg, angles[lead], len(mirror), SCAN_STEP) > 1
    else:
        _unpruned(monkeypatch)
    ranges = np.array([6.0, 25.0, np.inf])
    vecs = _scan_vectors(cfg, region, 6)
    ref_gain, ref_idx = _scan_per_ring(cfg, vecs, angles, ranges)
    gain, idx = best_codeword_scan(cfg, vecs, angles, ranges)
    assert np.array_equal(idx, ref_idx)
    assert np.abs(gain - ref_gain).max() <= 1e-12


def test_folded_scan_with_mirrors_one_ulp_apart(cfg129, region):
    # every negative angle one ulp off the negation of its positive mirror:
    # the pairs hold, and E grows by their mismatch
    angles = _symmetric_angles(512)
    angles[:256] = np.nextafter(angles[:256], 0.0)
    lead, mirror = feedback._mirror_pairs(angles)
    assert len(mirror) == 256
    mismatch = feedback._mirror_mismatch(cfg129, angles, lead, mirror)
    assert 0 < mismatch < 1e-12
    assert feedback._mirror_mismatch(cfg129, _symmetric_angles(512), lead, mirror) == 0
    ranges = scheme_codebook(cfg129, region, "geometric", 0, 2).range_samples
    vecs = _scan_vectors(cfg129, region, 6)
    # rows aimed at the mirror members, where the one-ulp error sits
    vecs[:4] = steering_matrix_exact(cfg129, angles[[3, 40, 100, 255]], ranges[[0, 1, 2, 3]])
    ref_gain, ref_idx = _scan_per_ring(cfg129, vecs, angles, ranges)
    gain, idx = best_codeword_scan(cfg129, vecs, angles, ranges)
    assert np.array_equal(idx, ref_idx)
    assert list(idx[:4]) == [3 * 4, 40 * 4 + 1, 100 * 4 + 2, 255 * 4 + 3]
    assert np.abs(gain - ref_gain).max() <= 1e-12


def test_scan_builds_half_of_a_symmetric_grid(cfg129, region, monkeypatch):
    # 2^10 angles x 8 rings with one codeword per cluster: every row meets
    # every chunk, and the scan builds only the 4096 codewords of positive angle
    _unpruned(monkeypatch)
    built = []
    build = feedback._bulk_fold_codewords

    def counted(cfg, theta, r, tiles=None):
        built.append(len(theta))
        return build(cfg, theta, r, tiles)

    monkeypatch.setattr(feedback, "_bulk_fold_codewords", counted)
    cb = scheme_codebook(cfg129, region, "geometric", 10, 3)
    vecs = _scan_vectors(cfg129, region, 2)
    _, idx = best_codeword_scan(cfg129, vecs, cb.angle_samples, cb.range_samples)
    assert sum(built) == len(cb) // 2 and max(built) == SCAN_STEP
    assert np.array_equal(idx, _scan_per_ring(cfg129, vecs, cb.angle_samples,
                                              cb.range_samples)[1])


def test_scan_jobs_share_one_tile_set_per_worker(cfg129, region, monkeypatch):
    # 16 jobs of passes A, B and C on two workers use their thread's scratch
    # tiles: passes A and B make at most two sets, pass C at most two more,
    # and no two jobs write one set at once
    made = []

    class Counted(feedback._Tiles):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(feedback, "_Tiles", Counted)
    monkeypatch.setattr(polarcb.parallel, "available_cpus", lambda: 2)
    cb = scheme_codebook(cfg129, region, "geometric", 10, 3)
    vecs = _scan_vectors(cfg129, region, 4)
    ref_gain, ref_idx = _scan_per_ring(cfg129, vecs, cb.angle_samples, cb.range_samples)
    gain, idx = best_codeword_scan(cfg129, vecs, cb.angle_samples, cb.range_samples)
    assert 2 <= len(made) <= 4
    assert np.array_equal(idx, ref_idx)
    assert np.abs(gain - ref_gain).max() <= 1e-12


_BLOCKS = (16, 8, 32, 64, 128, 5, 1024, 4096, 2, 1)
"""`block` values of the generated scans: chunks of one codeword to 512 built ones,
in the order hypothesis prefers them (chunks of a few clusters first)."""


def _gate_angles(rng, m):
    """Angle samples of one of the scan's hard cases, spaced so that clusters of
    1 to 64 angles arise at M antennas."""
    kind = rng.choice(["symmetric", "asymmetric", "inside", "outside", "endfire"],
                      p=[0.3, 0.2, 0.15, 0.2, 0.15])
    n = rng.integers(1, 97)
    step = rng.choice([0.01, 0.04, 0.15, 0.6], p=[0.35, 0.35, 0.2, 0.1]) / m
    # equal gaps, or gaps of 0.1 to 4 steps, so that some members sit apart from the
    # rest; a run of zero gaps, samples repeated next to each other; and islands of
    # 4 to 16 samples, many beams apart, that make clusters of their own, their
    # first sample perhaps an outlier: the one member the cluster's radius is for
    gaps = step * (rng.uniform(0.1, 4.0, n) if rng.random() < 0.5 else np.ones(n))
    if rng.random() < 0.5:
        at = rng.integers(n)
        gaps[at + 1:at + 1 + rng.integers(1, 9)] = 0.0
    if rng.random() < 0.7:
        island = rng.choice([4, 8, 16])
        if rng.random() < 0.7:
            gaps[1::island] = 0.4 / m
        gaps[::island] = 20.0 / m
    offsets = np.cumsum(gaps) - gaps[0]
    offsets = offsets[offsets <= {"asymmetric": 1.6, "endfire": 1.9}.get(kind, 0.95)]
    if kind == "asymmetric":
        angles = rng.uniform(-0.8, max(0.8 - offsets[-1], -0.8)) + offsets
    elif kind == "endfire":           # up to 1 - step / 2: at 1 itself every far ring ties
        angles = np.maximum(1.0 - step / 2 - offsets[::-1], -0.99)
    else:
        pos = rng.uniform(0.0, step) + offsets[:max(len(offsets) // 2, 1)]
        neg = -pos
        if kind != "symmetric":       # mirrors just inside or just outside the pairing tolerance
            tol = feedback._PAIR_TOL * (0.5 if kind == "inside" else 2.0)
            neg = neg + tol * rng.choice([-1.0, 1.0], len(pos))
        angles = np.concatenate([neg[::-1], pos])
    if rng.random() < 0.3:
        angles = np.append(angles, 0.0)
    # unsorted samples cluster in index order where they have no mirror, so rarely
    return rng.permutation(angles) if rng.random() < 0.15 else np.sort(angles)


def _gate_ranges(rng):
    "Range samples: finite, with the far field, duplicated, or dense in 1/r."
    kind = rng.choice(["finite", "far", "duplicated", "dense"])
    n = rng.integers(1, 13)
    if kind == "dense":
        inverse = rng.uniform(0.01, 0.25) + 10.0 ** rng.uniform(-6, -3) * np.arange(n)
        return np.sort(1.0 / inverse)
    ranges = np.sort(rng.uniform(2.0, 100.0, n))
    if kind == "far":
        ranges[-1] = np.inf
    if kind == "duplicated":
        ranges = np.sort(np.append(ranges, ranges[rng.integers(n)]))
    return ranges


def _cluster_reps(cfg, angles, block, level):
    """Per angle index, the angle index of its cluster's representative (level 1)
    or its half-cluster's (level 2) in a scan of `block`; mirrors map to mirrors."""
    lead, mirror = feedback._mirror_pairs(angles)
    step = max(1, block // 2)
    group = feedback._cluster_size(cfg, angles[lead], len(mirror), step)
    group = group // 2 if level == 2 and group >= 4 else group
    rep, _, sizes = feedback._angle_clusters(cfg, angles[lead], group, len(mirror))
    at = np.repeat(rep, sizes)
    out = np.empty(len(angles), dtype=np.int64)
    out[lead] = lead[at]
    out[mirror] = mirror[at[:len(mirror)]]
    return out


def _gate_rows(rng, cfg, angles, ranges, block):
    """Rows and their scales: edge rows, LoS on and off the grid, Rician, ties, zero;
    scales 1 and near 1e+-300.  An edge row is a codeword less its component along
    its (half-)cluster's representative, plus a weaker codeword elsewhere.  Its
    codeword is, where the grid has one, a member farther from its representative
    than any other sample within 4 / M of it: the row's best codeword then scores
    as high above the representative as the radius allows."""
    kinds = rng.choice(["edge", "edge2", "on", "off", "rician", "tie", "zero"],
                       size=rng.integers(1, 11), p=[0.2, 0.2, 0.15, 0.15, 0.1, 0.15, 0.05])
    values, counts = np.unique(angles, return_counts=True)
    tied = values[counts > 1]
    inverse = 1.0 / ranges
    reps = {1: _cluster_reps(cfg, angles, block, 1), 2: _cluster_reps(cfg, angles, block, 2)}
    edges = {}
    for level, rep in reps.items():
        spread = np.abs(angles - angles[rep])
        reach = np.abs(angles[None, :] - angles[rep][:, None])
        edges[level] = np.flatnonzero((spread > 0) & ~((reach > spread[:, None])
                                                       & (reach < 4.0 / cfg.num_antennas)).any(1))
    rows = []
    for kind in kinds:
        if kind.startswith("edge"):
            rep = reps[2 if kind == "edge2" else 1]
            edge = edges[2 if kind == "edge2" else 1]
            i, k = rng.choice(edge) if len(edge) else rng.integers(len(angles)), \
                rng.integers(len(angles))
            b = steering_matrix_exact(cfg, angles[[i, rep[i], k]], np.full(3, rng.choice(ranges)))
            row = b[0] - np.vdot(b[1], b[0]) * b[1]
            row += rng.uniform(0.3, 0.95) * np.vdot(row, b[0]).real * b[2]
        elif kind in ("on", "tie"):
            theta = rng.choice(tied if kind == "tie" and len(tied) else angles)
            row = steering_matrix_exact(cfg, np.array([theta]), rng.choice(ranges, 1))[0]
        elif kind == "zero":
            row = np.zeros(cfg.num_antennas, complex)
        else:
            paths = 1 if kind == "off" else 3
            theta = rng.uniform(angles.min(), angles.max(), paths)
            with np.errstate(divide="ignore"):
                r = 1.0 / rng.uniform(inverse.min(), inverse.max(), paths)
            gains = np.array([1.0, 0.3, 0.3])[:paths] * np.exp(2j * np.pi * rng.random(paths))
            row = gains @ steering_matrix_exact(cfg, theta, r)
            if kind == "rician":
                row += 0.05 * (rng.standard_normal(len(row)) + 1j * rng.standard_normal(len(row)))
        rows.append(row * np.sqrt(cfg.num_antennas))
    scales = rng.choice([1.0, 1e-300, 1e300], size=len(rows), p=[0.6, 0.2, 0.2])
    return np.array(rows) * scales[:, None], scales


@st.composite
def _scan_cases(draw):
    """A scan input: M, `block` and the bulk skew drawn, the grid and the rows made
    by a generator seeded with a drawn integer, with the weights above."""
    m = draw(st.integers(8, 129))
    block = draw(st.sampled_from(_BLOCKS))
    # every bulk score pushed by `skew` E (as documented), down in even and up in odd
    # columns: a rounding error within the bound that the margins have to absorb
    skew = draw(st.sampled_from([0.0, 0.8, -0.8]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cfg = ArrayConfig(m, carrier_frequency=30e9)
    angles = _gate_angles(rng, m)
    ranges = _gate_ranges(rng)
    vecs, scales = _gate_rows(rng, cfg, angles, ranges, block)
    return cfg, angles, ranges, vecs, scales, block, skew


@given(case=_scan_cases())
@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_scan_equals_exhaustive_scan_on_generated_grids(case):
    # the contract of every pruning step: the indices of the float64 exhaustive
    # scan, ties to the lowest flat index, gains within 1e-12 (of the row's
    # scale) of the per-ring scan's, and the same bytes as the scan without clusters
    cfg, angles, ranges, vecs, scales, block, skew = case
    scores = feedback._bulk_scores

    def skewed(rows32, cw32, mirrored, tiles=None):
        out = scores(rows32, cw32, mirrored, tiles)
        e = _documented_bulk_error(cfg.num_antennas, rows32.astype(np.complex128))
        out += skew * e[:, None] * np.where(np.arange(out.shape[1]) % 2, 1.0, -1.0)
        return out

    with mock.patch.object(feedback, "_bulk_scores", skewed):
        gain, idx = best_codeword_scan(cfg, vecs, angles, ranges, block=block)
        with mock.patch.object(feedback, "_cluster_size", lambda *args: 1):
            full_gain, full_idx = best_codeword_scan(cfg, vecs, angles, ranges, block=block)
    exact_gain, exact_idx = _exhaustive_scan(cfg, vecs, angles, ranges)
    assert np.array_equal(idx, exact_idx)
    assert (np.abs(gain - exact_gain) <= 1e-12 * scales).all()
    ref_gain, _ = _scan_per_ring(cfg, vecs, angles, ranges)
    assert (np.abs(gain - ref_gain) <= 1e-12 * scales).all()
    assert np.array_equal(idx, full_idx)
    assert gain.tobytes() == full_gain.tobytes()
