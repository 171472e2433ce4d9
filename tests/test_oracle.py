import math
import os
import pathlib
import subprocess
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import kerrpol as kp
from kerrpol import _kernel, oracle

import em_reference
import welch_reference
from conftest import make_params, steady_at

L = _kernel.BLOCK
N = 1024      # base run length in steps, independent of the kernel's block


def chunked(chunk, call):
    """``call()`` with the oracle streaming chunks of ``chunk`` steps.

    A patch rather than the monkeypatch fixture, which hypothesis rejects.
    """
    with mock.patch.object(oracle, "CHUNK", chunk):
        return call()


def empty_resonant_model():
    p = make_params(delta0=0.0)
    steady = kp.steady_states(p, kp.DriveField(alpha_in=0j), 0.0)[0]
    return kp.build_drift_y(steady, p), p


def samples(series):
    """X_theta = cos(theta)*X_0 + sin(theta)*X_pi/2 of ``series`` for each
    of its angles, shape (n, n_theta)."""
    thetas = np.asarray(series.thetas, dtype=float)
    x = series.quadratures
    return x[:, :1] * np.cos(thetas) + x[:, 1:] * np.sin(thetas)


def squeezing_model(s=0.2, delta0=-12.0, det_y=1.9):
    p = make_params(delta0=delta0)
    delta_c = delta0 * (1.0 - s) + det_y
    steady = steady_at(p, delta_c, s)
    model = kp.build_drift_y(steady, p)
    assert model.is_stable
    return model, p


# ---------------------------------------------------------------------------
# trajectory configuration

def test_config_validation():
    with pytest.raises(kp.ValidationError):
        kp.TrajectoryConfig(dt=0.0, duration=1.0, seed=1)
    with pytest.raises(kp.ValidationError):
        kp.TrajectoryConfig(dt=0.01, duration=5.0, seed=1)   # < 1000 dt
    with pytest.raises(kp.ValidationError):
        kp.TrajectoryConfig(dt=0.01, duration=100.0, seed=1, burn_in=0.7)
    with pytest.raises(kp.ValidationError):
        kp.TrajectoryConfig(dt=0.01, duration=100.0, seed=1, theta_list=())
    with pytest.raises(kp.ValidationError, match="seed"):
        kp.TrajectoryConfig(dt=0.01, duration=100.0, seed=-1)
    with pytest.raises(kp.ValidationError, match="duration/dt overflows"):
        kp.TrajectoryConfig(dt=1e-300, duration=1e300, seed=0)   # inf steps


def test_simulate_rejects_coarse_step_and_instability():
    model, p = squeezing_model()
    with pytest.raises(kp.ValidationError):
        kp.simulate(model, kp.TrajectoryConfig(dt=0.2, duration=400.0, seed=1))

    p2 = make_params(delta0=-10.0)
    steady = steady_at(p2, kp.linear_dephasing(p2) * (1.0 - 0.5), 0.5)
    unstable = kp.build_drift_y(steady, p2)
    assert not unstable.is_stable
    with pytest.raises(kp.UnstableModelError):
        kp.simulate(unstable, kp.TrajectoryConfig(dt=0.001, duration=10.0, seed=1))


def test_simulate_rejects_diverging_em_step():
    # a nearly reactive drift passes dt*|m11| <= 0.1, yet the one-step map
    # I + dt*M has eigenvalue 1 + dt*m11 = 0.999 + 0.09i, outside the circle
    model = kp.FluctuationModel("y", m11=-1.0 + 90j, m12=0j, kappa=1.0)
    assert model.is_stable
    cfg = kp.TrajectoryConfig(dt=0.001, duration=10.0, seed=1)
    with pytest.raises(kp.ValidationError, match="spectral radius"):
        kp.simulate(model, cfg)


@settings(max_examples=200, deadline=None)
@given(complex_pair=st.booleans(), above=st.booleans(),
       kappa=st.floats(0.5, 2.0), dt_kappa=st.floats(1e-4, 1e-3),
       gap=st.floats(1e-12, 1e-9), size=st.floats(0.0, 1.5),
       phase=st.floats(0.0, 2.0 * math.pi))
def test_closed_form_step_radius_matches_the_eigenvalues(
        complex_pair, above, kappa, dt_kappa, gap, size, phase):
    # drifts whose one-step map I + dt*M has spectral radius 1 +/- gap, its
    # eigenvalues 1 + dt*(-kappa +/- sqrt(r)) a complex pair (r < 0) or a
    # real pair: the closed form agrees with numpy's eigenvalues, and the
    # run is refused exactly when those reach 1
    dt, radius = dt_kappa / kappa, 1.0 + gap if above else 1.0 - gap
    centre = 1.0 - dt_kappa
    if complex_pair:      # radius^2 = centre^2 + dt^2*(-r)
        minus_r = (radius * radius - centre * centre) / (dt * dt)
        coupling = size * math.sqrt(minus_r)
        rotation = math.sqrt(coupling * coupling + minus_r)
    else:                 # radius = centre + dt*sqrt(r)
        root_r = (radius - centre) / dt
        rotation = size * root_r
        coupling = math.sqrt(root_r * root_r + rotation * rotation)
    model = kp.FluctuationModel(
        "y", m11=complex(-kappa, rotation),
        m12=coupling * complex(math.cos(phase), math.sin(phase)), kappa=kappa)
    assert (kp.steady.drift_radicand(model.m11, model.m12) < 0.0) \
        == complex_pair
    step_map = np.eye(2) + dt * model.drift_matrix
    eig = float(np.max(np.abs(np.linalg.eigvals(step_map))))
    assert abs(oracle._step_radius(model, dt) - eig) <= 1e-14
    assert (eig >= 1.0) == above
    assert dt * abs(model.m11) <= oracle.MAX_STEP_FRACTION
    cfg = kp.TrajectoryConfig(dt=dt, duration=1000.0 * dt, seed=0)
    try:
        oracle._check_trajectory(model, cfg)
    except kp.KerrpolError as exc:  # unstable, or the step diverges
        assert eig >= 1.0, exc
    else:
        assert eig < 1.0


# ---------------------------------------------------------------------------
# simulation statistics

def test_stationary_field_variance_is_half():
    # resonant empty cavity: d a = -kappa a dt + sqrt(2 kappa) dxi, so the
    # stationary <|a|^2> balances at 1/2 quantum
    model, _ = empty_resonant_model()
    cfg = kp.TrajectoryConfig(dt=0.02, duration=8000.0, seed=42, burn_in=0.05)
    x = kp.simulate(model, cfg).quadratures
    # the path behind X: (X_0 + i X_pi/2)/2 = b_k = sqrt(2 kappa) a_k - xi_k/dt
    b = (x[:, 0] + 1j * x[:, 1]) / 2.0
    xi = reference_noise(cfg)[cfg.n_steps - len(x):]
    mag2 = np.abs((b + xi / cfg.dt) / math.sqrt(2.0 * model.kappa)) ** 2
    blocks = np.array_split(mag2, 64)
    means = np.array([b.mean() for b in blocks])
    stderr = means.std(ddof=1) / math.sqrt(len(means))
    assert abs(means.mean() - 0.5) <= 3.0 * stderr


def test_fixed_seed_is_bit_identical():
    model, _ = squeezing_model()
    cfg = kp.TrajectoryConfig(dt=0.01, duration=200.0, seed=7,
                              theta_list=(0.0, 0.9))
    s1 = kp.simulate(model, cfg)
    s2 = kp.simulate(model, cfg)
    assert np.array_equal(samples(s1), samples(s2))


def test_different_seeds_agree_within_errors():
    model, _ = squeezing_model()
    psd = []
    for seed in (1, 2):
        cfg = kp.TrajectoryConfig(dt=0.01, duration=30000.0, seed=seed,
                                  burn_in=0.02, theta_list=(0.0,))
        psd.append(kp.psd_estimate(kp.simulate(model, cfg), 2048))
    a, b = psd
    sel = slice(1, 400, 20)
    z = (a.psd[sel, 0] - b.psd[sel, 0]) / np.hypot(a.stderr[sel, 0],
                                                   b.stderr[sel, 0])
    assert np.mean(np.abs(z)) < 1.5
    assert np.all(np.abs(z) < 5.0)


def reference_noise(cfg):
    """The increments ``simulate`` draws for ``cfg`` in one chunk."""
    draws = np.random.default_rng(cfg.seed).standard_normal(2 * cfg.n_steps)
    return (draws[0::2] + 1j * draws[1::2]) * (0.5 * math.sqrt(cfg.dt))


def kernel_x(m11, m12, kappa, dt, noise, a0):
    """(X, a_final) of the kernel run over a pair copy of complex ``noise``."""
    pairs = np.column_stack((noise.real, noise.imag))
    return pairs, _kernel.integrate_em(m11, m12, kappa, dt, pairs, a0)


def assert_close_to(actual, reference, rtol=1e-12):
    assert actual.shape == reference.shape
    assert (np.max(np.abs(actual - reference), initial=0.0)
            <= rtol * np.max(np.abs(reference), initial=0.0))


def test_simulate_matches_reference_loop():
    model, _ = squeezing_model()
    cfg = kp.TrajectoryConfig(dt=0.01, duration=500.0, seed=11,
                              theta_list=(0.3,))
    series = kp.simulate(model, cfg)
    x, _ = em_reference.integrate_em(
        model.m11, model.m12, model.kappa, cfg.dt, reference_noise(cfg), 0j)
    assert_close_to(series.quadratures, x)
    assert_close_to(samples(series), x[:, :1] * math.cos(0.3)
                    + x[:, 1:] * math.sin(0.3))


def test_kernel_matches_reference_loop():
    # the last block is partial and the start state is off zero, in a short
    # run, an empty run and a run longer than one chunk
    m11, m12, kappa, dt = -1.0 - 1.31j, 0.58j, 1.0, 0.005
    for n in (3 * N + 517, 0, oracle.CHUNK + 3 * L + 17):
        rng = np.random.default_rng(21)
        noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * (
            0.5 * math.sqrt(dt))
        args = (m11, m12, kappa, dt, noise, 0.3 - 0.7j)
        ref_x, ref_a = em_reference.integrate_em(*args)
        assert ref_x.shape == (n, 2)
        x, a = kernel_x(*args)
        assert_close_to(x, ref_x)
        assert abs(a - ref_a) <= 1e-12 * abs(ref_a)


def test_kernel_output_may_overwrite_its_noise():
    # the oracle draws each chunk into the buffer the kernel writes X over:
    # a call writes only its own rows, so whole-block calls over slices of
    # one buffer, chained through a_final, give the whole call bit for bit
    args = m11, m12, kappa, dt = -1.0 - 1.31j, 0.58j, 1.0, 0.005
    for n in (0, 63, 3589, oracle.CHUNK + 3 * 64 + 17):
        rng = np.random.default_rng(n)
        noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * (
            0.5 * math.sqrt(dt))
        x, a = kernel_x(*args, noise, 0.3 - 0.7j)
        assert x.shape == (n, 2)
        pieces = np.column_stack((noise.real, noise.imag))
        got_a = 0.3 - 0.7j
        for lo, hi in ((0, L), (L, 5 * L), (5 * L, oracle.CHUNK + L),
                       (oracle.CHUNK + L, n)):
            got_a = _kernel.integrate_em(*args, pieces[lo:hi], got_a)
        assert np.array_equal(pieces, x)
        assert got_a == a


def test_kernel_scratch_memory_is_set_by_the_tile():
    # numpy reports its buffers to tracemalloc: a call writes over its
    # noise and allocates no output, and its states live over the noise
    # they have spent, so a call of one oracle chunk holds one array of
    # about its noise's size plus a few numbers per block for the carry
    pairs = np.full((oracle.CHUNK, 2), (0.01, -0.02))
    tracemalloc.start()
    try:
        _kernel.integrate_em(-1.0 - 1.31j, 0.58j, 1.0, 0.005, pairs, 0.3j)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.4 * oracle.CHUNK * 16


def test_samples_equal_the_kernel_projection_bit_for_bit():
    # simulate keeps the kernel's pair (X_0, X_pi/2) as it is, and X_theta
    # is projected from that pair
    model, _ = squeezing_model()
    thetas = (0.0, 0.4, 2.0, -1.1, math.pi / 2.0, 3.0)
    cfg = kp.TrajectoryConfig(dt=0.01, duration=(3 * N + 517) * 0.01, seed=5,
                              theta_list=thetas)
    series = kp.simulate(model, cfg)
    x, _ = kernel_x(
        model.m11, model.m12, model.kappa, cfg.dt, reference_noise(cfg), 0j)
    assert np.array_equal(series.quadratures, x)
    assert np.array_equal(samples(series), x[:, :1] * np.cos(thetas)
                          + x[:, 1:] * np.sin(thetas))


def test_chunked_integration_is_seamless():
    model, _ = squeezing_model()
    cfg = kp.TrajectoryConfig(dt=0.01, duration=300.0, seed=3)
    whole = chunked(1 << 22, lambda: kp.simulate(model, cfg))
    pieces = chunked(1024, lambda: kp.simulate(model, cfg))
    assert np.array_equal(samples(whole), samples(pieces))


@settings(max_examples=25, deadline=None)
@given(detuning=st.floats(-6.0, 6.0), coupling=st.floats(0.0, 1.2),
       phase=st.floats(0.0, 2.0 * math.pi), dt=st.floats(0.001, 0.05),
       n=st.integers(N, 12 * N))
def test_chunk_size_never_changes_samples(detuning, coupling, phase, dt, n):
    model = kp.FluctuationModel("y", m11=complex(-1.0, detuning),
                                m12=coupling * complex(math.cos(phase),
                                                       math.sin(phase)),
                                kappa=1.0)
    step_map = np.eye(2) + dt * model.drift_matrix
    assume(model.stability_margin < -0.05 and dt * abs(model.m11) <= 0.1
           and np.max(np.abs(np.linalg.eigvals(step_map))) < 1.0)
    cfg = kp.TrajectoryConfig(dt=dt, duration=n * dt, seed=n,
                              theta_list=(0.0, 1.0))
    chunks = (L, 3 * N, oracle.CHUNK, (cfg.n_steps // L + 1) * L)
    runs = [chunked(c, lambda: kp.simulate(model, cfg)) for c in chunks]
    for run in runs[1:]:
        assert np.array_equal(samples(run), samples(runs[0]))


def test_default_chunk_boundary_is_seamless():
    model, _ = squeezing_model()
    n = oracle.CHUNK + 5 * N + 123
    cfg = kp.TrajectoryConfig(dt=0.01, duration=n * 0.01, seed=4)
    assert cfg.n_steps > oracle.CHUNK
    default = kp.simulate(model, cfg)
    single = chunked(4 * oracle.CHUNK, lambda: kp.simulate(model, cfg))
    assert np.array_equal(samples(default), samples(single))


def test_default_path_calls_the_kernel_one_tile_at_a_time(monkeypatch):
    # the oracle calls the kernel once per chunk of CHUNK steps, and the
    # chunking changes no bit
    model, _ = squeezing_model()
    n = 3 * oracle.CHUNK + 5 * N + 123
    cfg = kp.TrajectoryConfig(dt=0.01, duration=n * 0.01, seed=6,
                              burn_in=0.07, theta_list=(0.0, 0.9))
    real, rows = _kernel.integrate_em, []

    def counting(m11, m12, kappa, dt, pairs, a0):
        rows.append(len(pairs))
        return real(m11, m12, kappa, dt, pairs, a0)

    monkeypatch.setattr(_kernel, "integrate_em", counting)
    default = kp.oracle_psd(model, cfg, 3000, 0.3)
    assert len(rows) == 4 and max(rows) == oracle.CHUNK
    rows.clear()
    single = chunked(4 * oracle.CHUNK,
                     lambda: kp.oracle_psd(model, cfg, 3000, 0.3))
    assert rows == [cfg.n_steps]
    assert_same_estimate(default, single)


def stable_model(detuning, coupling, phase, dt):
    """y-mode model from a hypothesis draw; rejects unsound EM steps."""
    model = kp.FluctuationModel("y", m11=complex(-1.0, detuning),
                                m12=coupling * complex(math.cos(phase),
                                                       math.sin(phase)),
                                kappa=1.0)
    step_map = np.eye(2) + dt * model.drift_matrix
    assume(model.stability_margin < -0.05 and dt * abs(model.m11) <= 0.1
           and np.max(np.abs(np.linalg.eigvals(step_map))) < 1.0)
    return model


def assert_same_estimate(actual, expected):
    for name in ("omega", "psd", "stderr"):
        assert np.array_equal(getattr(actual, name), getattr(expected, name))
    assert actual.n_segments == expected.n_segments
    assert actual.thetas == expected.thetas


@settings(max_examples=25, deadline=None)
@given(detuning=st.floats(-6.0, 6.0), coupling=st.floats(0.0, 1.2),
       phase=st.floats(0.0, 2.0 * math.pi), dt=st.floats(0.001, 0.05),
       n=st.integers(4 * N, 12 * N), burn_in=st.floats(0.0, 0.5),
       chunk=st.sampled_from([N, 3 * N, oracle.CHUNK]),
       segment_length=st.integers(16, 3 * N),
       overlap=st.floats(0.0, 0.9))
def test_oracle_psd_equals_the_two_call_path(detuning, coupling, phase, dt,
                                             n, burn_in, chunk,
                                             segment_length, overlap):
    # burn-in off the block grid and segments that straddle, or outgrow,
    # the chunk boundaries must not change a single bit
    model = stable_model(detuning, coupling, phase, dt)
    cfg = kp.TrajectoryConfig(dt=dt, duration=n * dt, seed=n, burn_in=burn_in,
                              theta_list=(0.0, 1.0))
    n_kept = cfg.n_steps - int(burn_in * cfg.n_steps)
    hop = max(1, int(round(segment_length * (1.0 - overlap))))
    assume(n_kept - segment_length >= 3 * hop)        # >= 4 segments
    expected = kp.psd_estimate(kp.simulate(model, cfg), segment_length,
                               overlap)
    actual = chunked(chunk, lambda: kp.oracle_psd(model, cfg, segment_length,
                                                  overlap))
    assert_same_estimate(actual, expected)


def test_oracle_psd_default_chunking_equals_the_two_call_path():
    model, _ = squeezing_model()
    n = 2 * oracle.CHUNK + 3 * N + 77
    cfg = kp.TrajectoryConfig(dt=0.01, duration=n * 0.01, seed=8,
                              burn_in=0.013, theta_list=(0.2, 1.7))
    expected = kp.psd_estimate(kp.simulate(model, cfg), 3000, 0.3)
    assert_same_estimate(kp.oracle_psd(model, cfg, 3000, 0.3), expected)


angle_lists = st.lists(st.floats(-math.pi, math.pi), min_size=1, max_size=16)


def drawn_run(n, burn_in, segment_length, overlap, thetas):
    """Config of a drawn run on the squeezing model; rejects < 4 segments."""
    cfg = kp.TrajectoryConfig(dt=0.01, duration=n * 0.01, seed=n,
                              burn_in=burn_in, theta_list=tuple(thetas))
    n_kept = cfg.n_steps - int(burn_in * cfg.n_steps)
    hop = max(1, int(round(segment_length * (1.0 - overlap))))
    assume(n_kept - segment_length >= 3 * hop)
    return squeezing_model()[0], cfg


@settings(max_examples=25, deadline=None)
@given(n=st.integers(4 * N, 12 * N), burn_in=st.floats(0.0, 0.5),
       chunk=st.sampled_from([N, 3 * N, oracle.CHUNK]),
       segment_length=st.integers(2, 3 * N), overlap=st.floats(0.0, 0.9),
       thetas=angle_lists)
def test_oracle_psd_equals_the_two_call_path_for_any_angle_count(
        n, burn_in, chunk, segment_length, overlap, thetas):
    model, cfg = drawn_run(n, burn_in, segment_length, overlap, thetas)
    expected = kp.psd_estimate(kp.simulate(model, cfg), segment_length,
                               overlap)
    actual = chunked(chunk, lambda: kp.oracle_psd(model, cfg, segment_length,
                                                  overlap))
    assert_same_estimate(actual, expected)
    assert expected.psd.shape == (segment_length // 2 + 1, len(thetas))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(4 * N, 12 * N),
       chunk=st.sampled_from([N, 3 * N, oracle.CHUNK]),
       segment_length=st.integers(16, 3 * N), overlap=st.floats(0.0, 0.9),
       thetas=angle_lists)
def test_welch_matches_the_direct_per_angle_reference(
        n, chunk, segment_length, overlap, thetas):
    # one FFT of each angle's samples per segment, mean and scatter in two
    # passes.  psd agrees elementwise.  An error bar whose segments nearly
    # coincide is ill conditioned in any one-pass scatter, so stderr is
    # scored on the scale of its angle's column.
    model, cfg = drawn_run(n, 0.05, segment_length, overlap, thetas)
    estimate = chunked(chunk, lambda: kp.oracle_psd(
        model, cfg, segment_length, overlap))
    omega, psd, stderr, n_segments = welch_reference.welch_psd(
        samples(kp.simulate(model, cfg)), cfg.dt, segment_length, overlap)
    assert np.array_equal(estimate.omega, omega)
    assert estimate.n_segments == n_segments
    assert np.all(np.abs(estimate.psd - psd) <= 1e-12 * psd)
    assert np.all(np.abs(estimate.stderr - stderr)
                  <= 1e-12 * stderr.max(axis=0))


def test_welch_fft_calls_do_not_grow_with_the_angle_count(monkeypatch):
    calls = []
    rfft = np.fft.rfft

    def counting(a, *args, **kwargs):
        calls.append(np.size(a))
        return rfft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counting)
    model, _ = squeezing_model()
    counts, sizes = [], []
    for thetas in ((0.3,), tuple(np.linspace(0.0, math.pi, 16))):
        cfg = kp.TrajectoryConfig(dt=0.01, duration=8 * N * 0.01, seed=6,
                                  theta_list=thetas)
        del calls[:]
        chunked(N, lambda: kp.oracle_psd(model, cfg, 512))
        kp.psd_estimate(kp.simulate(model, cfg), 512)
        counts.append(len(calls))
        sizes.append(sum(calls))
    assert 0 < counts[1] <= counts[0]
    assert sizes[1] == sizes[0]          # samples transformed, not angles


@settings(max_examples=25, deadline=None)
@given(n=st.integers(4 * N, 12 * N), burn_in=st.floats(0.0, 0.5),
       chunk=st.sampled_from([N, 3 * N, oracle.CHUNK]),
       segment_length=st.integers(2, 3 * N), overlap=st.floats(0.0, 0.9),
       thetas=angle_lists, data=st.data())
def test_picked_bins_equal_the_full_estimate_rows(
        n, burn_in, chunk, segment_length, overlap, thetas, data):
    model, cfg = drawn_run(n, burn_in, segment_length, overlap, thetas)
    bins = sorted(data.draw(st.lists(st.integers(0, segment_length // 2),
                                     min_size=1, max_size=24, unique=True)))
    series = kp.simulate(model, cfg)
    full = kp.psd_estimate(series, segment_length, overlap)
    picked = kp.psd_estimate(series, segment_length, overlap, bins)
    omega, psd, stderr, n_segments = kp.welch_psd(
        series.quadratures, thetas, cfg.dt, segment_length, overlap, bins)
    assert np.array_equal(omega, picked.omega)
    assert np.array_equal(psd, picked.psd)
    assert np.array_equal(stderr, picked.stderr)
    assert n_segments == picked.n_segments == full.n_segments
    assert np.array_equal(picked.omega, full.omega[bins])
    for name in ("psd", "stderr"):
        want = getattr(full, name)[bins]
        assert np.all(np.abs(getattr(picked, name) - want) <= 1e-12 * want)
    assert_same_estimate(chunked(chunk, lambda: kp.oracle_psd(
        model, cfg, segment_length, overlap, bins)), picked)


@pytest.mark.parametrize("length", [7, 3000, 4096, 16384])
@pytest.mark.parametrize("dtype", [np.int64, np.uint32])
def test_picked_bin_basis_is_the_direct_dft_bit_for_bit(length, dtype):
    # the folded bases take each entry from a table of the L twiddles, so
    # at t = 1..L//2 and bin k every bit of (re, im) equals the window w_t
    # times exp(-2j*pi/L * turn) evaluated at the turn t*k mod L
    picked = np.unique(np.linspace(0, length // 2, 12).round()).astype(dtype)
    welch = oracle._Welch(4 * length, (0.0,), 1.0, length, 0.5, bins=picked)
    steps = np.arange(1, length // 2 + 1)
    turns = np.outer(steps, picked) % length
    direct = welch.window[steps, None] * np.exp(-2j * math.pi / length * turns)
    assert welch.bases.shape == (2,) + direct.shape
    for got, want in zip(welch.bases, (direct.real, direct.imag)):
        assert got.view(np.uint64).tobytes() == \
            want.view(np.uint64).tobytes()


@settings(max_examples=40, deadline=None)
@given(length=st.one_of(st.integers(2, 9), st.integers(10, 3 * N)),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_folded_picked_bins_equal_the_fft_rows(length, seed, data):
    # the periodic Hann window is even, w_t = w_{L-t}, with w_0 = 0, so the
    # sums and differences folded onto t = 1..L//2 give the windowed FFT's
    # rows, for even and odd L, at bin 0 and the last bin L//2 too
    top = length // 2
    bins = sorted(set(data.draw(st.lists(st.integers(0, top), max_size=10)))
                  | {0, top})
    picked = oracle._Welch(4 * length, (0.0,), 1.0, length, 0.5, bins=bins)
    full = oracle._Welch(4 * length, (0.0,), 1.0, length, 0.5)
    window = full.window
    assert window[0] == 0.0 and np.array_equal(window[1:], window[:0:-1])
    k = min(3, picked.batch - 1)
    segments = np.random.default_rng(seed).standard_normal((k, 2, length))
    picked._add(segments)
    full._add(segments)
    got = picked._dft(k).reshape(k, 2, -1, 2)
    want = full._dft(k).reshape(k, 2, -1, 2)[:, :, bins]
    scale = np.abs(segments).sum(axis=-1)[:, :, None, None]
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


def test_picked_bin_welch_holds_at_most_one_real_basis():
    # numpy reports its buffers to tracemalloc: the two folded bases have
    # L//2 rows each, at most L * n_bins * 8 bytes in all, half the complex
    # (L, n_bins) DFT basis, and they are built a column at a time from the
    # L twiddles, with no (L, bins) temporaries
    length, picked = 16384, np.arange(1, 200, 3)
    basis = length * picked.size * 8
    tracemalloc.start()
    try:
        welch = oracle._Welch(4 * length, (0.0,), 1.0, length, 0.5, picked)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert welch.bases.nbytes <= basis
    assert held <= basis + welch.segs.nbytes + 4 * length * 8
    assert peak <= held + 4 * length * 16


def test_picked_bins_make_no_fft_and_ignore_the_chunking(monkeypatch):
    def full_fft(*args, **kwargs):
        raise AssertionError("picked bins need no full FFT")

    monkeypatch.setattr(np.fft, "rfft", full_fft)
    model, _ = squeezing_model()
    n = 2 * oracle.CHUNK + 3 * N + 77
    cfg = kp.TrajectoryConfig(dt=0.01, duration=n * 0.01, seed=8,
                              burn_in=0.013, theta_list=(0.2, 1.7))
    bins = np.arange(1, 13)
    expected = kp.psd_estimate(kp.simulate(model, cfg), 3000, 0.3, bins)
    for chunk in (3 * N, oracle.CHUNK):
        assert_same_estimate(chunked(chunk, lambda: kp.oracle_psd(
            model, cfg, 3000, 0.3, bins)), expected)


def test_picked_bins_do_not_depend_on_the_blas_thread_count():
    # the picked bins come from two matrix products per batch of segments,
    # which BLAS may split across threads; an even and an odd segment
    # length fold differently
    script = (
        "import hashlib, numpy as np, kerrpol as kp\n"
        "kp.oracle.CHUNK = 1 << 14\n"
        "m = kp.FluctuationModel('y', m11=-1.0 + 1.9j, m12=0.6j, kappa=1.0)\n"
        "cfg = kp.TrajectoryConfig(dt=0.01, duration=600.0, seed=7,\n"
        "                          theta_list=(0.0, 1.1))\n"
        "for length in (4096, 4095):\n"
        "    e = kp.oracle_psd(m, cfg, length, 0.5, np.arange(1, 200, 3))\n"
        "    print(hashlib.sha256(e.psd.tobytes() + e.stderr.tobytes())"
        ".hexdigest())\n")
    src = str(pathlib.Path(kp.__file__).resolve().parent.parent)
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, (src, os.environ.get("PYTHONPATH"))))}
        run = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        digests.append(run.stdout.split())
    assert [len(d) for d in digests[0]] == [64, 64]
    assert digests[0] == digests[1]


@pytest.mark.parametrize("bins", [[], [1.0, 2.0], [True], [[1, 2]],
                                  [-1, 3], [0, 129], [3, 2], [2, 2]])
def test_bins_must_be_increasing_indices_into_the_grid(bins):
    model, _ = squeezing_model()
    cfg = kp.TrajectoryConfig(dt=0.01, duration=4 * N * 0.01, seed=1)
    series = kp.simulate(model, cfg)
    calls = [                       # 256-sample segments have 129 bins
        lambda: kp.welch_psd(series.quadratures, series.thetas, cfg.dt, 256,
                             bins=bins),
        lambda: kp.psd_estimate(series, 256, bins=bins),
        lambda: kp.oracle_psd(model, cfg, 256, bins=bins),
    ]
    for call in calls:
        with pytest.raises(kp.ValidationError, match="bins must be"):
            call()


@pytest.mark.parametrize("segment_length", [0, 1, -5, 3.5, 64.0])
def test_segment_length_must_be_an_integer_of_at_least_two(segment_length):
    model, _ = squeezing_model()
    cfg = kp.TrajectoryConfig(dt=0.01, duration=4 * N * 0.01, seed=1)
    series = kp.simulate(model, cfg)
    calls = [
        lambda: kp.welch_psd(series.quadratures, series.thetas, cfg.dt,
                             segment_length),
        lambda: kp.psd_estimate(series, segment_length),
        lambda: kp.oracle_psd(model, cfg, segment_length),
    ]
    for call in calls:
        with pytest.raises(kp.ValidationError, match="integer >= 2"):
            call()


def raised_by(call):
    with pytest.raises(kp.KerrpolError) as info:
        call()
    return type(info.value), str(info.value)


def test_oracle_psd_raises_what_the_two_call_path_raises():
    model, p = squeezing_model()
    steady = steady_at(p, kp.linear_dephasing(p) * (1.0 - 0.5), 0.5)
    unstable = kp.build_drift_y(steady, p)
    reactive = kp.FluctuationModel("y", m11=-1.0 + 90j, m12=0j, kappa=1.0)
    short = kp.TrajectoryConfig(dt=0.01, duration=20.0, seed=1)  # 2000 steps
    cases = [
        (unstable, kp.TrajectoryConfig(dt=0.001, duration=10.0, seed=1),
         {}, (256,)),
        (reactive, kp.TrajectoryConfig(dt=0.001, duration=10.0, seed=1),
         {}, (256,)),                                 # diverging step
        (model, kp.TrajectoryConfig(dt=0.2, duration=400.0, seed=1),
         {}, (256,)),                                 # coarse step
        (model, short, {}, (4096,)),                  # segment > n
        (model, short, {}, (256, 0.95)),              # overlap out of range
        (model, short, {}, (800, 0.0)),               # only 2 segments
        (unstable, kp.TrajectoryConfig(dt=0.001, duration=10.0, seed=1),
         {"bins": []}, (256,)),
        (model, short, {"bins": []}, (256,)),
        (model, short, {"bins": [0, 129]}, (256,)),   # 129 bins: 0..128
        (model, short, {"bins": [5, 5]}, (256,)),
        (model, short, {"bins": [0.5]}, (256,)),
        (model, short, {"bins": [1]}, (4096,)),       # segment > n
    ]
    kinds = []
    for sim_model, cfg, kwargs, welch_args in cases:
        expected = raised_by(lambda: kp.psd_estimate(
            kp.simulate(sim_model, cfg), *welch_args,
            bins=kwargs.get("bins")))
        assert raised_by(lambda: kp.oracle_psd(
            sim_model, cfg, *welch_args, **kwargs)) == expected
        kinds.append(expected[0])
    assert kinds == ([kp.UnstableModelError] + [kp.ValidationError] * 5
                     + [kp.UnstableModelError] + [kp.ValidationError] * 5)


def test_kernel_failure_reaches_the_caller_and_stops_the_helper(monkeypatch):
    model, _ = squeezing_model()
    cfg = kp.TrajectoryConfig(dt=0.01, duration=8 * N * 0.01, seed=2)
    real = _kernel.integrate_em
    calls = []

    def failing(*args):
        calls.append(1)
        if len(calls) == 3:
            raise FloatingPointError("kernel failed mid-run")
        return real(*args)

    baseline = threading.active_count()
    monkeypatch.setattr(_kernel, "integrate_em", failing)
    with pytest.raises(FloatingPointError, match="mid-run"):
        chunked(N, lambda: kp.oracle_psd(model, cfg, 512))
    assert len(calls) == 3
    assert threading.active_count() == baseline


def test_welch_failure_reaches_the_caller_and_stops_the_helper(monkeypatch):
    # Welch runs on the caller right after the kernel, so a feed that fails
    # on chunk 2 stops the run before the kernel sees chunk 3
    model, _ = squeezing_model()
    cfg = kp.TrajectoryConfig(dt=0.01, duration=8 * N * 0.01, seed=2)
    real_feed, real_kernel = oracle._Welch.feed, _kernel.integrate_em
    feeds, kernels = [], []

    def failing(self, rows):
        feeds.append(1)
        if len(feeds) == 3:
            raise FloatingPointError("Welch failed mid-run")
        return real_feed(self, rows)

    def counted(*args):
        kernels.append(1)
        return real_kernel(*args)

    baseline = threading.active_count()
    monkeypatch.setattr(oracle._Welch, "feed", failing)
    monkeypatch.setattr(_kernel, "integrate_em", counted)
    with pytest.raises(FloatingPointError, match="mid-run"):
        chunked(N, lambda: kp.oracle_psd(model, cfg, 512))
    assert len(feeds) == 3 and len(kernels) == 3
    assert threading.active_count() == baseline


def test_only_draws_leave_the_calling_thread(monkeypatch):
    # the kernel and Welch run on the caller; one helper thread runs the
    # pool's tasks, and every task is a chunk's noise draw
    from concurrent.futures import ThreadPoolExecutor
    model, _ = squeezing_model()
    cfg = kp.TrajectoryConfig(dt=0.01, duration=(5 * N + 300) * 0.01, seed=4)
    real_submit, real_feed = ThreadPoolExecutor.submit, oracle._Welch.feed
    real_kernel = _kernel.integrate_em
    tasks, helpers, feeds, kernels = [], set(), [], []

    def submit(self, fn, *args):
        tasks.append(fn.__name__)

        def run():
            helpers.add(threading.get_ident())
            return fn(*args)
        return real_submit(self, run)

    def feed(self, rows):
        feeds.append(threading.get_ident())
        return real_feed(self, rows)

    def kernel(*args):
        kernels.append(threading.get_ident())
        return real_kernel(*args)

    monkeypatch.setattr(ThreadPoolExecutor, "submit", submit)
    monkeypatch.setattr(oracle._Welch, "feed", feed)
    monkeypatch.setattr(_kernel, "integrate_em", kernel)
    chunked(N, lambda: kp.oracle_psd(model, cfg, 512))
    caller = threading.get_ident()
    assert tasks == ["draw"] * 6
    assert len(helpers) == 1 and caller not in helpers
    assert feeds == kernels == [caller] * 6


def test_concurrent_oracle_psd_calls_stay_bit_identical():
    # four callers, each with its own helper thread, on a fast switch
    # interval: a draw or a Welch feed that ran out of order would show
    model, _ = squeezing_model()
    cfgs = [kp.TrajectoryConfig(dt=0.01, duration=6 * N * 0.01 + 0.37 * i,
                                seed=i, burn_in=0.1, theta_list=(0.0, 0.6))
            for i in range(4)]
    expected = [kp.psd_estimate(kp.simulate(model, c), 700, 0.4)
                for c in cfgs]
    results = [None] * len(cfgs)

    def run(i):
        results[i] = kp.oracle_psd(model, cfgs[i], 700, 0.4)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(oracle, "CHUNK", N):
            threads = [threading.Thread(target=run, args=(i,))
                       for i in range(len(cfgs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got, want in zip(results, expected):
        assert_same_estimate(got, want)


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_oracle_psd_memory_is_flat_in_duration():
    # numpy reports its buffers to tracemalloc: the streaming path holds
    # O(chunk) samples, simulate holds the whole trajectory
    model, _ = squeezing_model()
    chunk, thetas = 2 * N, (0.0, 0.7, 1.4, 2.1)
    short, long = (kp.TrajectoryConfig(dt=0.01, duration=n * 0.01, seed=3,
                                       theta_list=thetas)
                   for n in (4 * chunk, 16 * chunk))
    with mock.patch.object(oracle, "CHUNK", chunk):
        kp.oracle_psd(model, short, 1024)               # first-call imports
        stream = [traced_peak(lambda: kp.oracle_psd(model, c, 1024))
                  for c in (short, long)]
        whole = [traced_peak(lambda: kp.simulate(model, c))
                 for c in (short, long)]
    assert stream[1] <= 1.2 * stream[0]
    extra_samples = (long.n_steps - short.n_steps) * 2 * 8   # (X_0, X_pi/2)
    assert whole[1] - whole[0] >= 0.95 * extra_samples

    # nor does the chunk plan grow with the duration: up to the first kernel
    # call, 10^5 chunks hold no per-chunk list (a list of their spans would
    # take about 9 MB)
    def kernel(*args):
        raise RuntimeError("first kernel call")

    def until_first_kernel_call():
        with pytest.raises(RuntimeError, match="first kernel call"):
            kp.oracle_psd(model, many, 64)

    many = kp.TrajectoryConfig(dt=0.01, duration=64e5 * 0.01, seed=3)
    assert many.n_steps == 64 * 10 ** 5
    with mock.patch.object(oracle, "CHUNK", 64), \
            mock.patch.object(_kernel, "integrate_em", kernel):
        assert traced_peak(until_first_kernel_call) < 1e6


def test_each_chunk_lives_in_one_buffer():
    # a chunk's noise is drawn into the buffer the kernel writes X over:
    # oracle_psd holds two chunk buffers and simulate none besides its
    # output, each plus the kernel's O(chunk) scratch, and oracle_psd also
    # Welch's, set by its group of segments (the FFT's or the picked bins').
    # Welch runs after the kernel returns, so the FFT's transients do not
    # stack on the kernel's scratch: the peak holds the larger of the two,
    # and 0.2 of the kernel's term covers its excess over the FFT's
    model, _ = squeezing_model()
    chunk = oracle.CHUNK
    cfg = kp.TrajectoryConfig(dt=0.01, duration=(3 * chunk + 1000) * 0.01,
                              seed=3)
    kernel = 1.4 * chunk * 16           # see the kernel's scratch test
    group = oracle.BATCH_SAMPLES * 2 * 8    # a full group of segments
    for bins, welch, scratch in ((None, 2.5 * group, 0.2 * kernel),
                                 ([1, 2, 5], group, kernel)):
        call = lambda: kp.oracle_psd(model, cfg, 4096, bins=bins)
        call()                                          # first-call imports
        assert traced_peak(call) <= 2 * chunk * 2 * 8 + scratch + welch
    assert (traced_peak(lambda: kp.simulate(model, cfg))
            <= cfg.n_steps * 2 * 8 + kernel)


def test_conjugate_reconstruction_matches_two_variable_integration():
    # the kernel integrates only a; integrating the full conjugate pair
    # explicitly must reproduce its X to 1e-12, with the second variable
    # the conjugate of the first
    model, _ = squeezing_model()
    n = 4000
    dt = 0.01
    rng = np.random.default_rng(5)
    noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * (0.5 * math.sqrt(dt))
    x, _ = kernel_x(complex(model.m11), complex(model.m12), model.kappa, dt,
                    noise, 0j)

    m = model.drift_matrix
    sq = math.sqrt(2.0 * model.kappa)
    v = np.zeros(2, dtype=complex)
    pair = np.empty((n, 2), dtype=complex)
    for k in range(n):
        pair[k] = v
        drive = np.array([noise[k], noise[k].conjugate()])
        v = v + dt * (m @ v) + sq * drive
    b = sq * pair[:, 0] - noise / dt                    # from a
    b_conj = sq * pair[:, 1] - noise.conjugate() / dt   # from conj(a)
    two_variable = np.column_stack((b + b_conj, -1j * (b - b_conj)))
    assert np.allclose(x, two_variable.real, rtol=0, atol=1e-12)
    assert np.allclose(two_variable.imag, 0.0, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# PSD estimation

def pair(x):
    """Quadrature pair (x, 0): at theta = 0 the series is exactly ``x``."""
    return np.column_stack((x, np.zeros_like(x)))


def test_psd_pure_sinusoid_peaks_at_its_frequency():
    dt = 1.0
    n = 8192
    f0 = 50.0 / 1024.0   # exactly on a bin of the 1024-sample segments
    t = np.arange(n) * dt
    x = np.sin(2.0 * math.pi * f0 * t)
    series = kp.QuadratureSeries(dt=dt, thetas=(0.0,),
                                 quadratures=pair(x))
    est = kp.psd_estimate(series, 1024, overlap=0.5)
    peak = int(np.argmax(est.psd[:, 0]))
    assert est.omega[peak] == pytest.approx(2.0 * math.pi * f0, rel=1e-12)
    assert est.psd[peak, 0] > 100.0 * np.median(est.psd[:, 0])


def test_psd_unit_white_noise_is_flat_one():
    rng = np.random.default_rng(123)
    x = rng.standard_normal(400000)
    series = kp.QuadratureSeries(dt=1.0, thetas=(0.0,),
                                 quadratures=pair(x))
    est = kp.psd_estimate(series, 1024, overlap=0.5)
    sel = slice(1, None)   # skip the DC bin (mean not removed)
    z = (est.psd[sel, 0] - 1.0) / est.stderr[sel, 0]
    assert np.mean(np.abs(z) <= 3.0) > 0.95
    assert abs(np.mean(est.psd[sel, 0]) - 1.0) < 0.01


def test_psd_ornstein_uhlenbeck_matches_lorentzian():
    # exact AR(1) sampling of d x = -g x dt + sigma dW; two-sided PSD in the
    # density convention is sigma^2 / (g^2 + w^2)
    g, sigma, dt, n = 0.7, 1.3, 0.02, 1_500_000
    rho = math.exp(-g * dt)
    q = sigma * math.sqrt((1.0 - rho * rho) / (2.0 * g))
    rng = np.random.default_rng(77)
    w = rng.standard_normal(n)
    x = np.empty(n)
    acc = 0.0
    for k in range(n):
        acc = rho * acc + q * w[k]
        x[k] = acc
    series = kp.QuadratureSeries(dt=dt, thetas=(0.0,),
                                 quadratures=pair(x))
    est = kp.psd_estimate(series, 4096, overlap=0.5)
    sel = (est.omega > 0.05) & (est.omega < 10.0)
    lorentz = sigma ** 2 / (g ** 2 + est.omega[sel] ** 2)
    z = (est.psd[sel, 0] - lorentz) / est.stderr[sel, 0]
    assert np.mean(np.abs(z) <= 3.0) > 0.95


def test_psd_input_validation():
    series = kp.QuadratureSeries(dt=1.0, thetas=(0.0,),
                                 quadratures=np.zeros((100, 2)))
    with pytest.raises(kp.ValidationError):
        kp.psd_estimate(series, 200)          # segment longer than series
    with pytest.raises(kp.ValidationError):
        kp.psd_estimate(series, 64, overlap=0.95)
    with pytest.raises(kp.ValidationError):
        kp.psd_estimate(series, 50, overlap=0.0)   # only 2 segments


def test_halving_dt_changes_psd_within_errors():
    model, _ = squeezing_model()
    estimates = []
    for dt in (0.02, 0.01):
        cfg = kp.TrajectoryConfig(dt=dt, duration=20000.0, seed=9,
                                  burn_in=0.02, theta_list=(0.0,))
        series = kp.simulate(model, cfg)
        estimates.append(kp.psd_estimate(series, int(round(40.96 / dt)), 0.5))
    coarse, fine = estimates
    sel = (coarse.omega > 0.1) & (coarse.omega < 3.0)
    idx = np.nonzero(sel)[0][::5]
    z = (coarse.psd[idx, 0] - fine.psd[idx, 0]) / np.hypot(
        coarse.stderr[idx, 0], fine.stderr[idx, 0])
    assert np.mean(np.abs(z)) < 1.0
    assert np.mean(np.abs(z) <= 3.0) >= 0.95


# ---------------------------------------------------------------------------
# analytic-vs-empirical comparison

def run_comparison(model, seed=17, duration=40000.0, perturb_sx=0.0):
    cfg = kp.TrajectoryConfig(dt=0.01, duration=duration, seed=seed,
                              burn_in=0.02, theta_list=(0.0, 0.8))
    sim_model = model
    if perturb_sx:
        steady = model.steady_ref
        scaled = kp.SteadyState(
            alpha_x=steady.alpha_x * math.sqrt(1.0 + perturb_sx),
            s_x=steady.s_x * (1.0 + perturb_sx), delta_c=steady.delta_c,
            delta_0=steady.delta_0, branch_index=steady.branch_index,
            mean_field_stable=steady.mean_field_stable,
            y_mode_margin=steady.y_mode_margin, alpha_in=steady.alpha_in)
        params = make_params(delta0=steady.delta_0)
        sim_model = kp.build_drift_y(scaled, params)
    series = kp.simulate(sim_model, cfg)
    est = kp.psd_estimate(series, 4096, overlap=0.5)
    sel = (est.omega > 0.15) & (est.omega < 2.5)
    idx = np.nonzero(sel)[0][:: max(1, sel.sum() // 10)][:10]
    analytic = kp.noise_spectrum(model, est.omega[idx], cfg.theta_list)
    sub = kp.PsdEstimate(omega=est.omega[idx], psd=est.psd[idx],
                         stderr=est.stderr[idx], n_segments=est.n_segments,
                         thetas=series.thetas)
    return kp.compare(analytic, sub)


def test_compare_self_consistency_passes():
    model, _ = squeezing_model()
    report = run_comparison(model)
    assert report.passed
    assert report.max_abs_z <= 3.5
    assert len(report.z) >= 20


def test_compare_flags_perturbed_model():
    model, _ = squeezing_model()
    report = run_comparison(model, perturb_sx=-0.2)
    assert not report.passed


def test_compare_rejects_degenerate_error_bars():
    # identical inputs with zero error bars used to score z = 0 and pass
    model, _ = squeezing_model()
    omega = np.linspace(0.2, 2.0, 12)
    thetas = (0.0, 0.5)
    spec = kp.noise_spectrum(model, omega, thetas)

    def estimate(psd, stderr):
        return kp.PsdEstimate(omega=omega, psd=psd, stderr=stderr,
                              n_segments=8, thetas=thetas)

    ones = np.ones_like(spec.values)
    with pytest.raises(kp.ValidationError):
        kp.compare(spec, estimate(spec.values.copy(), 0.0 * ones))
    # one bad point among good ones is enough
    for name, value in [("stderr", 0.0), ("stderr", -1.0), ("stderr", np.nan),
                        ("stderr", np.inf), ("psd", np.inf), ("psd", np.nan)]:
        arrays = {"psd": spec.values.copy(), "stderr": ones.copy()}
        arrays[name][3, 1] = value
        with pytest.raises(kp.ValidationError):
            kp.compare(spec, estimate(**arrays))
    report = kp.compare(spec, estimate(spec.values.copy(), ones))
    assert np.all(report.z == 0.0)
    assert report.passed


@pytest.mark.parametrize("points, z_out, passed", [
    (20, [4.0], True),      # 19 of 20 within: exactly 95%
    (17, [-4.0], False),    # 16 of 17 within: 94.1%
    (17, [3.0], True),      # |z| = 3 counts as within
    (17, [-3.0], True),
    (20, [4.0, 3.0], True),
    (20, [4.0, np.nextafter(3.0, 4.0)], False)])
def test_compare_gate_is_95_percent_within_3_sigma(points, z_out, passed):
    # z = (analytic - empirical) / stderr is exact in these small numbers
    omega = np.arange(1.0, points + 1.0)
    analytic = np.full((points, 1), 5.0)
    empirical = analytic.copy()
    empirical[:len(z_out), 0] -= z_out
    report = kp.compare(
        kp.NoiseSpectrum(omega=omega, theta=np.zeros(1), values=analytic,
                         mode_label="y"),
        kp.PsdEstimate(omega=omega, psd=empirical, stderr=np.ones((points, 1)),
                       n_segments=8, thetas=(0.0,)))
    assert report.z.tolist() == [*z_out, *[0.0] * (points - len(z_out))]
    outside = np.count_nonzero(np.abs(z_out) > 3.0)
    assert report.fraction_within_3 == (points - outside) / points
    assert report.passed is passed


GRID = np.linspace(0.2, 2.0, 6)


@pytest.mark.parametrize("omega, thetas, columns", [
    (GRID[::2], (0.0, 0.5), 2),                            # omega subset
    (np.sort(np.r_[GRID, GRID[:-1] + 0.1]), (0.0, 0.5), 2),  # omega superset
    (GRID, (0.0, 0.6), 2),                                 # other theta
    (GRID, (0.5, 0.0), 2),                                 # reordered thetas
    (GRID, (0.0,), 2),                                     # theta subset
    (GRID, (0.0, 0.5), 3),                                 # psd shape
])
def test_compare_requires_the_estimate_grid(omega, thetas, columns):
    # the analytic spectrum must sit on the estimate's own (omega, theta)
    model, _ = squeezing_model()
    spec = kp.noise_spectrum(model, omega, thetas)
    est = kp.PsdEstimate(omega=GRID, psd=np.ones((GRID.size, columns)),
                         stderr=np.ones((GRID.size, columns)),
                         n_segments=8, thetas=(0.0, 0.5))
    with pytest.raises(kp.ValidationError, match="own omega and theta"):
        kp.compare(spec, est)


def test_compare_disjoint_grids_error():
    model, _ = squeezing_model()
    spec = kp.noise_spectrum(model, [0.5, 1.0], (0.0,))
    est = kp.PsdEstimate(omega=np.array([10.0, 20.0]),
                         psd=np.ones((2, 1)), stderr=np.ones((2, 1)),
                         n_segments=8, thetas=(0.0,))
    with pytest.raises(kp.ValidationError):
        kp.compare(spec, est)
