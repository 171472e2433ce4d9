import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kerrpol as kp

import spectra_reference as ref
from stokes_reference import recover_lossless, stokes_means
from conftest import (draw_operating_point, make_params, squeezed_to_angle,
                      steady_at)


def flat_vacuum_spectrum(omegas=(0.5,), thetas=None):
    p = make_params(delta0=-8.0)
    steady = kp.steady_states(p, kp.DriveField(alpha_in=0j), 1.2)[0]
    model = kp.build_drift_y(steady, p)
    if thetas is None:
        thetas = np.linspace(-math.pi, math.pi, 25)
    return kp.noise_spectrum(model, omegas, thetas)


def squeezed_setup(s=0.3, delta0=-10.0, det_y=1.6):
    p = make_params(delta0=delta0)
    delta_c = delta0 * (1.0 - s) + det_y
    steady = steady_at(p, delta_c, s)
    return p, steady, kp.build_drift_y(steady, p)


# ---------------------------------------------------------------------------
# means

def test_stokes_means_dark_and_bright():
    assert stokes_means(0j) == (0.0, 0.0, 0.0, 0.0)
    s0, s1, s2, s3 = stokes_means(3.0 + 0j)
    assert (s0, s1, s2, s3) == (9.0, 9.0, 0.0, 0.0)


def test_stokes_means_global_phase_invariant():
    a = 2.5 * complex(math.cos(0.8), math.sin(0.8))
    assert stokes_means(a) == pytest.approx(stokes_means(2.5 + 0j))


# ---------------------------------------------------------------------------
# noise mapping

def test_vacuum_spectrum_gives_coherent_stokes_noise():
    thetas = np.array([0.0, math.pi / 2])
    spec = flat_vacuum_spectrum(omegas=(0.3, 0.9), thetas=thetas)
    v_s2, v_s3, product = kp.stokes_noise(spec)
    assert v_s2.shape == v_s3.shape == product.shape == (2,)
    assert np.allclose(v_s2, 1.0, rtol=0.0, atol=1e-9)
    assert np.allclose(v_s3, 1.0, rtol=0.0, atol=1e-9)
    assert stokes_means(50.0 + 0j) == pytest.approx(
        (2500.0, 2500.0, 0.0, 0.0))


def test_phase_squeezed_y_mode_squeezes_s3():
    # pick a point whose squeezing angle is pi/2, then V_S3 < alpha^2
    p, steady, model = squeezed_to_angle(math.pi / 2)
    thetas = np.array([0.0, math.pi / 2])
    omega = 0.6
    spec = kp.noise_spectrum(model, [omega], thetas)
    (v_s2,), (v_s3,), (product,) = kp.stokes_noise(spec)
    assert v_s3 < 1.0
    assert v_s2 > 1.0
    assert product >= 1.0 - 1e-6


def test_uncertainty_product_is_one_pre_loss(rng):
    thetas = np.array([0.0, math.pi / 2])
    for _ in range(40):
        params, steady = draw_operating_point(rng)
        model = kp.build_drift_y(steady, params)
        spec = kp.noise_spectrum(model, [float(rng.uniform(0.0, 2.0))], thetas)
        _, _, (product,) = kp.stokes_noise(spec)
        # S(0)*S(pi/2) >= Smin*Smax = 1 with equality when the squeezing
        # axes align with the measured pair; always within the slack above 1
        assert product >= 1.0 - 1e-6


def test_aligned_axes_saturate_uncertainty_product():
    p, steady, model = squeezed_to_angle(math.pi / 2)
    spec = kp.noise_spectrum(model, [0.6], np.array([0.0, math.pi / 2]))
    _, _, (product,) = kp.stokes_noise(spec)
    assert product == pytest.approx(1.0, abs=1e-4)


def test_stokes_noise_requires_both_phases():
    spec = flat_vacuum_spectrum(thetas=np.array([0.0]))
    with pytest.raises(kp.ValidationError):
        kp.stokes_noise(spec)


@pytest.mark.parametrize("value", [0.5, math.nan])
def test_stokes_noise_refuses_a_product_below_the_bound(value):
    # V_S2 * V_S3 >= alpha_x^4 is checked here, once: a violation and a NaN
    # are numerical failures alike
    spec = kp.NoiseSpectrum(omega=np.array([0.3, 0.9]),
                            theta=np.array([0.0, math.pi / 2.0]),
                            values=np.array([[1.0, 1.0], [0.5, value]]),
                            mode_label="y")
    with pytest.raises(kp.NumericalError, match="uncertainty product"):
        kp.stokes_noise(spec)


def test_stokes_noise_rejects_the_driven_mode_spectrum():
    # S2/S3 are the orthogonal mode's quadratures; the driven mode's
    # spectrum holds S0/S1 and must not be mapped onto them
    p, steady, _ = squeezed_setup(s=0.15, delta0=-8.0, det_y=0.3)
    thetas = np.array([0.0, math.pi / 2])
    spec_x = kp.noise_spectrum(kp.build_drift_x(steady, p), [0.4], thetas)
    with pytest.raises(kp.ValidationError, match="orthogonal-mode"):
        kp.stokes_noise(spec_x)


# ---------------------------------------------------------------------------
# homodyne projection

def test_stokes_theta_endpoints_reproduce_s2_s3():
    p, steady, model = squeezed_setup()
    thetas = np.array([0.0, math.pi / 2, 0.4])
    spec = kp.noise_spectrum(model, [0.5, 1.5], thetas)
    v_s2, v_s3, product = kp.stokes_noise(spec)
    v0 = spec.at_theta(0.0)
    v90 = spec.at_theta(math.pi / 2)
    assert v0[0] == v_s2[0] and v0[1] == v_s2[1]
    assert v90[0] == v_s3[0] and v90[1] == v_s3[1]
    assert product.tolist() == [v_s2[0] * v_s3[0], v_s2[1] * v_s3[1]]


def test_s0_s1_noise_is_driven_mode_amplitude_quadrature():
    p, steady, _ = squeezed_setup(s=0.15, delta0=-8.0, det_y=0.3)
    model_x = kp.build_drift_x(steady, p)
    assert model_x.is_stable
    omegas = np.array([0.4, 1.1])
    spec_x = kp.noise_spectrum(model_x, omegas, np.array([0.0, 0.7]))
    v01 = spec_x.at_theta(0.0)
    for k, w in enumerate(omegas):
        assert v01[k] == pytest.approx(
            ref.quadrature_spectrum(model_x, float(w), 0.0), rel=1e-10)


def test_stokes_theta_flat_spectrum_is_one_everywhere():
    spec = flat_vacuum_spectrum()
    for th in spec.theta:
        assert spec.at_theta(float(th))[0] == pytest.approx(1.0, abs=1e-9)


def test_stokes_theta_equals_engine_quadrature_everywhere(rng):
    # V_S(theta) == alpha^2 * S_theta identically: the normalized Stokes scan
    # must coincide with an independent pointwise engine evaluation
    params, steady = draw_operating_point(rng)
    model = kp.build_drift_y(steady, params)
    thetas = np.linspace(-math.pi, math.pi, 17)
    spec = kp.noise_spectrum(model, [0.8], thetas)
    for th in thetas:
        direct = ref.quadrature_spectrum(model, 0.8, float(th))
        assert spec.at_theta(float(th))[0] == pytest.approx(
            direct, rel=1e-10)


def test_minimum_tracks_squeezing_angle_30_degrees():
    target = math.radians(30.0)
    p, steady, model = squeezed_to_angle(target)
    thetas = np.linspace(-math.pi, math.pi, 721)
    spec = kp.noise_spectrum(model, [0.6], thetas)
    values = np.array([spec.at_theta(float(t))[0] for t in thetas])
    k = int(np.argmin(values))
    dist = abs(math.remainder(thetas[k] - target, math.pi))
    assert dist <= float(thetas[1] - thetas[0])


# ---------------------------------------------------------------------------
# detection loss

def test_loss_identity_cases():
    assert kp.apply_detection_loss(0.5, 1.0) == 0.5
    for eta in (0.3, 0.718, 1.0):
        assert kp.apply_detection_loss(1.0, eta) == pytest.approx(1.0)


def test_loss_matches_measured_corrected_pairs():
    # eta implied by each measured/corrected pair: 1 - S_det = eta*(1 - S)
    eta_1 = 0.13 / 0.18
    eta_2 = 0.05 / 0.07
    assert abs(eta_1 - eta_2) < 0.01
    assert kp.apply_detection_loss(0.82, 0.722) == pytest.approx(0.870, abs=5e-4)
    assert kp.apply_detection_loss(0.82, eta_1) == pytest.approx(1.0 - 0.13, abs=1e-12)
    assert kp.apply_detection_loss(0.93, eta_2) == pytest.approx(1.0 - 0.05, abs=1e-12)
    # configured default sits between the two implied values
    assert 0.714 < 0.718 < 0.723


def test_loss_roundtrip_and_floor(rng):
    for _ in range(100):
        s = float(rng.uniform(0.0, 3.0))
        eta = float(rng.uniform(0.05, 1.0))
        lossy = kp.apply_detection_loss(s, eta)
        assert lossy >= 1.0 - eta
        assert recover_lossless(lossy, eta) == pytest.approx(s, abs=1e-12)


def test_loss_inverse_rejects_impossible_claims():
    with pytest.raises(kp.ValidationError):
        recover_lossless(0.2, 0.5)     # floor for eta=0.5 is 0.5
    with pytest.raises(kp.ValidationError):
        kp.apply_detection_loss(0.5, 0.0)
    with pytest.raises(kp.ValidationError):
        kp.apply_detection_loss(-0.1, 0.9)


def test_post_loss_uncertainty_product_exceeds_one():
    p, steady, model = squeezed_setup()
    spec = kp.noise_spectrum(model, [0.6], np.array([0.0, math.pi / 2]))
    v2 = kp.apply_detection_loss(float(spec.values[0, 0]), 0.718)
    v3 = kp.apply_detection_loss(float(spec.values[0, 1]), 0.718)
    smin, smax, _ = kp.min_max_spectrum(model, 0.6)
    assert smin < 1.0   # squeezing present
    assert v2 * v3 > 1.0


# ---------------------------------------------------------------------------
# phase-scan datasets

def test_phase_scan_flat_for_vacuum():
    p = make_params(delta0=-8.0)
    steady = kp.steady_states(p, kp.DriveField(alpha_in=0j), 1.0)[0]
    model = kp.build_drift_y(steady, p)
    thetas = np.linspace(-math.pi, math.pi, 73)
    theta_hd, cos_theta, v_theta = kp.phase_scan_dataset(model, 0.5, thetas,
                                                         eta=1.0)
    assert np.allclose(v_theta, 1.0, atol=1e-9)
    assert np.array_equal(theta_hd, thetas)
    assert np.array_equal(cos_theta, np.cos(thetas))


def test_phase_scan_columns_cover_the_frequency_grid():
    # frequency by frequency, each block the one-frequency scan's bits
    _, _, model = squeezed_setup()
    thetas = np.linspace(-math.pi, math.pi, 37)
    omegas = np.array([0.2, 0.6, 1.4])
    columns = kp.phase_scan_dataset(model, omegas, thetas, eta=0.718)
    assert all(column.shape == (omegas.size * thetas.size,)
               for column in columns)
    for i, omega in enumerate(omegas.tolist()):
        block = slice(i * thetas.size, (i + 1) * thetas.size)
        for column, single in zip(columns, kp.phase_scan_dataset(
                model, omega, thetas, eta=0.718)):
            assert column[block].tolist() == single.tolist()
    assert np.array_equal(columns[1], np.cos(columns[0]))


@pytest.mark.parametrize("defect", ["vacuum term dropped", "nan"])
def test_phase_scan_refuses_noise_under_the_loss_floor(monkeypatch, defect):
    # the loss floor 1 - eta is checked here, once: noise below it and a
    # NaN are numerical failures alike
    if defect == "nan":
        real = kp.stokes.noise_spectrum
        monkeypatch.setattr(kp.stokes, "noise_spectrum", lambda *args: replace(
            real(*args), values=real(*args).values * math.nan))
    else:
        monkeypatch.setattr(kp.stokes, "apply_detection_loss",
                            lambda s, eta: eta * s)
    _, _, model = squeezed_setup()
    with pytest.raises(kp.NumericalError, match="loss floor"):
        kp.phase_scan_dataset(model, [0.6], [0.0, 1.0], eta=0.3)


def test_phase_scan_center_dip_topology():
    # squeezing angle pi/2: minimum at cos(theta) = 0, the center of the
    # oscilloscope picture
    _, _, model = squeezed_to_angle(math.pi / 2)
    thetas = np.linspace(-math.pi, math.pi, 721)
    _, cos_theta, v_theta = kp.phase_scan_dataset(model, 0.6, thetas,
                                                  eta=0.718)
    k = int(np.argmin(v_theta))
    assert abs(cos_theta[k]) < 0.01
    assert v_theta[k] >= 1.0 - 0.718


def test_phase_scan_two_lobed_topology_at_30_degrees():
    # squeezing angle 30 degrees: the pi-periodic noise dips at +30 and -150
    # degrees, which fold onto cos(theta) = +/-0.866: the two-lobe picture
    _, _, model = squeezed_to_angle(math.radians(30.0))
    thetas = np.linspace(-math.pi, math.pi, 1441)
    theta_hd, cos_theta, v_theta = kp.phase_scan_dataset(model, 0.6, thetas,
                                                         eta=0.718)
    spacing = float(thetas[1] - thetas[0])
    target = math.radians(30.0)
    pos = theta_hd > 0
    k_pos = int(np.argmin(np.where(pos, v_theta, np.inf)))
    k_neg = int(np.argmin(np.where(~pos, v_theta, np.inf)))
    for k in (k_pos, k_neg):
        assert abs(math.remainder(theta_hd[k] - target, math.pi)) <= spacing
    assert cos_theta[k_pos] == pytest.approx(math.cos(target), abs=2e-2)
    assert cos_theta[k_neg] == pytest.approx(-math.cos(target), abs=2e-2)


def test_phase_scan_respects_loss_floor(rng):
    params, steady = draw_operating_point(rng)
    model = kp.build_drift_y(steady, params)
    thetas = np.linspace(-math.pi, math.pi, 181)
    eta = 0.6
    _, _, v_theta = kp.phase_scan_dataset(model, 0.4, thetas, eta=eta)
    assert np.all(v_theta >= 1.0 - eta)
    # pre-loss values recoverable
    bare = kp.noise_spectrum(model, [0.4], thetas).values[0]
    assert np.allclose(recover_lossless(v_theta, eta), bare, atol=1e-12)


# ---------------------------------------------------------------------------
# invariants on whole grids of drawn stable operating points

def stable_points(mode="y"):
    """(params, steady, model) from draw_operating_point, the model of
    ``mode`` stable, for a hypothesis-drawn seed."""
    def point(seed):
        params, steady = draw_operating_point(np.random.default_rng(seed),
                                              require_x_stable=mode == "x")
        build = kp.build_drift_x if mode == "x" else kp.build_drift_y
        return params, steady, build(steady, params)
    return st.integers(0, 2 ** 32 - 1).map(point)


GRID_OMEGAS = np.linspace(0.0, 3.0, 31)
GRID_THETAS = np.linspace(-math.pi, math.pi, 49)


@settings(max_examples=100, deadline=None)
@given(point=st.one_of(stable_points("y"), stable_points("x")))
def test_purity_on_whole_grids(point):
    _, _, model = point
    values = kp.noise_spectrum(model, GRID_OMEGAS, GRID_THETAS).values
    for w, row in zip(GRID_OMEGAS, values):
        smin, smax, _ = kp.min_max_spectrum(model, w)
        assert abs(smin * smax - 1.0) <= 1e-9
        assert smin - 1e-12 <= row.min() and row.max() <= smax + 1e-12


@settings(max_examples=100, deadline=None)
@given(point=stable_points("y"), eta=st.floats(0.05, 1.0))
def test_stokes_uncertainty_on_whole_grids(point, eta):
    _, _, model = point
    spec = kp.noise_spectrum(model, GRID_OMEGAS, [0.0, math.pi / 2.0])
    v_s2, v_s3, product = kp.stokes_noise(spec)
    assert np.all(product >= 1.0 - 1e-9)
    assert np.all(kp.apply_detection_loss(v_s2, eta)
                  * kp.apply_detection_loss(v_s3, eta) >= 1.0 - 1e-9)
    lossy = kp.apply_detection_loss(spec.values, eta)
    assert np.all(lossy[:, 0] * lossy[:, 1] >= 1.0 - 1e-9)


@settings(max_examples=100, deadline=None)
@given(point=st.one_of(stable_points("y"), stable_points("x")),
       eta=st.floats(0.05, 1.0))
def test_loss_round_trip_on_arrays_and_scalars(point, eta):
    _, _, model = point
    values = kp.noise_spectrum(model, GRID_OMEGAS, GRID_THETAS).values
    lossy = kp.apply_detection_loss(values, eta)
    assert lossy.shape == values.shape
    assert np.all(lossy >= 1.0 - eta - 1e-12)
    assert np.max(np.abs(recover_lossless(lossy, eta) - values)) <= 1e-12
    for cell in ((0, 0), (-1, -1)):
        scalar = kp.apply_detection_loss(float(values[cell]), eta)
        assert isinstance(scalar, float) and scalar == lossy[cell]
        assert abs(recover_lossless(scalar, eta) - values[cell]) <= 1e-12
