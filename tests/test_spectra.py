import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kerrpol as kp
from kerrpol import spectra

import spectra_reference as ref
from conftest import draw_operating_point, make_params, steady_at


# ---------------------------------------------------------------------------
# independent oracles

def wirtinger_jacobian(f, z0, h=1e-4):
    """(df/dz, df/dz*) by central differences along the two real axes."""
    dx = (f(z0 + h) - f(z0 - h)) / (2.0 * h)
    dy = (f(z0 + 1j * h) - f(z0 - 1j * h)) / (2.0 * h)
    return 0.5 * (dx - 1j * dy), 0.5 * (dx + 1j * dy)


def library_transfer(model, omega):
    """T(w) as a 2x2 matrix from the entries the spectra are built from."""
    return np.array(spectra._transfer_entries(model, omega)).reshape(2, 2)


def vacuum_steady(params, delta_c=0.0):
    return kp.steady_states(params, kp.DriveField(alpha_in=0j), delta_c)[0]


# ---------------------------------------------------------------------------
# drift builders

def test_drift_y_without_saturation():
    p = make_params(delta0=-8.0)
    b = vacuum_steady(p, delta_c=-3.0)
    m = kp.build_drift_y(b, p)
    assert m.m11 == pytest.approx(-p.kappa - 1j * (-3.0 - b.delta_0))
    assert m.m12 == 0.0


def test_drift_y_real_mean_field_gives_imaginary_coupling():
    p = make_params(delta0=-8.0)
    steady = steady_at(p, kp.linear_dephasing(p) * 0.6, 0.2)
    assert steady.alpha_x.imag == 0.0 and steady.alpha_x.real > 0.0
    m = kp.build_drift_y(steady, p)
    expected = 1j * steady.delta_0 * steady.s_x / 2.0
    assert m.m12 == pytest.approx(expected, rel=1e-12)
    assert m.m12.real == pytest.approx(0.0, abs=1e-18)


def test_drift_x_without_saturation_reduces_to_empty_cavity():
    p = make_params(delta0=-8.0)
    b = vacuum_steady(p, delta_c=1.5)
    m = kp.build_drift_x(b, p)
    assert m.m11 == pytest.approx(-p.kappa - 1j * (1.5 - b.delta_0))
    assert m.m12 == 0.0


@pytest.mark.parametrize("mode", ["x", "y"])
def test_drift_entries_match_finite_difference_jacobian(mode, rng):
    for _ in range(50):
        params, steady = draw_operating_point(rng)
        if mode == "x":
            model = kp.build_drift_x(steady, params)

            def f(z):
                return ref.drift_x_nonlinear(z, steady.alpha_in, params,
                                             steady.delta_c)

            z0 = steady.alpha_x
        else:
            model = kp.build_drift_y(steady, params)

            def f(z):
                return ref.drift_y_nonlinear(z, steady.alpha_x, params,
                                             steady.delta_c)

            z0 = 0j
        scale = max(abs(z0), 1.0)
        m11_fd, m12_fd = wirtinger_jacobian(f, z0, h=1e-5 * scale)
        assert abs(model.m11 - m11_fd) <= 1e-6 * abs(model.m11)
        assert abs(model.m12 - m12_fd) <= 1e-6 * max(abs(model.m12),
                                                     1e-9 * abs(model.m11))


def test_self_kerr_coupling_twice_cross_kerr(rng):
    for _ in range(20):
        params, steady = draw_operating_point(rng)
        mx = kp.build_drift_x(steady, params)
        my = kp.build_drift_y(steady, params)
        assert abs(mx.m12) == pytest.approx(2.0 * abs(my.m12), rel=1e-12)


def test_drift_requires_port_only_dissipation():
    with pytest.raises(kp.ValidationError):
        kp.FluctuationModel(mode_label="y", m11=-0.5 - 1j, m12=0.1j, kappa=1.0)


def test_steady_state_zero_drive_vacuum_mode_margin_consistency(rng):
    # closed-form margin == eigenvalues of the built drift, cross-module
    for _ in range(50):
        params, steady = draw_operating_point(rng)
        model = kp.build_drift_y(steady, params)
        eig = float(np.max(np.linalg.eigvals(model.drift_matrix).real))
        assert steady.y_mode_margin == pytest.approx(eig, rel=1e-9, abs=1e-9)
        assert model.stability_margin == pytest.approx(eig, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# transfer matrix

def test_transfer_identity_for_empty_resonant_cavity():
    p = make_params(delta0=0.0)
    model = kp.build_drift_y(vacuum_steady(p, delta_c=0.0), p)
    t = library_transfer(model, 0.0)
    assert np.allclose(t, np.eye(2), atol=1e-14)


def test_transfer_empty_detuned_cavity_is_all_pass():
    p = make_params(delta0=0.0)
    model = kp.build_drift_y(vacuum_steady(p, delta_c=0.8), p)
    for w in np.linspace(-5.0, 5.0, 41):
        t = library_transfer(model, float(w))
        assert abs(t[0, 0]) == pytest.approx(1.0, rel=1e-12)
        assert t[0, 1] == 0.0


def test_transfer_row_conjugacy(rng):
    for _ in range(20):
        params, steady = draw_operating_point(rng)
        model = kp.build_drift_y(steady, params)
        for w in (0.0, 0.37, 1.9, -2.4):
            tp = library_transfer(model, w)
            tm = library_transfer(model, -w)
            assert tp[1, 0] == pytest.approx(tm[0, 1].conjugate(), rel=1e-12)
            assert tp[1, 1] == pytest.approx(tm[0, 0].conjugate(), rel=1e-12)
            assert np.allclose(tp, ref.transfer(model, w), rtol=1e-12,
                               atol=1e-12)


def test_transfer_singular_at_marginal_point():
    # chi^2 - det^2 = kappa^2: one eigenvalue sits at zero
    p = make_params(delta0=-10.0)
    s = 0.3
    chi = abs(kp.linear_dephasing(p)) * s / 2.0
    det_y = math.sqrt(chi ** 2 - p.kappa ** 2)
    delta_c = kp.linear_dephasing(p) * (1.0 - s) + det_y
    steady = steady_at(p, delta_c, s)
    model = kp.build_drift_y(steady, p)
    with pytest.raises(kp.SingularTransferError):
        spectra._transfer_entries(model, 0.0)


def test_singularity_threshold_has_the_same_bits_on_both_paths(
        rng, monkeypatch):
    # min_max_spectrum here takes one frequency and noise_spectrum an array
    # of them; at the same omega both test det against the same threshold,
    # bit for bit
    real, seen = spectra._require_regular, []

    def spy(det, scale):
        seen.append(np.array(scale, dtype=float).ravel())
        real(det, scale)

    monkeypatch.setattr(spectra, "_require_regular", spy)
    for _ in range(20):
        params, steady = draw_operating_point(rng)
        model = kp.build_drift_y(steady, params)
        omegas = rng.uniform(-3.0, 3.0, 25)
        kp.noise_spectrum(model, omegas, (0.0,))    # at +omega, then -omega
        grid = np.concatenate(seen).reshape(2, -1).T.ravel()
        seen.clear()
        for w in omegas.tolist():                   # +w, -w for each w
            kp.min_max_spectrum(model, w)
        points = np.concatenate(seen)
        seen.clear()
        assert points.view(np.uint64).tolist() == grid.view(np.uint64).tolist()


# ---------------------------------------------------------------------------
# quadrature spectra

def test_spectrum_is_shot_noise_without_saturation():
    p = make_params(delta0=-8.0)
    for delta_c in (-3.0, 0.0, 7.0):
        model = kp.build_drift_y(vacuum_steady(p, delta_c), p)
        values = kp.noise_spectrum(model, np.linspace(-4.0, 4.0, 9),
                                   np.linspace(0.0, math.pi, 5)).values
        assert np.allclose(values, 1.0, rtol=0.0, atol=1e-9)


def test_spectrum_errors_on_unstable_model():
    p = make_params(delta0=-10.0)
    s = 0.5
    delta_c = kp.linear_dephasing(p) * (1.0 - s)  # det_y = 0, chi > kappa
    steady = steady_at(p, delta_c, s)
    model = kp.build_drift_y(steady, p)
    assert not model.is_stable
    with pytest.raises(kp.UnstableModelError):
        kp.noise_spectrum(model, [1.0], [0.0])
    with pytest.raises(kp.UnstableModelError):
        kp.min_max_spectrum(model, 1.0)
    with pytest.raises(kp.UnstableModelError):
        kp.min_max_spectrum(model, np.array([1.0, 2.0]))


def test_spectrum_matches_generic_matrix_evaluation(rng):
    for _ in range(25):
        params, steady = draw_operating_point(rng)
        model = kp.build_drift_y(steady, params)
        w = float(rng.uniform(-3.0, 3.0))
        th = float(rng.uniform(-math.pi, math.pi))
        fast = float(kp.noise_spectrum(model, [w], [th]).values[0, 0])
        assert fast == pytest.approx(ref.quadrature_spectrum(model, w, th),
                                     rel=1e-10)


def test_noise_spectrum_grid_matches_pointwise(rng):
    params, steady = draw_operating_point(rng)
    model = kp.build_drift_y(steady, params)
    omegas = np.linspace(-2.5, 2.5, 11)
    thetas = np.linspace(-math.pi, math.pi, 9)
    grid = kp.noise_spectrum(model, omegas, thetas)
    for i, w in enumerate(omegas):
        for j, th in enumerate(thetas):
            assert grid.values[i, j] == pytest.approx(
                ref.quadrature_spectrum(model, float(w), float(th)), rel=1e-10)


def test_spectrum_symmetries(rng):
    for _ in range(10):
        params, steady = draw_operating_point(rng)
        model = kp.build_drift_y(steady, params)
        w = float(rng.uniform(0.1, 3.0))
        th = float(rng.uniform(-math.pi, math.pi))
        (s, s_shifted), (s_minus, _) = kp.noise_spectrum(
            model, [w, -w], [th, th + math.pi]).values
        assert s >= 0.0
        assert s == pytest.approx(s_minus, rel=1e-10)
        assert s == pytest.approx(s_shifted, rel=1e-10)


def test_min_max_flat_spectrum_convention():
    p = make_params(delta0=-8.0)
    model = kp.build_drift_y(vacuum_steady(p, delta_c=2.0), p)
    smin, smax, theta_min = kp.min_max_spectrum(model, 0.7)
    assert smin == pytest.approx(1.0, abs=1e-9)
    assert smax == pytest.approx(1.0, abs=1e-9)
    assert theta_min == 0.0


def _parabolic_extremum(values, k, spacing):
    """Vertex (offset, value) of the parabola through points k-1, k, k+1."""
    ym, y0, yp = values[k - 1], values[k], values[k + 1]
    denom = yp + ym - 2.0 * y0
    if denom == 0.0:
        return 0.0, y0
    offset = 0.5 * (ym - yp) / denom
    value = y0 - 0.125 * (yp - ym) ** 2 / denom
    return offset * spacing, value


def test_min_max_agrees_with_dense_theta_grid(rng):
    # period-pi grid, endpoints excluded so argmin has interior neighbors
    n = 10000
    thetas = -math.pi / 2 + math.pi * (np.arange(n) + 0.5) / n
    spacing = math.pi / n
    for _ in range(10):
        params, steady = draw_operating_point(rng)
        model = kp.build_drift_y(steady, params)
        w = float(rng.uniform(0.0, 2.5))
        smin, smax, theta_min = kp.min_max_spectrum(model, w)
        grid = np.concatenate([kp.noise_spectrum(model, [w], thetas).values[0]] * 3)
        k_min = n + int(np.argmin(grid[n:2 * n]))
        k_max = n + int(np.argmax(grid[n:2 * n]))
        off_min, val_min = _parabolic_extremum(grid, k_min, spacing)
        _, val_max = _parabolic_extremum(grid, k_max, spacing)
        assert smin == pytest.approx(val_min, abs=1e-8)
        assert smax == pytest.approx(val_max, abs=1e-8)
        grid_theta_min = float(thetas[k_min - n]) + off_min
        dist = abs(math.remainder(theta_min - grid_theta_min, math.pi))
        assert dist <= spacing
        assert -math.pi / 2 < theta_min <= math.pi / 2


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), mode=st.sampled_from("xy"),
       omegas=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=40))
def test_min_max_columns_have_the_bits_of_scalar_calls(seed, mode, omegas):
    # one path: the columns over a frequency array are, element by element,
    # the floats that one frequency at a time gives
    params, steady = draw_operating_point(np.random.default_rng(seed),
                                          require_x_stable=mode == "x")
    build = kp.build_drift_x if mode == "x" else kp.build_drift_y
    model = build(steady, params)
    columns = kp.min_max_spectrum(model, np.array(omegas))
    scalars = [kp.min_max_spectrum(model, w) for w in omegas]
    for column, values in zip(columns, zip(*scalars)):
        assert all(type(value) is float for value in values)
        assert bits(column) == bits(values)


def remainder_fold(theta):
    """The fold into (-pi/2, pi/2] through math.remainder, one float."""
    theta = math.remainder(theta, math.pi)
    return theta + math.pi if theta <= -math.pi / 2.0 else theta


FOLD_EDGES = [k * math.pi / 2.0 for k in range(-6, 7)] + [
    math.nextafter(k * math.pi / 2.0, direction)
    for k in (-2, -1, 1, 2) for direction in (-math.inf, math.inf)] + [
    -0.0, 1e300, -1e300, 5e-324]


@settings(max_examples=200, deadline=None)
@given(thetas=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                       max_size=50))
def test_fold_angle_has_the_bits_of_the_remainder_fold(thetas):
    # fmod and the one +/-pi step are exact, so the array fold equals
    # math.remainder's, at +/-pi/2 and +/-pi too; a float stays a float
    thetas = thetas + FOLD_EDGES
    want = [remainder_fold(theta) for theta in thetas]
    assert bits(kp.fold_angle(np.array(thetas))) == bits(want)
    scalars = [kp.fold_angle(theta) for theta in thetas]
    assert all(type(value) is float for value in scalars)
    assert bits(scalars) == bits(want)
    assert kp.fold_angle(math.pi / 2.0) == kp.fold_angle(-math.pi / 2.0) \
        == math.pi / 2.0


def test_purity_product_for_lossless_reactive_models(rng):
    for _ in range(100):
        params, steady = draw_operating_point(rng)
        model = kp.build_drift_y(steady, params)
        w = float(rng.uniform(0.0, 3.0))
        smin, smax, _ = kp.min_max_spectrum(model, w)
        assert smin * smax == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# validity warnings

def test_validity_no_pumping_warning_without_saturation():
    p = make_params(delta0=-8.0)
    model = kp.build_drift_y(vacuum_steady(p, 0.0), p)
    assert kp.model_validity(model, p, 1e-6) == []


def test_validity_pumping_warning_threshold():
    two_pi = 2 * math.pi
    p = kp.PhysicalParams(
        kappa=two_pi * 5e6, gamma_perp=two_pi * 1.6e6, gamma_par=two_pi * 1e6,
        gamma=two_pi * 1.6e6 + two_pi * 1e6, delta=-two_pi * 50e6,
        transmission=0.1, n_atoms=5e6, g_coupling=math.sqrt(61 * math.pi),
        eta_det=0.718)
    steady = steady_at(p, kp.linear_dephasing(p) * 0.55, 0.2)
    model = kp.build_drift_y(steady, p)
    # pumping rate estimate: gamma_par/2 * s = 2*pi*0.1 MHz
    low = kp.model_validity(model, p, two_pi * 50e3)
    assert any("optical-pumping" in w for w in low)
    high = kp.model_validity(model, p, two_pi * 3e6)
    assert not any("optical-pumping" in w for w in high)


def test_validity_clean_at_fixture_analysis_frequencies():
    p = kp.PhysicalParams.from_mhz(
        kappa_mhz=5.0, gamma_perp_mhz=1.3, gamma_par_mhz=1.3, gamma_mhz=2.6,
        delta_mhz=-50.0, transmission=0.1, n_atoms=5e6,
        g_coupling_mhz=2.203230756026887e-06, eta_det=0.718)
    delta_c = -283.3151955708165 * 2 * math.pi * 1e6
    drive = kp.DriveField.from_power(7.0 * 8.681320413586838e+22)
    steady = kp.steady_states(p, drive, delta_c)[0]
    model = kp.build_drift_y(steady, p)
    for freq_mhz in (3.0, 6.0):
        assert kp.model_validity(model, p, 2 * math.pi * freq_mhz * 1e6) == []
