import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kerrpol as kp
from kerrpol import steady

import scan_reference
from scan_reference import (drive_for_intensity, steady_state_residual,
                            turning_points)
from stokes_reference import stokes_means
from conftest import make_params, steady_at


# ---------------------------------------------------------------------------
# independent oracles

def bracket_roots(coeffs, lo, hi, n=20001):
    """Dense-grid sign-change scan + bisection on the steady-state cubic."""
    a3, a2, a1, a0 = coeffs

    def f(x):
        return ((a3 * x + a2) * x + a1) * x + a0

    grid = np.linspace(lo, hi, n)
    vals = f(grid)
    roots = []
    for i in range(n - 1):
        va, vb = vals[i], vals[i + 1]
        if va == 0.0:
            roots.append(grid[i])
            continue
        if va * vb < 0.0:
            a, b = grid[i], grid[i + 1]
            for _ in range(200):
                m = 0.5 * (a + b)
                if f(a) * f(m) <= 0.0:
                    b = m
                else:
                    a = m
            roots.append(0.5 * (a + b))
    if vals[-1] == 0.0:
        roots.append(grid[-1])
    return roots


def cubic_discriminant(coeffs):
    a, b, c, d = coeffs
    return (18 * a * b * c * d - 4 * b ** 3 * d + b ** 2 * c ** 2
            - 4 * a * c ** 3 - 27 * a ** 2 * d ** 2)


# ---------------------------------------------------------------------------
# linear dephasing and saturation

def test_dephasing_no_atoms_is_zero():
    p = make_params(delta0=0.0)
    assert kp.linear_dephasing(p) == 0.0


def test_dephasing_linearity_and_oddness():
    base = dict(kappa=1.0, gamma_perp=0.26, gamma_par=0.26, gamma=0.52,
                transmission=0.1, g_coupling=1e-3, eta_det=1.0)
    p1 = kp.PhysicalParams(delta=-10.0, n_atoms=1e6, **base)
    p2 = kp.PhysicalParams(delta=-10.0, n_atoms=2e6, **base)
    p3 = kp.PhysicalParams(delta=+10.0, n_atoms=1e6, **base)
    assert kp.linear_dephasing(p2) == pytest.approx(2 * kp.linear_dephasing(p1), rel=1e-15)
    assert kp.linear_dephasing(p3) == pytest.approx(-kp.linear_dephasing(p1), rel=1e-15)


def test_dephasing_arithmetic_against_independent_evaluation():
    # N=1e6, g=2pi*30 kHz, kappa=2pi*5 MHz, delta=-2pi*50 MHz, T=0.10
    two_pi = 2 * math.pi
    p = kp.PhysicalParams(
        kappa=two_pi * 5e6, gamma_perp=two_pi * 1.3e6, gamma_par=two_pi * 1.3e6,
        gamma=two_pi * 1.3e6 + two_pi * 1.3e6, delta=-two_pi * 50e6,
        transmission=0.10, n_atoms=1e6, g_coupling=two_pi * 30e3, eta_det=1.0)
    # independent re-evaluation, spelled out digit by digit
    expected = (2.0 * 1e6 * (two_pi * 30e3) ** 2 * (two_pi * 5e6)
                / (-two_pi * 50e6 * 0.10))
    assert kp.linear_dephasing(p) == pytest.approx(expected, rel=1e-15)
    assert kp.linear_dephasing(p) < 0.0


def test_dephasing_zero_detuning_rejected():
    p = make_params(delta0=-8.0)
    broken = kp.PhysicalParams(
        kappa=p.kappa, gamma_perp=p.gamma_perp, gamma_par=p.gamma_par,
        gamma=p.gamma, delta=0.0, transmission=p.transmission,
        n_atoms=p.n_atoms, g_coupling=p.g_coupling, eta_det=p.eta_det)
    with pytest.raises(kp.ValidationError):
        kp.linear_dephasing(broken)
    with pytest.raises(kp.ValidationError):
        kp.saturation(1.0, broken)


def test_saturation_zero_field_and_scaling():
    p = make_params(delta0=-8.0)
    assert kp.saturation(0j, p) == 0.0
    s1 = kp.saturation(2.0 + 1.0j, p)
    s2 = kp.saturation((2.0 + 1.0j) * (3.0 - 4.0j), p)
    assert s2 == pytest.approx(25.0 * s1, rel=1e-12)
    assert s1 >= 0.0


def test_saturation_envelope_for_microwatt_scale_drive():
    # the committed operating regime: few-microwatt drive lands the
    # saturation inside the working window (0.01, 0.5) on a stable branch
    p = kp.PhysicalParams.from_mhz(
        kappa_mhz=5.0, gamma_perp_mhz=1.3, gamma_par_mhz=1.3, gamma_mhz=2.6,
        delta_mhz=-50.0, transmission=0.1, n_atoms=5e6,
        g_coupling_mhz=2.203230756026887e-06, eta_det=0.718)
    flux_per_uw = 8.681320413586838e+22
    delta_c = -283.3151955708165 * 2 * math.pi * 1e6
    for power_uw in (5.0, 10.0, 15.0):
        drive = kp.DriveField.from_power(power_uw * flux_per_uw)
        branches = kp.steady_states(p, drive, delta_c)
        s_values = [b.s_x for b in branches if b.mean_field_stable]
        assert any(0.01 < s < 0.5 for s in s_values)


# ---------------------------------------------------------------------------
# steady states

def test_zero_drive_single_trivial_branch():
    p = make_params(delta0=-8.0)
    branches = kp.steady_states(p, kp.DriveField(alpha_in=0j), delta_c=-5.0)
    assert len(branches) == 1
    b = branches[0]
    assert b.alpha_x == 0j and b.s_x == 0.0
    assert b.mean_field_stable and b.y_mode_margin == pytest.approx(-p.kappa)


def test_weak_drive_matches_linear_lorentzian():
    p = make_params(delta0=-8.0)
    d0 = kp.linear_dephasing(p)
    c = kp.kerr_coefficient(p)
    for delta_c in (d0 - 2.0, d0, d0 + 1.0, d0 + 3.0):
        # keep the nonlinear shift tiny: delta0 * s << kappa
        power = 1e-5 / c
        branches = kp.steady_states(p, kp.DriveField.from_power(power), delta_c)
        assert len(branches) == 1
        linear = 2.0 * p.kappa * power / (p.kappa ** 2 + (delta_c - d0) ** 2)
        assert branches[0].intensity == pytest.approx(linear, rel=1e-2)


def test_bistable_regime_roots_match_bracketing_oracle(rng):
    hits = 0
    for _ in range(100):
        delta0 = float(rng.choice([-1.0, 1.0]) * rng.uniform(4.0, 30.0))
        p = make_params(delta0=delta0)
        dl = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 6.0))
        delta_c = delta0 + (-math.copysign(1.0, delta0)) * abs(dl)
        c = kp.kerr_coefficient(p)
        power = float(rng.uniform(0.05, 6.0)) / c * abs(delta0) ** -1
        drive = kp.DriveField.from_power(power)
        branches = kp.steady_states(p, drive, delta_c)

        coeffs = kp.steady.cubic_coefficients(p, power, delta_c)
        hi = 4.0 * max(b.intensity for b in branches) + 10.0 / c
        oracle = bracket_roots(coeffs, 0.0, hi)
        assert len(branches) == len(oracle)
        for b, r in zip(branches, oracle):
            assert b.intensity == pytest.approx(r, rel=1e-7)
        hits += len(branches) == 3
    assert hits >= 5  # the draw box must actually cover bistable cases


def test_three_branches_between_turning_points():
    p = make_params(delta0=-8.0)
    delta_c = kp.linear_dephasing(p) + 3.0
    (i_lo, p_hi), (i_hi, p_lo) = turning_points(p, delta_c)
    power = 0.5 * (p_lo + p_hi)
    branches = kp.steady_states(p, kp.DriveField.from_power(power), delta_c)
    assert len(branches) == 3
    assert [b.branch_index for b in branches] == [0, 1, 2]
    assert branches[0].intensity < branches[1].intensity < branches[2].intensity
    # middle branch is the negative-slope one
    assert branches[0].mean_field_stable
    assert not branches[1].mean_field_stable
    assert branches[2].mean_field_stable


@settings(max_examples=300, deadline=None)
@given(delta0=st.floats(2.0, 30.0), sign=st.sampled_from([-1.0, 1.0]),
       dl=st.floats(1.01 * math.sqrt(3.0), 30.0), low_fold=st.booleans(),
       eps=st.floats(1e-6, 1e-2))
def test_cubic_roots_near_the_folds(delta0, sign, dl, low_fold, eps):
    # drive just inside and just outside one fold of the bistable window
    delta0 *= sign
    p = make_params(delta0=delta0)
    delta_c = kp.linear_dephasing(p) - sign * dl   # the fold side
    (_, p_hi), (_, p_lo) = turning_points(p, delta_c)
    # near the cusp the window is narrower than eps: stay inside it
    eps_in = min(eps, 0.25 * (p_hi - p_lo) / p_hi)
    if low_fold:
        drives = ((p_lo * (1.0 + eps_in), 3), (p_lo * (1.0 - eps), 1))
    else:
        drives = ((p_hi * (1.0 - eps_in), 3), (p_hi * (1.0 + eps), 1))
    for power, count in drives:
        branches = kp.steady_states(p, kp.DriveField.from_power(power),
                                    delta_c)
        assert len(branches) == count
        for b in branches:
            bound = (kp.steady.RESIDUAL_RTOL * math.sqrt(2.0 * p.kappa)
                     * abs(b.alpha_in))
            assert steady_state_residual(b, p) <= bound
            assert abs(b.alpha_in) ** 2 == pytest.approx(power, rel=1e-9)


def test_residual_invariant_on_random_draws(rng):
    for _ in range(50):
        delta0 = float(rng.choice([-1.0, 1.0]) * rng.uniform(2.0, 30.0))
        p = make_params(delta0=delta0)
        delta_c = delta0 + float(rng.uniform(-6.0, 6.0))
        power = float(rng.uniform(0.01, 4.0)) / kp.kerr_coefficient(p)
        drive = kp.DriveField.from_power(power)
        for b in kp.steady_states(p, drive, delta_c):
            bound = 1e-9 * math.sqrt(2.0 * p.kappa) * abs(b.alpha_in)
            assert steady_state_residual(b, p) <= bound
            assert b.s_x == kp.saturation(b.alpha_x, p)
            assert abs(b.alpha_in) ** 2 == pytest.approx(power, rel=1e-6)


# ---------------------------------------------------------------------------
# turning points

def test_turning_points_empty_when_monostable():
    p = make_params(delta0=-8.0)
    d0 = kp.linear_dephasing(p)
    assert turning_points(p, d0 + 1.0) == []     # |dl| < sqrt(3)
    assert turning_points(p, d0 - 3.0) == []     # wrong fold side
    assert turning_points(make_params(delta0=0.0), 2.0) == []


def test_turning_points_match_brute_force_extrema():
    p = make_params(delta0=-8.0)
    delta_c = kp.linear_dephasing(p) + 3.0
    points = turning_points(p, delta_c)
    assert len(points) == 2

    c = kp.kerr_coefficient(p)
    grid = np.linspace(1e-6, 8.0 / (c * abs(kp.linear_dephasing(p))), 400001)
    power = np.array([drive_for_intensity(p, delta_c, i) for i in grid])
    dp = np.diff(power)
    crossings = np.nonzero(np.sign(dp[1:]) != np.sign(dp[:-1]))[0] + 1
    assert len(crossings) == 2
    for (i_tp, p_tp), k in zip(points, sorted(grid[crossings])):
        assert i_tp == pytest.approx(k, rel=1e-3)
    for i_tp, p_tp in points:
        assert p_tp == pytest.approx(
            drive_for_intensity(p, delta_c, i_tp), rel=1e-12)


def test_turning_points_merge_at_bistability_onset():
    p = make_params(delta0=-8.0)
    d0 = kp.linear_dephasing(p)
    gaps = []
    for dl in (3.0, 2.2, 1.9, math.sqrt(3.0) + 1e-4):
        pts = turning_points(p, d0 + dl)
        assert len(pts) == 2
        gaps.append(pts[1][0] - pts[0][0])
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.02 * gaps[0]

    # the merge coincides with the cubic's discriminant changing sign at the
    # critical drive
    for dl, expect_fold in ((math.sqrt(3.0) + 0.05, True),
                            (math.sqrt(3.0) - 0.05, False)):
        delta_c = d0 + dl
        pts = turning_points(p, delta_c)
        assert bool(pts) is expect_fold
        if pts:
            p_mid = 0.5 * (pts[0][1] + pts[1][1])
            disc = cubic_discriminant(
                kp.steady.cubic_coefficients(p, p_mid, delta_c))
            assert disc > 0.0
        else:
            disc = cubic_discriminant(
                kp.steady.cubic_coefficients(
                    p, drive_for_intensity(p, delta_c, 2.0 / abs(
                        kp.kerr_coefficient(p) * d0)), delta_c))
            assert disc < 0.0


# ---------------------------------------------------------------------------
# orthogonal-mode stability

@settings(max_examples=200, deadline=None)
@given(delta0=st.floats(2.0, 30.0), sign=st.sampled_from([-1.0, 1.0]),
       s=st.floats(0.01, 0.5), det_y=st.floats(-8.0, 8.0))
def test_branch_flags_equal_model_margins(delta0, sign, s, det_y):
    # operating points drawn like draw_operating_point, without its
    # stability rejection: det_y spans the y-mode instability tongue and the
    # drive at s can be bistable, so both flags take both values
    delta0 *= sign
    params = make_params(delta0=delta0)
    delta_c = delta0 * (1.0 - s) + det_y
    power = drive_for_intensity(params, delta_c,
                                s / kp.kerr_coefficient(params))
    drive = kp.DriveField.from_power(power)
    for steady in kp.steady_states(params, drive, delta_c):
        model_x = kp.build_drift_x(steady, params)
        model_y = kp.build_drift_y(steady, params)
        assert steady.mean_field_stable == model_x.is_stable
        assert steady.y_mode_margin == model_y.stability_margin
        # each model's margin is the closed form on the branch's own fields
        for mode, model in (("x", model_x), ("y", model_y)):
            assert model.stability_margin == kp.steady.drift_margin(
                params.kappa, *kp.steady.linearized_drift(
                    mode, params.kappa, steady.delta_c, steady.delta_0,
                    steady.s_x))


def test_y_margin_without_saturation_is_minus_kappa():
    p = make_params(delta0=-8.0)
    b = kp.steady_states(p, kp.DriveField(alpha_in=0j), delta_c=-4.0)[0]
    assert kp.build_drift_y(b, p).stability_margin == pytest.approx(-p.kappa)


def test_y_margin_zero_at_threshold_boundary():
    # chi^2 - det_y^2 = kappa^2 exactly: margin must vanish
    p = make_params(delta0=-10.0)
    s = 0.3
    chi = abs(kp.linear_dephasing(p)) * s / 2.0
    det_y = math.sqrt(chi ** 2 - p.kappa ** 2)
    delta_c = kp.linear_dephasing(p) * (1.0 - s) + det_y
    steady = steady_at(p, delta_c, s)
    assert abs(steady.s_x - s) < 1e-9
    assert abs(kp.build_drift_y(steady, p).stability_margin) <= 1e-9 * p.kappa


def test_y_margin_matches_numerical_eigenvalues(rng):
    for _ in range(100):
        delta0 = float(rng.choice([-1.0, 1.0]) * rng.uniform(2.0, 30.0))
        p = make_params(delta0=delta0)
        s = float(rng.uniform(0.0, 0.5))
        delta_c = delta0 + float(rng.uniform(-8.0, 8.0))
        steady = steady_at(p, delta_c, s) if s > 0 else \
            kp.steady_states(p, kp.DriveField(alpha_in=0j), delta_c)[0]
        model = kp.build_drift_y(steady, p)
        eig_margin = float(np.max(np.linalg.eigvals(model.drift_matrix).real))
        closed = model.stability_margin
        assert closed == pytest.approx(eig_margin, rel=1e-9, abs=1e-9)


def test_squares_are_correctly_rounded_products():
    # C pow rounds x ** 2 one ulp off on about one float in 1,300, where the
    # product x * x is correctly rounded; floats and one-element arrays must
    # both give the product's bits
    draws = np.random.default_rng(24).uniform(0.5, 2.0, 20_000).tolist()
    misrounded = [x for x in draws if x ** 2 != x * x]
    if not misrounded:
        pytest.skip("x ** 2 is correctly rounded on this platform")
    # powers of two keep 2 g^2 / delta^2 exact, so a misrounded square shows
    p = replace(make_params(), g_coupling=0.5, delta=-2.0)
    kappa = p.kappa
    state = kp.SteadyState(0j, 0.0, 0.0, 0.0, 0, True, -kappa, 0j)
    for x in misrounded[:8]:
        # |m11.imag| just below |m12|: the radicand cancels, so one ulp of
        # x * x moves the margin by far more than one ulp of kappa
        y = x * (1.0 - 2.0 ** -20)
        m11, m12 = complex(-kappa, y), complex(x, 0.0)
        for value, column, product in (
                (kp.saturation(x, p), kp.saturation(np.array([x]), p),
                 2.0 * 0.25 * (x * x) / 4.0),
                (kp.steady.drift_margin(kappa, m11, m12),
                 kp.steady.drift_margin(kappa, np.array([m11]),
                                        np.array([m12])),
                 -kappa + math.sqrt(x * x - y * y)),
                (replace(state, alpha_x=complex(x)).intensity,
                 replace(state, alpha_x=np.array([complex(x)])).intensity,
                 x * x)):
            assert type(value) is float
            assert column.tolist() == [value]
            assert value == product
    for x in misrounded:
        # the mean Stokes intensity and the drive flux square the same way
        intensity = replace(state, alpha_x=complex(x)).intensity
        assert stokes_means(complex(x))[0] == intensity == x * x
        assert kp.DriveField(alpha_in=complex(x)).power == x * x


# ---------------------------------------------------------------------------
# cavity scan

def test_scan_without_atoms_reproduces_lorentzian():
    p = make_params(delta0=0.0)
    power = 3.7
    grid = np.linspace(-6.0, 6.0, 241)
    scan = kp.cavity_scan(p, kp.DriveField.from_power(power), grid)
    intensity = scan.selected_intensity()
    lorentz = 2.0 * p.kappa * power / (p.kappa ** 2 + grid ** 2)
    assert np.allclose(intensity, lorentz, rtol=1e-12)
    assert scan.n_branches.tolist() == [1] * grid.size
    assert scan.linear_polarization_stable.all()
    # each circular component carries half the output flux 2*kappa*I
    assert np.array_equal(scan.transmitted_intensity(),
                          0.5 * (2.0 * p.kappa * intensity))


def test_weak_drive_scan_symmetric_and_stable():
    p = make_params(delta0=-8.0)
    d0 = kp.linear_dephasing(p)
    c = kp.kerr_coefficient(p)
    grid = np.linspace(d0 - 5.0, d0 + 5.0, 201)
    scan = kp.cavity_scan(p, kp.DriveField.from_power(1e-4 / c), grid)
    intensity = scan.selected_intensity()
    assert scan.linear_polarization_stable.all()
    assert scan.n_branches.tolist() == [1] * grid.size
    # peak centered on the dressed resonance, symmetric within the tiny shift
    peak = grid[np.argmax(intensity)]
    assert abs(peak - d0) < 0.1


def test_strong_drive_scan_jumps_at_lower_branch_fold():
    p = make_params(delta0=-8.0)
    d0 = kp.linear_dephasing(p)
    c = kp.kerr_coefficient(p)
    power = 1.2 / (c * abs(d0))
    grid = np.linspace(d0 - 6.0, d0 + 6.0, 2401)
    scan = kp.cavity_scan(p, kp.DriveField.from_power(power), grid)
    intensity = scan.selected_intensity()
    jumps = np.nonzero(np.abs(np.diff(intensity))
                       > 10.0 * np.median(np.abs(np.diff(intensity))) + 1e-9)[0]
    assert jumps.size >= 1
    k = int(jumps[np.argmax(np.abs(np.diff(intensity))[jumps])])
    delta_jump = float(scan.delta_c[k])
    # at the jump detuning the disappearing branch sits at a fold whose drive
    # matches the applied drive
    pts = turning_points(p, delta_jump)
    assert pts, "no fold at the jump detuning"
    closest = min(abs(pw - power) / power for _, pw in pts)
    grid_step = float(grid[1] - grid[0])
    neighbors = turning_points(p, delta_jump + grid_step)
    tol = max(closest, min(abs(pw - power) / power for _, pw in neighbors))
    assert tol < 0.02
    # the followed intensity right before the jump is near the fold intensity
    i_before = float(intensity[k])
    fold_i = min(pts, key=lambda t: abs(t[0] - i_before))[0]
    assert i_before == pytest.approx(fold_i, rel=0.05)


def test_scan_flags_polarization_instability_interval():
    # strong red-detuned drive: the orthogonal mode crosses threshold on the
    # high-intensity side, the analogue of switching in a scan
    p = make_params(delta0=-8.0)
    d0 = kp.linear_dephasing(p)
    c = kp.kerr_coefficient(p)
    power = 3.0 / (c * abs(d0))
    grid = np.linspace(d0 - 8.0, d0 + 8.0, 1601)
    drive = kp.DriveField.from_power(power)
    scan = kp.cavity_scan(p, drive, grid)
    flags = scan.linear_polarization_stable
    assert flags.any() and (~flags).any()
    # the selected branch's margin, from the one-point solve at each row
    margins = np.array([kp.steady_states(p, drive, d)[j].y_mode_margin
                        for d, j in zip(scan.delta_c.tolist(),
                                        scan.selected_branch.tolist())])
    assert np.array_equal(flags, margins < 0.0)


def test_scan_rejects_non_monotone_grid():
    p = make_params(delta0=-8.0)
    with pytest.raises(kp.ValidationError):
        kp.cavity_scan(p, kp.DriveField.from_power(1.0),
                       np.array([0.0, 1.0, 0.5]))


OVERFLOWS = "cubic overflows"
UNDERFLOWS = "delta \\* transmission underflows"
NO_ROOT = "no finite positive root"


@pytest.mark.parametrize("changes, power, grid, match", [
    ({"n_atoms": 1e300}, 1.0, [0.0, 1.0], OVERFLOWS),
    ({}, 1e300, [1e200, 2e200], OVERFLOWS),            # drive at 1e200
    ({}, 1.0, [0.0, 1e160], OVERFLOWS),                # one scan point
    ({"delta": 1e-150, "transmission": 1e-180}, 1.0, [0.0, 1.0], UNDERFLOWS),
    # roots 1e-280 and 1e146 apart: q^1.5 overflows, the weak one is lost
    ({}, 1.0, [0.0, 1e140], NO_ROOT),
], ids=["n_atoms", "drive", "scan_point", "dephasing_underflow",
        "root_spread"])
def test_unformable_cubic_raises_numerical_error(changes, power, grid, match):
    # a squared coefficient overflows to inf, or the dephasing divides by
    # zero; library callers get the package's own error from both entry points
    p = replace(make_params(delta0=-8.0), **changes)
    drive = kp.DriveField.from_power(power)
    with pytest.raises(kp.NumericalError, match=match):
        kp.cavity_scan(p, drive, np.array(grid))
    with pytest.raises(kp.NumericalError, match=match):
        kp.steady_states(p, drive, grid[-1])


# ---------------------------------------------------------------------------
# the batched cubic solve against the per-point one

def per_point_roots(coeffs):
    """One point solved by np.roots (companion-matrix eigenvalues), then up
    to three Newton steps per real root, sort, merge."""
    a3, a2, a1, a0 = coeffs
    if a0 == 0.0:
        return [0.0]
    raw = np.roots([a3, a2, a1, a0])
    scale = max(abs(r) for r in raw)
    polished = []
    for r in [float(r.real) for r in raw
              if abs(r.imag) <= 1e-9 * max(scale, 1.0) and r.real > 0.0]:
        for _ in range(3):
            d = (3.0 * a3 * r + 2.0 * a2) * r + a1
            if d == 0.0:
                break
            step = (((a3 * r + a2) * r + a1) * r + a0) / d
            r -= step
            if abs(step) <= 1e-16 * abs(r):
                break
        polished.append(r)
    merged = []
    for r in sorted(polished):
        if merged and abs(r - merged[-1]) <= kp.steady.MERGE_RTOL * max(
                abs(r), abs(merged[-1])):
            continue
        merged.append(r)
    return merged


# the cubic's roots agree with exact ones, and with np.roots, to this
ROOT_RTOL = 1e-12

# a drive inside the bistable window of the detuning delta_c, and the
# degenerate cubics of an empty cavity (degree 1) and of zero drive (the
# root 0) at the same detuning, on a grid of n points across it
CUBIC_CASES = dict(
    delta0=st.floats(2.0, 30.0), sign=st.sampled_from([-1.0, 1.0]),
    dl=st.floats(1.01 * math.sqrt(3.0), 30.0), inside=st.floats(0.05, 0.95),
    width=st.floats(1.0, 80.0), n=st.integers(2, 300),
    case=st.sampled_from(["fold", "no atoms", "no drive"]))


def cubic_case(delta0, sign, dl, inside, width, n, case):
    """(params, power, grid, delta_c) of one drawn ``CUBIC_CASES`` case."""
    delta0 *= sign
    p = make_params(delta0=delta0)
    delta_c = kp.linear_dephasing(p) - sign * dl
    (_, p_hi), (_, p_lo) = turning_points(p, delta_c)
    power = p_lo + inside * (p_hi - p_lo)
    if case == "no atoms":
        p = make_params(delta0=0.0)
    elif case == "no drive":
        power = 0.0
    return p, power, np.linspace(delta_c - width, delta_c + width, n), delta_c


@settings(max_examples=150, deadline=None)
@given(**CUBIC_CASES)
def test_batched_roots_equal_the_per_point_solve(case, **draw):
    # the grid plus the window's centre detuning
    p, power, grid, delta_c = cubic_case(case=case, **draw)
    grid = np.append(grid, delta_c)
    padded = kp.steady._real_roots(p, power, grid)
    assert padded.shape == (grid.size, 3)
    # each row: 1-3 roots in ascending order, then NaN only
    present = ~np.isnan(padded)
    counts = present.sum(axis=1)
    assert ((counts >= 1) & (counts <= 3)).all()
    assert (present == (np.arange(3) < counts[:, None])).all()
    batched = [row[~np.isnan(row)].tolist() for row in padded]
    assert all(roots == sorted(roots) for roots in batched)
    # the closed form and the eigenvalues both polish to the last few bits
    for roots, point in zip(batched, grid.tolist()):
        expected = per_point_roots(
            kp.steady.cubic_coefficients(p, power, point))
        assert len(roots) == len(expected)
        assert np.allclose(roots, expected, rtol=ROOT_RTOL, atol=0.0)
    if case == "fold":
        assert len(batched[-1]) == 3
    else:
        assert all(len(roots) == 1 for roots in batched)
    # the scan holds the same rows, bit for bit, at its drive's power (the
    # flux of sqrt(power) may differ from power in the last bit)
    drive = kp.DriveField.from_power(power)
    scan = kp.cavity_scan(p, drive, grid[:-1])
    assert bits(scan.roots) == bits(
        kp.steady._real_roots(p, drive.power, grid)[:-1])


def exact_roots(mpmath, coeffs, digits=40):
    """Real non-negative roots of the float coefficients, to ``digits``
    digits and then rounded, merged as ``_real_roots`` merges them."""
    if coeffs[-1] == 0.0:                       # no drive
        return [0.0]
    poly = list(coeffs)
    while poly[0] == 0.0:                       # no atoms: a line
        del poly[0]
    with mpmath.workdps(digits):
        found = mpmath.polyroots(poly, maxsteps=500, extraprec=500)
        real = sorted(float(z.real) for z in map(mpmath.mpc, found)
                      if abs(z.imag) <= mpmath.mpf(10) ** -30 * abs(z)
                      and z.real > 0)
    merged = []
    for r in real:
        if not merged or abs(r - merged[-1]) > kp.steady.MERGE_RTOL * max(
                abs(r), abs(merged[-1])):
            merged.append(r)
    return merged


@settings(max_examples=40, deadline=None)
@given(**CUBIC_CASES)
def test_closed_form_roots_match_the_exact_roots(case, **draw):
    # every root of the closed form and its polish lies within ROOT_RTOL of
    # an exact root of the same float coefficients, and none is missing;
    # a dozen rows across the grid, and the window's centre
    mpmath = pytest.importorskip("mpmath")
    p, power, grid, delta_c = cubic_case(case=case, **draw)
    rows = np.append(grid[np.linspace(0, grid.size - 1, 12).astype(int)],
                     delta_c)
    for row, point in zip(kp.steady._real_roots(p, power, rows),
                          rows.tolist()):
        roots = row[~np.isnan(row)].tolist()
        exact = exact_roots(mpmath, kp.steady.cubic_coefficients(
            p, power, point))
        assert len(roots) == len(exact)
        for root, want in zip(roots, exact):
            assert abs(root - want) <= ROOT_RTOL * abs(want)
    if case == "fold":                  # the centre, the last row
        assert len(roots) == 3


@pytest.mark.parametrize("power", [1e-200, 1e-6, 1.0, 1e150, 1e280])
def test_closed_form_roots_at_extreme_drives(power):
    # roots from about 1e-201, far below the complex pair, to 1e95, whose
    # r^2 or q^3 would overflow: each matches an exact root
    mpmath = pytest.importorskip("mpmath")
    p = make_params(delta0=-8.0)
    grid = kp.linear_dephasing(p) + np.array([-6.0, -1.0, 0.0, 6.0])
    rtol = [ROOT_RTOL] * 3
    if power == 1.0:
        # at +/-1e52 three real roots: one near 2e-104, far below two near
        # +/-6.25e58 that lie 1.7e-8 apart, so merge, and whose conditioning
        # is sqrt(eps): those match to the merge tolerance
        grid = np.array([1e52, -1e52])
        rtol[1:] = [kp.steady.MERGE_RTOL] * 2
    padded = kp.steady._real_roots(p, power, grid)
    for row, point in zip(padded, grid.tolist()):
        roots = row[~np.isnan(row)].tolist()
        exact = exact_roots(mpmath, kp.steady.cubic_coefficients(
            p, power, point), digits=300)     # roots 200 decades apart
        assert len(roots) == len(exact) >= 1
        for root, want, tol in zip(roots, exact, rtol):
            assert abs(root - want) <= tol * abs(want)


def test_cubic_roots_of_exact_cubics():
    # the closed forms before any polish: three real roots (Viète), one
    # real root and a complex pair, written as 0 (Cardano), and the triple
    # root of (x + 1)^3, where q = r = 0 and Cardano's u is 0
    cases = [((-2.0, 11.0, -6.0), [1.0, 2.0, 3.0]),
             ((-1.0 / 3.0, 1.0, -1.0), [0.0, 0.0, 1.0]),
             ((1.0, 3.0, 1.0), [-1.0, -1.0, -1.0])]
    with np.errstate(all="ignore"):     # as in _real_roots
        for (shift, c, d), want in cases:
            got = kp.steady._cubic_roots(np.array([[shift]]), np.array([[c]]),
                                         d)
            assert np.allclose(np.sort(got[0]), want, rtol=0.0, atol=1e-14)


def test_a_slope_whose_square_underflows_solves_the_line():
    # so few atoms that a3 = slope^2 underflows and a2 does not: the root of
    # the line a1*I + a0, the empty cavity's to rounding, and no other
    p = make_params(delta0=-8.0)
    few = replace(p, n_atoms=p.n_atoms * 1e-170)
    a3, a2, _, _ = kp.steady.cubic_coefficients(few, 1.0, 5.0)
    assert a3 == 0.0 and a2 != 0.0
    grid = np.array([-5.0, 0.0, 5.0])
    roots = kp.steady._real_roots(few, 1.0, grid)
    empty = kp.steady._real_roots(replace(p, n_atoms=0.0), 1.0, grid)
    assert np.isnan(roots[:, 1:]).all() and np.isnan(empty[:, 1:]).all()
    assert np.allclose(roots[:, 0], empty[:, 0], rtol=1e-15, atol=0.0)


# ---------------------------------------------------------------------------
# the columnar scan against the per-record one

def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def assert_scan_equals_reference(scan, reference, drive):
    """Columns of ``scan``, and ``steady_states`` at a few of its rows,
    equal the reference's bits."""
    n = len(reference)
    assert scan.delta_c.shape == scan.n_branches.shape == (n,)
    assert bits(scan.delta_c) == bits([r.delta_c for r in reference])
    counts = [len(r.branches) for r in reference]
    # the one-point solve at the first, middle and last rows and at the
    # first row with three roots; repr tells every float's bits and type
    # apart, -0.0 from 0.0 included
    rows = {0, n // 2, n - 1, *[i for i, c in enumerate(counts) if c == 3][:1]}
    for i in sorted(rows):
        r = reference[i]
        assert repr(kp.steady_states(scan.params, drive, r.delta_c)) == repr(
            list(r.branches))
    assert scan.n_branches.tolist() == counts
    present = np.arange(3) < np.array(counts)[:, None]
    for column, value, pad in (
            (scan.intensity, lambda b: b.intensity, np.nan),
            (np.sqrt(scan.roots), lambda b: b.alpha_x.real, np.nan),
            (scan.y_mode_margin, lambda b: b.y_mode_margin, np.nan),
            (scan.mean_field_stable, lambda b: b.mean_field_stable, False)):
        assert column.shape == (n, 3)
        want = [value(b) for r in reference for b in r.branches]
        assert bits(column[present]) == bits(want)
        assert bits(column[~present]) == bits(np.full((~present).sum(), pad))
    assert scan.selected_branch.tolist() == [r.selected_branch
                                             for r in reference]
    assert scan.linear_polarization_stable.tolist() == [
        r.linear_polarization_stable for r in reference]
    assert bits(scan.selected_intensity()) == bits(
        [r.branches[r.selected_branch].intensity for r in reference])
    assert bits(scan.transmitted_intensity()) == bits(
        [r.transmitted_intensity_plus for r in reference])


@settings(max_examples=100, deadline=None)
@given(descending=st.booleans(), **CUBIC_CASES)
def test_columnar_scan_equals_the_per_record_scan(descending, case, **draw):
    # both directions of traversal across the bistable window, and the
    # degenerate grids
    p, power, grid, _ = cubic_case(case=case, **draw)
    grid = grid[::-1] if descending else grid
    drive = kp.DriveField.from_power(power)
    assert_scan_equals_reference(kp.cavity_scan(p, drive, grid),
                                 scan_reference.cavity_scan(p, drive, grid),
                                 drive)


def thresholds(p, drive, grid, unstable):
    """Detunings, adjacent floats apart, between which ``unstable(branches)``
    of the one-point solve changes, one per change along ``grid``."""
    flags = [unstable(kp.steady_states(p, drive, d)) for d in grid.tolist()]
    found = []
    for lo, hi, flag in zip(grid.tolist(), grid[1:].tolist(), flags):
        if unstable(kp.steady_states(p, drive, hi)) == flag:
            continue
        while np.nextafter(lo, hi) != hi:
            mid = 0.5 * (lo + hi)
            if unstable(kp.steady_states(p, drive, mid)) == flag:
                lo = mid
            else:
                hi = mid
        found.append(lo)
    return found


@pytest.mark.parametrize("mode", ["x", "y"])
@pytest.mark.parametrize("delta0", [-8.0, 8.0])
def test_scan_flags_at_the_stability_thresholds(mode, delta0):
    # detunings a few ulp either side of where a mode's margin crosses zero:
    # the driven mode's at the folds, the orthogonal mode's at its
    # oscillation threshold on the upper branch; the columnar flags equal
    # the scalar margin's sign, branch by branch
    p = make_params(delta0=delta0)
    d0, kappa = kp.linear_dephasing(p), p.kappa
    drive = kp.DriveField.from_power(3.0 / (kp.kerr_coefficient(p) * abs(d0)))
    if mode == "x":
        unstable = lambda branches: not all(b.mean_field_stable
                                            for b in branches)
    else:
        unstable = lambda branches: branches[-1].y_mode_margin >= 0.0
    points = thresholds(p, drive, np.linspace(d0 - 8.0, d0 + 8.0, 161),
                        unstable)
    assert len(points) >= 2
    closest = math.inf
    for point in points:
        grid = [point]
        for _ in range(8):
            grid = [np.nextafter(grid[0], -np.inf), *grid,
                    np.nextafter(grid[-1], np.inf)]
        scan = kp.cavity_scan(p, drive, np.array(grid))
        assert_scan_equals_reference(
            scan, scan_reference.cavity_scan(p, drive, np.array(grid)), drive)
        flipped = set()
        for i, delta_c in enumerate(scan.delta_c.tolist()):
            flags = []
            for j in range(scan.n_branches[i]):
                s = kp.saturation(math.sqrt(scan.roots[i, j]), p)
                margin = kp.steady.drift_margin(kappa, *kp.steady.linearized_drift(
                    mode, kappa, delta_c, d0, s))
                assert type(margin) is float
                column = (scan.mean_field_stable[i, j] if mode == "x"
                          else scan.y_mode_margin[i, j] < 0.0)
                assert column == (margin < 0.0)
                flags.append(margin < 0.0)
                closest = min(closest, abs(margin))
            flipped.add(tuple(flags))
        assert len(flipped) >= 2     # the grid straddles the threshold
    # the y margin crosses zero within rounding; the x margin at a fold
    # only to where the merged roots part
    assert closest <= (1e-6 if mode == "x" else 1e-12) * kappa


def test_scan_blocks_carry_the_continuation(monkeypatch):
    # the scan solves and continues SCAN_BLOCK rows at a time; with a small
    # block the bistable window spans block boundaries, and the branch the
    # continuation follows across each, up the window and down it, must be
    # the per-record scan's
    p = make_params(delta0=-8.0)
    d0 = kp.linear_dephasing(p)
    power = 1.2 / (kp.kerr_coefficient(p) * abs(d0))
    drive = kp.DriveField.from_power(power)
    grids = (np.linspace(d0 - 6.0, d0 + 6.0, 2401),
             np.linspace(d0 + 6.0, d0 - 6.0, 2401))
    references = [scan_reference.cavity_scan(p, drive, g) for g in grids]
    for block in 1, 7, 64, 100:
        monkeypatch.setattr(steady, "SCAN_BLOCK", block)
        picked = []
        for grid, reference in zip(grids, references):
            scan = kp.cavity_scan(p, drive, grid)
            three = scan.n_branches == 3
            assert (three[block - 1:-1:block] & three[block::block]).any()
            assert_scan_equals_reference(scan, reference, drive)
            picked.append(dict(zip(grid[three].tolist(),
                                   scan.selected_branch[three].tolist())))
        # hysteresis: the two directions follow different branches
        assert any(picked[1][d] != j for d, j in picked[0].items())


def test_scan_memory_is_bounded_by_the_block():
    # numpy reports its buffers to tracemalloc: the scan solves SCAN_BLOCK
    # rows at a time, so the peak of an 8,000-row scan across the bistable
    # window, above the columns it returns, is one block's solve
    # temporaries (about 0.8 MB at 2,048 rows), not the whole grid's (about
    # 2.9 MB in one block)
    p = make_params(delta0=-8.0)
    d0 = kp.linear_dephasing(p)
    drive = kp.DriveField.from_power(1.2 / (kp.kerr_coefficient(p) * abs(d0)))
    grid = np.linspace(d0 - 6.0, d0 + 6.0, 8000)
    kp.cavity_scan(p, drive, grid)
    tracemalloc.start()
    try:
        scan = kp.cavity_scan(p, drive, grid)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (scan.n_branches == 3).any() and (scan.n_branches == 1).any()
    assert peak - held < 2 ** 21
