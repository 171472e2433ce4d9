"""Shared helpers: scaled-unit parameter factories and random stable draws.

Tests work in kappa = 1 units unless they exercise the MHz boundary; spectra
are scale invariant, so nothing is lost and everything is fast.
"""

import itertools
import math

import numpy as np
import pytest

import kerrpol as kp


def make_params(delta0=-8.0, kappa=1.0, gamma_perp=0.26, gamma_par=0.26,
                transmission=0.1, eta_det=0.718, g_coupling=1e-3,
                delta_factor=10.0):
    """Parameter set whose linear dephasing equals ``delta0`` exactly-ish.

    The atom number is solved from the dephasing formula; the detuning is
    placed at ``delta_factor * kappa`` with the sign required by ``delta0``.
    """
    gamma = gamma_perp + gamma_par
    delta = delta_factor * kappa * (1.0 if delta0 >= 0 else -1.0)
    if delta0 == 0.0:
        n_atoms = 0.0
    else:
        n_atoms = delta0 * delta * transmission / (2.0 * g_coupling ** 2 * kappa)
    return kp.PhysicalParams(
        kappa=kappa, gamma_perp=gamma_perp, gamma_par=gamma_par, gamma=gamma,
        delta=delta, transmission=transmission, n_atoms=n_atoms,
        g_coupling=g_coupling, eta_det=eta_det)


def steady_at(params, delta_c, s_target):
    """Steady state with saturation ``s_target`` (drive solved to match)."""
    c = kp.kerr_coefficient(params)
    intensity = s_target / c
    power = kp.drive_for_intensity(params, delta_c, intensity)
    branches = kp.steady_states(params, kp.DriveField.from_power(power), delta_c)
    return min(branches, key=lambda b: abs(b.intensity - intensity))


def draw_operating_point(rng, require_x_stable=False, margin_slack=0.05):
    """Random (params, steady) with a stable y-mode linearization.

    Rejection sampling keeps the stability margin below ``-margin_slack``
    (in kappa units) so spectra stay well conditioned.
    """
    while True:
        delta0 = float(rng.choice([-1.0, 1.0]) * rng.uniform(2.0, 30.0))
        s = float(rng.uniform(0.01, 0.5))
        chi = abs(delta0) * s / 2.0
        # place the effective y detuning outside the instability tongue
        floor = math.sqrt(max(0.0, chi ** 2 - (1.0 - margin_slack) ** 2))
        det_y = float(rng.choice([-1.0, 1.0])) * (floor + rng.uniform(0.05, 3.0))
        delta_c = delta0 * (1.0 - s) + det_y
        params = make_params(delta0=delta0)
        steady = steady_at(params, delta_c, s)
        if abs(steady.s_x - s) > 1e-6 * s:
            continue
        if steady.y_mode_margin >= -margin_slack:
            continue
        if require_x_stable:
            if (kp.build_drift_x(steady, params).stability_margin
                    >= -margin_slack):
                continue
        return params, steady


def squeezed_to_angle(target_theta, omega=0.6, s=0.15, delta0=-10.0):
    """Operating point whose squeezing angle at ``omega`` equals the target.

    The engine pins the angle through the operating point; scan the
    y-detuning for a sign change of the angle error, then bisect.  With
    chi = |delta0|*s/2 below kappa there is no instability tongue, so the
    sweep is connected and every angle is reachable.
    """
    p = make_params(delta0=delta0)
    chi = abs(delta0) * s / 2.0

    def at(det_y):
        delta_c = delta0 * (1.0 - s) + det_y
        steady = steady_at(p, delta_c, s)
        model = kp.build_drift_y(steady, p)
        _, _, theta_min = kp.min_max_spectrum(model, omega)
        return math.remainder(theta_min - target_theta, math.pi), steady, model

    grid = [d for d in np.linspace(-4.0, 4.0, 1601)
            if chi ** 2 - d ** 2 < 0.95]
    errs = ((d, at(d)[0]) for d in grid)   # lazy: stop at the first bracket
    bracket = None
    for (d1, e1), (d2, e2) in itertools.pairwise(errs):
        if e1 * e2 <= 0.0 and abs(e1) < 0.5 and abs(e2) < 0.5:
            bracket = (d1, d2, e1)
            break
    assert bracket is not None, "no angle crossing inside the stable window"
    lo, hi, e_lo = bracket
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        e_mid = at(mid)[0]
        if e_lo * e_mid <= 0.0:
            hi = mid
        else:
            lo, e_lo = mid, e_mid
    err, steady, model = at(0.5 * (lo + hi))
    assert abs(err) < 1e-6
    smin, _, _ = kp.min_max_spectrum(model, omega)
    assert smin < 0.97, "angle match found but squeezing too weak to test"
    return p, steady, model


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
