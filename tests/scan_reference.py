"""Per-record reference for the columnar cavity scan.

One frozen ``SteadyState`` per branch and one ``ScanRecord`` per detuning,
built one at a time in scalar Python, with the saturation and the drift
margin written out as scalar formulas; the columns of ``kerrpol.cavity_scan``
and the branches of ``kerrpol.steady_states`` must match it bit for bit.
Takes the roots of ``kerrpol.steady._real_roots``, the one cubic solve all
three share, and returns the tuple of records.

The S-curve helpers are checks on the solve, not part of it:
``drive_for_intensity`` is the cubic read backwards (the flux P that
sustains an intensity I), ``turning_points`` its folds dP/dI = 0 in closed
form, and ``steady_state_residual`` the complex steady-state relation.
"""

import math
from dataclasses import dataclass

import numpy as np

from kerrpol.steady import (SteadyState, _real_roots, kerr_coefficient,
                            linear_dephasing, linearized_drift)


@dataclass(frozen=True)
class ScanRecord:
    """Steady-state picture at one cavity detuning during a scan."""

    delta_c: float
    branches: tuple[SteadyState, ...]
    selected_branch: int
    transmitted_intensity_plus: float
    transmitted_intensity_minus: float
    linear_polarization_stable: bool


def saturation(alpha_x, params):
    g, amplitude, delta = params.g_coupling, abs(alpha_x), params.delta
    return 2.0 * (g * g) * (amplitude * amplitude) / (delta * delta)


def drift_margin(kappa, m11, m12):
    radicand = abs(m12) * abs(m12) - m11.imag * m11.imag
    if radicand <= 0.0:
        return -kappa
    return -kappa + math.sqrt(radicand)


def _branches(params, delta_c, d0, roots):
    """Steady-state branches at one detuning, one per intensity root."""
    kappa = params.kappa
    branches = []
    for idx, intensity in enumerate(roots):
        alpha_x = complex(math.sqrt(intensity))
        s = saturation(alpha_x, params)   # exact by construction
        det = delta_c - d0 + d0 * s  # D(I)
        alpha_in = (kappa + 1j * det) * alpha_x / math.sqrt(2.0 * kappa)
        margin_x = drift_margin(kappa, *linearized_drift("x", kappa, delta_c, d0, s))
        margin_y = drift_margin(kappa, *linearized_drift("y", kappa, delta_c, d0, s))
        branches.append(SteadyState(
            alpha_x=alpha_x, s_x=s, delta_c=delta_c, delta_0=d0,
            branch_index=idx, mean_field_stable=margin_x < 0.0,
            y_mode_margin=margin_y, alpha_in=alpha_in))
    return branches


def cavity_scan(params, drive, delta_c_grid):
    grid = np.asarray(delta_c_grid, dtype=float)
    all_roots = [row[~np.isnan(row)].tolist()   # the roots before the NaN
                 for row in _real_roots(params, drive.power, grid)]
    d0 = linear_dephasing(params)
    records = []
    previous_intensity = None
    for delta_c, roots in zip(grid.tolist(), all_roots):
        branches = _branches(params, delta_c, d0, roots)
        stable = [b for b in branches if b.mean_field_stable]
        candidates = stable if stable else list(branches)
        if previous_intensity is None:
            selected = min(candidates, key=lambda b: b.intensity)
        else:
            selected = min(candidates,
                           key=lambda b: abs(b.intensity - previous_intensity))
        previous_intensity = selected.intensity
        flux = 2.0 * params.kappa * selected.intensity
        records.append(ScanRecord(
            delta_c=delta_c,
            branches=tuple(branches),
            selected_branch=selected.branch_index,
            transmitted_intensity_plus=0.5 * flux,
            transmitted_intensity_minus=0.5 * flux,
            linear_polarization_stable=selected.y_mode_margin < 0.0,
        ))
    return tuple(records)


def steady_state_residual(steady, params):
    """|[kappa + i*(delta_c - delta_0*(1 - s))]*alpha_x - sqrt(2k)*alpha_in|."""
    bracket = params.kappa + 1j * (steady.delta_c
                                   - steady.delta_0 * (1.0 - steady.s_x))
    return abs(bracket * steady.alpha_x
               - math.sqrt(2.0 * params.kappa) * steady.alpha_in)


def drive_for_intensity(params, delta_c, intensity):
    """Incident photon flux P that sustains intracavity intensity I."""
    d0 = linear_dephasing(params)
    det = delta_c - d0 + d0 * kerr_coefficient(params) * intensity
    return (intensity * (params.kappa * params.kappa + det * det)
            / (2.0 * params.kappa))


def turning_points(params, delta_c):
    """Fold points (I, P) of the S-curve where dP/dI = 0, sorted by I.

    Solving dP/dI = 0 with u = delta_0*c*I gives
    3 u^2 + 4 (delta_c - delta_0) u + (delta_c - delta_0)^2 + kappa^2 = 0;
    real solutions require |delta_c - delta_0| >= sqrt(3)*kappa and a sign of
    u compatible with I > 0.
    """
    d0 = linear_dephasing(params)
    slope = d0 * kerr_coefficient(params)
    dl = delta_c - d0
    disc = dl * dl - 3.0 * (params.kappa * params.kappa)
    if slope == 0.0 or disc < 0.0:
        return []
    sq = math.sqrt(disc)
    intensities = [u / slope for u in ((-2.0 * dl - sq) / 3.0,
                                       (-2.0 * dl + sq) / 3.0)]
    return sorted((i, drive_for_intensity(params, delta_c, i))
                  for i in intensities if i > 0.0)
