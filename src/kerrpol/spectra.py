"""Linearized fluctuation dynamics and shot-noise-normalized spectra.

Fluctuations of each polarization mode are written on the conjugate pair
(da, da+) with drift matrix

    M = [[m11, m12], [conj(m12), conj(m11)]],      Re(m11) = -kappa,

so the port is the only dissipation channel and the atomic response is
purely reactive.  Linearizing the saturable dephasing around the driven
steady state gives

    driven mode:      m11 = -kappa - i*(delta_c - delta_0 + 2*delta_0*s)
                      m12 = -i * delta_0 * s * e^{2i*phi}
    orthogonal mode:  m11 = -kappa - i*(delta_c - delta_0 + delta_0*s)
                      m12 = +i * delta_0 * (s/2) * e^{2i*phi}

with s the saturation and phi = arg(alpha_x).  The conjugate coupling of the
driven mode is exactly twice that of the orthogonal mode: the self-Kerr term
-i*delta_0*c*A^2*A+ differentiates to two cross terms, the cross-Kerr bracket
contributes only one (expansion recorded here once and coded once, in
:func:`kerrpol.steady.linearized_drift`; asserted in the tests).

Input-output uses the single-port convention b = sqrt(2*kappa)*a - a_in, so
the sideband transfer is T(w) = 2*kappa*(-i*w - M)^(-1) - 1 and the
symmetrized vacuum input covariance is C = [[0, 1/2], [1/2, 0]].  Quadrature
spectra are normalized to shot noise = 1; because the only port is lossless
and the drift reactive, the output state stays pure and
S_min(w) * S_max(w) = 1.  Only a stable drift has spectra: the one check of
that, ``FluctuationModel.require_stable``, gates the spectra, the oracle and
the command line alike, so all refuse an unstable model with one message.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (NumericalError, SingularTransferError,
                     UnstableModelError, ValidationError)
from .params import PhysicalParams
from .steady import SteadyState, drift_margin, linearized_drift

@dataclass(frozen=True)
class FluctuationModel:
    """Drift matrix and port coupling of one polarization mode.

    Only ``m11`` and ``m12`` are stored; the second row is fixed by the
    conjugate-pair structure.  ``steady_ref`` points back at the steady state
    the model was linearized around.
    """

    mode_label: str
    m11: complex
    m12: complex
    kappa: float
    steady_ref: Optional[SteadyState] = None

    def __post_init__(self) -> None:
        if self.mode_label not in ("x", "y"):
            raise ValidationError(f"mode_label must be 'x' or 'y', got "
                                  f"{self.mode_label!r}")
        if self.kappa <= 0:
            raise ValidationError("kappa must be > 0")
        if abs(self.m11.real + self.kappa) > 1e-12 * self.kappa:
            raise ValidationError(
                "Re(m11) must equal -kappa: all dissipation comes from the "
                "port, the atomic terms are purely reactive")

    @property
    def drift_matrix(self) -> np.ndarray:
        m11, m12 = self.m11, self.m12
        return np.array([[m11, m12], [m12.conjugate(), m11.conjugate()]])

    @property
    def stability_margin(self) -> float:
        """Largest real part of the drift eigenvalues (rad/s)."""
        return drift_margin(self.kappa, self.m11, self.m12)

    @property
    def is_stable(self) -> bool:
        return self.stability_margin < 0.0

    def require_stable(self) -> None:
        """Raise ``UnstableModelError`` unless the drift is stable."""
        if not self.is_stable:
            branch = ("" if self.steady_ref is None
                      else f" on branch {self.steady_ref.branch_index}")
            raise UnstableModelError(
                f"{self.mode_label}-mode fluctuations unstable{branch} "
                f"(margin {self.stability_margin:.4g} rad/s)")


def _build_drift(steady: SteadyState, params: PhysicalParams,
                 mode: str) -> FluctuationModel:
    m11, m12 = linearized_drift(mode, params.kappa, steady.delta_c,
                                steady.delta_0, steady.s_x)
    phase = cmath.exp(2j * cmath.phase(steady.alpha_x)) if steady.alpha_x else 1.0
    return FluctuationModel(mode_label=mode, m11=m11, m12=m12 * phase,
                            kappa=params.kappa, steady_ref=steady)


def build_drift_x(steady: SteadyState, params: PhysicalParams) -> FluctuationModel:
    """Linearized drift of the driven mode around ``steady``."""
    return _build_drift(steady, params, "x")


def build_drift_y(steady: SteadyState, params: PhysicalParams) -> FluctuationModel:
    """Linearized drift of the orthogonal (vacuum) mode around ``steady``."""
    return _build_drift(steady, params, "y")


def _require_regular(det, scale) -> None:
    """Raise where ``det`` is 0 to rounding against ``scale``."""
    if np.any(np.abs(det) <= 1e-14 * scale):
        raise SingularTransferError(
            "sideband transfer is singular (marginally stable point)")


def _transfer_entries(model: FluctuationModel, omega):
    """Entries (T11, T12, T21, T22) of T(w); ``omega`` may be an array."""
    omega = np.asarray(omega, dtype=float)
    m11, m12 = model.m11, model.m12
    a11 = -1j * omega - m11                     # (-iw - M)[0,0]
    a22 = -1j * omega - m11.conjugate()
    coupling = abs(m12)
    det = a11 * a22 - coupling * coupling
    # np.abs rounds a scalar and an array entry alike, so every caller
    # tests the same threshold at the same omega
    _require_regular(det, np.abs(a11) * np.abs(a22) + coupling * coupling)
    two_k = 2.0 * model.kappa
    t11 = two_k * a22 / det - 1.0
    t12 = two_k * m12 / det
    t21 = two_k * m12.conjugate() / det
    t22 = two_k * a11 / det - 1.0
    return t11, t12, t21, t22


def _phase_quadratic(model: FluctuationModel, omega):
    """Return (iso, conj) with S(theta) = iso + Re(e^{-2i*theta} * conj).

    Follows from expanding the quadratic form with the row-conjugacy
    T21(w) = conj(T12(-w)), T22(w) = conj(T11(-w)).
    """
    t11p, t12p, _, _ = _transfer_entries(model, omega)
    t11m, t12m, _, _ = _transfer_entries(model, -np.asarray(omega, dtype=float))
    iso = 0.5 * sum(np.abs(t) * np.abs(t) for t in (t11p, t11m, t12p, t12m))
    conj = t11p * t12m + t12p * t11m
    return iso, conj


def fold_angle(theta):
    """Fold quadrature phases into the canonical interval (-pi/2, pi/2].

    ``np.fmod`` is exact and, by Sterbenz's lemma, so is the one +/-pi step
    after it, so the fold has the bits of one through ``math.remainder``.
    A float gives a float; an array gives an array.
    """
    theta = np.fmod(theta, math.pi)
    theta = np.where(theta > math.pi / 2.0, theta - math.pi, theta)
    theta = np.where(theta <= -math.pi / 2.0, theta + math.pi, theta)
    return float(theta) if theta.ndim == 0 else theta


def min_max_spectrum(model: FluctuationModel, omega):
    """(S_min, S_max, theta_min), extremized in closed form: floats at one
    frequency, or columns over an array of them.

    The phase dependence is sinusoidal, S(theta) = a + |b|*cos(2*theta -
    arg b), so the extrema are a -/+ |b| and the squeezing angle is
    theta_min = arg(b)/2 + pi/2, folded into (-pi/2, pi/2].  A flat spectrum
    reports theta_min = 0 by convention.
    """
    model.require_stable()
    # numpy scalars round complex arithmetic apart from array loops, so
    # one frequency goes through the array path as an array of one
    iso, conj = _phase_quadratic(model, np.atleast_1d(omega))
    amp = np.abs(conj)
    flat = amp <= 1e-14 * iso
    amp = np.where(flat, 0.0, amp)
    theta_min = np.where(flat, 0.0,
                         fold_angle(np.angle(conj) / 2.0 + math.pi / 2.0))
    s_min, s_max = iso - amp, iso + amp
    if np.ndim(omega) == 0:
        return float(s_min[0]), float(s_max[0]), float(theta_min[0])
    return s_min, s_max, theta_min


@dataclass(frozen=True, eq=False)
class NoiseSpectrum:
    """Quadrature noise over an (omega, theta) grid, shot noise = 1.

    ``values[i, j]`` is S(omega[i], theta[j]), lossless; detection loss is
    applied to values, by :func:`kerrpol.stokes.apply_detection_loss`.
    ``at_theta(theta)`` is the homodyne spectrum at local-oscillator phase
    theta, and for the y mode the normalized Stokes noise at that phase.
    """

    omega: np.ndarray
    theta: np.ndarray
    values: np.ndarray
    mode_label: str

    def __post_init__(self) -> None:
        if self.values.shape != (self.omega.size, self.theta.size):
            raise ValidationError("values must have shape (n_omega, n_theta)")
        if np.any(self.values < 0.0):
            raise ValidationError("quadrature noise cannot be negative")

    def at_theta(self, theta: float) -> np.ndarray:
        """S(omega) at one covered phase."""
        match = np.nonzero(np.abs(self.theta - theta) <= 1e-12)[0]
        if match.size == 0:
            raise ValidationError(
                f"spectrum does not cover theta = {theta!r}")
        return self.values[:, int(match[0])]


def noise_spectrum(model: FluctuationModel, omega_grid,
                   theta_grid) -> NoiseSpectrum:
    """Vectorized spectrum over an (omega, theta) grid.

    Uses the sinusoidal phase decomposition; agrees pointwise with the
    quadratic form u_theta . T(w) . C . T(-w)^T . u_theta^T (tested).
    Noise below zero, or NaN, raises ``NumericalError``.
    """
    model.require_stable()
    omega = np.atleast_1d(np.asarray(omega_grid, dtype=float))
    theta = np.atleast_1d(np.asarray(theta_grid, dtype=float))
    iso, conj = _phase_quadratic(model, omega)
    values = iso[:, None] + np.real(np.exp(-2j * theta)[None, :] * conj[:, None])
    values = np.where(np.abs(values) < 1e-15, 0.0, values)
    below = ~(values >= 0.0)
    if below.any():
        raise NumericalError(
            f"computed quadrature noise {values[below][0]:.6g} is not >= 0")
    return NoiseSpectrum(omega=omega, theta=theta, values=values,
                         mode_label=model.mode_label)


def model_validity(model: FluctuationModel, params: PhysicalParams,
                   omega: float) -> list[str]:
    """Validity warnings for analyzing this model at frequency ``omega``.

    The linearized treatment ignores optical-pumping noise, acceptable only
    above the pumping rate, estimated phenomenologically as
    gamma_par/2 * s.  The large-detuning warning is inherited from the
    parameter set.
    """
    warnings = list(params.validity_warnings())
    s = model.steady_ref.s_x if model.steady_ref is not None else 0.0
    pumping_rate = 0.5 * params.gamma_par * s
    if abs(omega) < pumping_rate:
        warnings.append(
            "model-validity: analysis frequency below the optical-pumping "
            f"rate estimate {pumping_rate:.3g} rad/s; excess pumping noise "
            "is not modeled")
    return warnings
