"""Quantum Stokes-parameter noise and the homodyne detection chain.

With the light linearly polarized along x (alpha_x real by convention), the
mean Stokes vector is (S0, S1, S2, S3) = (alpha_x^2, alpha_x^2, 0, 0) and the
S2/S3 fluctuations are carried entirely by the orthogonal vacuum mode:

    dS2 = alpha_x * (dA_y+ + dA_y)          -> amplitude quadrature of y
    dS3 = i*alpha_x * (dA_y+ - dA_y)        -> phase quadrature of y

so V_S2(w) = alpha_x^2 * S_{theta=0}(w) and V_S3(w) = alpha_x^2 *
S_{theta=pi/2}(w): polarization squeezing is vacuum squeezing of the
orthogonal mode, and the homodyne photocurrent at local-oscillator phase
theta_hd measures the Stokes combination cos(theta_hd)*dS2 +
sin(theta_hd)*dS3, i.e. the y-mode quadrature at theta_hd: the normalized
Stokes noise there is ``NoiseSpectrum.at_theta(theta_hd)`` of the y-mode
spectrum.  theta_hd is measured relative to the mean field, the single phase
convention shared with the spectra module.

S0 and S1 belong to the driven mode: to linear order
dS0 = dS1 = alpha_x*(dA_x+ + dA_x), its amplitude quadrature, so their
normalized noise is ``at_theta(0.0)`` of the x-mode spectrum.  Only the
S2/S3 pair carries a nontrivial uncertainty bound.

A lumped detection efficiency eta mixes in vacuum: S -> eta*S + (1 - eta).

Both outputs are columns over the whole frequency grid, and each invariant
is checked once, where its column is made: the loss floor v_theta >= 1 - eta
in :func:`phase_scan_dataset`, the uncertainty bound V_S2 * V_S3 >=
alpha_x^4 (normalized: >= 1) in :func:`stokes_noise`.  A violation and a NaN
alike raise ``NumericalError``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError, ValidationError
from .spectra import FluctuationModel, NoiseSpectrum, noise_spectrum

UNCERTAINTY_SLACK = 1e-6


def stokes_noise(spectrum_y: NoiseSpectrum):
    """Columns (v_s2_norm, v_s3_norm, uncertainty_product) over omega.

    Reads the orthogonal-mode spectrum at theta = 0 and pi/2 (relative to the
    mean field): the S2/S3 noise normalized by alpha_x^2, so a coherent
    polarization state sits at 1.  A product below 1 - UNCERTAINTY_SLACK, or
    NaN, raises ``NumericalError``.
    """
    if spectrum_y.mode_label != "y":
        raise ValidationError("S2/S3 noise reads the orthogonal-mode spectrum")
    v_s2 = spectrum_y.at_theta(0.0)
    v_s3 = spectrum_y.at_theta(math.pi / 2.0)
    product = v_s2 * v_s3
    below = ~(product >= 1.0 - UNCERTAINTY_SLACK)
    if below.any():
        raise NumericalError(
            f"normalized uncertainty product {product[below][0]:.6g} "
            "violates V_S2 * V_S3 >= alpha_x^4")
    return v_s2, v_s3, product


def apply_detection_loss(s, eta: float):
    """Noise after a lumped detection efficiency eta: eta*S + (1 - eta)."""
    if not 0.0 < eta <= 1.0:
        raise ValidationError(f"eta must lie in (0, 1], got {eta}")
    s = np.asarray(s, dtype=float)
    if np.any(s < 0.0):
        raise ValidationError("noise must be non-negative")
    out = eta * s + (1.0 - eta)
    return float(out) if out.ndim == 0 else out


def phase_scan_dataset(model_y: FluctuationModel, omega_grid, theta_grid,
                       eta: float):
    """Phase-scanned, loss-degraded noise of the orthogonal mode.

    Returns the columns (theta_hd, cos_theta, v_theta) over the whole
    (omega, theta) grid, frequency by frequency.  ``cos_theta`` mirrors the
    interference signal used to read the phase off an XY oscilloscope
    display: plotting v_theta against it folds +/-theta onto the same
    abscissa, giving the characteristic two-branch curves.  Noise below the
    loss floor 1 - eta, or NaN, raises ``NumericalError``.
    """
    spectrum = noise_spectrum(model_y, omega_grid, theta_grid)
    v_theta = apply_detection_loss(spectrum.values.ravel(), eta)
    below = ~(v_theta >= 1.0 - eta - 1e-12)
    if below.any():
        raise NumericalError(
            f"scan noise {v_theta[below][0]:.6g} under the loss floor")
    theta, rows = spectrum.theta, spectrum.omega.size
    return np.tile(theta, rows), np.tile(np.cos(theta), rows), v_theta
