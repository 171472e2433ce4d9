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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .spectra import FluctuationModel, NoiseSpectrum, noise_spectrum

UNCERTAINTY_SLACK = 1e-6


def stokes_means(alpha_x: complex) -> tuple[float, float, float, float]:
    """Mean Stokes vector (S0, S1, S2, S3) for x-polarized light, flux units."""
    intensity = abs(alpha_x) ** 2
    return (intensity, intensity, 0.0, 0.0)


@dataclass(frozen=True)
class StokesRecord:
    """Mean Stokes vector and S2/S3 noise densities at one frequency.

    ``v_s2``/``v_s3`` are in photon-flux^2 units; the ``_norm`` fields divide
    by alpha_x^2 so a coherent polarization state sits at 1.
    """

    mean_s0: float
    mean_s1: float
    mean_s2: float
    mean_s3: float
    v_s2: float
    v_s3: float
    v_s2_norm: float
    v_s3_norm: float
    omega: float

    def __post_init__(self) -> None:
        s0 = self.mean_s0
        if s0 < abs(self.mean_s1) - 1e-12 * s0 or \
           s0 < abs(self.mean_s2) - 1e-12 * s0 or \
           s0 < abs(self.mean_s3) - 1e-12 * s0:
            raise ValidationError("mean S0 must dominate |S1|, |S2|, |S3|")
        product = self.v_s2_norm * self.v_s3_norm
        if product < 1.0 - UNCERTAINTY_SLACK:
            raise ValidationError(
                f"normalized uncertainty product {product} violates "
                "V_S2 * V_S3 >= alpha_x^4")

    @property
    def uncertainty_product(self) -> float:
        return self.v_s2_norm * self.v_s3_norm


def stokes_noise(spectrum_y: NoiseSpectrum, alpha_x: complex) -> list[StokesRecord]:
    """Map the orthogonal-mode spectrum onto Stokes records, one per omega.

    Requires the orthogonal-mode spectrum, covering theta = 0 and
    theta = pi/2 (phases relative to the mean field).
    """
    if spectrum_y.mode_label != "y":
        raise ValidationError("S2/S3 noise reads the orthogonal-mode spectrum")
    intensity = abs(alpha_x) ** 2
    s2 = spectrum_y.at_theta(0.0)
    s3 = spectrum_y.at_theta(math.pi / 2.0)
    means = stokes_means(alpha_x)
    return [
        StokesRecord(
            mean_s0=means[0], mean_s1=means[1], mean_s2=means[2],
            mean_s3=means[3],
            v_s2=intensity * float(a), v_s3=intensity * float(b),
            v_s2_norm=float(a), v_s3_norm=float(b),
            omega=float(w))
        for w, a, b in zip(spectrum_y.omega, s2, s3)
    ]


def apply_detection_loss(s, eta: float):
    """Noise after a lumped detection efficiency eta: eta*S + (1 - eta)."""
    if not 0.0 < eta <= 1.0:
        raise ValidationError(f"eta must lie in (0, 1], got {eta}")
    s = np.asarray(s, dtype=float)
    if np.any(s < 0.0):
        raise ValidationError("noise must be non-negative")
    out = eta * s + (1.0 - eta)
    return float(out) if out.ndim == 0 else out


def recover_lossless(s_detected, eta: float):
    """Invert the detection loss; defined only when the result is >= 0."""
    if not 0.0 < eta <= 1.0:
        raise ValidationError(f"eta must lie in (0, 1], got {eta}")
    s_detected = np.asarray(s_detected, dtype=float)
    out = (s_detected - (1.0 - eta)) / eta
    if np.any(out < 0.0):
        raise ValidationError(
            "loss inversion produced negative noise: inconsistent eta claim")
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True, eq=False)
class PhaseScanDataset:
    """Homodyne phase scan at one frequency: noise vs LO phase.

    ``cos_theta`` mirrors the interference signal used to read the phase off
    an XY oscilloscope display: plotting v_theta against it folds +/-theta
    onto the same abscissa, giving the characteristic two-branch curves.
    """

    theta_hd: np.ndarray
    cos_theta: np.ndarray
    v_theta: np.ndarray
    omega: float
    eta: float

    def __post_init__(self) -> None:
        if not (self.theta_hd.shape == self.cos_theta.shape == self.v_theta.shape):
            raise ValidationError("phase-scan arrays must share one shape")
        if not np.array_equal(self.cos_theta, np.cos(self.theta_hd)):
            raise ValidationError("cos_theta must equal cos(theta_hd) exactly")
        if np.any(self.v_theta < 0.0):
            raise ValidationError("scan noise cannot be negative")
        if np.any(self.v_theta < (1.0 - self.eta) - 1e-12):
            raise ValidationError("scan noise fell below the loss floor")


def phase_scan_dataset(model_y: FluctuationModel, omega: float, theta_grid,
                       eta: float) -> PhaseScanDataset:
    """Phase-scanned, loss-degraded noise of the orthogonal mode at ``omega``."""
    theta = np.atleast_1d(np.asarray(theta_grid, dtype=float))
    spectrum = noise_spectrum(model_y, [omega], theta)
    v = apply_detection_loss(spectrum.values[0, :], eta)
    return PhaseScanDataset(
        theta_hd=theta,
        cos_theta=np.cos(theta),
        v_theta=np.asarray(v, dtype=float),
        omega=float(omega),
        eta=float(eta))
