"""Scalar reference for the spectra: one frequency and one phase at a time.

``transfer(model, omega)`` is the sideband map T(w) = 2*kappa*(-i*w - M)^(-1)
- 1, from the full drift matrix and a generic matrix inverse.
``quadrature_spectrum(model, omega, theta)`` is the quadratic form
u_theta . T(w) . C . T(-w)^T . u_theta^T with u_theta = (e^{-i*theta},
e^{+i*theta}) and the symmetrized vacuum covariance C = [[0, 1/2], [1/2, 0]];
its imaginary part must vanish to rounding.  ``kerrpol.spectra`` evaluates
the same spectra through the sinusoidal phase decomposition on arrays, and
must match this to rounding noise.
"""

import cmath

import numpy as np

C_SYM = np.array([[0.0, 0.5], [0.5, 0.0]])


def transfer(model, omega):
    eye = np.eye(2)
    return (2.0 * model.kappa
            * np.linalg.inv(-1j * omega * eye - model.drift_matrix) - eye)


def quadrature_spectrum(model, omega, theta):
    u = np.array([cmath.exp(-1j * theta), cmath.exp(1j * theta)])
    value = u @ transfer(model, omega) @ C_SYM @ transfer(model, -omega).T @ u
    assert abs(value.imag) <= 1e-10 * max(1.0, abs(value.real))
    return float(value.real)
