"""Scalar reference for the spectra: one frequency and one phase at a time.

``transfer(model, omega)`` is the sideband map T(w) = 2*kappa*(-i*w - M)^(-1)
- 1, from the full drift matrix and a generic matrix inverse.
``quadrature_spectrum(model, omega, theta)`` is the quadratic form
u_theta . T(w) . C . T(-w)^T . u_theta^T with u_theta = (e^{-i*theta},
e^{+i*theta}) and the symmetrized vacuum covariance C = [[0, 1/2], [1/2, 0]];
its imaginary part must vanish to rounding.  ``kerrpol.spectra`` evaluates
the same spectra through the sinusoidal phase decomposition on arrays, and
must match this to rounding noise.

``drift_x_nonlinear`` and ``drift_y_nonlinear`` are the full nonlinear
drifts of the two modes, written from the model with the linear dephasing
d0 = 2*N*g^2*kappa / (delta*T) and the Kerr slope c = 2*g^2 / delta^2; their
finite-difference Wirtinger derivatives must give the linearized drift
entries of ``kerrpol.build_drift_x`` and ``build_drift_y``.
"""

import cmath
import math

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


def _dephasing_and_slope(params):
    """(d0, c): linear dephasing 2*N*g^2*kappa / (delta*T), Kerr slope
    2*g^2 / delta^2."""
    g2 = params.g_coupling * params.g_coupling
    return (2.0 * params.n_atoms * g2 * params.kappa
            / (params.delta * params.transmission),
            2.0 * g2 / (params.delta * params.delta))


def drift_x_nonlinear(a, alpha_in, params, delta_c):
    """Full nonlinear drift of the driven mode (self-Kerr, first-order sat.).

    dA/dt = -[kappa + i*(delta_c - delta_0)]*A - i*delta_0*c*A^2*A+
            + sqrt(2*kappa)*alpha_in
    """
    d0, c = _dephasing_and_slope(params)
    return (-(params.kappa + 1j * (delta_c - d0)) * a
            - 1j * d0 * c * a * a * a.conjugate()
            + math.sqrt(2.0 * params.kappa) * alpha_in)


def drift_y_nonlinear(b, alpha_x, params, delta_c):
    """Drift of the orthogonal mode in the field of the driven one.

    dB/dt = -[kappa + i*(delta_c - delta_0)]*B
            - i*delta_0*(c/2)*(2*|alpha_x|^2*B - alpha_x^2*B+)

    The cross-Kerr bracket has a dephasing part (prop. |alpha_x|^2 B) and a
    conjugate part (prop. alpha_x^2 B+) which is the one that squeezes.
    """
    d0, c = _dephasing_and_slope(params)
    return (-(params.kappa + 1j * (delta_c - d0)) * b
            - 1j * d0 * (c / 2.0)
            * (2.0 * (abs(alpha_x) * abs(alpha_x)) * b
               - alpha_x * alpha_x * b.conjugate()))
