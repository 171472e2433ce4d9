"""Scalar reference for the Stokes picture and the detection loss.

``stokes_means(alpha_x)`` is the mean Stokes vector (S0, S1, S2, S3) =
(|alpha_x|^2, |alpha_x|^2, 0, 0) of x-polarized light in flux units, the
normalization of ``kerrpol.stokes_noise``.  ``recover_lossless(s, eta)``
inverts the lumped detection loss S -> eta*S + (1 - eta) of
``kerrpol.apply_detection_loss``, and refuses a result below zero: a
detected noise under the loss floor 1 - eta is inconsistent with the
claimed efficiency.
"""

import numpy as np

from kerrpol import ValidationError


def stokes_means(alpha_x):
    intensity = abs(alpha_x) * abs(alpha_x)
    return (intensity, intensity, 0.0, 0.0)


def recover_lossless(s_detected, eta):
    if not 0.0 < eta <= 1.0:
        raise ValidationError(f"eta must lie in (0, 1], got {eta}")
    out = (np.asarray(s_detected, dtype=float) - (1.0 - eta)) / eta
    if np.any(out < 0.0):
        raise ValidationError(
            "loss inversion produced negative noise: inconsistent eta claim")
    return float(out) if out.ndim == 0 else out
