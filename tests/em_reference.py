"""Plain-loop Euler-Maruyama reference for the block-scan kernel.

One step at a time, in the textbook operation order; the kernel must match it
to rounding noise.  ``integrate_em(m11, m12, kappa, dt, noise, a0)`` takes
the complex increments ``noise`` of shape (n,) and returns (X, a_final), X
the output quadrature pair (X_0, X_pi/2) of shape (n, 2), which
``kerrpol._kernel.integrate_em`` writes over its (re, im) noise pairs.
"""

import math

import numpy as np


def integrate_em(m11, m12, kappa, dt, noise, a0):
    n = noise.shape[0]
    trajectory = np.empty(n, dtype=np.complex128)
    a = complex(a0)
    dtm11 = complex(dt * m11)
    dtm12 = complex(dt * m12)
    sq = math.sqrt(2.0 * kappa)
    for k in range(n):
        trajectory[k] = a
        xi = complex(noise[k])
        a = a + (dtm11 * a + dtm12 * a.conjugate()) + sq * xi
    b = sq * trajectory - noise * (1.0 / dt)
    x = 2.0 * np.column_stack((b.real, b.imag))
    return x, a
