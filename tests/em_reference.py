"""Plain-loop Euler-Maruyama reference for the block-scan kernel.

One step at a time, in the textbook operation order; the kernel must match it
to rounding noise.  Same contract as ``kerrpol._kernel.integrate_em``
without the ``out`` argument and with a flag ``store_field`` in place of
the ``field`` array: returns (X, field, a_final), X the output quadrature
pair (X_0, X_pi/2) of shape (n, 2).
"""

import math

import numpy as np


def integrate_em(m11, m12, kappa, dt, noise, a0, store_field):
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
    field = trajectory if store_field else np.empty(0, dtype=np.complex128)
    return x, field, a
