"""Euler-Maruyama kernel for the linear fluctuation dynamics.

The recursion  a <- a + dt*(m11*a + m12*conj(a)) + sqrt(2*kappa)*xi  is linear
over the reals with constant coefficients, so it runs as a block scan, the
constant-coefficient prefix scan of Blelloch 1990.  With F the one-step map
on (Re a, Im a): run every block of BLOCK steps from zero, vectorized across
blocks; carry the start states in order, s_{b+1} = F^BLOCK s_b + (end of
block b from zero); add F^i s_b at in-block step i.  Blocks start at the
call's first step and all arithmetic is elementwise (no BLAS), so results do
not depend on thread count and whole-block calls chain bit-identically.
The output is the quadrature pair X_0 = 2 Re b, X_pi/2 = 2 Im b, with
b = sqrt(2 kappa)*a - xi/dt; callers form every homodyne angle from it.
"""

from __future__ import annotations

import math

import numpy as np

BLOCK = 1024
TILE = 64       # blocks per step of the noise transpose


def integrate_em(m11, m12, kappa, dt, noise, a0, store_field, out=None):
    """One Euler-Maruyama sweep over ``noise``; returns (X, field, a_final).

    X[k] = 2*(Re b_k, Im b_k), b_k = sqrt(2 kappa)*a_k - noise_k/dt, shape
    (n, 2), is written into ``out`` when given, field is the trajectory a_k
    (empty unless ``store_field``), and a_final seeds the next call.
    """
    noise = np.ascontiguousarray(noise, dtype=np.complex128)
    n = noise.shape[0]
    full, n_blocks = n // BLOCK, -(-n // BLOCK)
    sq = math.sqrt(2.0 * kappa)
    d11, d12 = complex(dt * m11), complex(dt * m12)
    col0 = np.array([[d11.real + d12.real], [d11.imag + d12.imag]])
    col1 = np.array([[d12.imag - d11.imag], [d11.real - d12.real]])

    # u[i, c, b]: component c of sqrt(2 kappa)*xi at step b*BLOCK + i; two
    # extra noise-free columns start at (1, 0) and (0, 1), so they trace the
    # columns of F^i with the same arithmetic as the blocks
    pairs = noise.view(np.float64).reshape(n, 2)
    u = np.empty((BLOCK, 2, n_blocks + 2))
    u[:, :, full:] = 0.0
    blocks = pairs[:full * BLOCK].reshape(full, BLOCK, 2)
    for j in range(0, full, TILE):             # tiles keep reads in cache
        k = min(j + TILE, full)
        np.multiply(blocks[j:k].transpose(1, 2, 0), sq, out=u[:, :, j:k])
    np.multiply(pairs[full * BLOCK:], sq, out=u[:n - full * BLOCK, :, full])
    z = np.zeros((BLOCK + 1, 2, n_blocks + 2))
    z[0, 0, n_blocks] = z[0, 1, n_blocks + 1] = 1.0
    step = np.empty((2, n_blocks + 2))
    for i in range(BLOCK):
        state, nxt = z[i], z[i + 1]
        np.multiply(col0, state[0], out=nxt)
        np.multiply(col1, state[1], out=step)
        nxt += step
        nxt += state
        nxt += u[i]

    powers = z[:, :, n_blocks:]                    # powers[i] = F^i
    last = n - (n_blocks - 1) * BLOCK              # length of the final block
    maps = [powers[BLOCK].tolist()] * (n_blocks - 1) + [powers[last].tolist()]
    ends = z[BLOCK, :, :n_blocks].T.tolist()
    ends[-1] = z[last, :, n_blocks - 1].tolist()
    x, y = complex(a0).real, complex(a0).imag
    starts = []
    for ((g00, g01), (g10, g11)), (end_x, end_y) in zip(maps, ends):
        starts.append((x, y))
        x, y = g00 * x + g01 * y + end_x, g10 * x + g11 * y + end_y
    a_final = complex(x, y)

    # traj[b, i] = (Re a, Im a) at step b*BLOCK + i: z + F^i s_b
    starts_x, starts_y = np.array(starts).T[:, :, None, None]
    traj = z[:BLOCK, :, :n_blocks].transpose(2, 0, 1).copy()
    traj += starts_x * powers[:BLOCK, :, 0]
    traj += starts_y * powers[:BLOCK, :, 1]
    traj = traj.reshape(-1, 2)[:n]
    out = np.multiply(traj, sq, out=out)           # allocates when None
    out -= pairs * (1.0 / dt)
    out *= 2.0                                     # exact
    field = traj.view(complex)[:, 0] if store_field else np.empty(0, complex)
    return out, field, a_final
