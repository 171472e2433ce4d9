"""Euler-Maruyama kernel for the linear fluctuation dynamics.

The recursion  a <- a + dt*(m11*a + m12*conj(a)) + sqrt(2*kappa)*xi  is linear
over the reals with constant coefficients, so it runs as a block scan, the
constant-coefficient prefix scan of Blelloch 1990.  With F the one-step map
on (Re a, Im a), each tile of TILE steps is cut into blocks of BLOCK steps:
sweep A runs every block from zero, vectorized across blocks; the start
states are carried in order, s_{b+1} = F^BLOCK s_b + (end of block b from
zero); sweep B reruns every block from s_b and writes, over the noise's
(re, im) pairs, the quadrature pair X_0 = 2 Re b, X_pi/2 = 2 Im b,
b = sqrt(2 kappa)*a - xi/dt, that every angle comes from.  The scratch is
tile-sized, so a call allocates O(TILE) memory.  Blocks start at the call's
first step and all arithmetic is elementwise (no BLAS), so results do not
depend on thread count and whole-block calls chain bit-identically.
"""

from __future__ import annotations

import math

import numpy as np

BLOCK = 64
TILE = 1 << 17    # steps per tile, whole blocks; sets the scratch size


def _sweep(z, u, col0, col1, step):
    """z[i + 1] = F z[i] + u[i] for i < len(u), every column at once."""
    for i in range(len(u)):
        state, nxt = z[i], z[i + 1]
        np.multiply(col0, state[0], out=nxt)
        np.multiply(col1, state[1], out=step)
        nxt += step
        nxt += state
        nxt += u[i]


def _by_block(op, rows, cols):
    """op(r, c) on views with r ~ rows[b*BLOCK + i] and c ~ cols[i, :, b]."""
    full = len(rows) // BLOCK
    op(rows[:full * BLOCK].reshape(full, BLOCK, 2),
       cols[:BLOCK, :, :full].transpose(2, 0, 1))
    op(rows[full * BLOCK:], cols[:len(rows) - full * BLOCK, :, full])


def integrate_em(m11, m12, kappa, dt, pairs, a0):
    """One Euler-Maruyama sweep over the noise ``pairs``; returns a_final.

    ``pairs`` (C-contiguous, shape (n, 2)) holds (Re xi_k, Im xi_k) and is
    overwritten with X[k] = 2*(Re b_k, Im b_k), b_k = sqrt(2 kappa)*a_k -
    xi_k/dt, each tile's noise read before its X is written.  a_final, the
    state after the last step, seeds the next call.
    """
    n = len(pairs)
    sq = math.sqrt(2.0 * kappa)
    d11, d12 = complex(dt * m11), complex(dt * m12)
    col0 = np.array([[d11.real + d12.real], [d11.imag + d12.imag]])
    col1 = np.array([[d12.imag - d11.imag], [d11.real - d12.real]])
    # u[i, c, b]: component c of sqrt(2 kappa)*xi at tile step b*BLOCK + i;
    # two noise-free columns from (1, 0) and (0, 1) trace the columns of F^i
    width = -(-min(n, TILE) // BLOCK) + 2
    u_buf, z_buf = np.empty((BLOCK, 2, width)), np.empty((BLOCK + 1, 2, width))
    step_buf = np.empty((2, width))
    x, y = complex(a0).real, complex(a0).imag
    for lo in range(0, n, TILE):
        hi = min(lo + TILE, n)
        nb = -(-(hi - lo) // BLOCK)
        last = hi - lo - (nb - 1) * BLOCK          # length of the final block
        u, z, step = (buf[..., :nb + 2] for buf in (u_buf, z_buf, step_buf))
        u[:, :, nb - 1:] = 0.0
        _by_block(lambda r, c: np.multiply(r, sq, out=c), pairs[lo:hi], u)
        z[0] = 0.0                                  # sweep A
        z[0, 0, nb] = z[0, 1, nb + 1] = 1.0
        _sweep(z, u, col0, col1, step)
        maps = [z[BLOCK, :, nb:].tolist()] * (nb - 1) + [z[last, :, nb:].tolist()]
        ends = z[BLOCK, :, :nb].T.tolist()
        ends[-1] = z[last, :, nb - 1].tolist()
        starts = []
        for ((g00, g01), (g10, g11)), (end_x, end_y) in zip(maps, ends):
            starts.append((x, y))
            x, y = g00 * x + g01 * y + end_x, g10 * x + g11 * y + end_y
        z[0, :, :nb] = np.array(starts).T           # sweep B
        _sweep(z[:BLOCK], u[:BLOCK - 1], col0, col1, step)
        feed = np.multiply(pairs[lo:hi], 2.0 / dt,    # u is spent; read
                           out=u_buf.reshape(-1, 2)[:hi - lo])  # before X
        x_tile = pairs[lo:hi]                       # 2 sqrt(2 kappa) a - 2 xi/dt
        _by_block(lambda r, c: np.multiply(c, 2.0 * sq, out=r), x_tile, z)
        x_tile -= feed
    return complex(x, y)
