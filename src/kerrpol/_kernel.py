"""Euler-Maruyama kernel for the linear fluctuation dynamics.

The recursion  a <- a + dt*(m11*a + m12*conj(a)) + sqrt(2*kappa)*xi  is linear
over the reals with constant coefficients, so it runs as a block scan, the
constant-coefficient prefix scan of Blelloch 1990.  With F the one-step map
on (Re a, Im a), a call's steps are cut into blocks of BLOCK steps: sweep A
runs every block from zero, vectorized across blocks, in two state rows;
the start states are carried in order, s_{b+1} = F^BLOCK s_b + (end of
block b from zero); sweep B reruns every block from s_b and writes each
state over the noise it has spent.  The quadrature pair X_0 = 2 Re b,
X_pi/2 = 2 Im b, b = sqrt(2 kappa)*a - xi/dt, that every angle comes from,
is then written over the noise's (re, im) pairs.  The scratch is one array
about the size of the call's noise, so the oracle calls it one chunk at a
time.  Blocks start at the call's first step and all arithmetic is
elementwise (no BLAS), so results do not depend on thread count and
whole-block calls chain bit-identically.
"""

from __future__ import annotations

import math

import numpy as np

BLOCK = 64


def _step(state, noise, out, col0, col1, tmp):
    """out = F state + noise, all columns at once; ``out`` may be ``noise``."""
    np.multiply(col0, state[0], out=tmp[0])
    np.multiply(col1, state[1], out=tmp[1])
    tmp[0] += tmp[1]
    tmp[0] += state
    np.add(tmp[0], noise, out=out)


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
    xi_k/dt, all its noise read before any X is written.  a_final, the
    state after the last step, seeds the next call.
    """
    n = len(pairs)
    if n == 0:
        return complex(a0)
    sq = math.sqrt(2.0 * kappa)
    d11, d12 = complex(dt * m11), complex(dt * m12)
    col0 = np.array([[d11.real + d12.real], [d11.imag + d12.imag]])
    col1 = np.array([[d12.imag - d11.imag], [d11.real - d12.real]])
    # u[i + 1, c, b]: component c of sqrt(2 kappa)*xi at step b*BLOCK + i;
    # two noise-free columns from (1, 0) and (0, 1) trace the columns of F^i
    nb = -(-n // BLOCK)
    last = n - (nb - 1) * BLOCK                     # length of the final block
    u, tmp = np.zeros((BLOCK + 1, 2, nb + 2)), np.empty((2, 2, nb + 2))
    _by_block(lambda r, c: np.multiply(r, sq, out=c), pairs, u[1:])
    cur, nxt = np.zeros((2, nb + 2)), np.empty((2, nb + 2))
    cur[0, nb] = cur[1, nb + 1] = 1.0               # sweep A, two state rows
    for i in range(BLOCK):
        _step(cur, u[i + 1], nxt, col0, col1, tmp)
        cur, nxt = nxt, cur
        if i + 1 == last:
            tail = cur[:, nb - 1:].copy()           # the final block's end
    maps = [cur[:, nb:].tolist()] * (nb - 1) + [tail[:, 1:].tolist()]
    ends = cur[:, :nb].tolist()
    ends[0][-1], ends[1][-1] = tail[:, 0].tolist()
    x, y = complex(a0).real, complex(a0).imag
    starts = [], []
    for ((g00, g01), (g10, g11)), end_x, end_y in zip(maps, *ends):
        starts[0].append(x)
        starts[1].append(y)
        x, y = g00 * x + g01 * y + end_x, g10 * x + g11 * y + end_y
    # sweep B writes the state before step b*BLOCK + i over row i of u, the
    # noise it has spent; row 0 holds the start states
    u[0, :, :nb] = starts
    for i in range(BLOCK - 1):
        _step(u[i], u[i + 1], u[i + 1], col0, col1, tmp)
    u[:BLOCK] *= 2.0 * sq
    pairs *= 2.0 / dt
    _by_block(lambda r, c: np.subtract(c, r, out=r), pairs, u)
    return complex(x, y)         # X = 2 sqrt(2 kappa) a - 2 xi/dt
