"""Nonlinear intracavity steady states: saturation, bistability, scans.

The driven polarization mode sees a saturable reactive dephasing.  Expanded
to first order in the saturation s = c*I (c = 2 g^2 / delta^2,
I = |alpha_x|^2), the steady state obeys

    [kappa + i*(delta_c - delta_0*(1 - s))] * alpha_x = sqrt(2*kappa) * alpha_in

whose intensity form is a cubic in I,

    2*kappa*P = I * [kappa^2 + D(I)^2],   D(I) = delta_c - delta_0 + delta_0*c*I,

with P = |alpha_in|^2 the incident photon flux and delta_0 the linear
collective dephasing.  One or three positive roots exist; the fold of the
S-curve (d P/d I = 0) bounds the bistable window and the negative-slope
branch is dynamically unstable.

Each mode's linearized drift (see :mod:`kerrpol.spectra`) has eigenvalues
-kappa +/- sqrt(|m12|^2 - Im(m11)^2), hence the stability margin
-kappa + sqrt(max(0, |m12|^2 - Im(m11)^2)).  The driven mode's margin sets
``mean_field_stable``; the orthogonal mode's is ``y_mode_margin``, < 0 if stable.

The cubic is solved for a whole grid of detunings at once, in closed form
and array arithmetic, with no LAPACK call: Viète's trigonometric form where
it has three real roots, Cardano's where it has one; the Newton polish and
the merge run on the padded (n, 3) root array.  The same formulas, each
square a product ``x * x``, give every branch's saturation and margins on
arrays with the scalar bits.
``cavity_scan`` runs this on its grid ``SCAN_BLOCK`` rows at a time, each
row's bits independent of the block, and ``steady_states`` on a grid of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .params import DriveField, PhysicalParams

# Coincident intensity roots closer than this (relative) are merged.
MERGE_RTOL = 1e-7
# Acceptable steady-state residual, relative to the drive amplitude.
RESIDUAL_RTOL = 1e-9
# Scan rows solved, and held as Python objects by the continuation, at a time.
SCAN_BLOCK = 16384
# 2*pi*k, k = 0, 1, -1, for Viète's three real roots
_TURNS = np.array([0.0, 2.0 * math.pi, -2.0 * math.pi])
_HALF_SQRT3 = 0.5 * math.sqrt(3.0)


def linear_dephasing(params: PhysicalParams) -> float:
    """Collective linear dephasing 2*N*g^2*kappa / (delta*T), rad/s.

    Sign follows the sign of the detuning.
    """
    if params.delta == 0:
        raise ValidationError("linear dephasing undefined at zero detuning")
    return (2.0 * params.n_atoms * (params.g_coupling * params.g_coupling)
            * params.kappa / (params.delta * params.transmission))


def saturation(alpha_x: complex, params: PhysicalParams) -> float:
    """Saturation parameter s = 2 g^2 |alpha_x|^2 / delta^2 (dimensionless)."""
    if params.delta * params.delta == 0:   # also an underflowing square
        raise ValidationError("saturation undefined at zero detuning")
    amplitude = abs(alpha_x)
    return (2.0 * (params.g_coupling * params.g_coupling)
            * (amplitude * amplitude) / (params.delta * params.delta))


def kerr_coefficient(params: PhysicalParams) -> float:
    """Intensity-to-saturation slope c = 2 g^2 / delta^2, so s = c*I."""
    if params.delta * params.delta == 0:   # also an underflowing square
        raise ValidationError("Kerr coefficient undefined at zero detuning")
    return (2.0 * (params.g_coupling * params.g_coupling)
            / (params.delta * params.delta))


@dataclass(frozen=True)
class SteadyState:
    """One intracavity solution branch.

    ``alpha_x`` is real and positive by phase convention; ``alpha_in`` is the
    drive amplitude with its phase adjusted per branch so that convention
    holds.  ``y_mode_margin`` is the largest real part of the orthogonal-mode
    drift eigenvalues (rad/s, negative = linear polarization stable).
    """

    alpha_x: complex
    s_x: float
    delta_c: float
    delta_0: float
    branch_index: int
    mean_field_stable: bool
    y_mode_margin: float
    alpha_in: complex

    @property
    def intensity(self) -> float:
        amplitude = abs(self.alpha_x)
        return amplitude * amplitude


def linearized_drift(mode: str, kappa: float, delta_c: float, delta_0: float,
                     s: float) -> tuple[complex, complex]:
    """Drift entries (m11, m12) of the ``mode`` ('x' or 'y') fluctuations.

    m12 is given for real alpha_x; a drive phase phi multiplies it by
    e^{2i*phi}, which leaves the margin unchanged.  ``delta_c`` and ``s``
    may be arrays; the entries are then arrays of the same bits.
    """
    if mode == "x":
        return (-kappa - 1j * (delta_c - delta_0 + 2.0 * delta_0 * s),
                -1j * delta_0 * s)
    return (-kappa - 1j * (delta_c - delta_0 + delta_0 * s),
            1j * delta_0 * (s / 2.0))


def drift_radicand(m11: complex, m12: complex) -> float:
    """r = |m12|^2 - Im(m11)^2: the drift eigenvalues are Re(m11) +/- sqrt(r),
    a real pair if r >= 0, else a complex pair; elementwise on arrays."""
    coupling, rotation = abs(m12), m11.imag
    return coupling * coupling - rotation * rotation


def drift_margin(kappa: float, m11: complex, m12: complex) -> float:
    """Largest real part of the drift eigenvalues (rad/s), in closed form: a
    ``float``, or elementwise on arrays of entries with the same bits."""
    margin = -kappa + np.sqrt(np.maximum(drift_radicand(m11, m12), 0.0))
    return margin if isinstance(margin, np.ndarray) else float(margin)


def cubic_coefficients(params: PhysicalParams, power: float, delta_c):
    """Coefficients (a3, a2, a1, a0) of the steady-state cubic in I.

    ``delta_c`` may be a 1-D array; a2 and a1 are then arrays like it.
    """
    d0 = linear_dephasing(params)
    c = kerr_coefficient(params)
    dl = delta_c - d0
    slope = d0 * c
    return (slope * slope,
            2.0 * dl * slope,
            params.kappa * params.kappa + dl * dl,
            -2.0 * params.kappa * power)


def _cubic_roots(shift, c, d) -> np.ndarray:
    """Roots of the monic x^3 + 3*shift*x^2 + c*x + d, one row per entry of
    the (n, 1) columns ``shift`` and ``c``, as (n, 3) real numbers.

    With x = t - shift the cubic reads t^3 - 3*q*t + 2*r = 0.  Where the
    discriminant r^2 - q^3 is negative all three roots are real and come
    from Viète's trigonometric form; elsewhere Cardano's form gives the one
    real root, then the real part of the complex pair twice, or 0 twice
    unless its imaginary part is within 1e-9 of the largest root (or of 1),
    where ``np.roots`` would have called the pair real.  No square of r or
    cube of q is formed, so roots up to about 1e100 stay finite.  Each row's
    bits are its own; a grid that takes one form computes only that one.
    Runs in the caller's ``errstate``: a form a row does not take is NaN.
    """
    shift2 = shift * shift
    q = shift2 - c / 3.0
    r = (shift2 - 0.5 * c) * shift + 0.5 * d
    root_q = np.sqrt(np.abs(q))
    q32, abs_r = q * root_q, np.abs(r)  # sign(q)*|q|^1.5: q^3 = q32*|q32|
    three = abs_r < q32                 # r^2 < q^3
    count = np.count_nonzero(three)
    if count == three.size:
        return _viete(shift, root_q, q32, r, d)
    if count == 0:
        return _cardano(shift, q, q32, r, abs_r, d)
    return np.where(three, _viete(shift, root_q, q32, r, d),
                    _cardano(shift, q, q32, r, abs_r, d))


def _viete(shift, root_q, q32, r, d) -> np.ndarray:
    """The three real roots x = -2*sqrt(q)*cos((acos(r/q^1.5) + 2*pi*k)/3)
    - shift, k = 0, 1, -1."""
    cosine = np.fmax(np.fmin(r / q32, 1.0), -1.0)   # |.| > 1: rounding
    x = -2.0 * root_q * np.cos((np.arccos(cosine) + _TURNS) / 3.0) - shift
    # the smallest root far below the largest loses its digits to shift:
    # take it from the product of the roots, x*x_a*x_b = -d, instead
    size = np.abs(x)
    small = (size == size.min(axis=1, keepdims=True)) & (
        size < 1e-8 * size.max(axis=1, keepdims=True))
    return np.where(small, -d / x[:, [1, 2, 0]] / x[:, [2, 0, 1]], x)


def _cardano(shift, q, q32, r, abs_r, d) -> np.ndarray:
    """Cardano's real root x1 = u + q/u - shift, u = -sign(r)*cbrt(|r| +
    sqrt(r^2 - q^3)), then the complex pair's real part twice, 0 unless the
    pair is real to 1e-9; its imaginary part is sqrt(3)/2*|u - q/u|."""
    radical = np.where(q < 0.0, np.hypot(abs_r, q32),   # r^2 + |q|^3
                       np.sqrt(abs_r - q32) * np.sqrt(abs_r + q32))
    u = np.copysign(np.cbrt(abs_r + radical), -r)
    v = q / np.where(u == 0.0, 1.0, u)  # u = 0 only at a triple root, q = 0
    w = u + v
    x1, re, im = w - shift, -0.5 * w - shift, _HALF_SQRT3 * np.abs(u - v)
    modulus = np.hypot(re, im)
    # x1 below the pair loses its digits to shift (a weak drive): take it
    # from the product of the roots, x1*|pair|^2 = -d, instead
    x1 = np.where(np.abs(x1) < modulus, -d / modulus / modulus, x1)
    pair = re * (im <= 1e-9 * np.fmax(np.fmax(np.abs(x1), modulus), 1.0))
    return np.concatenate((x1, pair, pair), axis=1)   # 0: not a root


def _real_roots(params: PhysicalParams, power: float,
                delta_c: np.ndarray) -> np.ndarray:
    """Real non-negative roots of the cubic at each detuning, as (n, 3) rows:
    each row's roots in ascending order, then NaN.

    The raw roots come from ``_cubic_roots`` on the monic cubic, or are
    -a0/a1 where a3 = 0; the positive ones are kept.  Each gets up to three
    Newton steps, stopping on its own, and coincident roots are merged, all
    in array arithmetic, which rounds as floats do; the results agree with
    the exact roots of the float coefficients, and with ``np.roots``
    polished alike, to about 1e-12 relative.  A coefficient that overflows
    to inf (or NaN), a dephasing whose denominator underflows, or a row
    left without a root (its roots too far apart for floats) raises
    ``NumericalError``.
    """
    try:
        with np.errstate(all="ignore"):   # inf and NaN fail the check below
            a3, a2, a1, a0 = cubic_coefficients(params, power, delta_c)
    except ZeroDivisionError as exc:
        raise NumericalError("linear dephasing divides by zero: "
                             "delta * transmission underflows") from exc
    p = np.empty((len(delta_c), 4))
    p[:, 0], p[:, 1], p[:, 2], p[:, 3] = a3, a2, a1, a0
    if not np.isfinite(p).all():
        bad = p[~np.isfinite(p).all(axis=1)][0]
        raise NumericalError(f"steady-state cubic overflows: coefficients "
                             f"{tuple(bad.tolist())} are not finite")
    roots = np.full((len(p), 3), np.nan)
    if a0 == 0.0:                       # no drive: the one root I = 0
        roots[:, 0] = 0.0
        return roots
    a2, a1 = p[:, 1:2], p[:, 2:3]       # (n, 1) columns against (n, 3) roots
    with np.errstate(all="ignore"):     # quiet inf and NaN, as for floats
        # a3 = 0: no atoms, or a Kerr slope whose square underflows, so
        # that a2*I^2 is below rounding at the root of the line a1*I + a0
        if a3 == 0.0:
            roots[:, :1] = -a0 / a1
        else:
            roots = _cubic_roots(a2 / (3.0 * a3), a1 / a3, a0 / a3)
        live = roots > 0.0              # the physical roots only
        roots[~live] = np.nan
        for _ in range(3):
            d = (3.0 * a3 * roots + 2.0 * a2) * roots + a1
            step = (((a3 * roots + a2) * roots + a1) * roots + a0) / d
            polished = roots - step
            np.copyto(roots, polished, where=live & (d != 0.0))
            # an inf or NaN step (d == 0 too) stops; a NaN root stays NaN
            live &= np.abs(step) > 1e-16 * np.abs(polished)
            if not live.any():
                break
        roots.sort(axis=1)              # NaN last
        for j in 1, 2:                  # merge into the last root kept
            column, last = roots[:, j], np.fmax(roots[:, 0], roots[:, j - 1])
            column[np.abs(column - last) <= MERGE_RTOL * np.maximum(
                np.abs(column), np.abs(last))] = np.nan
    roots.sort(axis=1)                  # merged roots' NaN to the end
    # a0 < 0 < a3, or a0 < 0 < a1 on a line: each row has a positive root
    lost = ~(roots[:, 0] < np.inf)
    if lost.any():
        raise NumericalError(
            f"steady-state cubic {tuple(p[lost][0].tolist())} at delta_c = "
            f"{delta_c[lost].tolist()[0]!r} has no finite positive root in "
            f"floats")
    return roots


def _branch_columns(params: PhysicalParams, power: float, grid: np.ndarray):
    """Branch counts, then (n, 3) columns of the cubic's roots, intensity,
    saturation, driven-mode stable flag and orthogonal-mode margin at each
    detuning of ``grid``: NaN (False) past a row's branches, and each entry
    with the bits the scalar formulas give on floats."""
    roots = _real_roots(params, power, grid)
    present = ~np.isnan(roots)
    counts = present.sum(axis=1)
    alpha, delta_c = np.sqrt(roots[present]), np.repeat(grid, counts)
    s = saturation(alpha, params)     # one entry per branch, row by row
    d0, kappa = linear_dephasing(params), params.kappa
    intensity, s_x, margin_x, margin_y = np.full((4, *roots.shape), np.nan)
    intensity[present], s_x[present] = alpha * alpha, s
    margin_x[present], margin_y[present] = (drift_margin(
        kappa, *linearized_drift(mode, kappa, delta_c, d0, s)) for mode in "xy")
    return counts, roots, intensity, s_x, margin_x < 0.0, margin_y


def steady_states(params: PhysicalParams, drive: DriveField,
                  delta_c: float) -> list[SteadyState]:
    """All steady-state branches at one cavity detuning, sorted by intensity.

    Each branch carries its own drive phase such that alpha_x is real and
    positive, and satisfies the complex steady-state relation to within
    ``RESIDUAL_RTOL``.
    """
    (n,), *columns = _branch_columns(params, drive.power,
                                     np.array([delta_c], float))
    d0, kappa = linear_dephasing(params), params.kappa
    branches = []
    for idx, (root, _, s, stable, margin) in enumerate(
            zip(*(column[0, :n].tolist() for column in columns))):
        alpha_x = complex(math.sqrt(root))
        alpha_in = ((kappa + 1j * (delta_c - d0 + d0 * s))   # D(I)
                    * alpha_x / math.sqrt(2.0 * kappa))
        branches.append(SteadyState(alpha_x, s, delta_c, d0, idx, stable,
                                    margin, alpha_in))
    return branches


def steady_state_residual(steady: SteadyState, params: PhysicalParams) -> float:
    """|[kappa + i*(delta_c - delta_0*(1 - s))]*alpha_x - sqrt(2k)*alpha_in|."""
    bracket = params.kappa + 1j * (steady.delta_c
                                   - steady.delta_0 * (1.0 - steady.s_x))
    return abs(bracket * steady.alpha_x
               - math.sqrt(2.0 * params.kappa) * steady.alpha_in)


def drive_for_intensity(params: PhysicalParams, delta_c: float,
                        intensity: float) -> float:
    """Incident photon flux P that sustains intracavity intensity I."""
    d0 = linear_dephasing(params)
    det = delta_c - d0 + d0 * kerr_coefficient(params) * intensity
    return (intensity * (params.kappa * params.kappa + det * det)
            / (2.0 * params.kappa))


def turning_points(params: PhysicalParams,
                   delta_c: float) -> list[tuple[float, float]]:
    """Fold points (I, P) of the S-curve where dP/dI = 0, sorted by I.

    Solving dP/dI = 0 with u = delta_0*c*I gives
    3 u^2 + 4 (delta_c - delta_0) u + (delta_c - delta_0)^2 + kappa^2 = 0;
    real solutions require |delta_c - delta_0| >= sqrt(3)*kappa and a sign of
    u compatible with I > 0.
    """
    d0 = linear_dephasing(params)
    c = kerr_coefficient(params)
    slope = d0 * c
    if slope == 0.0:
        return []
    dl = delta_c - d0
    disc = dl * dl - 3.0 * (params.kappa * params.kappa)
    if disc < 0.0:
        return []
    sq = math.sqrt(disc)
    points = []
    for u in ((-2.0 * dl - sq) / 3.0, (-2.0 * dl + sq) / 3.0):
        intensity = u / slope
        if intensity <= 0.0:
            continue
        points.append((intensity,
                       drive_for_intensity(params, delta_c, intensity)))
    points.sort()
    return points


@dataclass(frozen=True, eq=False)
class ScanResult:
    """Ordered cavity scan as columns, one row per detuning.

    The branch columns have one column per branch in order of intensity,
    NaN (False) past a row's ``n_branches``.  ``selected_branch`` is the
    branch the scan actually follows: continuation by intensity proximity
    among dynamically stable branches, so the traversal stays on the branch
    it entered on and jumps only when that branch disappears at a fold.
    The columns carry the bits of the branches ``steady_states`` gives at
    each detuning; for the ``SteadyState`` objects of one row, call it.
    """

    params: PhysicalParams
    delta_c: np.ndarray               # (n,) rad/s
    n_branches: np.ndarray            # (n,)
    roots: np.ndarray                 # (n, 3) intensity roots of the cubic
    intensity: np.ndarray             # (n, 3) SteadyState.intensity
    mean_field_stable: np.ndarray     # (n, 3)
    y_mode_margin: np.ndarray         # (n, 3) rad/s
    selected_branch: np.ndarray       # (n,)

    def selected(self, column: np.ndarray) -> np.ndarray:
        """Each row's entry of the selected branch in a branch column."""
        return column[np.arange(len(column)), self.selected_branch]

    def selected_intensity(self) -> np.ndarray:
        return self.selected(self.intensity)

    def transmitted_intensity(self) -> np.ndarray:
        """Flux of each circular component, half of 2*kappa*I."""
        return 0.5 * (2.0 * self.params.kappa * self.selected_intensity())

    @property
    def linear_polarization_stable(self) -> np.ndarray:
        return self.selected(self.y_mode_margin) < 0.0


def cavity_scan(params: PhysicalParams, drive: DriveField,
                delta_c_grid: np.ndarray) -> ScanResult:
    """Scan the cavity detuning and record branches, outputs and stability.

    The transmitted circular components each carry half of the driven-mode
    output photon flux 2*kappa*I while the linear polarization is stable.
    The branches come from the columnar solve ``steady_states`` runs on a
    grid of one, here ``SCAN_BLOCK`` rows at a time, so the memory beyond
    the result's columns is set by the block; only the continuation runs
    point by point, through one block's rows at a time.
    """
    grid = np.array(delta_c_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValidationError("detuning grid must be 1-D with >= 2 points")
    steps = np.diff(grid)
    if not (np.all(steps > 0) or np.all(steps < 0)):
        raise ValidationError("detuning grid must be strictly monotone")
    counts, selected = np.empty((2, grid.size), dtype=int)
    roots, intensity, margin = np.empty((3, grid.size, 3))
    stable, previous = np.empty((grid.size, 3), dtype=bool), None
    for start in range(0, grid.size, SCAN_BLOCK):
        rows, picks = slice(start, start + SCAN_BLOCK), []
        counts[rows], roots[rows], intensity[rows], _, stable[rows], \
            margin[rows] = _branch_columns(params, drive.power, grid[rows])
        for n, levels, flags in zip(counts[rows].tolist(),
                                    intensity[rows].tolist(),
                                    stable[rows].tolist()):
            candidates = [j for j in range(n) if flags[j]] or list(range(n))
            j = candidates[0] if previous is None else min(  # first: lowest
                candidates, key=lambda j: abs(levels[j] - previous))
            previous = levels[j]
            picks.append(j)
        selected[rows] = picks
    return ScanResult(params, grid, counts, roots, intensity, stable, margin,
                      selected)
