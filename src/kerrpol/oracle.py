"""Brute-force stochastic verification of the analytic spectra.

For linear dynamics driven by Gaussian noise, symmetrized quantum spectra
coincide with the spectra of a classical complex process driven by
half-quantum white noise: <dxi dxi*> = dt/2, <dxi dxi> = 0.  That
equivalence is the foundation of this module.  It integrates

    d a = (m11*a + m12*conj(a)) dt + sqrt(2*kappa) dxi

by Euler-Maruyama, forms output quadrature samples

    b_k = sqrt(2*kappa)*a_k - xi_k/dt,
    X_theta[k] = 2*Re(e^{-i*theta} b_k),

and estimates their power spectral density by a windowed, segment-averaged
periodogram with error bars from the segment scatter.  The -xi_k/dt
feed-through reuses the increment that drives step k; that is the consistent
discretization of the white input appearing both in the cavity drive and in
the output.

The per-step recursion runs in ``_kernel``, a numpy block scan whose output
does not depend on how the run is split into chunks of whole blocks.
``oracle_psd`` streams each chunk into the Welch sums, so its memory is
O(chunk), not O(steps); one helper thread draws the noise and runs Welch
while the kernel runs.  Output depends on neither the chunking nor the thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernel
from .errors import UnstableModelError, ValidationError
from .spectra import FluctuationModel, NoiseSpectrum

MAX_STEP_FRACTION = 0.1   # dt * |m11| above this is too coarse to trust
DEFAULT_CHUNK = 1 << 19   # noise samples per kernel call, whole blocks


def kernel_backend() -> str:
    """Integrator backend; the package has no compiled code."""
    return "python"


@dataclass(frozen=True)
class TrajectoryConfig:
    """Integration settings for one stochastic trajectory."""

    dt: float
    duration: float
    seed: int
    burn_in: float = 0.0
    theta_list: tuple[float, ...] = (0.0,)

    def __post_init__(self) -> None:
        if not self.dt > 0:
            raise ValidationError(f"dt must be > 0, got {self.dt}")
        if not self.duration >= 1000.0 * self.dt:
            raise ValidationError("duration must be at least 1000*dt")
        if not 0.0 <= self.burn_in <= 0.5:
            raise ValidationError("burn_in fraction must lie in [0, 0.5]")
        if len(self.theta_list) == 0:
            raise ValidationError("theta_list must not be empty")

    @property
    def n_steps(self) -> int:
        return int(round(self.duration / self.dt))


@dataclass(frozen=True, eq=False)
class QuadratureSeries:
    """Output quadrature records X_theta(t) after burn-in removal."""

    dt: float
    thetas: tuple[float, ...]
    samples: np.ndarray                 # shape (n_kept, n_theta)
    field: np.ndarray | None            # intracavity trajectory, optional
    seed: int


def _check_trajectory(model: FluctuationModel, cfg: TrajectoryConfig,
                      chunk_size: int) -> None:
    """Raise unless the EM run of ``cfg`` on ``model`` is sound."""
    if not model.is_stable:
        raise UnstableModelError(
            f"cannot simulate unstable {model.mode_label}-mode model "
            f"(margin {model.stability_margin:.3g} rad/s)")
    if cfg.dt * abs(model.m11) > MAX_STEP_FRACTION:
        raise ValidationError(
            f"step too coarse: dt*|m11| = {cfg.dt * abs(model.m11):.3g} "
            f"> {MAX_STEP_FRACTION}")
    # a nearly reactive drift can pass the dt*|m11| bound and still diverge
    step_map = np.eye(2) + cfg.dt * model.drift_matrix
    radius = float(np.max(np.abs(np.linalg.eigvals(step_map))))
    if radius >= 1.0:
        raise ValidationError(f"Euler-Maruyama step diverges: one-step map "
                              f"spectral radius {radius:.8g} >= 1; reduce dt")
    if chunk_size <= 0 or chunk_size % _kernel.BLOCK:
        raise ValidationError(
            f"chunk_size must be a positive multiple of {_kernel.BLOCK}")


def _integrate(model: FluctuationModel, cfg: TrajectoryConfig,
               chunk_size: int, store_field: bool, rows, sink) -> None:
    """Run the checked EM trajectory of ``cfg`` chunk by chunk, in order.

    The kernel fills ``rows(k, done, m)`` with chunk k on this thread while
    one helper thread draws chunk k+1's noise and runs ``sink(done, x,
    field)`` on chunk k-1.  Chunk k-2's sink ends before chunk k's rows are
    asked for, so two row buffers can alternate.
    """
    from concurrent.futures import ThreadPoolExecutor

    n_total = cfg.n_steps
    thetas = np.asarray(cfg.theta_list, dtype=float)
    cos_t = np.cos(thetas)
    sin_t = np.sin(thetas)
    rng = np.random.default_rng(cfg.seed)
    sigma = 0.5 * math.sqrt(cfg.dt)  # per-component std of dxi

    def draw(m):
        # (re, im) pairs keep the noise stream independent of chunking
        return (rng.standard_normal(2 * m) * sigma).view(np.complex128)

    spans = [(done, min(chunk_size, n_total - done))
             for done in range(0, n_total, chunk_size)]
    a = 0j
    with ThreadPoolExecutor(max_workers=1) as pool:
        noise = pool.submit(draw, spans[0][1])
        sunk = []
        for k, (done, m) in enumerate(spans):
            chunk_noise = noise.result()
            if k + 1 < len(spans):
                noise = pool.submit(draw, spans[k + 1][1])
            if k >= 2:
                sunk[k - 2].result()
            x, field, a = _kernel.integrate_em(
                complex(model.m11), complex(model.m12), float(model.kappa),
                float(cfg.dt), chunk_noise, cos_t, sin_t, a, store_field,
                rows(k, done, m))
            sunk.append(pool.submit(sink, done, x, field))
        for future in sunk[-2:]:
            future.result()


def simulate(model: FluctuationModel, cfg: TrajectoryConfig,
             store_field: bool = False,
             chunk_size: int = DEFAULT_CHUNK) -> QuadratureSeries:
    """Integrate the linear fluctuation dynamics; deterministic per seed.

    Noise comes from ``numpy.random.default_rng(seed)``: identical configs give
    bit-identical series for any ``chunk_size`` of whole kernel blocks.
    """
    _check_trajectory(model, cfg, chunk_size)
    n_total = cfg.n_steps
    n_burn = int(cfg.burn_in * n_total)
    x_out = np.empty((n_total, len(cfg.theta_list)))
    field_out = np.empty(n_total if store_field else 0, dtype=np.complex128)
    _integrate(model, cfg, chunk_size, store_field,
               lambda k, done, m: x_out[done:done + m],
               lambda done, x, field: np.copyto(
                   field_out[done:done + field.size], field))
    return QuadratureSeries(
        dt=cfg.dt,
        thetas=tuple(float(t) for t in cfg.theta_list),
        samples=x_out[n_burn:],
        field=field_out[n_burn:] if store_field else None,
        seed=cfg.seed)


@dataclass(frozen=True, eq=False)
class PsdEstimate:
    """Segment-averaged PSD per (omega, theta) with standard errors."""

    omega: np.ndarray                   # rad/s, positive bins
    psd: np.ndarray                     # shape (n_omega, n_theta)
    stderr: np.ndarray
    n_segments: int
    thetas: tuple[float, ...]

    def __post_init__(self) -> None:
        if np.any(self.psd < 0.0):
            raise ValidationError("PSD estimates cannot be negative")


class _Welch:
    """Hann-windowed periodogram sums over consecutive row blocks.

    Segments that straddle blocks are assembled from the kept tail, so the
    segments and the order of the sums do not depend on the split.
    """

    def __init__(self, n: int, n_cols: int, dt: float, segment_length: int,
                 overlap: float) -> None:
        if segment_length > n:
            raise ValidationError("segment_length exceeds series length")
        if not 0.0 <= overlap <= 0.9:
            raise ValidationError("overlap must lie in [0, 0.9]")
        self.hop = max(1, int(round(segment_length * (1.0 - overlap))))
        self.n_seg = len(range(0, n - segment_length + 1, self.hop))
        if self.n_seg < 4:
            raise ValidationError(
                f"need at least 4 segments for error bars, got {self.n_seg}")
        self.length = segment_length
        self.omega = 2.0 * math.pi * np.fft.rfftfreq(segment_length, d=dt)
        self.window = np.hanning(segment_length + 1)[:-1]   # periodic Hann
        self.norm = dt / np.sum(self.window ** 2)
        self.acc = np.zeros((segment_length // 2 + 1, n_cols))
        self.acc2 = np.zeros_like(self.acc)
        self.tail = np.empty((0, n_cols))   # rows from the next segment on

    def feed(self, rows: np.ndarray) -> None:
        length, tail = self.length, self.tail
        s = -len(tail)                      # next segment start in ``rows``
        while s + length <= len(rows):
            seg = (rows[s:s + length] if s >= 0 else
                   np.concatenate((tail[s:], rows[:s + length])))
            p = self.norm * np.abs(
                np.fft.rfft(seg * self.window[:, None], axis=0)) ** 2
            self.acc += p
            self.acc2 += p * p
            s += self.hop
        self.tail = (np.concatenate((tail[s:], rows)) if s < 0 else
                     rows[s:].copy())

    def result(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        n_seg = self.n_seg
        mean = self.acc / n_seg
        var = np.maximum(self.acc2 - n_seg * mean ** 2, 0.0) / (n_seg - 1)
        return self.omega, mean, np.sqrt(var / n_seg), n_seg


def welch_psd(samples: np.ndarray, dt: float, segment_length: int,
              overlap: float = 0.5) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Hann-windowed averaged periodogram on raw samples.

    Density convention: P(omega) = dt * |FFT(w*window)|^2 / sum(window^2),
    so a flat process with per-sample variance v has PSD v*dt and the
    shot-noise-discretized output (variance 1/dt) sits at 1.  Returns
    (omega, mean, stderr, n_segments); the DC bin is included, frequencies
    are rad/s.
    """
    x = np.atleast_2d(samples.T).T       # (n, n_cols)
    welch = _Welch(x.shape[0], x.shape[1], dt, segment_length, overlap)
    welch.feed(x)
    return welch.result()


def psd_estimate(series: QuadratureSeries, segment_length: int,
                 overlap: float = 0.5) -> PsdEstimate:
    """Welch estimate of the output quadrature spectra of ``series``."""
    return PsdEstimate(*welch_psd(series.samples, series.dt, segment_length,
                                  overlap), thetas=series.thetas)


def oracle_psd(model: FluctuationModel, cfg: TrajectoryConfig,
               segment_length: int, overlap: float = 0.5,
               chunk_size: int = DEFAULT_CHUNK) -> PsdEstimate:
    """``psd_estimate(simulate(model, cfg), ...)`` without the sample array.

    Chunks go from the kernel straight into the Welch sums, burn-in dropped,
    so memory is O(chunk_size); results and errors match the two-call path.
    """
    _check_trajectory(model, cfg, chunk_size)
    n_total = cfg.n_steps
    n_burn = int(cfg.burn_in * n_total)
    n_cols = len(cfg.theta_list)
    welch = _Welch(n_total - n_burn, n_cols, cfg.dt, segment_length, overlap)
    buffers = [np.empty((min(chunk_size, n_total), n_cols)) for _ in range(2)]
    _integrate(model, cfg, chunk_size, False,
               lambda k, done, m: buffers[k % 2][:m],
               lambda done, x, field: welch.feed(x[max(0, n_burn - done):]))
    return PsdEstimate(*welch.result(),
                       thetas=tuple(float(t) for t in cfg.theta_list))


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Pointwise z-scores of analytic spectra against PSD estimates."""

    omega: np.ndarray
    theta: np.ndarray
    analytic: np.ndarray
    empirical: np.ndarray
    stderr: np.ndarray
    z: np.ndarray
    max_abs_z: float
    fraction_within_3: float
    passed: bool

    def to_dict(self) -> dict:
        rows = [
            {"omega": float(w), "theta": float(t), "analytic": float(a),
             "empirical": float(e), "stderr": float(s), "z": float(z)}
            for w, t, a, e, s, z in zip(self.omega, self.theta, self.analytic,
                                        self.empirical, self.stderr, self.z)
        ]
        return {"points": rows,
                "max_abs_z": float(self.max_abs_z),
                "fraction_within_3": float(self.fraction_within_3),
                "passed": bool(self.passed)}


def compare(analytic: NoiseSpectrum, empirical: PsdEstimate) -> ComparisonReport:
    """z-score table (analytic - empirical)/stderr, point by point.

    ``analytic`` must be evaluated at the estimate's own grid: exactly its
    ``omega`` and ``thetas``, in order, with ``psd`` of the same shape.
    Passes when at least 95% of the points satisfy |z| <= 3.  A non-finite
    estimate or an error bar that is not finite and > 0 raises.
    """
    if not (np.array_equal(analytic.omega, empirical.omega)
            and np.array_equal(analytic.theta, empirical.thetas)
            and empirical.psd.shape == empirical.stderr.shape
            == analytic.values.shape):
        raise ValidationError(
            "analytic spectrum must be evaluated at the estimate's own "
            "omega and theta grid")
    n_omega, n_theta = analytic.values.shape
    ana = analytic.values.flatten()
    emp = empirical.psd.flatten()
    err = empirical.stderr.flatten()
    if not (np.all(np.isfinite(emp)) and np.all(np.isfinite(err) & (err > 0))):
        raise ValidationError(
            "compared PSD estimates must be finite, with finite stderr > 0")
    z = (ana - emp) / err
    max_abs = float(np.max(np.abs(z)))
    frac = float(np.mean(np.abs(z) <= 3.0))
    return ComparisonReport(
        omega=np.repeat(analytic.omega, n_theta),
        theta=np.tile(empirical.thetas, n_omega),
        analytic=ana, empirical=emp, stderr=err, z=z,
        max_abs_z=max_abs, fraction_within_3=frac,
        passed=frac >= 0.95)
