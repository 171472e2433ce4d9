"""Brute-force stochastic verification of the analytic spectra.

For linear dynamics driven by Gaussian noise, symmetrized quantum spectra
coincide with the spectra of a classical complex process driven by
half-quantum white noise: <dxi dxi*> = dt/2, <dxi dxi> = 0.  That
equivalence is the foundation of this module.  It integrates

    d a = (m11*a + m12*conj(a)) dt + sqrt(2*kappa) dxi

by Euler-Maruyama and forms the two output quadratures

    b_k = sqrt(2*kappa)*a_k - xi_k/dt,
    X_0[k] = 2*Re(b_k),   X_pi/2[k] = 2*Im(b_k),

from which every homodyne angle follows,
X_theta = cos(theta)*X_0 + sin(theta)*X_pi/2 = 2*Re(e^{-i*theta} b_k).
The -xi_k/dt feed-through reuses the increment that drives step k; that is
the consistent discretization of the white input appearing both in the
cavity drive and in the output.

Spectra are windowed, segment-averaged periodograms with error bars from the
segment scatter.  They come from the 2x2 cross-spectral periodogram of the
pair: with A, B the segment FFTs of X_0, X_pi/2, the periodogram of X_theta
is cos^2 |A|^2 + sin^2 |B|^2 + sin(2 theta) Re(A conj(B)), so one FFT per
segment serves every angle and X_theta is never formed.  Asked for a few
bins, Welch forms only those: the Hann window is even, so each segment is
folded into the sums and differences of its samples t and L - t, and two
matrix products per batch of segments, with the windowed cos and -sin
bases of half a segment's length, give the bins' real and imaginary parts.

The per-step recursion runs in ``_kernel``, a numpy block scan that writes
the pair over its (n, 2) noise buffer, one chunk of CHUNK steps per call; its
output does not depend on how the run is split into chunks of whole blocks.
``oracle_psd`` streams each chunk into the Welch sums, so its memory is
O(CHUNK), not O(steps).  A chunk's noise is drawn into one buffer that the
kernel then overwrites with X; one helper thread draws the next chunk and
runs Welch on the previous one while the kernel runs.  Output depends on
neither chunking nor thread.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _kernel
from .errors import ValidationError
from .spectra import FluctuationModel, NoiseSpectrum
from .steady import drift_radicand

MAX_STEP_FRACTION = 0.1   # dt * |m11| above this is too coarse to trust
CHUNK = 1 << 16   # steps per kernel call, whole blocks; sets the scratch size
# Welch transforms up to BATCH_SEGMENTS segments per FFT call, fewer when
# they would exceed BATCH_SAMPLES samples, never fewer than one: few calls
# per segment keep the helper thread's interpreter-lock handoffs with the
# kernel loop rare, and the sample cap bounds the batch buffers
BATCH_SEGMENTS = 8
BATCH_SAMPLES = 1 << 16
# index pairs into (a, b, r) of the second moments a^2, b^2, r^2, ab, ar, br
_SECOND = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))


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
        if not self.seed >= 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if not self.duration >= 1000.0 * self.dt:
            raise ValidationError("duration must be at least 1000*dt")
        if not math.isfinite(self.duration / self.dt):
            raise ValidationError("cannot convert float infinity to integer: "
                                  "the step count duration/dt overflows")
        if not 0.0 <= self.burn_in <= 0.5:
            raise ValidationError("burn_in fraction must lie in [0, 0.5]")
        if len(self.theta_list) == 0:
            raise ValidationError("theta_list must not be empty")

    @property
    def n_steps(self) -> int:
        return int(round(self.duration / self.dt))

    @property
    def n_burn(self) -> int:
        return int(self.burn_in * self.n_steps)


@dataclass(frozen=True, eq=False)
class QuadratureSeries:
    """Output quadrature records after burn-in removal.

    Only the pair (X_0, X_pi/2) is stored; any angle's record is
    X_theta = cos(theta)*X_0 + sin(theta)*X_pi/2 of its columns, and
    ``psd_estimate`` gives the spectrum of each of ``thetas`` without it.
    """

    dt: float
    thetas: tuple[float, ...]
    quadratures: np.ndarray             # shape (n_kept, 2): X_0, X_pi/2


def _step_radius(model: FluctuationModel, dt: float) -> float:
    """Spectral radius of the one-step EM map I + dt*M, in closed form: its
    eigenvalues are 1 + dt*(Re(m11) +/- sqrt(r)), r the drift radicand, a
    real pair if r >= 0, else a complex pair of one modulus."""
    radicand = drift_radicand(model.m11, model.m12)
    centre = 1.0 + dt * model.m11.real
    if radicand >= 0.0:
        return abs(centre) + dt * math.sqrt(radicand)
    return math.hypot(centre, dt * math.sqrt(-radicand))


def _check_trajectory(model: FluctuationModel, cfg: TrajectoryConfig) -> None:
    """Raise unless the EM run of ``cfg`` on ``model`` is sound: the model
    passes ``FluctuationModel.require_stable``, the step is fine enough, and
    the one-step map's spectral radius, ``_step_radius``, is below 1."""
    model.require_stable()
    if cfg.dt * abs(model.m11) > MAX_STEP_FRACTION:
        raise ValidationError(
            f"step too coarse: dt*|m11| = {cfg.dt * abs(model.m11):.3g} "
            f"> {MAX_STEP_FRACTION}")
    # a nearly reactive drift can pass the dt*|m11| bound and still diverge
    radius = _step_radius(model, cfg.dt)
    if radius >= 1.0:
        raise ValidationError(f"Euler-Maruyama step diverges: one-step map "
                              f"spectral radius {radius:.8g} >= 1; reduce dt")


def _integrate(model: FluctuationModel, cfg: TrajectoryConfig,
               rows, sink) -> None:
    """Run the checked EM trajectory of ``cfg`` chunk by chunk, in order.

    Chunk k lives in one buffer, ``rows(k, done, m)`` of shape (m, 2): its
    noise is drawn into it, then on this thread the kernel writes the chunk's
    quadratures (X_0, X_pi/2) over it, while one helper thread draws chunk
    k+1 and runs ``sink(done, buffer)`` on chunk k-1.  The helper runs its
    queue in order, and draw k+1 is queued after sink k-1, so sink k-1 ends
    before draw k+1 writes; two buffers can alternate.
    """
    from concurrent.futures import ThreadPoolExecutor

    n_total = cfg.n_steps
    rng = np.random.default_rng(cfg.seed)
    sigma = 0.5 * math.sqrt(cfg.dt)  # per-component std of dxi

    def draw(buf):
        # (re, im) pairs keep the noise stream independent of chunking
        rng.standard_normal(out=buf.reshape(-1))
        buf *= sigma
        return buf

    spans = [(done, min(CHUNK, n_total - done))
             for done in range(0, n_total, CHUNK)]
    a = 0j
    with ThreadPoolExecutor(max_workers=1) as pool:
        noise = pool.submit(draw, rows(0, *spans[0]))
        sunk = []
        for k, (done, _) in enumerate(spans):
            buf = noise.result()
            if k + 1 < len(spans):
                noise = pool.submit(draw, rows(k + 1, *spans[k + 1]))
            if k >= 2:
                sunk[k - 2].result()    # passes a sink's error on
            a = _kernel.integrate_em(
                complex(model.m11), complex(model.m12), float(model.kappa),
                float(cfg.dt), buf, a)
            sunk.append(pool.submit(sink, done, buf))
        for future in sunk[-2:]:
            future.result()


def simulate(model: FluctuationModel,
             cfg: TrajectoryConfig) -> QuadratureSeries:
    """Integrate the linear fluctuation dynamics on ``default_rng(seed)``.

    Each chunk's noise is drawn into its rows of the output and the kernel
    writes X over it.
    """
    _check_trajectory(model, cfg)
    x_out = np.empty((cfg.n_steps, 2))
    _integrate(model, cfg, lambda k, done, m: x_out[done:done + m],
               lambda done, x: None)
    return QuadratureSeries(dt=cfg.dt, quadratures=x_out[cfg.n_burn:],
                            thetas=tuple(float(t) for t in cfg.theta_list))


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
    """Hann-windowed cross-spectral periodogram sums of the quadrature pair.

    Each segment of the two quadratures (X_0, X_pi/2) gives A, B, the FFTs
    of its windowed columns.  The sums hold the first moments of a = |A|^2,
    b = |B|^2, r = Re(A conj(B)) and their six second moments, from which
    ``result`` forms every angle's periodogram c^2 a + s^2 b + 2cs r and its
    segment scatter; the density normalization is applied there, once.
    Segments that straddle row blocks are assembled from the kept tail.
    They go through the FFT in fixed groups of ``batch``
    consecutive segments, and the groups' moments are added in order, so
    the sums do not depend on how the rows are split.  With ``bins``, only
    those bins are formed, in place of the FFT: each segment is folded
    about its middle and multiplied by two windowed bases, cos for the
    real parts and -sin for the imaginary ones, of L//2 rows each.
    """

    def __init__(self, n: int, thetas, dt: float, segment_length: int,
                 overlap: float, bins=None) -> None:
        try:
            length = operator.index(segment_length)
        except TypeError:
            length = 0
        if length < 2:
            raise ValidationError(f"segment_length must be an integer >= 2, "
                                  f"got {segment_length!r}")
        if length > n:
            raise ValidationError("segment_length exceeds series length")
        if not 0.0 <= overlap <= 0.9:
            raise ValidationError("overlap must lie in [0, 0.9]")
        self.hop, self.n_seg = welch_segments(n, length, overlap)
        self.length = length
        self.thetas = np.asarray(thetas, dtype=float)
        self.omega = welch_omega(length, dt)
        self.window = np.hanning(length + 1)[:-1]   # periodic Hann
        self.norm = dt / np.sum(self.window * self.window)
        self.batch = max(1, min(BATCH_SEGMENTS, BATCH_SAMPLES // length))
        self.bases = None
        if bins is None:
            self.segs = np.empty((self.batch, 2, length))   # windowed, pending
        else:
            picked = np.asarray(bins)
            if not (picked.ndim == 1 and picked.size > 0
                    and picked.dtype.kind in "iu"
                    and (picked[1:] > picked[:-1]).all()  # diff wraps on uint
                    and 0 <= picked[0] and picked[-1] < self.omega.size):
                raise ValidationError(f"bins must be increasing integer "
                                      f"indices below {self.omega.size}")
            self.omega = self.omega[picked]
            # the window is even, w_t = w_{L-t}, with w_0 = 0, so over
            # t = 1..L//2, Re X(k) = sum (x_t + x_{L-t}) w_t cos(2 pi k t/L)
            # and Im X(k) = sum (x_t - x_{L-t}) w_t (-sin(2 pi k t/L)).  Each
            # basis entry is w_t times one of the L twiddles
            # exp(-2j*pi/L * turn) at its turn t*k mod L, built one column
            # at a time (no (L, bins) temporaries)
            steps = np.arange(length)
            twiddles = np.exp(-2j * math.pi / length * steps)
            half = steps[1:length // 2 + 1]
            window = self.window[half]
            self.bases = np.empty((2, half.size, picked.size))  # re, im
            for j, k in enumerate(picked.tolist()):
                column = window * twiddles[half * k % length]
                self.bases[:, :, j] = column.real, column.imag
            # folded, pending: the unpaired x_{L/2}'s difference stays 0
            self.segs = np.zeros((2, self.batch, 2, half.size))
        n_omega = self.omega.size
        self.pending = 0
        self.products = np.empty((self.batch, 2 * n_omega))
        self.moments = np.empty((self.batch, 3, n_omega))   # a, b, r
        self.group_sum = np.empty(n_omega)
        self.sums = np.zeros((9, n_omega))
        self.tail = np.empty((0, 2))    # rows from the next segment on

    def feed(self, rows: np.ndarray) -> None:
        """Add the segments that end in ``rows``, an (m, 2) quadrature block."""
        length, hop, tail = self.length, self.hop, self.tail
        n_head = 0                      # segments starting in the tail
        if len(tail):
            head = np.concatenate((tail, rows[:length - 1]))
            n_head = len(range(0, min(len(tail), len(head) - length + 1), hop))
            if n_head:
                self._add(sliding_window_view(head, length, axis=0)[
                    :n_head * hop:hop])
        first = n_head * hop - len(tail)    # next start, in ``rows``
        n_body = len(range(first, len(rows) - length + 1, hop))
        if n_body:
            self._add(sliding_window_view(rows, length, axis=0)[
                first:first + n_body * hop:hop])
        nxt = first + n_body * hop
        self.tail = (np.concatenate((tail[nxt:], rows)) if nxt < 0 else
                     rows[nxt:].copy())

    def _add(self, windows: np.ndarray) -> None:
        """Window or fold the segments ``windows`` (k, 2, length) into the
        pending group."""
        done = 0
        while done < len(windows):
            take = min(self.batch - self.pending, len(windows) - done)
            part = windows[done:done + take]
            into = slice(self.pending, self.pending + take)
            if self.bases is None:
                np.multiply(part, self.window, out=self.segs[into])
            else:           # x_t with x_{L-t}; x_{L/2} alone if L is even
                pairs = (self.length - 1) // 2
                ahead = part[..., 1:pairs + 1]
                behind = part[..., :-pairs - 1:-1]
                np.add(ahead, behind, out=self.segs[0, into, :, :pairs])
                np.subtract(ahead, behind, out=self.segs[1, into, :, :pairs])
                self.segs[0, into, :, pairs:] = part[
                    ..., pairs + 1:self.length - pairs]
            self.pending += take
            done += take
            if self.pending == self.batch:
                self._flush()

    def _dft(self, k: int) -> np.ndarray:
        """DFT of the first ``k`` pending segments at the kept bins, as
        rfft's (re, im) pairs viewed as float64, shape (k, 2, 2 * n_omega)."""
        if self.bases is None:
            return np.fft.rfft(self.segs[:k]).view(np.float64)
        parts = [(folded[:k].reshape(2 * k, -1) @ basis).reshape(k, 2, -1)
                 for folded, basis in zip(self.segs, self.bases)]
        return np.stack(parts, axis=-1).reshape(k, 2, -1)

    def _flush(self) -> None:
        """Add the moments of the pending group to the sums."""
        k, self.pending = self.pending, 0
        if k == 0:
            return
        x = self._dft(k)
        mom, prod = self.moments[:k], self.products[:k]
        np.multiply(x[:, 0], x[:, 1], out=prod)
        np.add(prod[:, 0::2], prod[:, 1::2], out=mom[:, 2])     # r
        np.square(x, out=x)
        np.add(x[:, :, 0::2], x[:, :, 1::2], out=mom[:, :2])    # a, b
        for m in mom:
            self.sums[:3] += m
        for j, (u, v) in enumerate(_SECOND, start=3):
            self.sums[j] += np.einsum("kf,kf->f", mom[:, u], mom[:, v],
                                      out=self.group_sum)

    def result(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        self._flush()
        n_seg = self.n_seg
        c, s = np.cos(self.thetas), np.sin(self.thetas)
        coef = (c * c, s * s, 2.0 * c * s)   # periodogram = coef . (a, b, r)
        sums = self.sums[:, :, None]
        mean = self.norm * np.maximum(
            sum(coef[u] * sums[u] for u in range(3)), 0.0) / n_seg
        # sum over segments of the periodogram squared
        acc2 = self.norm * self.norm * sum(
            (1.0 if u == v else 2.0) * coef[u] * coef[v] * sums[j]
            for j, (u, v) in enumerate(_SECOND, start=3))
        var = np.maximum(acc2 - n_seg * (mean * mean), 0.0) / (n_seg - 1)
        return self.omega, mean, np.sqrt(var / n_seg), n_seg


def welch_omega(segment_length: int, dt: float) -> np.ndarray:
    """Welch bin frequencies in rad/s: 2 pi ``rfftfreq(segment_length, dt)``.

    Formed as numpy forms them, without importing ``numpy.fft``, so the
    config check of the oracle's band does not pay for that import.
    """
    return 2.0 * math.pi * (np.arange(segment_length // 2 + 1)
                            * (1.0 / (segment_length * dt)))


def welch_segments(n: int, segment_length: int,
                   overlap: float) -> tuple[int, int]:
    """Hop and count of the Welch segments of ``n`` samples; at least 4."""
    hop = max(1, int(round(segment_length * (1.0 - overlap))))
    n_seg = max(0, (n - segment_length) // hop + 1)
    if n_seg < 4:
        raise ValidationError(
            f"need at least 4 segments for error bars, got {n_seg}")
    return hop, n_seg


def welch_psd(quadratures: np.ndarray, thetas, dt: float, segment_length: int,
              overlap: float = 0.5,
              bins=None) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Hann-windowed averaged periodogram of X_theta for each of ``thetas``.

    ``quadratures`` holds the columns (X_0, X_pi/2); X_theta = cos(theta)*X_0
    + sin(theta)*X_pi/2 is never formed, its periodogram comes from the 2x2
    cross-spectral periodogram of the pair.  Density convention:
    P(omega) = dt * |FFT(x*window)|^2 / sum(window^2), so a flat process with
    per-sample variance v has PSD v*dt and the shot-noise-discretized output
    (variance 1/dt) sits at 1.  Returns (omega, mean, stderr, n_segments),
    mean and stderr of shape (n_omega, n_theta); the DC bin is included,
    frequencies are rad/s.  ``bins``, increasing indices into
    ``rfftfreq(segment_length, dt)``, keeps only those rows and computes
    no others; they equal the full estimate's rows to rounding.
    """
    x = np.asarray(quadratures, dtype=float)
    if x.ndim != 2 or x.shape[1] != 2:
        raise ValidationError(
            f"quadratures must have shape (n, 2), got {x.shape}")
    welch = _Welch(x.shape[0], thetas, dt, segment_length, overlap, bins)
    welch.feed(x)
    return welch.result()


def psd_estimate(series: QuadratureSeries, segment_length: int,
                 overlap: float = 0.5, bins=None) -> PsdEstimate:
    """Welch estimate of the output quadrature spectra of ``series``."""
    return PsdEstimate(*welch_psd(series.quadratures, series.thetas,
                                  series.dt, segment_length, overlap, bins),
                       thetas=series.thetas)


def oracle_psd(model: FluctuationModel, cfg: TrajectoryConfig,
               segment_length: int, overlap: float = 0.5,
               bins=None) -> PsdEstimate:
    """``psd_estimate(simulate(model, cfg), ...)`` without the sample array.

    Chunks go from the kernel straight into the Welch sums, burn-in dropped,
    through two alternating chunk buffers, so memory is O(CHUNK) whatever
    the duration.  Results and errors match the two-call path.
    """
    _check_trajectory(model, cfg)
    n_total, n_burn = cfg.n_steps, cfg.n_burn
    welch = _Welch(n_total - n_burn, cfg.theta_list, cfg.dt, segment_length,
                   overlap, bins)
    buffers = [np.empty((min(CHUNK, n_total), 2))
               for _ in range(min(2, -(-n_total // CHUNK)))]
    _integrate(model, cfg, lambda k, done, m: buffers[k % len(buffers)][:m],
               lambda done, x: welch.feed(x[max(0, n_burn - done):]))
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
