"""Direct per-angle Welch reference for the cross-spectral estimator.

One windowed periodogram per angle column and segment of the samples
X_theta, in the textbook order, mean and scatter in two passes;
``kerrpol.oracle.welch_psd`` must match it to rounding noise.  Same return
value as ``welch_psd``: (omega, mean, stderr, n_segments).
"""

import math

import numpy as np


def welch_psd(samples, dt, segment_length, overlap):
    n = samples.shape[0]
    hop = max(1, int(round(segment_length * (1.0 - overlap))))
    window = np.hanning(segment_length + 1)[:-1]      # periodic Hann
    norm = dt / np.sum(window ** 2)
    p = np.array([
        norm * np.abs(np.fft.rfft(samples[s:s + segment_length]
                                  * window[:, None], axis=0)) ** 2
        for s in range(0, n - segment_length + 1, hop)])
    omega = 2.0 * math.pi * np.fft.rfftfreq(segment_length, d=dt)
    stderr = p.std(axis=0, ddof=1) / math.sqrt(len(p))
    return omega, p.mean(axis=0), stderr, len(p)
