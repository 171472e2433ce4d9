"""Polarization squeezing in a saturable Kerr cavity.

Simulates a linearly polarized drive in a single-ended cavity filled with a
dispersive saturable medium: nonlinear steady states (bistability, the
switching instability of the orthogonal polarization), linearized quadrature
noise spectra of both polarization modes, quantum Stokes-parameter noise as
seen by phase-scanned homodyne detection, and a stochastic trajectory oracle
that cross-checks the analytic spectra.
"""

from .errors import (KerrpolError, NumericalError, SingularTransferError,
                     UnstableModelError, ValidationError)
from .oracle import (ComparisonReport, PsdEstimate, QuadratureSeries,
                     TrajectoryConfig, compare, kernel_backend, oracle_psd,
                     psd_estimate, simulate, welch_psd)
from .params import DriveField, PhysicalParams
from .spectra import (FluctuationModel, NoiseSpectrum, build_drift_x,
                      build_drift_y, drift_x_nonlinear, drift_y_nonlinear,
                      fold_angle, min_max_spectrum, model_validity,
                      noise_spectrum)
from .steady import (ScanResult, SteadyState, cavity_scan, drive_for_intensity,
                     kerr_coefficient, linear_dephasing, saturation,
                     steady_state_residual, steady_states, turning_points)
from .stokes import (apply_detection_loss, phase_scan_dataset,
                     recover_lossless, stokes_means, stokes_noise)

__version__ = "0.1.0"

__all__ = [
    "ComparisonReport", "DriveField", "FluctuationModel", "KerrpolError",
    "NoiseSpectrum", "NumericalError", "PhysicalParams", "PsdEstimate",
    "QuadratureSeries", "ScanResult", "SingularTransferError", "SteadyState",
    "TrajectoryConfig", "UnstableModelError", "ValidationError",
    "apply_detection_loss", "build_drift_x", "build_drift_y", "cavity_scan",
    "compare", "drift_x_nonlinear", "drift_y_nonlinear",
    "drive_for_intensity", "fold_angle", "kernel_backend", "kerr_coefficient",
    "linear_dephasing", "min_max_spectrum", "model_validity",
    "noise_spectrum", "oracle_psd", "phase_scan_dataset", "psd_estimate",
    "recover_lossless", "saturation", "simulate", "steady_state_residual",
    "steady_states", "stokes_means", "stokes_noise", "turning_points",
    "welch_psd",
]
