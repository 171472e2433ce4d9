"""Physical parameters of the driven cavity + atomic ensemble.

All rates and detunings are stored internally in rad/s.  Configuration is
written in MHz and converted exactly once at the boundary
(:meth:`PhysicalParams.from_mhz`); a quoted linewidth of 5 MHz means
rate/(2*pi) = 5e6 Hz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError

TWO_PI_MHZ = 2.0 * math.pi * 1e6

# Below |delta| = 10*gamma the purely dispersive (large-detuning) treatment
# of the atomic response becomes questionable; flagged as a warning, not an
# error.
LARGE_DETUNING_FACTOR = 10.0


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class PhysicalParams:
    """Rates, detunings and couplings (rad/s unless dimensionless).

    Attributes
    ----------
    kappa : cavity amplitude decay rate.
    gamma_perp, gamma_par : the two decay channels of the optical dipole.
    gamma : total optical dipole decay rate, must equal
        ``gamma_perp + gamma_par`` exactly.
    delta : atomic detuning, signed (red detuning negative).
    transmission : coupling-mirror power transmission, in (0, 1].  Kept as a
        record of the physical mirror; the fluctuation algebra uses the
        single-port normalization and is independent of it.
    n_atoms : effective atom number.
    g_coupling : single-atom coupling constant.
    eta_det : total detection efficiency, in (0, 1].
    """

    kappa: float
    gamma_perp: float
    gamma_par: float
    gamma: float
    delta: float
    transmission: float
    n_atoms: float
    g_coupling: float
    eta_det: float

    def __post_init__(self) -> None:
        for name in ("kappa", "gamma_perp", "gamma_par", "gamma", "delta",
                     "transmission", "n_atoms", "g_coupling", "eta_det"):
            _require_finite(name, getattr(self, name))
        if not self.kappa > 0:
            raise ValidationError(f"kappa must be > 0, got {self.kappa}")
        if not 0.0 < self.transmission <= 1.0:
            raise ValidationError(
                f"transmission must lie in (0, 1], got {self.transmission}")
        if not 0.0 < self.eta_det <= 1.0:
            raise ValidationError(
                f"eta_det must lie in (0, 1], got {self.eta_det}")
        if self.gamma_perp < 0 or self.gamma_par < 0:
            raise ValidationError("decay channels must be non-negative")
        if self.n_atoms < 0:
            raise ValidationError("n_atoms must be non-negative")
        if self.gamma != self.gamma_perp + self.gamma_par:
            raise ValidationError(
                "gamma must equal gamma_perp + gamma_par exactly "
                f"({self.gamma} != {self.gamma_perp} + {self.gamma_par})")

    @classmethod
    def from_mhz(cls, *, kappa_mhz: float, gamma_perp_mhz: float,
                 gamma_par_mhz: float, gamma_mhz: float, delta_mhz: float,
                 transmission: float, n_atoms: float, g_coupling_mhz: float,
                 eta_det: float) -> "PhysicalParams":
        """Build from MHz user units (multiplies each rate by 2*pi*1e6).

        The gamma consistency check runs on the MHz values, before
        conversion, so that ``1.3 + 1.3 == 2.6`` is judged in the units the
        user wrote.
        """
        if gamma_mhz != gamma_perp_mhz + gamma_par_mhz:
            raise ValidationError(
                "gamma_mhz must equal gamma_perp_mhz + gamma_par_mhz exactly "
                f"({gamma_mhz} != {gamma_perp_mhz} + {gamma_par_mhz})")
        gamma_perp = gamma_perp_mhz * TWO_PI_MHZ
        gamma_par = gamma_par_mhz * TWO_PI_MHZ
        return cls(
            kappa=kappa_mhz * TWO_PI_MHZ,
            gamma_perp=gamma_perp,
            gamma_par=gamma_par,
            # recompute the sum in rad/s so the exact-equality invariant
            # survives the unit conversion
            gamma=gamma_perp + gamma_par,
            delta=delta_mhz * TWO_PI_MHZ,
            transmission=transmission,
            n_atoms=n_atoms,
            g_coupling=g_coupling_mhz * TWO_PI_MHZ,
            eta_det=eta_det,
        )

    @property
    def bad_cavity(self) -> bool:
        """True when the cavity linewidth exceeds the atomic linewidth."""
        return self.kappa > self.gamma

    def validity_warnings(self) -> list[str]:
        """Non-fatal model-validity notes carried by this parameter set."""
        warnings = []
        if abs(self.delta) < LARGE_DETUNING_FACTOR * self.gamma:
            warnings.append(
                "model-validity: |delta| < 10*gamma; the dispersive "
                "(large-detuning) expansion is unreliable here")
        return warnings


@dataclass(frozen=True)
class DriveField:
    """Coherent drive amplitude at the coupling mirror.

    ``alpha_in`` is in square-root photon-flux units, so ``power`` is a
    photon flux (photons/s).  The phase of the *stored* amplitude is
    nominal: each steady-state branch re-fixes arg(alpha_in) so that the
    intracavity field comes out real and positive.
    """

    alpha_in: complex

    def __post_init__(self) -> None:
        z = complex(self.alpha_in)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ValidationError(f"alpha_in must be finite, got {z!r}")

    @classmethod
    def from_power(cls, photon_flux: float) -> "DriveField":
        if photon_flux < 0:
            raise ValidationError(
                f"drive photon flux must be >= 0, got {photon_flux}")
        return cls(alpha_in=complex(math.sqrt(photon_flux)))

    @property
    def power(self) -> float:
        """Incident photon flux |alpha_in|^2."""
        amplitude = abs(complex(self.alpha_in))
        return amplitude * amplitude
