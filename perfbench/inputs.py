"""Seeded inputs for the three benchmark workloads.

Everything the program sees in a run is generated here from ``--seed``: the
configuration files handed to the CLI and the operating points handed to the
library.  The same seed always gives the same inputs.  The work size of a
workload (steps, grid sizes) is fixed; the seed moves only values, so runs
with different seeds measure the same amount of work.  ``oracle-default``
runs the shipped config and ignores the seed (see ``oracle_default``).

This module does not import kerrpol: the generator checks its own draws with
its own formulas, so a defect in the program cannot shape its inputs.
"""

from __future__ import annotations

import math
import os
import re

import numpy as np

WORKLOADS = ("oracle-default", "oracle-phases", "analytic-sweep")
_SALT = {name: i for i, name in enumerate(WORKLOADS)}

DEFAULT_CFG = os.path.join("configs", "default.cfg")

# oracle-phases: kappa = 1 units, fixed work per operation
PHASE_POINTS = 4
PHASE_STEPS = 400_000
PHASE_DT = 0.01
PHASE_THETAS = 16
PHASE_SEGMENT = 4096
PHASE_BAND = (0.3, 9.0)          # compared frequencies, units of kappa
MAX_STEP_FRACTION = 0.1          # dt*|m11| limit the program enforces
MARGIN_SLACK = 0.4               # keep drift eigenvalues this far from 0
MAX_ROTATION = 2.5               # |Im m11| limit, see _draw_point

# analytic-sweep: fixed grid sizes
SCAN_POINTS = 8000
SCAN_STEP_MHZ = 0.0625           # exact in binary, so the grid size is exact
N_FREQS = 60
THETA_POINTS = 481


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), _SALT[workload]])


def _default_config_text(root: str) -> str:
    with open(os.path.join(root, DEFAULT_CFG), "r", encoding="utf-8") as fh:
        return fh.read()


def _set_key(text: str, key: str, value: str) -> str:
    out, n = re.subn(rf"(?m)^{key}\s*=.*$", f"{key} = {value}", text)
    if n != 1:
        raise ValueError(f"expected one {key!r} line in the config, got {n}")
    return out


def _config_value(text: str, key: str) -> str:
    match = re.search(rf"(?m)^{key}\s*=\s*(.*?)\s*$", text)
    if match is None:
        raise ValueError(f"config has no {key!r} line")
    return match.group(1)


def oracle_default(seed: int, root: str) -> dict:
    """Shipped default.cfg, verbatim, whatever the seed.

    Only ``--mode y`` runs: on the shipped config ``--mode x`` diverges (its
    EM update has spectral radius above 1).  The shipped ``oracle_seed`` is
    kept: ``compare`` needs 23 of its 24 correlated points within 3 sigma,
    and about 2% of drawn seeds miss that by chance.  A benchmark run must
    not contain an operation that fails, so neither is varied here.
    """
    text = _default_config_text(root)
    dt = float(_config_value(text, "oracle_dt"))
    steps = int(round(float(_config_value(text, "oracle_duration")) / dt))
    ops = [{"name": "oracle-y", "kind": "cli", "check": "oracle",
            "argv": ["oracle", "--mode", "y"], "em_steps": steps}]
    return {"configs": {"oracle.cfg": text}, "ops": ops}


def drift(mode: str, kappa: float, delta0: float, s: float,
          delta_c: float) -> tuple[complex, float]:
    """(m11, |m12|) of the linearized x- or y-mode drift."""
    if mode == "x":
        return complex(-kappa, -(delta_c - delta0 + 2.0 * delta0 * s)), \
            abs(delta0 * s)
    return complex(-kappa, -(delta_c - delta0 + delta0 * s)), \
        abs(delta0 * s / 2.0)


def em_map_radius(m11: complex, m12_abs: float, dt: float) -> float:
    """Spectral radius of the Euler-Maruyama update I + dt*M."""
    m = np.array([[m11, m12_abs], [m12_abs, m11.conjugate()]])
    return float(np.max(np.abs(np.linalg.eigvals(np.eye(2) + dt * m))))


def _margin(m11: complex, m12_abs: float) -> float:
    radicand = m12_abs ** 2 - m11.imag ** 2
    return m11.real + (math.sqrt(radicand) if radicand > 0.0 else 0.0)


def _draw_point(rng: np.random.Generator) -> dict:
    """One operating point, stable in both modes and safe for the EM step.

    Parameters follow the tests' kappa = 1 factory: the detuning sits at
    10*kappa and the atom number is solved so the linear dephasing is delta0.
    ``compare`` scores the EM output against the continuous spectrum, so its
    discretization bias grows with dt*|Im m11|; MAX_ROTATION keeps that bias
    well inside the error bars, and MARGIN_SLACK keeps every spectral line
    wider than two frequency bins.  Without both, some draws fail by bias,
    not by chance.
    """
    kappa, g, transmission = 1.0, 1e-3, 0.1
    while True:
        delta0 = float(rng.choice([-1.0, 1.0]) * rng.uniform(2.0, 8.0))
        s = float(rng.uniform(0.05, 0.3))
        chi = abs(delta0) * s / 2.0
        floor = math.sqrt(max(0.0, chi ** 2 - (1.0 - MARGIN_SLACK) ** 2))
        det_y = (float(rng.choice([-1.0, 1.0]))
                 * (floor + rng.uniform(0.05, 2.0)))
        delta_c = delta0 * (1.0 - s) + det_y
        ok = True
        for mode in ("x", "y"):
            m11, m12 = drift(mode, kappa, delta0, s, delta_c)
            ok &= (_margin(m11, m12) < -MARGIN_SLACK
                   and abs(m11.imag) <= MAX_ROTATION
                   and PHASE_DT * abs(m11) <= MAX_STEP_FRACTION
                   and em_map_radius(m11, m12, PHASE_DT) < 1.0)
        if ok:
            break
    delta = 10.0 * kappa * math.copysign(1.0, delta0)
    n_atoms = delta0 * delta * transmission / (2.0 * g ** 2 * kappa)
    c = 2.0 * g ** 2 / delta ** 2                    # s = c * intensity
    intensity = s / c
    detuning = delta_c - delta0 + delta0 * s
    power = intensity * (kappa ** 2 + detuning ** 2) / (2.0 * kappa)
    return {
        "params": {"kappa": kappa, "gamma_perp": 0.26, "gamma_par": 0.26,
                   "gamma": 0.52, "delta": delta, "transmission": transmission,
                   "n_atoms": n_atoms, "g_coupling": g, "eta_det": 0.718},
        "delta0": delta0, "s": s, "delta_c": delta_c,
        "intensity": intensity, "power": power,
        "em_seed": int(rng.integers(1, 2**31 - 1)),
    }


def oracle_phases(seed: int, root: str) -> dict:
    """Several drawn operating points, both modes, driven through the API."""
    rng = _rng("oracle-phases", seed)
    points = [_draw_point(rng) for _ in range(PHASE_POINTS)]
    offset = float(rng.uniform(0.0, math.pi / PHASE_THETAS))
    thetas = [offset - math.pi / 2.0 + k * math.pi / PHASE_THETAS
              for k in range(PHASE_THETAS)]
    ops = [{"name": f"point{i}-{mode}", "kind": "api", "check": "api",
            "point": i, "mode": mode, "em_steps": PHASE_STEPS}
           for i in range(PHASE_POINTS) for mode in ("y", "x")]
    return {"configs": {}, "points": points, "thetas": thetas,
            "dt": PHASE_DT, "duration": PHASE_STEPS * PHASE_DT,
            "burn_in": 0.01, "segment_length": PHASE_SEGMENT,
            "overlap": 0.5, "band": list(PHASE_BAND), "ops": ops}


def analytic_sweep(seed: int, root: str) -> dict:
    """A generated config whose scan crosses the bistable window.

    The operating point stays inside the region where the high branch is
    single-valued and stable in both modes (power 6.5-7.5 uW, detuning
    -310..-260 MHz); the scan runs from about -385 MHz to about +115 MHz, so
    both 1-root and 3-root detunings occur.
    """
    rng = _rng("analytic-sweep", seed)
    start = -380.0 - float(rng.integers(0, 11))
    stop = start + SCAN_STEP_MHZ * (SCAN_POINTS - 1)
    freqs = np.sort(rng.uniform(0.5, 12.0, N_FREQS))
    text = _default_config_text(root)
    for key, value in (
            ("power_uw", repr(float(rng.uniform(6.5, 7.5)))),
            ("delta_c_mhz", repr(float(rng.uniform(-310.0, -260.0)))),
            ("scan_start_mhz", repr(start)),
            ("scan_stop_mhz", repr(stop)),
            ("scan_step_mhz", repr(SCAN_STEP_MHZ)),
            ("freqs_mhz", ", ".join(repr(float(f)) for f in freqs)),
            ("theta_points", str(THETA_POINTS))):
        text = _set_key(text, key, value)
    grid = N_FREQS * THETA_POINTS
    ops = [{"name": name, "kind": "cli", "check": name, "argv": argv,
            "values": values}
           for name, argv, values in (
               ("scan", ["scan"], SCAN_POINTS),
               ("spectrum-x", ["spectrum", "--mode", "x", "--format", "json"],
                grid),
               ("spectrum-y", ["spectrum", "--mode", "y"], grid),
               ("stokes", ["stokes"], grid))]
    return {"configs": {"sweep.cfg": text}, "ops": ops,
            "eta_det": float(_config_value(text, "eta_det")),
            "scan_points": SCAN_POINTS, "n_freqs": N_FREQS,
            "theta_points": THETA_POINTS}


_GENERATORS = {"oracle-default": oracle_default,
               "oracle-phases": oracle_phases,
               "analytic-sweep": analytic_sweep}


def make_inputs(workload: str, seed: int, root: str = ".") -> dict:
    """The full input spec of one workload for one seed."""
    spec = _GENERATORS[workload](seed, root)
    spec.update(workload=workload, seed=int(seed))
    return spec
