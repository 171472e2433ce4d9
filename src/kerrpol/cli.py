"""Config-driven command line: scan | spectrum | stokes | oracle | validate.

Configuration is a flat ``key = value`` text file (``#`` comments).  MHz
values are converted to rad/s exactly once, at this boundary.  A command
checks every key's own rules and then only what it runs; ``validate`` checks
what every command runs.  Exit codes:
0 success, 1 validation error or an unreadable config or unwritable output,
2 numerical failure (instability, singularity, or a violated physical
invariant: noise under the loss floor or an uncertainty product below 1),
3 oracle mismatch.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import __version__
from .errors import NumericalError, ValidationError
from .oracle import (TrajectoryConfig, compare, kernel_backend, oracle_psd,
                     welch_omega, welch_segments)
from .params import DriveField, PhysicalParams, TWO_PI_MHZ
from .spectra import (build_drift_x, build_drift_y, fold_angle,
                      min_max_spectrum, model_validity, noise_spectrum)
from .steady import cavity_scan, cubic_coefficients, steady_states
from .stokes import apply_detection_loss, phase_scan_dataset, stokes_noise
from .tables import OutputTable, finite_json, write_files


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs, in user units (MHz, degrees, seconds)."""

    # cavity and atomic ensemble
    kappa_mhz: float = 5.0
    gamma_perp_mhz: float = 1.3
    gamma_par_mhz: float = 1.3
    gamma_mhz: float = 2.6
    delta_mhz: float = -50.0
    transmission: float = 0.1
    n_atoms: float = 5000000.0
    g_coupling_mhz: float = 2.203230756026887e-06
    eta_det: float = 0.718
    # drive: optical power and the power-to-flux calibration constant
    power_uw: float = 7.0
    flux_per_uw: float = 8.681320413586838e+22
    # operating point
    delta_c_mhz: float = -283.3151955708165
    branch: str = "high"
    # cavity-length scan bounds and step
    scan_start_mhz: float = -380.0
    scan_stop_mhz: float = -130.0
    scan_step_mhz: float = 0.25
    # spectrum analysis grid
    freqs_mhz: tuple = (3.0, 6.0)
    theta_start_deg: float = -180.0
    theta_stop_deg: float = 180.0
    theta_points: int = 241
    # stochastic oracle
    oracle_dt: float = 5e-11
    oracle_duration: float = 0.00025
    oracle_seed: int = 20201
    oracle_burn_in: float = 0.02
    oracle_segment_length: int = 16384
    oracle_overlap: float = 0.5
    oracle_perturb_sx: float = 0.0
    # output
    out_dir: str = "out"
    format: str = "csv"


# most scan points a config may ask for; a scan at the cap still completes
MAX_SCAN_POINTS = 1_000_000
_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
_KEY_ORDER = [f.name for f in fields(RunConfig)]

# template section titles, keyed by each section's first key
_SECTION_TITLES = {
    "kappa_mhz": "cavity and atomic ensemble (rates in MHz = rate / 2pi)",
    "power_uw": "drive power and the power -> |alpha_in|^2 calibration",
    "delta_c_mhz": "operating point for spectrum / stokes / oracle",
    "scan_start_mhz": "cavity scan bounds and step",
    "freqs_mhz": "analysis frequencies and homodyne phase grid",
    "oracle_dt": "stochastic oracle (dt and duration in seconds)",
    "out_dir": "output",
}


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw!r} is not finite")
    return value


def _parse_value(key: str, raw: str):
    kind = _FIELD_TYPES[key]
    if key == "freqs_mhz":
        parts = [p.strip() for p in raw.split(",") if p.strip()]
        if not parts:
            raise ValueError("expected at least one frequency")
        return tuple(_finite(p) for p in parts)
    if kind == "int":
        return int(raw)
    if kind == "float":
        return _finite(raw)
    return raw


def _line(cfg: RunConfig, key: str) -> str:
    value = getattr(cfg, key)
    if key == "freqs_mhz":
        return f"{key} = " + ", ".join(repr(float(v)) for v in value)
    return f"{key} = {float(value)!r}" if isinstance(value, float) \
        else f"{key} = {value}"


def parse_config(text: str, overrides: dict | None = None) -> RunConfig:
    """Parse a flat key=value configuration and check it as ``validate`` does.

    Unknown keys, duplicates, syntax problems and violated physical
    invariants are reported with the offending key and line number; keys
    absent from the file keep their defaults.  ``overrides`` (command-line
    values) replace the file's and go through the same validation.
    """
    return _parse(text, overrides, "validate")


def _parse(text: str, overrides: dict | None, command: str) -> RunConfig:
    values: dict = {}
    lines: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValidationError(
                f"config line {lineno}: expected 'key = value', got "
                f"{stripped!r}")
        key, _, value = (part.strip() for part in stripped.partition("="))
        if key not in _FIELD_TYPES:
            raise ValidationError(f"config line {lineno}: unknown key {key!r}")
        if key in values:
            raise ValidationError(
                f"config line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _parse_value(key, value)
        except ValueError as exc:
            raise ValidationError(
                f"config line {lineno}: bad value for {key!r}: {exc}") from None
        lines[key] = f"line {lineno}"
    for key, value in (overrides or {}).items():
        values[key], lines[key] = value, "override"
    cfg = replace(RunConfig(), **values)
    _validate_config(cfg, lines, command)
    return cfg


def render_config(cfg: RunConfig) -> str:
    """Canonical key=value rendering; comments excluded."""
    return "\n".join(_line(cfg, key) for key in _KEY_ORDER) + "\n"


def config_template(cfg: RunConfig | None = None) -> str:
    """Commented configuration template with canonical values."""
    cfg = cfg or RunConfig()
    lines = []
    for key in _KEY_ORDER:
        if key in _SECTION_TITLES:
            lines += ["", f"# {_SECTION_TITLES[key]}"]
        lines.append(_line(cfg, key))
    return "\n".join(lines[1:]) + "\n"


def config_hash(cfg: RunConfig) -> str:
    """Hash of the physics-relevant configuration.

    Output destination and format do not alter the computed numbers and are
    excluded, so runs into different directories stay byte-comparable.
    """
    physics = "\n".join(_line(cfg, key) for key in _KEY_ORDER
                        if key not in ("out_dir", "format"))
    return hashlib.sha256(physics.encode()).hexdigest()[:16]


def _validate_config(cfg: RunConfig, lines: dict, command: str) -> None:
    """Every key's own rules, then the checks of what ``command`` runs."""
    def fail(key: str, message: str):
        where = lines.get(key, "default")
        raise ValidationError(f"config {where}: {key}: {message}")

    if cfg.kappa_mhz <= 0:
        fail("kappa_mhz", "must be > 0")
    for key in ("gamma_perp_mhz", "gamma_par_mhz"):
        if getattr(cfg, key) < 0:
            fail(key, "decay channels must be >= 0")
    if cfg.gamma_mhz != cfg.gamma_perp_mhz + cfg.gamma_par_mhz:
        fail("gamma_mhz",
             f"must equal gamma_perp_mhz + gamma_par_mhz exactly "
             f"({cfg.gamma_mhz} != {cfg.gamma_perp_mhz} + {cfg.gamma_par_mhz})")
    if cfg.delta_mhz == 0:
        fail("delta_mhz", "zero detuning is outside the dispersive model")
    if not 0 < cfg.transmission <= 1:
        fail("transmission", "must lie in (0, 1]")
    if not 0 < cfg.eta_det <= 1:
        fail("eta_det", "must lie in (0, 1]")
    if cfg.n_atoms < 0:
        fail("n_atoms", "must be >= 0")
    if cfg.power_uw < 0:
        fail("power_uw", "must be >= 0")
    if cfg.flux_per_uw <= 0:
        fail("flux_per_uw", "must be > 0")
    if cfg.branch not in ("high", "low") and not _is_index(cfg.branch):
        fail("branch", "must be 'high', 'low' or a branch index 0..2")
    if cfg.scan_step_mhz <= 0:
        fail("scan_step_mhz", "must be > 0")
    if cfg.scan_stop_mhz <= cfg.scan_start_mhz:
        fail("scan_stop_mhz", "must exceed scan_start_mhz")
    if not cfg.freqs_mhz or any(f <= 0 for f in cfg.freqs_mhz):
        fail("freqs_mhz", "analysis frequencies must be > 0")
    if cfg.theta_points < 2:
        fail("theta_points", "need at least 2 phase points")
    if cfg.theta_stop_deg <= cfg.theta_start_deg:
        fail("theta_stop_deg", "must exceed theta_start_deg")
    if cfg.oracle_dt <= 0:
        fail("oracle_dt", "must be > 0")
    if cfg.oracle_seed < 0:
        fail("oracle_seed", "must be >= 0")
    if cfg.oracle_duration < 1000.0 * cfg.oracle_dt:
        fail("oracle_duration", "must be at least 1000 * oracle_dt")
    if not 0 <= cfg.oracle_burn_in <= 0.5:
        fail("oracle_burn_in", "must lie in [0, 0.5]")
    if cfg.oracle_segment_length < 16:
        fail("oracle_segment_length", "must be >= 16")
    if not 0 <= cfg.oracle_overlap <= 0.9:
        fail("oracle_overlap", "must lie in [0, 0.9]")
    if cfg.oracle_perturb_sx <= -1:
        fail("oracle_perturb_sx", "must exceed -1")
    if not cfg.out_dir:
        fail("out_dir", "must not be empty")
    if cfg.format not in ("csv", "json"):
        fail("format", "must be 'csv' or 'json'")
    point = command in ("spectrum", "stokes", "oracle", "validate")
    scan = command in ("scan", "validate")
    oracle = command in ("oracle", "validate")
    # a3 and a0 are alike at every detuning, so every command checks them at
    # 0; |a2| and |a1| peak at a scan end or at the operating point
    params, power = build_params(cfg), build_drive(cfg).power
    for key in ("n_atoms", *(("delta_c_mhz",) if point else ()),
                *(("scan_start_mhz", "scan_stop_mhz") if scan else ())):
        delta_c = 0.0 if key == "n_atoms" else getattr(cfg, key) * TWO_PI_MHZ
        try:
            *coeffs, a0 = cubic_coefficients(params, power, delta_c)
        except ValidationError:   # delta * delta underflows to zero
            fail("delta_mhz", "its square underflows to zero")
        except ZeroDivisionError:   # delta * transmission underflows
            coeffs, a0 = [math.inf], 0.0
        if not math.isfinite(a0):
            fail("power_uw", "the steady-state cubic is not finite")
        if not all(map(math.isfinite, coeffs)):
            fail(key, "the steady-state cubic is not finite")
    # the cubic checks keep the span finite
    if scan and not 2 <= _scan_points(cfg) <= MAX_SCAN_POINTS:
        fail("scan_step_mhz", f"must leave 2 to {MAX_SCAN_POINTS} scan points")
    if not oracle:
        return
    # the oracle's Welch segments and compared band, before any run; the
    # segment count keeps the bin grid no longer than the trajectory
    try:
        traj = _trajectory(cfg)
        welch_segments(traj.n_steps - traj.n_burn, cfg.oracle_segment_length,
                       cfg.oracle_overlap)
    except ValidationError as exc:
        fail("oracle_duration", str(exc))
    try:
        _oracle_band(cfg)
    except ValidationError as exc:
        fail("oracle_segment_length", str(exc))


def _scan_points(cfg: RunConfig) -> float:
    """Scan point count, start to stop by step; inf for a step too fine."""
    return np.floor((cfg.scan_stop_mhz - cfg.scan_start_mhz)
                    / cfg.scan_step_mhz + 1e-9) + 1


def _is_index(branch: str) -> bool:
    try:
        return int(branch) >= 0
    except ValueError:
        return False


def build_params(cfg: RunConfig) -> PhysicalParams:
    return PhysicalParams.from_mhz(
        kappa_mhz=cfg.kappa_mhz, gamma_perp_mhz=cfg.gamma_perp_mhz,
        gamma_par_mhz=cfg.gamma_par_mhz, gamma_mhz=cfg.gamma_mhz,
        delta_mhz=cfg.delta_mhz, transmission=cfg.transmission,
        n_atoms=cfg.n_atoms, g_coupling_mhz=cfg.g_coupling_mhz,
        eta_det=cfg.eta_det)


def build_drive(cfg: RunConfig) -> DriveField:
    return DriveField.from_power(cfg.power_uw * cfg.flux_per_uw)


def _trajectory(cfg: RunConfig, theta_list=(0.0,)) -> TrajectoryConfig:
    return TrajectoryConfig(dt=cfg.oracle_dt, duration=cfg.oracle_duration,
                            seed=cfg.oracle_seed, burn_in=cfg.oracle_burn_in,
                            theta_list=theta_list)


def _oracle_band(cfg: RunConfig) -> np.ndarray:
    """Indices of the oracle's Welch bins within 0.1 to 3 kappa, >= 10.

    The Welch grid depends only on the segment length and dt, so the band
    is checked before any step is integrated.
    """
    omega = welch_omega(cfg.oracle_segment_length, cfg.oracle_dt)
    kappa = cfg.kappa_mhz * TWO_PI_MHZ
    band = np.nonzero((omega >= 0.1 * kappa) & (omega <= 3.0 * kappa))[0]
    if band.size < 10:
        raise ValidationError(
            "oracle PSD resolution too coarse for the comparison band; "
            "decrease oracle_dt or increase oracle_segment_length: "
            f"{band.size} bins in {cfg.kappa_mhz / 10:g}-{cfg.kappa_mhz * 3:g}"
            " MHz, 10 needed (kappa_mhz, oracle_dt, oracle_segment_length)")
    return band


def select_branch(cfg: RunConfig, params: PhysicalParams):
    """Steady-state branch at the configured operating point."""
    delta_c = cfg.delta_c_mhz * TWO_PI_MHZ
    branches = steady_states(params, build_drive(cfg), delta_c)
    if _is_index(cfg.branch):
        idx = int(cfg.branch)
        if idx >= len(branches):
            raise NumericalError(
                f"branch {idx} requested but only {len(branches)} branches "
                f"exist at delta_c = {cfg.delta_c_mhz} MHz")
        return branches[idx]
    stable = [b for b in branches if b.mean_field_stable]
    if not stable:
        raise NumericalError(
            f"no dynamically stable branch at delta_c = {cfg.delta_c_mhz} MHz")
    return stable[-1] if cfg.branch == "high" else stable[0]


def _grids(cfg: RunConfig):
    """The phase grid in rad, the frequencies in MHz and in rad/s."""
    freqs = np.array(cfg.freqs_mhz)
    return np.radians(np.linspace(cfg.theta_start_deg, cfg.theta_stop_deg,
                                  cfg.theta_points)), freqs, freqs * TWO_PI_MHZ


def _base_meta(cfg: RunConfig) -> dict:
    return {"generator": f"kerrpol {__version__}",
            "config_hash": config_hash(cfg), "seed": cfg.oracle_seed}


def cmd_validate(cfg: RunConfig, log=print) -> int:
    params = build_params(cfg)
    steady = select_branch(cfg, params)
    for mode in ("y", "x"):    # y first: the mode the commands default to
        _build_drift(steady, params, mode).require_stable()
    log(f"configuration ok (hash {config_hash(cfg)})")
    if params.bad_cavity:
        log("note: bad-cavity regime, cavity linewidth exceeds the atomic "
            f"linewidth ({cfg.kappa_mhz} > {cfg.gamma_mhz} MHz)")
    for warning in params.validity_warnings():
        log(f"warning: {warning}")
    return 0


def cmd_scan(cfg: RunConfig) -> OutputTable:
    grid_mhz = cfg.scan_start_mhz + cfg.scan_step_mhz * np.arange(
        _scan_points(cfg))
    scan = cavity_scan(build_params(cfg), build_drive(cfg),
                       grid_mhz * TWO_PI_MHZ)
    half = scan.transmitted_intensity()
    return OutputTable(
        name="scan",
        columns=["delta_c_mhz", "n_branches", "intensity_branch0",
                 "intensity_branch1", "intensity_branch2", "selected_branch",
                 "i_plus", "i_minus", "mean_field_stable",
                 "linear_polarization_stable"],
        units=["MHz", "1", "photon", "photon", "photon", "1", "photon/s",
               "photon/s", "bool", "bool"],
        data=[grid_mhz, scan.n_branches, *scan.intensity.T,
              scan.selected_branch, half, half,
              scan.selected(scan.mean_field_stable),
              scan.linear_polarization_stable],
        meta={**_base_meta(cfg), "power_uw": cfg.power_uw},
        missing={f"intensity_branch{j}": scan.n_branches <= j
                 for j in range(3)})


def _build_drift(steady, params: PhysicalParams, mode: str):
    return (build_drift_y if mode == "y" else build_drift_x)(steady, params)


def _operating_point(cfg: RunConfig, mode: str, log):
    """Parameters, branch and stable ``mode`` model; warnings go to ``log``."""
    if mode not in ("x", "y"):
        raise ValidationError(f"mode must be 'x' or 'y', got {mode!r}")
    params = build_params(cfg)
    steady = select_branch(cfg, params)
    model = _build_drift(steady, params, mode)
    model.require_stable()
    for freq in cfg.freqs_mhz:
        for warning in model_validity(model, params, freq * TWO_PI_MHZ):
            log(f"warning ({freq} MHz): {warning}")
    return params, steady, model


def cmd_spectrum(cfg: RunConfig, mode: str = "y",
                 log=lambda *_: None) -> OutputTable:
    params, steady, model = _operating_point(cfg, mode, log)
    thetas, freqs, omegas = _grids(cfg)
    # per frequency: the theta grid, then the minimum and the maximum
    s = np.empty((freqs.size, thetas.size + 2))
    theta = np.empty_like(s)
    s[:, :-2] = noise_spectrum(model, omegas, thetas).values
    theta[:, :-2] = thetas
    s[:, -2], s[:, -1], theta[:, -2] = min_max_spectrum(model, omegas)
    theta[:, -1] = fold_angle(theta[:, -2] + math.pi / 2.0)
    s = s.ravel()
    return OutputTable(
        name=f"spectrum_{mode}",
        columns=["kind", "omega_mhz", "theta_rad", "s", "s_after_loss"],
        units=["-", "MHz", "rad", "1", "1"],
        data=[(["grid"] * thetas.size + ["min", "max"]) * freqs.size,
              np.repeat(freqs, thetas.size + 2), theta.ravel(), s,
              apply_detection_loss(s, params.eta_det)],
        meta={**_base_meta(cfg), "mode": mode,
              "branch_index": steady.branch_index,
              "s_x": steady.s_x, "eta_det": params.eta_det})


def cmd_stokes(cfg: RunConfig,
               log=lambda *_: None) -> tuple[OutputTable, OutputTable]:
    params, steady, model = _operating_point(cfg, "y", log)
    thetas, freqs, omegas = _grids(cfg)
    scan = phase_scan_dataset(model, omegas, thetas, eta=params.eta_det)
    summary = stokes_noise(noise_spectrum(model, omegas,
                                          np.array([0.0, math.pi / 2.0])))
    scan_table = OutputTable(
        name="stokes_scan",
        columns=["omega_mhz", "theta_hd_rad", "cos_theta", "v_theta"],
        units=["MHz", "rad", "1", "1"],
        data=[np.repeat(freqs, thetas.size), *scan],
        meta={**_base_meta(cfg), "eta_det": params.eta_det,
              "branch_index": steady.branch_index})
    summary_table = OutputTable(
        name="stokes_summary",
        columns=["omega_mhz", "v_s2_norm", "v_s3_norm",
                 "uncertainty_product"],
        units=["MHz", "1", "1", "1"],
        data=[freqs, *summary],
        meta={**_base_meta(cfg), "branch_index": steady.branch_index})
    return scan_table, summary_table


def cmd_oracle(cfg: RunConfig, mode: str = "y",
               log=lambda *_: None) -> dict:
    """Stochastic-vs-analytic consistency report for the configured point."""
    params, steady, model = _operating_point(cfg, mode, log)
    sim_model = model
    if cfg.oracle_perturb_sx != 0.0:
        factor = 1.0 + cfg.oracle_perturb_sx
        scaled = replace(steady,
                         alpha_x=steady.alpha_x * math.sqrt(factor),
                         s_x=steady.s_x * factor)
        sim_model = _build_drift(scaled, params, mode)
        if not sim_model.is_stable:
            raise NumericalError("perturbed oracle model is unstable")

    band = _oracle_band(cfg)
    picks = band[np.linspace(0, band.size - 1, 12).round().astype(int)]
    picks = picks[np.diff(picks, prepend=-1) > 0]    # sorted: drop repeats

    _, _, theta_min = min_max_spectrum(model, cfg.freqs_mhz[0] * TWO_PI_MHZ)
    theta_list = (theta_min, fold_angle(theta_min + math.pi / 2.0))
    traj = _trajectory(cfg, theta_list)
    estimate = oracle_psd(sim_model, traj, cfg.oracle_segment_length,
                          cfg.oracle_overlap, bins=picks)
    report = compare(noise_spectrum(model, estimate.omega, theta_list),
                     estimate)
    return {
        **_base_meta(cfg),
        "mode": mode,
        "backend": kernel_backend(),
        "n_steps": traj.n_steps,
        "n_segments": estimate.n_segments,
        "perturb_sx": cfg.oracle_perturb_sx,
        "comparison": report.to_dict(),
    }


def _load_config(args) -> RunConfig:
    text = ""
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    flags = {"out_dir": args.out, "format": args.format,
             "oracle_seed": args.seed}
    return _parse(text, {key: value for key, value in flags.items()
                         if value is not None}, args.command)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kerrpol",
        description="Saturable Kerr-cavity polarization squeezing simulator")
    parser.add_argument("--version", action="version",
                        version=f"kerrpol {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (
            ("scan", "cavity-length scan dataset"),
            ("spectrum", "quadrature noise spectra"),
            ("stokes", "Stokes noise and phase scan"),
            ("oracle", "stochastic check of the analytic spectra"),
            ("validate", "validate a configuration"),
            ("template", "print the default configuration")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="path to a key=value config file")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--format", choices=["csv", "json"],
                       help="output format (overrides config)")
        p.add_argument("--seed", type=int,
                       help="oracle seed (overrides config)")
        if name in ("spectrum", "oracle"):
            p.add_argument("--mode", choices=["x", "y"], default="y")

    args = parser.parse_args(argv)
    warn = functools.partial(print, file=sys.stderr)
    try:
        cfg = _load_config(args)
        if args.command == "template":
            sys.stdout.write(config_template(cfg))
            return 0
        if args.command == "validate":
            return cmd_validate(cfg)
        tables = {"scan": lambda: (cmd_scan(cfg),),
                  "spectrum": lambda: (cmd_spectrum(cfg, args.mode, log=warn),),
                  "stokes": lambda: cmd_stokes(cfg, log=warn)}.get(args.command)
        if tables:
            first, *more = tables()
            print(*first.write(cfg.out_dir, cfg.format, *more), sep="\n")
            return 0
        if args.command == "oracle":
            report = cmd_oracle(cfg, args.mode, log=warn)
            print(*write_files(cfg.out_dir, [("oracle_report.json",
                                              finite_json(report))]))
            if not report["comparison"]["passed"]:
                print(f"oracle mismatch: max |z| = "
                      f"{report['comparison']['max_abs_z']:.2f}",
                      file=sys.stderr)
                return 3
            return 0
    except (ValidationError, OSError) as exc:   # OSError: config or output
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
