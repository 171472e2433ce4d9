"""Output checks, independent of the code the benchmark times.

The files the program wrote are read back with the standard csv and json
modules and each invariant is re-derived from the numbers alone; nothing
here imports kerrpol.  Every check returns a list of problems; an operation
whose list is not empty has failed.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections import defaultdict

MIN_ORACLE_POINTS = 20
PASS_FRACTION = 0.95
Z_LIMIT = 3.0


def _rows(path: str) -> list[dict]:
    """Rows of a CSV or JSON table as {column: value}; CSV cells stay text."""
    with open(path, encoding="utf-8") as fh:
        if path.endswith(".json"):
            table = json.load(fh)
            return [dict(zip(table["columns"], row)) for row in table["rows"]]
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(b))


def check_oracle(out: str, name: str) -> list[str]:
    with open(os.path.join(out, name), encoding="utf-8") as fh:
        return check_comparison(json.load(fh)["comparison"])


def check_comparison(comparison: dict) -> list[str]:
    """Finite PSD, real error bars, z recomputed, an honest pass flag."""
    points = comparison["points"]
    problems = []
    if len(points) < MIN_ORACLE_POINTS:
        problems.append(f"{len(points)} compared points < {MIN_ORACLE_POINTS}")
    within = 0
    for p in points:
        analytic, empirical = p["analytic"], p["empirical"]
        stderr = p["stderr"]
        if not (math.isfinite(empirical) and math.isfinite(analytic)):
            problems.append(f"non-finite PSD at omega={p['omega']}")
            continue
        if not (math.isfinite(stderr) and stderr > 0.0):
            problems.append(f"stderr {stderr} at omega={p['omega']}")
            continue
        z = (analytic - empirical) / stderr
        if not _close(p["z"], z, 1e-12):
            problems.append(f"z {p['z']} != recomputed {z}")
        within += abs(z) <= Z_LIMIT
    fraction = within / len(points) if points else 0.0
    if comparison["passed"] != (fraction >= PASS_FRACTION):
        problems.append(f"passed={comparison['passed']} but recomputed "
                        f"fraction within 3 sigma is {fraction:.4f}")
    if not comparison["passed"]:
        problems.append("comparison did not pass")
    return problems


def check_scan(out: str, expected_rows: int) -> list[str]:
    rows = _rows(os.path.join(out, "scan.csv"))
    problems = []
    if len(rows) != expected_rows:
        problems.append(f"scan has {len(rows)} rows, expected {expected_rows}")
    for row in rows:
        present = [row[f"intensity_branch{i}"] for i in range(3)
                   if row[f"intensity_branch{i}"] != ""]
        if len(present) != int(row["n_branches"]):
            problems.append(f"branch count mismatch at {row['delta_c_mhz']}")
        if not all(math.isfinite(v) and v >= 0.0 for v in map(float, present)):
            problems.append(f"bad intensity at {row['delta_c_mhz']}")
    return problems


def check_spectrum(out: str, name: str, eta: float, n_freqs: int,
                   n_thetas: int) -> list[str]:
    """s >= 0, pure before loss (S_min*S_max = 1), loss applied exactly."""
    rows = _rows(os.path.join(out, name))
    problems = []
    grid = defaultdict(list)
    extremes = defaultdict(dict)
    for row in rows:
        s, after = float(row["s"]), float(row["s_after_loss"])
        if not (math.isfinite(s) and s >= 0.0):
            problems.append(f"s = {s}")
        if not _close(after, eta * s + 1.0 - eta, 1e-12):
            problems.append(f"s_after_loss {after} != eta*s + 1 - eta")
        freq = float(row["omega_mhz"])
        if row["kind"] == "grid":
            grid[freq].append(s)
        else:
            extremes[freq][row["kind"]] = s
    if sum(map(len, grid.values())) != n_freqs * n_thetas:
        problems.append(f"grid has {sum(map(len, grid.values()))} values, "
                        f"expected {n_freqs * n_thetas}")
    if len(extremes) != n_freqs:
        problems.append(f"{len(extremes)} min/max pairs, expected {n_freqs}")
    for freq, ext in extremes.items():
        s_min, s_max = ext.get("min", math.nan), ext.get("max", math.nan)
        if not abs(s_min * s_max - 1.0) <= 1e-6:
            problems.append(f"S_min*S_max = {s_min * s_max} at {freq} MHz")
        slack = 1e-9 * max(1.0, s_max)
        if any(not s_min - slack <= s <= s_max + slack for s in grid[freq]):
            problems.append(f"grid value outside [S_min, S_max] at {freq} MHz")
    return problems


def check_stokes(out: str, eta: float, n_freqs: int,
                 n_thetas: int) -> list[str]:
    """Loss floor on the phase scan, Heisenberg bound on the summary."""
    scan = _rows(os.path.join(out, "stokes_scan.csv"))
    summary = _rows(os.path.join(out, "stokes_summary.csv"))
    problems = []
    if len(scan) != n_freqs * n_thetas:
        problems.append(f"phase scan has {len(scan)} rows, expected "
                        f"{n_freqs * n_thetas}")
    for row in scan:
        v = float(row["v_theta"])
        if not (math.isfinite(v) and v >= 1.0 - eta - 1e-12):
            problems.append(f"v_theta {v} below the loss floor {1.0 - eta}")
    if len(summary) != n_freqs:
        problems.append(f"summary has {len(summary)} rows, expected {n_freqs}")
    for row in summary:
        v2, v3 = float(row["v_s2_norm"]), float(row["v_s3_norm"])
        product = float(row["uncertainty_product"])
        if not product >= 1.0 - 1e-6:
            problems.append(f"uncertainty product {product} < 1")
        if not _close(product, v2 * v3, 1e-12):
            problems.append(f"uncertainty product {product} != V_S2*V_S3")
    return problems


def check_op(spec: dict, op: dict) -> list[str]:
    """All checks for one operation's output directory."""
    out = op["out"]
    grid = (spec.get("n_freqs"), spec.get("theta_points"))
    eta = spec.get("eta_det")
    checks = {
        "oracle": lambda: check_oracle(out, "oracle_report.json"),
        "api": lambda: check_oracle(out, "report.json"),
        "scan": lambda: check_scan(out, spec.get("scan_points")),
        "spectrum-x": lambda: check_spectrum(out, "spectrum_x.json", eta,
                                             *grid),
        "spectrum-y": lambda: check_spectrum(out, "spectrum_y.csv", eta,
                                             *grid),
        "stokes": lambda: check_stokes(out, eta, *grid),
    }
    try:
        problems = checks[op["check"]]()
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
    return problems
