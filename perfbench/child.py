"""Child process of the benchmark: runs one workload's rounds.

    python3 perfbench/child.py SPEC RESULT SECONDS TRACE MIN_ROUNDS

A round runs every operation of the workload once.  Rounds repeat until the
next one would end after SECONDS, and at least MIN_ROUNDS run.  Only the
operations are timed; clearing and hashing the output directories is not,
and API operations save their report after the clock stops.  The child
writes the per-round timings, exit codes, errors and output hashes to RESULT
as JSON; the parent judges them.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import sys
import time

import numpy as np


def hash_dir(path: str) -> dict:
    hashes = {}
    if os.path.isdir(path):
        for name in sorted(os.listdir(path)):
            with open(os.path.join(path, name), "rb") as fh:
                hashes[name] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


def _cli_op(spec: dict, op: dict, work: str):
    from kerrpol import cli

    (config,) = spec["configs"]
    argv = op["argv"] + ["--config", os.path.join(work, config),
                         "--out", op["out"]]
    return (lambda: cli.main(argv)), None


def _api_op(spec: dict, op: dict, work: str):
    """simulate -> psd_estimate -> noise_spectrum -> compare on one point."""
    import kerrpol as kp

    point = spec["points"][op["point"]]
    build = kp.build_drift_y if op["mode"] == "y" else kp.build_drift_x
    lo, hi = spec["band"]

    def run():
        params = kp.PhysicalParams(**point["params"])
        branches = kp.steady_states(
            params, kp.DriveField.from_power(point["power"]),
            point["delta_c"])
        steady = min(branches,
                     key=lambda b: abs(b.intensity - point["intensity"]))
        model = build(steady, params)
        cfg = kp.TrajectoryConfig(
            dt=spec["dt"], duration=spec["duration"], seed=point["em_seed"],
            burn_in=spec["burn_in"], theta_list=tuple(spec["thetas"]))
        series = kp.simulate(model, cfg)
        estimate = kp.psd_estimate(series, spec["segment_length"],
                                   spec["overlap"])
        band = np.nonzero((estimate.omega >= lo) & (estimate.omega <= hi))[0]
        analytic = kp.noise_spectrum(model, estimate.omega[band],
                                     cfg.theta_list)
        subset = kp.PsdEstimate(
            omega=estimate.omega[band], psd=estimate.psd[band],
            stderr=estimate.stderr[band], n_segments=estimate.n_segments,
            thetas=series.thetas)
        return kp.compare(analytic, subset)

    def save(report):
        os.makedirs(op["out"], exist_ok=True)
        with open(os.path.join(op["out"], "report.json"), "w",
                  encoding="utf-8", newline="\n") as fh:
            json.dump({"comparison": report.to_dict()}, fh, indent=1)
            fh.write("\n")

    return run, save


def run_rounds(spec: dict, work: str, seconds: float,
               min_rounds: int) -> list[dict]:
    make = {"cli": _cli_op, "api": _api_op}
    ops = [(op, make[op["kind"]](spec, op, work)) for op in spec["ops"]]
    rounds = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        records, wall = [], 0.0
        for op, (run, save) in ops:
            shutil.rmtree(op["out"], ignore_errors=True)
            code, error = None, None
            t0 = time.perf_counter()
            try:
                result = run()
            except SystemExit as exc:         # argparse rejected the argv
                error = f"SystemExit: {exc.code}"
            except Exception as exc:          # a failed operation, counted
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            if error is None:
                code = result
                if save is not None:
                    save(result)
                    code = 0
            wall += elapsed
            records.append({"name": op["name"], "s": elapsed, "exit": code,
                            "error": error, "hashes": hash_dir(op["out"])})
        rounds.append({"wall_s": wall, "ops": records})
        now = time.perf_counter()
        next_end = (now - start) + (now - began)
        if len(rounds) >= min_rounds and next_end > seconds:
            return rounds


def main(argv: list[str]) -> int:
    spec_path, result_path, seconds, trace, min_rounds = argv
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    work = os.path.dirname(spec_path)

    import kerrpol

    tracer = None
    if trace == "1":
        import layers

        tracer = layers.Tracer()
        layers.install_layers(tracer)

    rounds = run_rounds(spec, work, float(seconds), int(min_rounds))
    backend = getattr(kerrpol, "kernel_backend", None)
    result = {
        "backend": backend() if callable(backend) else "unknown",
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "rounds": rounds,
    }
    if tracer is not None:
        result["trace"] = tracer.dump()
        with open(os.path.join(work, "spans.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
