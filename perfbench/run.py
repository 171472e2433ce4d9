#!/usr/bin/env python3
"""kerrpol benchmark: one workload, one seed, one line of results.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a kerrpol checkout; the program is imported from
``src/``, nothing is installed.  The benchmark generates the workload's
inputs from the seed, times fresh interpreters that import kerrpol and
parse them (``setup_s``), then runs the workload in a child process with
BLAS threads pinned to 1.  It checks every output with ``validate.py``,
which shares no code with the program, and hashes every output file:
rounds of one run must write byte-identical files.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` splits the time
between an untraced child and a traced one and reports the per-layer
metrics of ``layers.py`` plus the tracing overhead.  Work files and a run
record go to ``.perfbench/`` in the checkout; ``compare.py`` compares run
records.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import inputs
import layers
import validate
from child import hash_dir

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".perfbench"
SETUP_RUNS = 7
MIN_ROUNDS = 2                  # so every run checks determinism
CHILD_GRACE_S = 120             # a round may overrun the measuring time
THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

# (name, unit, better); the order of BENCHMARK.json
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ops_ok_frac", "frac", "higher"),
    ("work_per_s", "1/s", "higher"),
]

# a fresh interpreter imports kerrpol and parses the generated inputs
SETUP_CODE = """
import json, os, sys
import kerrpol as kp
from kerrpol import cli
with open(sys.argv[1]) as fh:
    spec = json.load(fh)
for name in spec["configs"]:
    with open(os.path.join(os.path.dirname(sys.argv[1]), name)) as fh:
        cfg = cli.parse_config(fh.read())
    cli.build_params(cfg)
    cli.build_drive(cfg)
for p in spec.get("points", []):
    kp.PhysicalParams(**p["params"])
    kp.DriveField.from_power(p["power"])
"""


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def child_env(root: str) -> dict:
    env = dict(os.environ, **THREAD_PINS)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def prepare(workload: str, seed: int, root: str) -> tuple[dict, str]:
    """Generate the inputs and write them under a fresh work directory."""
    if not os.path.isfile(os.path.join(root, "src", "kerrpol", "__init__.py")):
        raise BenchmarkError("no kerrpol sources under src/kerrpol; run from "
                             "the root of a kerrpol checkout")
    try:
        spec = inputs.make_inputs(workload, seed, root)
    except (OSError, ValueError) as exc:
        raise BenchmarkError(f"cannot generate inputs: {exc}") from None
    work = os.path.join(root, WORK_DIR, workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    for name, text in spec["configs"].items():
        with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    for op in spec["ops"]:
        op["out"] = os.path.join(work, "out", op["name"])
    spec_path = os.path.join(work, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh, indent=1)
    return spec, spec_path


def measure_setup(spec_path: str, env: dict) -> list[float]:
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, spec_path],
                              env=env, capture_output=True, text=True,
                              timeout=60)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up failed:\n{proc.stderr[-2000:]}")
    return times


def run_child(spec_path: str, env: dict, seconds: float, trace: bool,
              min_rounds: int) -> dict:
    work = os.path.dirname(spec_path)
    tag = "traced" if trace else "untraced"
    result_path = os.path.join(work, f"child-{tag}.json")
    log_path = os.path.join(work, f"child-{tag}.log")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), spec_path,
           result_path, repr(seconds), "1" if trace else "0", str(min_rounds)]
    with open(log_path, "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                                  stderr=log, timeout=seconds + CHILD_GRACE_S)
        except subprocess.TimeoutExpired:
            raise BenchmarkError(f"{tag} child timed out") from None
    if proc.returncode != 0:
        with open(log_path, encoding="utf-8") as fh:
            raise BenchmarkError(f"{tag} child exited {proc.returncode}:\n"
                                 f"{fh.read()[-2000:]}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def account(spec: dict, children: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every operation of every round.

    The files left on disk (from the last round) are validated once; every
    round of every child must have written exactly those bytes.
    """
    attempted = failed = 0
    problems = []
    for op in spec["ops"]:
        reference = hash_dir(op["out"])
        invalid = validate.check_op(spec, op)
        problems += [f"{op['name']}: {p}" for p in invalid[:3]]
        for child in children:
            for rnd in child["rounds"]:
                rec = next(r for r in rnd["ops"] if r["name"] == op["name"])
                attempted += 1
                bad = bool(invalid)
                if rec["error"] is not None or rec["exit"] != 0:
                    bad = True
                    problems.append(f"{op['name']}: exit {rec['exit']}, "
                                    f"{rec['error']}")
                elif rec["hashes"] != reference:
                    bad = True
                    problems.append(f"{op['name']}: output differs between "
                                    "runs with the same inputs")
                failed += bad
    return attempted, failed, problems


def end_to_end(spec: dict, child: dict, setup: list[float],
               attempted: int, failed: int) -> dict:
    wall = statistics.median(r["wall_s"] for r in child["rounds"])
    work = sum(op.get("em_steps", 0) + op.get("values", 0)
               for op in spec["ops"])
    values = {
        "wall_s": wall,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": child["maxrss_mb"],
        "ops_ok_frac": 1.0 - failed / attempted,
        "work_per_s": work / wall,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in END_TO_END}


def run_record(args, child: dict, root: str) -> dict:
    def version(package):
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "backend": child["backend"],
        "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "thread_pins": THREAD_PINS,
        "commit": _commit(root),
        "source_digest": _source_digest(root),
    }


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _commit(root: str) -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:]), encoding="utf-8") as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return None


def _source_digest(root: str) -> str:
    """sha256 over the package sources, so records without git still say
    which code they measured."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "kerrpol")
    for name in sorted(os.listdir(src)):
        if name.endswith((".py", ".pyx")):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def benchmark(args, root: str) -> dict:
    spec, spec_path = prepare(args.workload, args.seed, root)
    env = child_env(root)
    if args.trace:
        half = args.seconds / 2.0
        untraced = run_child(spec_path, env, half, False, 1)
        traced = run_child(spec_path, env, half, True, 1)
        children = [untraced, traced]
    else:
        setup = measure_setup(spec_path, env)
        untraced = run_child(spec_path, env, args.seconds, False, MIN_ROUNDS)
        children = [untraced]
    if any(c["backend"] != untraced["backend"] for c in children):
        raise BenchmarkError("children ran on different kernel backends")
    attempted, failed, problems = account(spec, children)
    record = run_record(args, untraced, root)
    record.update(attempted=attempted, failed=failed,
                  problems=list(dict.fromkeys(problems))[:20])
    if args.trace:
        record["metrics"] = layers.layer_metrics(
            traced["trace"], [r["wall_s"] for r in traced["rounds"]],
            [r["wall_s"] for r in untraced["rounds"]])
        record["unmeasured"] = traced["trace"]["unmeasured"]
    else:
        record["metrics"] = end_to_end(spec, untraced, setup, attempted,
                                       failed)
    return record


def report(record: dict) -> None:
    """Human-readable lines; the JSON result follows them."""
    for name, metric in record["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    attempted, failed = record["attempted"], record["failed"]
    print(f"ops_failed_frac = {failed / attempted:.6g} "
          f"({failed} of {attempted} operations failed)")
    if "work_per_s" in record["metrics"]:
        work = ("analytic_values_per_s"
                if record["workload"] == "analytic-sweep"
                else "oracle_steps_per_s")
        print(f"{work} = {record['metrics']['work_per_s']['value']:.6g} 1/s")
    for problem in record["problems"]:
        print(f"problem: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    try:
        record = benchmark(args, root)
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    records = os.path.join(root, WORK_DIR, "records")
    os.makedirs(records, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(records, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print("record: " + json.dumps({k: v for k, v in record.items()
                                   if k not in ("metrics", "problems")}))
    report(record)
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
