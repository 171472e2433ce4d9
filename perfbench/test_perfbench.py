"""Tests of the benchmark itself: seeded inputs, validator, tracer, schema.

    python3 -m pytest -q perfbench
"""

import json
import math
import os
import sys
import types

import numpy as np
import pytest

import inputs
import layers
import run
import validate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import kerrpol as kp  # noqa: E402


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    assert (inputs.make_inputs(workload, 7, ROOT)
            == inputs.make_inputs(workload, 7, ROOT))


@pytest.mark.parametrize("workload", ["oracle-phases", "analytic-sweep"])
def test_new_seed_gives_new_inputs(workload):
    a = inputs.make_inputs(workload, 7, ROOT)
    b = inputs.make_inputs(workload, 8, ROOT)
    assert json.dumps(a["configs"]) != json.dumps(b["configs"]) \
        or a.get("points") != b.get("points")
    assert [op["name"] for op in a["ops"]] == [op["name"] for op in b["ops"]]


def test_oracle_default_runs_the_shipped_config_verbatim():
    with open(os.path.join(ROOT, inputs.DEFAULT_CFG), encoding="utf-8") as fh:
        shipped = fh.read()
    for seed in (3, 4):
        spec = inputs.make_inputs("oracle-default", seed, ROOT)
        assert spec["configs"] == {"oracle.cfg": shipped}
        assert [op["argv"] for op in spec["ops"]] == [["oracle", "--mode", "y"]]


@pytest.mark.parametrize("seed", range(40))
def test_phase_draws_are_stable_and_safe_for_the_em_step(seed):
    spec = inputs.make_inputs("oracle-phases", seed, ROOT)
    dt = spec["dt"]
    for point in spec["points"]:
        params = kp.PhysicalParams(**point["params"])
        branches = kp.steady_states(
            params, kp.DriveField.from_power(point["power"]),
            point["delta_c"])
        steady = min(branches,
                     key=lambda b: abs(b.intensity - point["intensity"]))
        assert steady.s_x == pytest.approx(point["s"], rel=1e-6)
        for build in (kp.build_drift_x, kp.build_drift_y):
            model = build(steady, params)
            assert model.is_stable
            assert dt * abs(model.m11) <= 0.1
            step = np.eye(2) + dt * model.drift_matrix
            assert np.max(np.abs(np.linalg.eigvals(step))) < 1.0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sweep_config_is_valid_and_crosses_the_bistable_window(seed):
    from kerrpol import cli

    spec = inputs.make_inputs("analytic-sweep", seed, ROOT)
    cfg = cli.parse_config(spec["configs"]["sweep.cfg"])
    params = cli.build_params(cfg)
    steady = cli.select_branch(cfg, params)
    assert kp.build_drift_x(steady, params).is_stable
    assert kp.build_drift_y(steady, params).is_stable
    table = cli.cmd_scan(cfg)
    assert len(table.rows) == spec["scan_points"]
    roots = {row[1] for row in table.rows}
    assert roots == {1, 3}


def _comparison(points, passed):
    return {"points": points, "passed": passed}


def _point(analytic, empirical, stderr, z=None):
    if z is None:
        z = (analytic - empirical) / stderr
    return {"omega": 1.0, "theta": 0.0, "analytic": analytic,
            "empirical": empirical, "stderr": stderr, "z": z}


def test_validator_accepts_a_consistent_report():
    points = [_point(1.0, 1.0 + 0.001 * i, 0.05) for i in range(24)]
    assert validate.check_comparison(_comparison(points, True)) == []


def test_validator_rejects_a_diverged_report_that_claims_a_pass():
    # the shape kerrpol oracle --mode x writes on default.cfg
    points = [_point(0.93, 1.2e227, math.nan, 0.0) for _ in range(24)]
    assert validate.check_comparison(_comparison(points, True))


def test_validator_rejects_wrong_z_and_too_few_points():
    points = [_point(1.0, 1.01, 0.05, z=0.0) for _ in range(24)]
    assert validate.check_comparison(_comparison(points, True))
    points = [_point(1.0, 1.01, 0.05) for _ in range(19)]
    assert validate.check_comparison(_comparison(points, True))


def test_tracer_splits_self_time_and_marks_missing_layers():
    ns = types.SimpleNamespace()
    ns.inner = lambda: sum(range(20000))
    ns.outer = lambda: ns.inner() + ns.inner()
    tracer = layers.Tracer()
    tracer.install("inner", ns, "inner")
    tracer.install("outer", ns, "outer")
    tracer.install("gone", ns, "no_such_function")
    ns.outer()
    inner, outer = tracer.stats["inner"], tracer.stats["outer"]
    assert inner.calls == 2 and outer.calls == 1
    assert outer.self_time + inner.total == pytest.approx(outer.total)
    assert tracer.traced_time() == pytest.approx(
        inner.self_time + outer.self_time)
    assert tracer.unmeasured == {"gone"}

    dump = json.loads(json.dumps(tracer.dump()))
    dump["unmeasured"].append("oracle.kernel")
    metrics = layers.layer_metrics(dump, [1.0], [1.0])
    assert metrics["oracle.kernel.s"]["value"] == layers.UNMEASURED
    assert metrics["tables.render.s"]["value"] == 0.0


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(inputs.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["per_layer"]] == layers.PER_LAYER
