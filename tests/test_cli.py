import collections
import json
import math
import os
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import numpy as np

import kerrpol as kp
from kerrpol import cli
from kerrpol.tables import OutputTable, write_files

FIXTURE = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                       "default.cfg")

# light oracle settings for command tests (the committed defaults run the
# full-length check in the acceptance suite)
FAST_ORACLE = ("oracle_duration = 5e-05",)


def write_config(tmp_path, *overrides):
    base = cli.config_template()
    lines = {l.split("=")[0].strip(): l for l in overrides}
    out = []
    for line in base.splitlines():
        key = line.split("=")[0].strip() if "=" in line else None
        out.append(lines.pop(key, line) if key else line)
    out.extend(lines.values())
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(out) + "\n")
    return str(path)


# ---------------------------------------------------------------------------
# configuration parsing

def test_commands_parse_through_parse_config(tmp_path, monkeypatch):
    # the command line reads its config through the public parser, with the
    # command it runs, so a wrapper on cli.parse_config sees every parse
    calls = []
    parse = cli.parse_config

    def traced(*args):
        calls.append(args[2:])
        return parse(*args)

    monkeypatch.setattr(cli, "parse_config", traced)
    path = write_config(tmp_path)
    assert cli.main(["validate", "--config", path]) == 0
    assert cli.main(["template"]) == 0
    assert calls == [("validate",), ("template",)]


def test_template_round_trips_modulo_comments():
    template = cli.config_template()
    cfg = cli.parse_config(template)
    rendered = cli.render_config(cfg)
    stripped = [l for l in template.splitlines()
                if l.strip() and not l.lstrip().startswith("#")]
    assert rendered.splitlines() == stripped


def test_committed_fixture_matches_template():
    with open(FIXTURE) as fh:
        text = fh.read()
    assert text == cli.config_template()
    assert cli.parse_config(text) == cli.RunConfig()


def test_gamma_sum_accepted_and_rejected_with_line_number():
    good = "gamma_perp_mhz = 1.3\ngamma_par_mhz = 1.3\ngamma_mhz = 2.6\n"
    assert cli.parse_config(good).gamma_mhz == 2.6
    bad = "gamma_perp_mhz = 1.3\ngamma_par_mhz = 1.3\ngamma_mhz = 3.0\n"
    with pytest.raises(kp.ValidationError, match="line 3"):
        cli.parse_config(bad)


@pytest.mark.parametrize("key", ["gamma_perp_mhz", "gamma_par_mhz"])
def test_negative_decay_channel_rejected_under_its_own_key(key):
    with pytest.raises(kp.ValidationError,
                       match=f"^config line 1: {key}: decay channels"):
        cli.parse_config(f"{key} = -1.0\n")


def test_unknown_and_duplicate_keys_rejected():
    with pytest.raises(kp.ValidationError, match="line 1.*unknown"):
        cli.parse_config("kappa_mzh = 5.0\n")
    with pytest.raises(kp.ValidationError, match="line 2.*duplicate"):
        cli.parse_config("kappa_mhz = 5.0\nkappa_mhz = 6.0\n")
    with pytest.raises(kp.ValidationError, match="line 1.*key = value"):
        cli.parse_config("kappa_mhz 5.0\n")
    with pytest.raises(kp.ValidationError, match="line 1.*bad value"):
        cli.parse_config("kappa_mhz = five\n")


def test_defaults_load_with_bad_cavity_note():
    messages = []
    code = cli.cmd_validate(cli.RunConfig(), log=messages.append)
    assert code == 0
    assert any("bad-cavity" in m for m in messages)
    assert not any("model-validity" in m for m in messages)


def test_validation_reports_default_or_line():
    with pytest.raises(kp.ValidationError, match="default.*gamma_mhz"):
        cli.parse_config("gamma_perp_mhz = 1.0\n")
    with pytest.raises(kp.ValidationError, match="line 1.*transmission"):
        cli.parse_config("transmission = 1.5\n")
    with pytest.raises(kp.ValidationError, match="oracle_duration"):
        cli.parse_config("oracle_duration = 0.0\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key, template", [
    ("kappa_mhz", "{}"), ("delta_c_mhz", "{}"), ("scan_step_mhz", "{}"),
    ("oracle_duration", "{}"), ("oracle_perturb_sx", "{}"),
    ("freqs_mhz", "{}"), ("freqs_mhz", "3.0, {}, 6.0")])
def test_non_finite_values_rejected_with_line_number(key, template, value):
    with pytest.raises(kp.ValidationError, match=f"line 1.*{key}"):
        cli.parse_config(f"{key} = {template.format(value)}\n")


def test_perturbation_at_or_below_minus_one_rejected_on_validate(tmp_path,
                                                                 capsys):
    path = write_config(tmp_path, "oracle_perturb_sx = -2")
    lines = (tmp_path / "run.cfg").read_text().splitlines()
    lineno = lines.index("oracle_perturb_sx = -2") + 1
    assert cli.main(["validate", "--config", path]) == 1
    assert f"line {lineno}: oracle_perturb_sx" in capsys.readouterr().err
    with pytest.raises(kp.ValidationError, match="line 1.*oracle_perturb_sx"):
        cli.parse_config("oracle_perturb_sx = -1.0\n")


def finite(lo, hi, **kw):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw)


@st.composite
def run_configs(draw):
    """Finite RunConfig values that pass validation."""
    perp, par = draw(finite(0.0, 1e3)), draw(finite(0.0, 1e3))
    scan_start = draw(finite(-1e3, 1e3))
    theta_start = draw(finite(-360.0, 360.0))
    kappa_mhz = draw(finite(1e-3, 1e3))
    # the oracle needs >= 10 Welch bins within 0.1-3 kappa, so a segment
    # spans 25-1000 cycles of 1/kappa, and >= 4 segments after burn-in
    cycles = draw(finite(25.0, 1000.0))
    dt_kappa = draw(finite(cycles / (1 << 20), 0.5))
    dt = dt_kappa / (kappa_mhz * cli.TWO_PI_MHZ)
    segment_length = math.ceil(cycles / dt_kappa)
    return cli.RunConfig(
        kappa_mhz=kappa_mhz,
        gamma_perp_mhz=perp, gamma_par_mhz=par, gamma_mhz=perp + par,
        delta_mhz=draw(finite(-1e4, 1e4).filter(lambda d: d != 0.0)),
        transmission=draw(finite(0.0, 1.0, exclude_min=True)),
        n_atoms=draw(finite(0.0, 1e12)),
        g_coupling_mhz=draw(finite(-1.0, 1.0)),
        eta_det=draw(finite(0.0, 1.0, exclude_min=True)),
        power_uw=draw(finite(0.0, 1e3)),
        flux_per_uw=draw(finite(1.0, 1e25)),
        delta_c_mhz=draw(finite(-1e4, 1e4)),
        branch=draw(st.sampled_from(["high", "low", "0", "2"])),
        scan_start_mhz=scan_start,
        scan_stop_mhz=scan_start + draw(finite(1.0, 1e3)),
        scan_step_mhz=draw(finite(1e-3, 1e3)),
        freqs_mhz=tuple(draw(st.lists(finite(1e-3, 1e3), min_size=1,
                                      max_size=4))),
        theta_start_deg=theta_start,
        theta_stop_deg=theta_start + draw(finite(1.0, 720.0)),
        theta_points=draw(st.integers(2, 10000)),
        oracle_dt=dt,
        oracle_duration=dt * draw(finite(max(1000.0, 10.0 * segment_length),
                                         2e7)),
        oracle_seed=draw(st.integers(0, 2 ** 32 - 1)),
        oracle_burn_in=draw(finite(0.0, 0.5)),
        oracle_segment_length=segment_length,
        oracle_overlap=draw(finite(0.0, 0.9)),
        oracle_perturb_sx=draw(finite(-1.0, 10.0, exclude_min=True)),
        out_dir=draw(st.text("abcxyz019_-./", min_size=1, max_size=12)),
        format=draw(st.sampled_from(["csv", "json"])))


def passes_validation(cfg):
    # the drawn extremes include configs whose steady-state cubic overflows
    try:
        cli._validate_config(cfg, {}, "validate")
    except kp.ValidationError:
        return False
    return True


@settings(max_examples=200, deadline=None)
@given(cfg=run_configs().filter(passes_validation))
def test_render_parse_round_trip(cfg):
    assert cli.parse_config(cli.render_config(cfg)) == cfg


def test_config_hash_ignores_output_destination():
    a = cli.RunConfig()
    b = replace(a, out_dir="elsewhere", format="json")
    c = replace(a, power_uw=8.0)
    assert cli.config_hash(a) == cli.config_hash(b)
    assert cli.config_hash(a) != cli.config_hash(c)


# ---------------------------------------------------------------------------
# commands via the public entry point

def test_scan_weak_drive_single_branch(tmp_path):
    path = write_config(tmp_path, "power_uw = 1e-06",
                        "scan_start_mhz = -330.0", "scan_stop_mhz = -280.0",
                        "scan_step_mhz = 0.5")
    code = cli.main(["scan", "--config", path, "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "scan.csv").read_text().splitlines()
    rows = [l.split(",") for l in lines if l and not l.startswith("#")][1:]
    assert all(r[1] == "1" for r in rows)
    assert all(r[8] == "true" for r in rows)
    assert all(r[6] == r[7] for r in rows)   # i_plus == i_minus while linear


def test_scan_bistable_drive_has_three_branch_rows(tmp_path):
    # drive inside the fold window at the right-detuned side
    path = write_config(tmp_path, "power_uw = 0.0068",
                        "scan_start_mhz = -315.0", "scan_stop_mhz = -270.0",
                        "scan_step_mhz = 0.1")
    assert cli.main(["scan", "--config", path, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "scan.csv").read_text().splitlines()
    rows = [l.split(",") for l in lines if l and not l.startswith("#")][1:]
    counts = {r[1] for r in rows}
    assert "3" in counts and "1" in counts
    three = [r for r in rows if r[1] == "3"]
    assert all(r[2] and r[3] and r[4] for r in three)


def test_scan_marks_instability_interval(tmp_path):
    path = write_config(tmp_path)
    assert cli.main(["scan", "--config", path, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "scan.csv").read_text().splitlines()
    rows = [l.split(",") for l in lines if l and not l.startswith("#")][1:]
    flags = [r[9] for r in rows]
    assert "false" in flags and "true" in flags


def test_spectrum_without_atoms_is_all_ones(tmp_path):
    path = write_config(tmp_path, "n_atoms = 0.0", "delta_c_mhz = 2.0")
    assert cli.main(["spectrum", "--config", path, "--mode", "y",
                     "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "spectrum_y.csv").read_text().splitlines()
    rows = [l.split(",") for l in lines if l and not l.startswith("#")][1:]
    values = [float(r[3]) for r in rows]
    assert all(abs(v - 1.0) < 1e-9 for v in values)


def test_spectrum_fixture_shows_squeezing(tmp_path):
    assert cli.main(["spectrum", "--config", FIXTURE, "--mode", "y",
                     "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "spectrum_y.csv").read_text().splitlines()
    rows = [l.split(",") for l in lines if l and not l.startswith("#")][1:]
    mins = {float(r[1]): float(r[3]) for r in rows if r[0] == "min"}
    assert mins[3.0] < 0.9
    # grid values bounded by the summary extrema
    grid3 = [float(r[3]) for r in rows if r[0] == "grid" and float(r[1]) == 3.0]
    assert min(grid3) >= mins[3.0] - 1e-9


def test_spectrum_unstable_point_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, "delta_c_mhz = -210.0")
    code = cli.main(["spectrum", "--config", path, "--mode", "y",
                     "--out", str(tmp_path)])
    assert code == 2
    assert "unstable" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["scan"], ["spectrum"]])
@pytest.mark.parametrize("override, code", [
    ("n_atoms = 1e300", 1),      # cubic coefficients overflow to inf
    ("power_uw = 1e280", 1),     # the constant term overflows to -inf
    ("delta_mhz = 1e-300", 1),   # delta ** 2 underflows to 0
])
def test_finite_extreme_values_exit_cleanly(tmp_path, capsys, command,
                                            override, code):
    path = write_config(tmp_path, override)
    out = tmp_path / "out"
    assert cli.main(command + ["--config", path, "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "Warning" not in err
    assert not out.exists()


@pytest.mark.parametrize("override, key", [
    ("n_atoms = 1e300", "n_atoms"), ("power_uw = 1e280", "power_uw"),
    ("delta_mhz = 1e-300", "delta_mhz"), ("scan_stop_mhz = 1e300",
                                          "scan_stop_mhz")])
def test_validate_rejects_an_unsolvable_cubic_with_line_number(
        tmp_path, capsys, override, key):
    path = write_config(tmp_path, override)
    lines = (tmp_path / "run.cfg").read_text().splitlines()
    lineno = lines.index(override) + 1
    assert cli.main(["validate", "--config", path]) == 1
    assert f"config line {lineno}: {key}:" in capsys.readouterr().err


def test_scan_of_one_point_rejected_with_line_number(tmp_path, capsys):
    # the step passes "> 0" and the bounds are ordered, yet the grid holds
    # only the start point: validate and scan both name the step's line
    path = write_config(tmp_path, "scan_start_mhz = -380",
                        "scan_stop_mhz = -300", "scan_step_mhz = 100")
    lineno = (tmp_path / "run.cfg").read_text().splitlines().index(
        "scan_step_mhz = 100") + 1
    for command in ("validate", "scan"):
        assert cli.main([command, "--config", path,
                         "--out", str(tmp_path)]) == 1
        assert (f"config line {lineno}: scan_step_mhz:"
                in capsys.readouterr().err)
    assert not (tmp_path / "scan.csv").exists()


@pytest.mark.parametrize("step", ["1e-12", "1e-320"])
def test_scan_step_too_fine_rejected_with_line_number(tmp_path, capsys,
                                                      step):
    # 1e-12 asks for petabytes of grid, 1e-320 for an infinite point count:
    # validate and scan both name the step's line instead of a traceback
    path = tmp_path / "run.cfg"
    path.write_text(f"scan_step_mhz = {step}\n")
    out = tmp_path / "out"
    for command in ("validate", "scan"):
        assert cli.main([command, "--config", str(path),
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config line 1: scan_step_mhz:" in err
        assert "Traceback" not in err
    assert not out.exists()


def test_spectrum_row_cap_is_inclusive(tmp_path, capsys):
    # two frequencies of theta_points + 2 rows each: the phase grid takes
    # the scan's cap, and every command that builds it names its key
    for points, code in ((cli.MAX_SCAN_POINTS // 2 - 2, 0),
                         (cli.MAX_SCAN_POINTS // 2 - 1, 1)):
        path = tmp_path / "run.cfg"
        path.write_text(f"theta_points = {points}\n")
        assert cli.main(["validate", "--config", str(path)]) == code
    assert "config line 1: theta_points:" in capsys.readouterr().err


def test_scan_point_cap_is_inclusive(tmp_path, capsys):
    span = cli.RunConfig.scan_stop_mhz - cli.RunConfig.scan_start_mhz
    for points, code in ((cli.MAX_SCAN_POINTS, 0),
                         (cli.MAX_SCAN_POINTS + 1, 1)):
        path = tmp_path / "run.cfg"
        path.write_text(f"scan_step_mhz = {span / (points - 1)!r}\n")
        assert cli.main(["validate", "--config", str(path)]) == code
    assert "scan_step_mhz" in capsys.readouterr().err


def test_oracle_step_cap_is_inclusive(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    for steps, code in ((cli.MAX_ORACLE_STEPS, 0),
                        (cli.MAX_ORACLE_STEPS + 1, 1)):
        cfg = replace(cli.RunConfig(),
                      oracle_duration=steps * cli.RunConfig.oracle_dt)
        assert cli._trajectory(cfg).n_steps == steps
        path.write_text(f"oracle_duration = {cfg.oracle_duration!r}\n")
        assert cli.main(["validate", "--config", str(path)]) == code
    assert "config line 1: oracle_duration:" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("kappa_mhz", "0"), ("delta_mhz", "0"), ("eta_det", "1.5"),
    ("n_atoms", "-1"), ("power_uw", "-1"), ("flux_per_uw", "0"),
    ("branch", "middle"), ("scan_step_mhz", "0"), ("scan_stop_mhz", "-400"),
    ("freqs_mhz", "3.0, -6.0"), ("theta_points", "1"),
    ("theta_stop_deg", "-180"), ("oracle_dt", "0"), ("oracle_burn_in", "0.6"),
    ("oracle_segment_length", "8"), ("oracle_overlap", "0.95"),
    ("format", "xml")])
def test_each_config_rule_names_its_key_and_line(tmp_path, capsys, key,
                                                 value):
    path = tmp_path / "run.cfg"
    path.write_text(f"{key} = {value}\n")
    assert cli.main(["validate", "--config", str(path)]) == 1
    assert f"config line 1: {key}:" in capsys.readouterr().err


def test_empty_frequency_list_rejected_with_line_number(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("freqs_mhz = , \n")
    assert cli.main(["validate", "--config", str(path)]) == 1
    assert ("config line 1: bad value for 'freqs_mhz': expected at least "
            "one frequency") in capsys.readouterr().err


def test_validate_prints_model_validity_warnings(capsys):
    # at |delta| < 10 gamma the dispersive expansion is flagged, not refused
    assert cli.main(["validate"]) == 0
    assert "warning:" not in capsys.readouterr().out
    wide = replace(cli.RunConfig(), gamma_perp_mhz=3.0, gamma_par_mhz=3.0,
                   gamma_mhz=6.0)              # |delta| = 50 MHz < 60 MHz
    assert cli.cmd_validate(wide) == 0
    assert "warning: model-validity" in capsys.readouterr().out


def test_one_stability_gate_one_message(tmp_path, capsys):
    # FluctuationModel.require_stable is the only stability check: the
    # spectra, the oracle and every command refuse one unstable model alike
    cfg = replace(cli.RunConfig(), delta_c_mhz=-210.0)
    params = cli.build_params(cfg)
    model = kp.build_drift_y(cli.select_branch(cfg, params), params)
    traj = kp.TrajectoryConfig(dt=5e-11, duration=1e-7, seed=1)
    texts = set()
    for call in (lambda: kp.noise_spectrum(model, [1.0], [0.0]),
                 lambda: kp.min_max_spectrum(model, 1.0),
                 lambda: kp.min_max_spectrum(model, np.array([1.0, 2.0])),
                 lambda: kp.simulate(model, traj),
                 lambda: kp.oracle_psd(model, traj, 256)):
        with pytest.raises(kp.UnstableModelError) as info:
            call()
        texts.add(str(info.value))
    margin = f"(margin {model.stability_margin:.4g} rad/s)"
    (text,) = texts
    assert text == f"y-mode fluctuations unstable on branch 0 {margin}"
    with pytest.raises(kp.UnstableModelError) as info:
        replace(model, steady_ref=None).require_stable()
    assert str(info.value) == f"y-mode fluctuations unstable {margin}"
    path = write_config(tmp_path, "delta_c_mhz = -210.0")
    for command in ("spectrum", "stokes", "oracle", "validate"):
        assert cli.main([command, "--config", path,
                         "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"numerical failure: {text}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line", ["branch = 1", "delta_mhz = -20.0"])
def test_validate_refuses_operating_points_no_command_runs(tmp_path, capsys,
                                                           line):
    # validate selects the branch and gates both modes, so it fails exactly
    # as spectrum, stokes and oracle do, before printing "configuration ok"
    # (the unstable delta_c_mhz = -210.0 is in the test above)
    path = write_config(tmp_path, line, *FAST_ORACLE)
    errors = set()
    for command in ("validate", "spectrum", "stokes", "oracle"):
        assert cli.main([command, "--config", path,
                         "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.add(captured.err)
    (error,) = errors
    assert error.startswith("numerical failure: ") and error.count("\n") == 1


def test_numeric_branch_selects_that_root():
    # the shipped drive has three roots from about -107 to +115 MHz
    cfg = replace(cli.RunConfig(), delta_c_mhz=0.0, branch="1")
    params = cli.build_params(cfg)
    roots = kp.steady_states(params, cli.build_drive(cfg), 0.0)
    assert [b.branch_index for b in roots] == [0, 1, 2]
    assert cli.select_branch(cfg, params).branch_index == 1


def test_missing_numeric_branch_exits_2(tmp_path, capsys):
    # the shipped operating point has a single root
    path = write_config(tmp_path, "branch = 2")
    out = tmp_path / "out"
    assert cli.main(["spectrum", "--config", path, "--out", str(out)]) == 2
    assert "branch 2 requested" in capsys.readouterr().err
    assert not out.exists()


def test_template_command_prints_the_template_with_overrides(capsys):
    assert cli.main(["template"]) == 0
    assert capsys.readouterr().out == cli.config_template()
    assert cli.main(["template", "--seed", "5"]) == 0
    text = capsys.readouterr().out
    assert "oracle_seed = 5" in text.splitlines()
    assert text == cli.config_template(replace(cli.RunConfig(),
                                               oracle_seed=5))


def test_stokes_tables_and_invariants(tmp_path):
    assert cli.main(["stokes", "--config", FIXTURE,
                     "--out", str(tmp_path)]) == 0
    scan_lines = (tmp_path / "stokes_scan.csv").read_text().splitlines()
    rows = [l.split(",") for l in scan_lines if l and not l.startswith("#")][1:]
    eta = 0.718
    for r in rows:
        theta, cos_theta, v = float(r[1]), float(r[2]), float(r[3])
        assert cos_theta == math.cos(theta)
        assert v >= 1.0 - eta - 1e-12
    summary_lines = (tmp_path / "stokes_summary.csv").read_text().splitlines()
    srows = [l.split(",") for l in summary_lines
             if l and not l.startswith("#")][1:]
    for r in srows:
        assert float(r[3]) >= 1.0 - 1e-6


def test_stokes_flat_vacuum_scan_is_unity(tmp_path):
    path = write_config(tmp_path, "n_atoms = 0.0", "delta_c_mhz = 1.0",
                        "eta_det = 1.0")
    assert cli.main(["stokes", "--config", path, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "stokes_scan.csv").read_text().splitlines()
    rows = [l.split(",") for l in lines if l and not l.startswith("#")][1:]
    assert all(abs(float(r[3]) - 1.0) < 1e-9 for r in rows)


@pytest.mark.parametrize("check", ["loss_floor", "uncertainty"])
def test_stokes_recheck_failure_exits_2(tmp_path, capsys, monkeypatch, check):
    # a NaN from the loss step fails the loss floor, halved noise from the
    # spectrum's phase quadratic (V_S2 * V_S3 = 1/4) the uncertainty bound;
    # each check raises, so it also holds under python -O
    if check == "loss_floor":
        monkeypatch.setattr(kp.stokes, "apply_detection_loss",
                            lambda s, eta: np.full_like(s, math.nan))
    else:
        real = kp.spectra._phase_quadratic
        monkeypatch.setattr(kp.spectra, "_phase_quadratic", lambda *args:
                            tuple(0.5 * part for part in real(*args)))
    code = cli.main(["stokes", "--config", FIXTURE, "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert ("loss floor" if check == "loss_floor"
            else "uncertainty product") in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["spectrum", "stokes"])
@pytest.mark.parametrize("defect", ["negative", "nan"])
def test_computed_spectrum_below_zero_exits_2_without_file(
        tmp_path, capsys, monkeypatch, command, defect):
    # a defect that drives the computed noise below zero, or to NaN, is a
    # numerical failure of noise_spectrum, not a config error
    real = kp.spectra._phase_quadratic

    def broken(*args):
        iso, conj = real(*args)
        if defect == "nan":
            return iso * math.nan, conj
        return iso - (np.abs(iso) + np.abs(conj) + 0.5), conj

    monkeypatch.setattr(kp.spectra, "_phase_quadratic", broken)
    code = cli.main([command, "--config", FIXTURE, "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: computed quadrature noise ")
    assert err.endswith(" is not >= 0\n")
    assert ("nan" in err) == (defect == "nan")
    assert list(tmp_path.iterdir()) == []


def test_oracle_diverging_step_exits_1_without_report(tmp_path, capsys):
    # shipped default.cfg: the x-mode one-step map has radius > 1
    code = cli.main(["oracle", "--config", FIXTURE, "--mode", "x",
                     "--out", str(tmp_path)])
    assert code == 1
    assert "spectral radius" in capsys.readouterr().err
    assert not (tmp_path / "oracle_report.json").exists()


def test_oracle_command_passes_and_is_deterministic(tmp_path):
    path = write_config(tmp_path, *FAST_ORACLE)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli.main(["oracle", "--config", path, "--out", str(out_a)]) == 0
    assert cli.main(["oracle", "--config", path, "--out", str(out_b)]) == 0
    bytes_a = (out_a / "oracle_report.json").read_bytes()
    bytes_b = (out_b / "oracle_report.json").read_bytes()
    assert bytes_a == bytes_b
    report = json.loads(bytes_a)
    assert report["comparison"]["passed"]
    assert len(report["comparison"]["points"]) >= 20


def test_oracle_perturbed_model_exits_3(tmp_path, capsys):
    path = write_config(tmp_path, *FAST_ORACLE, "oracle_perturb_sx = -0.2")
    code = cli.main(["oracle", "--config", path, "--out", str(tmp_path)])
    assert code == 3
    assert "mismatch" in capsys.readouterr().err
    report = json.loads((tmp_path / "oracle_report.json").read_text())
    assert not report["comparison"]["passed"]


def test_oracle_coarse_resolution_exits_1_before_integrating(
        tmp_path, capsys, monkeypatch):
    # the compared bins depend only on the segment length and dt; 1024
    # samples of 5e-11 s put the first bin past the band's 3 kappa
    def integrate_em(*args):
        raise AssertionError("a step was integrated")

    monkeypatch.setattr(kp.oracle._kernel, "integrate_em", integrate_em)
    path = write_config(tmp_path, "oracle_segment_length = 1024")
    code = cli.main(["oracle", "--config", path, "--out", str(tmp_path)])
    assert code == 1
    assert "resolution too coarse" in capsys.readouterr().err
    assert not (tmp_path / "oracle_report.json").exists()


@pytest.mark.parametrize("line, key, message", [
    ("oracle_segment_length = 1024", "oracle_segment_length",
     "oracle PSD resolution too coarse for the comparison band"),
    ("oracle_duration = 1e-6", "oracle_duration",
     "need at least 4 segments for error bars, got 1"),
    ("oracle_duration = 1e300\noracle_dt = 1e-300", "oracle_duration",
     "cannot convert float infinity to integer"),        # inf steps
    ("oracle_duration = 1000000.0", "oracle_duration",   # 2e16 steps
     "must span at most 1000000000 steps of oracle_dt, got "
     "20000000000000000")])
def test_every_command_rejects_an_oracle_run_that_cannot_work(
        tmp_path, capsys, line, key, message):
    # validate and oracle refuse what oracle cannot run; scan, which runs no
    # oracle, accepts it
    path = tmp_path / "run.cfg"
    path.write_text(line + "\n")
    out = tmp_path / "out"
    for command in ("validate", "oracle"):
        assert cli.main([command, "--config", str(path),
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config line 1: {key}: {message}")
        assert "Traceback" not in err
    assert not out.exists()
    assert cli.main(["scan", "--config", str(path), "--out", str(out)]) == 0
    assert cli.main(["validate", "--config", FIXTURE]) == 0


COMMANDS = ("scan", "spectrum", "stokes", "oracle")
CUBIC = "the steady-state cubic is not finite"
# one-line configs: the key each fails under, its message, and the commands
# that check it; validate checks them all and every other command runs
CONFIG_CHECKS = [
    # the file sets only kappa_mhz: the band error names the bins and keys
    ("kappa_mhz = 4.0", "default: oracle_segment_length",
     "oracle PSD resolution too coarse for the comparison band; decrease "
     "oracle_dt or increase oracle_segment_length: 9 bins in 0.4-12 MHz, 10 "
     "needed (kappa_mhz, oracle_dt, oracle_segment_length)\n", {"oracle"}),
    ("oracle_segment_length = 1024", "line 1: oracle_segment_length",
     "oracle PSD resolution too coarse for the comparison band", {"oracle"}),
    ("oracle_duration = 1e-6", "line 1: oracle_duration",
     "need at least 4 segments for error bars, got 1", {"oracle"}),
    ("oracle_duration = 1e300\noracle_dt = 1e-300", "line 1: oracle_duration",
     "cannot convert float infinity to integer", {"oracle"}),
    ("oracle_duration = 1000000.0", "line 1: oracle_duration",
     "must span at most 1000000000 steps of oracle_dt", {"oracle"}),
    ("scan_step_mhz = 1e-12", "line 1: scan_step_mhz",
     "must leave 2 to 1000000 scan points", {"scan"}),
    ("scan_step_mhz = 1e-320", "line 1: scan_step_mhz",
     "must leave 2 to 1000000 scan points", {"scan"}),
    ("scan_stop_mhz = 1e300", "line 1: scan_stop_mhz", CUBIC, {"scan"}),
    # 7 PiB of phase grid; the oracle reads only the first frequency
    ("theta_points = 1000000000000000", "line 1: theta_points",
     "with 2 frequencies, must leave at most 1000000 spectrum rows",
     {"spectrum", "stokes"}),
    ("delta_c_mhz = 1e300", "line 1: delta_c_mhz", CUBIC,
     {"spectrum", "stokes", "oracle"}),
    ("n_atoms = 1e300", "line 1: n_atoms", CUBIC, set(COMMANDS)),
    ("power_uw = 1e280", "line 1: power_uw", CUBIC, set(COMMANDS)),
    ("delta_mhz = 1e-300", "line 1: delta_mhz",
     "its square underflows to zero", set(COMMANDS))]


@pytest.mark.parametrize("text, where, message, readers, command", [
    pytest.param(*check, command, id=f"{command}: {check[0]}")
    for check in CONFIG_CHECKS for command in ("validate", *COMMANDS)
    # a full oracle run is left to the oracle tests
    if command != "oracle" or command in check[-1]])
def test_each_command_checks_only_the_config_it_runs(
        tmp_path, capsys, monkeypatch, text, where, message, readers,
        command):
    def integrate_em(*args):
        raise AssertionError("a step was integrated")

    monkeypatch.setattr(kp.oracle._kernel, "integrate_em", integrate_em)
    path = tmp_path / "run.cfg"
    path.write_text(text + "\n")
    out = tmp_path / "out"
    code = cli.main([command, "--config", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if command == "validate" or command in readers:
        assert code == 1
        assert err.startswith(f"error: config {where}: {message}")
        assert not out.exists()
    else:
        assert code == 0
        assert out.is_dir()


def test_validate_checks_what_every_command_checks():
    # draws near each check's limit: validate rejects a config exactly when
    # some command does, with the message of one that does
    rng = random.Random(23)
    extremes = [("n_atoms", 1e300), ("power_uw", 1e280),
                ("delta_mhz", 1e-300), ("delta_c_mhz", 1e300),
                ("scan_stop_mhz", 1e300), ("theta_points", 1),
                ("theta_points", 10 ** 15)]
    failing = collections.Counter()
    for _ in range(600):
        cfg = replace(
            cli.RunConfig(), kappa_mhz=rng.uniform(3.9, 5.0),
            oracle_duration=10.0 ** rng.uniform(-6.0, -4.0),
            oracle_segment_length=rng.choice([1024, 16384, 16384, 32768]),
            scan_step_mhz=10.0 ** rng.uniform(-5.0, 3.0),
            **dict(pair for pair in extremes if rng.random() < 0.08))
        verdicts = {}
        for command in ("validate", "template", *COMMANDS):
            try:
                cli._validate_config(cfg, {}, command)
            except kp.ValidationError as exc:
                verdicts[command] = str(exc)
        rejected = {verdicts[c] for c in COMMANDS if c in verdicts}
        assert ("validate" in verdicts) == bool(rejected)
        assert verdicts.get("validate", "") in rejected | {""}
        if "template" in verdicts:
            assert rejected == {verdicts["template"]}
            assert all(c in verdicts for c in COMMANDS)
        failing[frozenset(c for c in COMMANDS if c in verdicts)] += 1
    for only in (set(), {"scan"}, {"oracle"}, {"spectrum", "stokes"},
                 {"spectrum", "stokes", "oracle"}, set(COMMANDS)):
        assert failing[frozenset(only)] >= 20, failing


def test_oracle_zero_duration_config_exits_1(tmp_path, capsys):
    path = write_config(tmp_path, "oracle_duration = 0.0")
    code = cli.main(["oracle", "--config", path, "--out", str(tmp_path)])
    assert code == 1
    assert "oracle_duration" in capsys.readouterr().err


def test_oracle_infinite_duration_exits_1_without_report(tmp_path, capsys):
    path = write_config(tmp_path, "oracle_duration = inf")
    out = tmp_path / "out"
    code = cli.main(["oracle", "--config", path, "--out", str(out)])
    assert code == 1
    assert "oracle_duration" in capsys.readouterr().err
    assert not out.exists()


def test_seed_flag_overrides_config(tmp_path):
    path = write_config(tmp_path, *FAST_ORACLE)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli.main(["oracle", "--config", path, "--out", str(out_a),
                     "--seed", "7"]) == 0
    assert cli.main(["oracle", "--config", path, "--out", str(out_b)]) == 0
    a = json.loads((out_a / "oracle_report.json").read_text())
    b = json.loads((out_b / "oracle_report.json").read_text())
    assert a["seed"] == 7 and b["seed"] == 20201
    assert a["comparison"]["points"] != b["comparison"]["points"]


def test_missing_config_file_exits_1(tmp_path, capsys):
    code = cli.main(["scan", "--config", str(tmp_path / "nope.cfg")])
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "oracle"])
@pytest.mark.parametrize("config_lines, flags, where", [
    (["oracle_seed = -5"], [], "line "), ([], ["--seed", "-1"], "override")],
    ids=["config", "flag"])
def test_negative_seed_exits_1_without_report(tmp_path, capsys, command,
                                              config_lines, flags, where):
    path = write_config(tmp_path, *FAST_ORACLE, *config_lines)
    out = tmp_path / "out"
    assert cli.main([command, "--config", path, "--out", str(out),
                     *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {where}")
    assert "oracle_seed: must be >= 0" in err
    assert not out.exists()


@pytest.mark.parametrize("command", [["scan"], ["spectrum"], ["stokes"]])
def test_unwritable_output_exits_1(tmp_path, capsys, command):
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory\n")
    code = cli.main([*command, "--config", FIXTURE, "--out", str(taken)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert taken.read_text() == "a file, not a directory\n"


@pytest.mark.parametrize("command, blocked", [
    (["scan"], "scan.csv"),
    (["stokes"], "stokes_summary.csv"),
    (["oracle"], "oracle_report.json")])
def test_failed_output_leaves_no_new_file(tmp_path, capsys, command,
                                          blocked):
    # the last file a command writes is blocked by a directory of its name:
    # the command exits 1 and leaves out_dir as it found it
    path = write_config(tmp_path, *FAST_ORACLE)
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    assert cli.main([*command, "--config", path, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(p.name for p in out.iterdir()) == [blocked]
    assert list((out / blocked).iterdir()) == []


def test_write_files_failing_mid_write_leaves_nothing(tmp_path):
    # a text that cannot be encoded fails inside the second file's write
    files = [("a.csv", "1,2\n"), ("b.csv", "3,4\n" * 5000 + "\ud800")]
    with pytest.raises(UnicodeEncodeError):
        write_files(str(tmp_path), files)
    assert list(tmp_path.iterdir()) == []
    assert write_files(str(tmp_path), files[:1]) == [str(tmp_path / "a.csv")]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv"]
    assert (tmp_path / "a.csv").read_text() == "1,2\n"

    # a text given as blocks is rendered while it is written: a block that
    # fails partway through the second file leaves no new file, no
    # temporary and the old file as it was
    def blocks():
        yield "3,4\n" * 5000
        raise kp.NumericalError("block failed")

    with pytest.raises(kp.NumericalError, match="block failed"):
        write_files(str(tmp_path), [("c.csv", iter(["5,", "6\n"])),
                                    ("a.csv", blocks())])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv"]
    assert (tmp_path / "a.csv").read_text() == "1,2\n"


def test_empty_out_dir_rejected_with_line_number(tmp_path, capsys):
    path = write_config(tmp_path, "out_dir =")
    lineno = (tmp_path / "run.cfg").read_text().splitlines().index(
        "out_dir =") + 1
    assert cli.main(["validate", "--config", path]) == 1
    assert (f"config line {lineno}: out_dir: must not be empty"
            in capsys.readouterr().err)


def test_json_format_mirrors_schema(tmp_path):
    path = write_config(tmp_path, "format = json")
    assert cli.main(["scan", "--config", path, "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "scan.json").read_text())
    assert payload["table"] == "scan"
    assert len(payload["columns"]) == len(payload["units"])
    assert all(len(r) == len(payload["columns"]) for r in payload["rows"])
    assert payload["meta"]["config_hash"]


@pytest.mark.parametrize("command", [
    [*command, *fmt] for fmt in ([], ["--format", "json"]) for command in (
        ["scan"],
        ["spectrum", "--mode", "y"],
        ["spectrum", "--mode", "x"],
        ["stokes"])])
def test_commands_byte_identical_across_runs(tmp_path, command):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli.main([*command, "--config", FIXTURE, "--out", str(out_a)]) == 0
    assert cli.main([*command, "--config", FIXTURE, "--out", str(out_b)]) == 0
    names = sorted(os.listdir(out_a))
    assert names == sorted(os.listdir(out_b))
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()



# ---------------------------------------------------------------------------
# output hygiene: no NaN or infinity in a file, warnings on stderr only

@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                 np.float64(np.nan)])
def test_tables_refuse_non_finite_values(bad):
    def table(cell, meta):
        return OutputTable(name="t", columns=["a", "b"], units=["1", "1"],
                           data=[[1.0, cell], ["x", None]],
                           meta={"seed": 1, "m": meta})

    for render in (OutputTable.to_csv_text, OutputTable.to_json_text):
        assert render(table(2.0, 0.5))
        with pytest.raises(kp.NumericalError):
            render(table(bad, 0.5))
        with pytest.raises(kp.NumericalError):
            render(table(2.0, bad))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_non_finite_table_exits_2_without_file(tmp_path, capsys, monkeypatch,
                                               fmt):
    monkeypatch.setattr(cli, "apply_detection_loss", lambda s, eta: math.nan)
    code = cli.main(["spectrum", "--config", FIXTURE, "--format", fmt,
                     "--out", str(tmp_path)])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err
    assert not (tmp_path / f"spectrum_y.{fmt}").exists()


def test_non_finite_oracle_report_exits_2_without_file(tmp_path, capsys,
                                                       monkeypatch):
    real = cli.compare
    monkeypatch.setattr(cli, "compare", lambda *args: replace(
        real(*args), max_abs_z=math.inf))
    path = write_config(tmp_path, *FAST_ORACLE)
    code = cli.main(["oracle", "--config", path, "--out", str(tmp_path)])
    assert code == 2
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "oracle_report.json").exists()


@pytest.mark.parametrize("command", [["stokes"], ["oracle"]])
def test_validity_warnings_reach_stderr_not_out(tmp_path, capsys,
                                                monkeypatch, command):
    path = write_config(tmp_path, *FAST_ORACLE)
    quiet, warned = tmp_path / "quiet", tmp_path / "warned"
    assert cli.main([*command, "--config", path, "--out", str(quiet)]) == 0
    assert "warning" not in capsys.readouterr().err
    monkeypatch.setattr(cli, "model_validity", lambda model, params, omega: [
        f"model-validity: probe at {omega:.6g} rad/s"])
    assert cli.main([*command, "--config", path, "--out", str(warned)]) == 0
    assert "model-validity: probe" in capsys.readouterr().err
    names = sorted(os.listdir(quiet))
    assert names == sorted(os.listdir(warned))
    for name in names:
        assert (quiet / name).read_bytes() == (warned / name).read_bytes()
