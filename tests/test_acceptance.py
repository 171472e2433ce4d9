"""Acceptance gate: one timed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Every tolerance is pinned here; nothing is deferred.
"""

import io
import math
import os
import time
from contextlib import contextmanager, redirect_stdout

import numpy as np
import pytest

import kerrpol as kp
from kerrpol import cli

from conftest import draw_operating_point, make_params, squeezed_to_angle, steady_at
from scan_reference import turning_points
from spectra_reference import drift_x_nonlinear, drift_y_nonlinear
from stokes_reference import recover_lossless

FIXTURE = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                       "default.cfg")


@contextmanager
def criterion(number, description, budget_s):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        elapsed = time.perf_counter() - start
        print(f"FAIL criterion {number} ({elapsed:.2f} s): {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"PASS criterion {number} ({elapsed:.2f} s): {description}")
    assert elapsed < budget_s, (
        f"criterion {number} exceeded its {budget_s} s budget: {elapsed:.2f} s")


def fixture_config():
    with open(FIXTURE) as fh:
        return cli.parse_config(fh.read())


# ---------------------------------------------------------------------------

def test_criterion_1_shot_noise_identity():
    with criterion(1, "shot-noise identity, 50x16 grid at s_x = 0, 1e-9", 1.0):
        p = make_params(delta0=-8.0)
        steady = kp.steady_states(p, kp.DriveField(alpha_in=0j), -2.0)[0]
        assert steady.s_x == 0.0
        model = kp.build_drift_y(steady, p)
        omegas = np.linspace(-5.0, 5.0, 50)
        thetas = np.linspace(-math.pi, math.pi, 16)
        values = kp.noise_spectrum(model, omegas, thetas).values
        assert np.max(np.abs(values - 1.0)) <= 1e-9


def test_criterion_2_purity_and_uncertainty():
    with criterion(2, "purity and Stokes uncertainty on 200 stable draws,"
                      " 1e-6", 5.0):
        rng = np.random.default_rng(611)
        for _ in range(200):
            params, steady = draw_operating_point(rng)
            model = kp.build_drift_y(steady, params)
            w = float(rng.uniform(0.0, 3.0))
            smin, smax, theta_min = kp.min_max_spectrum(model, w)
            assert abs(smin * smax - 1.0) <= 1e-6

            # pre-loss the output is pure: the extremal quadrature pair of
            # the Stokes noise saturates the Heisenberg bound exactly; the
            # fixed (S2, S3) pair saturates only when the squeezing axes
            # align, so it is held to the inequality
            pair = kp.noise_spectrum(
                model, [w], [theta_min, kp.fold_angle(theta_min + math.pi / 2)])
            extremal = float(pair.values[0, 0] * pair.values[0, 1])
            assert abs(extremal - 1.0) <= 1e-6

            spec = kp.noise_spectrum(model, [w], [0.0, math.pi / 2.0])
            (v_s2,), (v_s3,), (product,) = kp.stokes_noise(spec)
            assert product >= 1.0 - 1e-6

            eta = float(rng.uniform(0.3, 1.0))
            lossy_product = (kp.apply_detection_loss(v_s2, eta)
                             * kp.apply_detection_loss(v_s3, eta))
            assert lossy_product >= 1.0 - 1e-9


def test_criterion_3_oracle_equivalence():
    with criterion(3, "analytic vs stochastic PSD, >= 20 points, 3 sigma on"
                      " >= 95%, duration 2e5/kappa", 60.0):
        # overdamped squeezing point: smooth spectra keep the integrator's
        # leftover discretization systematics well below the statistical
        # error bars
        p = make_params(delta0=-8.0)
        s = 0.15
        delta_c = -8.0 * (1.0 - s) + 0.3
        steady = steady_at(p, delta_c, s)
        model = kp.build_drift_y(steady, p)
        assert model.is_stable

        cfg = kp.TrajectoryConfig(dt=0.005, duration=2.0e5, seed=20240406,
                                  burn_in=0.01, theta_list=(0.0, 0.8))
        assert cfg.duration >= 2.0e5 / p.kappa
        estimate = kp.oracle_psd(model, cfg, 16384, overlap=0.5)

        band = np.nonzero((estimate.omega > 0.15) & (estimate.omega < 1.5))[0]
        picks = band[np.linspace(0, band.size - 1, 12).round().astype(int)]
        picks = np.unique(picks)
        analytic = kp.noise_spectrum(model, estimate.omega[picks],
                                     cfg.theta_list)
        subset = kp.PsdEstimate(omega=estimate.omega[picks],
                                psd=estimate.psd[picks],
                                stderr=estimate.stderr[picks],
                                n_segments=estimate.n_segments,
                                thetas=estimate.thetas)
        report = kp.compare(analytic, subset)
        assert len(report.z) >= 20
        assert report.fraction_within_3 >= 0.95
        assert report.passed


def test_criterion_4_bistability_correctness():
    with criterion(4, "cubic branches match dense bracketing on 100 draws;"
                      " turning points match brute force", 5.0):
        rng = np.random.default_rng(229)
        bistable_seen = 0
        for _ in range(100):
            delta0 = float(rng.choice([-1.0, 1.0]) * rng.uniform(4.0, 30.0))
            p = make_params(delta0=delta0)
            delta_c = delta0 - math.copysign(float(rng.uniform(0.3, 6.0)),
                                             delta0)
            c = kp.kerr_coefficient(p)
            power = float(rng.uniform(0.05, 4.0)) / (c * abs(delta0))
            branches = kp.steady_states(p, kp.DriveField.from_power(power),
                                        delta_c)
            a3, a2, a1, a0 = kp.steady.cubic_coefficients(p, power, delta_c)

            hi = 4.0 * max(b.intensity for b in branches)
            grid = np.linspace(0.0, hi, 20001)
            vals = ((a3 * grid + a2) * grid + a1) * grid + a0

            oracle_roots = [float(g) for g in grid[1:][vals[1:] == 0.0]]
            for k in np.nonzero(np.sign(vals[1:]) * np.sign(vals[:-1]) < 0)[0]:
                lo_i, hi_i = grid[k], grid[k + 1]
                for _ in range(100):
                    mid = 0.5 * (lo_i + hi_i)
                    f_lo = ((a3 * lo_i + a2) * lo_i + a1) * lo_i + a0
                    f_mid = ((a3 * mid + a2) * mid + a1) * mid + a0
                    if f_lo * f_mid <= 0.0:
                        hi_i = mid
                    else:
                        lo_i = mid
                oracle_roots.append(0.5 * (lo_i + hi_i))
            oracle_roots.sort()

            assert len(branches) == len(oracle_roots)
            bistable_seen += len(branches) == 3
            for b, r in zip(branches, oracle_roots):
                assert b.intensity == pytest.approx(r, rel=1e-7)

            points = turning_points(p, delta_c)
            dl = delta_c - delta0
            if abs(dl) >= math.sqrt(3.0) * p.kappa + 0.05:
                assert len(points) == 2
                d0v = kp.linear_dephasing(p)
                dense_i = np.linspace(points[0][0] / 3.0, points[1][0] * 3.0,
                                      200001)
                det = delta_c - d0v + d0v * c * dense_i
                dense_p = dense_i * (p.kappa ** 2 + det ** 2) / (2.0 * p.kappa)
                dp = np.diff(dense_p)
                crossings = np.nonzero(np.sign(dp[1:]) != np.sign(dp[:-1]))[0] + 1
                assert crossings.size == 2
                for (i_tp, _), k in zip(points, sorted(dense_i[crossings])):
                    assert i_tp == pytest.approx(k, rel=1e-3)
        assert bistable_seen >= 10


def test_criterion_5_jacobian_consistency():
    with criterion(5, "drift entries match central finite differences on"
                      " 50 draws, 1e-6", 2.0):
        rng = np.random.default_rng(353)

        def wirtinger(f, z0, h):
            dx = (f(z0 + h) - f(z0 - h)) / (2.0 * h)
            dy = (f(z0 + 1j * h) - f(z0 - 1j * h)) / (2.0 * h)
            return 0.5 * (dx - 1j * dy), 0.5 * (dx + 1j * dy)

        for _ in range(50):
            params, steady = draw_operating_point(rng)

            model_y = kp.build_drift_y(steady, params)
            m11, m12 = wirtinger(
                lambda z: drift_y_nonlinear(z, steady.alpha_x, params,
                                            steady.delta_c), 0j, 1e-5)
            assert abs(model_y.m11 - m11) <= 1e-6 * abs(model_y.m11)
            assert abs(model_y.m12 - m12) <= 1e-6 * max(
                abs(model_y.m12), 1e-9 * abs(model_y.m11))

            model_x = kp.build_drift_x(steady, params)
            scale = max(abs(steady.alpha_x), 1.0)
            m11, m12 = wirtinger(
                lambda z: drift_x_nonlinear(z, steady.alpha_in, params,
                                            steady.delta_c),
                steady.alpha_x, 1e-5 * scale)
            assert abs(model_x.m11 - m11) <= 1e-6 * abs(model_x.m11)
            assert abs(model_x.m12 - m12) <= 1e-6 * max(
                abs(model_x.m12), 1e-9 * abs(model_x.m11))


def test_criterion_6_fixture_squeezing_scale():
    with criterion(6, "committed fixture: y-mode S_min in [0.75, 0.90] at"
                      " 3 MHz, x-mode in [0.85, 0.97] at 6 MHz, loss-mapped"
                      " within 0.03", 1.0):
        cfg = fixture_config()
        assert cfg.kappa_mhz == 5.0 and cfg.gamma_mhz == 2.6
        assert cfg.gamma_perp_mhz == cfg.gamma_par_mhz
        assert cfg.delta_mhz == -50.0 and cfg.transmission == 0.10

        params = cli.build_params(cfg)
        steady = cli.select_branch(cfg, params)
        assert 0.01 < steady.s_x < 0.5          # validity envelope
        two_pi_mhz = 2 * math.pi * 1e6

        model_y = kp.build_drift_y(steady, params)
        s_min_y, _, _ = kp.min_max_spectrum(model_y, 3.0 * two_pi_mhz)
        assert 0.75 <= s_min_y <= 0.90
        assert kp.model_validity(model_y, params, 3.0 * two_pi_mhz) == []

        model_x = kp.build_drift_x(steady, params)
        s_min_x, _, _ = kp.min_max_spectrum(model_x, 6.0 * two_pi_mhz)
        assert 0.85 <= s_min_x <= 0.97
        assert kp.model_validity(model_x, params, 6.0 * two_pi_mhz) == []

        # measured scale after the lumped detection efficiency
        assert abs(kp.apply_detection_loss(s_min_y, 0.718) - 0.87) <= 0.03
        assert abs(kp.apply_detection_loss(s_min_x, 0.718) - 0.95) <= 0.03


def test_criterion_7_loss_model_consistency():
    with criterion(7, "implied efficiencies agree within 0.01; loss"
                      " inversion exact to 1e-12", 1.0):
        eta_vacuum = 0.13 / 0.18
        eta_mean = 0.05 / 0.07
        assert abs(eta_vacuum - eta_mean) < 0.01
        rng = np.random.default_rng(81)
        for _ in range(200):
            s = float(rng.uniform(0.0, 2.5))
            eta = float(rng.uniform(0.05, 1.0))
            assert abs(recover_lossless(kp.apply_detection_loss(s, eta),
                                        eta) - s) <= 1e-12


def test_criterion_8_phase_scan_topologies():
    with criterion(8, "phase-scan center dip at theta_min = pi/2 and lobes"
                      " at cos 30 deg for theta_min = 30 deg", 1.0):
        thetas = np.linspace(-math.pi, math.pi, 721)
        spacing = float(thetas[1] - thetas[0])

        _, _, model = squeezed_to_angle(math.pi / 2.0)
        _, cos_theta, v_theta = kp.phase_scan_dataset(model, 0.6, thetas,
                                                      eta=0.718)
        k = int(np.argmin(v_theta))
        assert abs(cos_theta[k]) <= math.sin(spacing) + 1e-12

        target = math.radians(30.0)
        _, _, model = squeezed_to_angle(target)
        theta_hd, cos_theta, v_theta = kp.phase_scan_dataset(
            model, 0.6, thetas, eta=0.718)
        pos = theta_hd > 0
        k_pos = int(np.argmin(np.where(pos, v_theta, np.inf)))
        k_neg = int(np.argmin(np.where(~pos, v_theta, np.inf)))
        for k in (k_pos, k_neg):
            assert abs(math.remainder(theta_hd[k] - target, math.pi)) \
                <= spacing
        assert abs(cos_theta[k_pos] - math.cos(target)) <= spacing
        assert abs(cos_theta[k_neg] + math.cos(target)) <= spacing


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, "every CLI command byte-identical across two runs",
                   300.0):
        commands = [
            ["scan"],
            ["spectrum", "--mode", "y"],
            ["spectrum", "--mode", "x"],
            ["stokes"],
            ["oracle"],
        ]
        for cmd in commands:
            out_a = tmp_path / ("a_" + "_".join(cmd))
            out_b = tmp_path / ("b_" + "_".join(cmd))
            with redirect_stdout(io.StringIO()):
                assert cli.main([*cmd, "--config", FIXTURE,
                                 "--out", str(out_a)]) == 0
                assert cli.main([*cmd, "--config", FIXTURE,
                                 "--out", str(out_b)]) == 0
            names = sorted(os.listdir(out_a))
            assert names and names == sorted(os.listdir(out_b))
            for name in names:
                assert (out_a / name).read_bytes() == \
                    (out_b / name).read_bytes(), f"{cmd}: {name} differs"
