"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line each.  Run with `pytest tests/test_acceptance.py -v -rA` to see
the lines for passing criteria too."""
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.special import comb

import ldp_expand as lx
import ldp_expand.spectral as sp
from ldp_expand import discretize
from ldp_expand.model import EvaluationFrame

SQRT_2PI = np.sqrt(2.0 * np.pi)
FRAME = EvaluationFrame()


def _report(num: int, label: str, started: float, **facts):
    elapsed = time.perf_counter() - started
    detail = " ".join(f"{k}={v}" for k, v in facts.items())
    print(f"[acceptance] criterion {num} ({label}): PASS in {elapsed:.2f}s  {detail}")


def _fresh():
    lx.clear_caches()


def test_criterion_1_gaussian_rate_exactness():
    _fresh()
    spec = lx.gaussian_baseline()
    started = time.perf_counter()
    worst_theta = worst_rate = 0.0
    for a in (0.5, 1.0, 2.0):
        rp = lx.rate_point(spec, a)  # default n=256
        worst_theta = max(worst_theta, abs(rp.theta - a))
        worst_rate = max(worst_rate, abs(rp.rate - a * a / 2))
    elapsed = time.perf_counter() - started
    assert worst_theta < 1e-8, f"theta_a error {worst_theta:.2e}"
    assert worst_rate < 1e-8, f"I(a) error {worst_rate:.2e}"
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"
    _report(1, "Gaussian rate exactness", started,
            theta_err=f"{worst_theta:.1e}", rate_err=f"{worst_rate:.1e}")


def test_criterion_2_prefactor_and_higher_coefficients():
    _fresh()
    spec = lx.gaussian_baseline()
    started = time.perf_counter()
    # constant b and sigma make the observable exactly Brownian at any grid
    # resolution, so the baseline runs at n=64
    d0 = lx.leading_coefficient(spec, FRAME, 1.0, n=64)
    assert abs(d0 - 1 / SQRT_2PI) < 1e-6
    ts = [16.0 * 2 ** (k / 2) for k in range(9)]  # {16 ... 256}
    fit = lx.extract_coefficients(spec, FRAME, 1.0, ts, order=6, n=64)
    ref = 1 / SQRT_2PI
    errs = (abs(fit.coefficients[0] - ref) / ref,
            abs(fit.coefficients[1] + ref) / ref,
            abs(fit.coefficients[2] - 3 * ref) / (3 * ref))
    assert errs[0] < 0.01, f"D0 off by {100 * errs[0]:.2f}%"
    assert errs[1] < 0.02, f"D1 off by {100 * errs[1]:.2f}%"
    assert errs[2] < 0.10, f"D2 off by {100 * errs[2]:.2f}%"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"
    _report(2, "leading coefficient and Mills-ratio fit", started,
            D0_err=f"{100 * errs[0]:.3f}%", D1_err=f"{100 * errs[1]:.2f}%",
            D2_err=f"{100 * errs[2]:.2f}%")


def test_criterion_3_finite_chain_oracle_equivalence():
    _fresh()
    chain = lx.two_state_pm1_chain()
    started = time.perf_counter()
    worst = 0.0
    for n_steps in (10, 20, 40):
        p_inv = lx.exact_tail(chain, FRAME, 0.6, n_steps)
        p_dp = lx.brute_force_chain_tail(chain, n_steps, 0.6)
        k_min = int(np.ceil((0.6 * n_steps + n_steps) / 2 - 1e-12))
        p_enum = sum(comb(n_steps, k, exact=True)
                     for k in range(k_min, n_steps + 1)) / 2**n_steps
        assert p_dp == pytest.approx(p_enum, rel=1e-13)
        worst = max(worst, abs(p_inv - p_dp) / p_dp)
    assert worst < 1e-6, f"inversion vs oracle {worst:.2e}"
    p10 = lx.exact_tail(chain, FRAME, 0.6, 10)
    assert p10 == pytest.approx(0.0546875, rel=1e-9)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"
    _report(3, "finite-chain oracle equivalence", started, worst_rel=f"{worst:.1e}")


def test_criterion_4_mathieu_diffusivity_and_flattening():
    _fresh()
    spec = lx.mathieu_model()
    started = time.perf_counter()
    worst_xi = 0.0
    for theta in (0.0, 0.5, 1.0):
        _, d2 = sp.cgf_fd_derivatives(spec, theta, n=256)
        xi = lx.effective_diffusivity(spec, theta, n=256)
        worst_xi = max(worst_xi, abs(d2 - xi) / abs(d2))
    assert worst_xi < 5e-3, f"mu'' vs Xi off by {100 * worst_xi:.3f}%"

    d0 = lx.leading_coefficient(spec, FRAME, 0.3, n=256)
    ts = [50.0 * 2 ** (k / 2) for k in range(7)]  # 50 ... 400
    curve = lx.tail_curve(spec, FRAME, 0.3, ts, n=256)
    flat = curve.flattened()
    assert np.all(np.diff(flat) > 0)
    assert np.all(flat < d0)
    # "flattens to the analytic D0 within 1%": the t -> infinity level of
    # sqrt(t) e^{It} P, extracted from the t >= 50 samples
    fit = lx.extract_coefficients(spec, FRAME, 0.3, ts, order=4, n=256, curve=curve)
    rel = abs(fit.d0 - d0) / d0
    assert rel < 0.01, f"fitted D0 off by {100 * rel:.2f}%"
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 2min"
    _report(4, "Mathieu diffusivity identity and flattening", started,
            xi_err=f"{100 * worst_xi:.4f}%", D0_err=f"{100 * rel:.3f}%")


def test_criterion_5_importance_sampling():
    _fresh()
    started = time.perf_counter()
    gaussian = lx.gaussian_baseline()
    p_ref = lx.exact_tail(gaussian, FRAME, 1.0, 16.0, n=64)
    est = lx.estimate_tail_is(gaussian, FRAME, 1.0, 16.0, 1e-3, 100_000, seed=2026, n=64)
    z_g = abs(est.p_hat - p_ref) / est.stderr
    assert z_g < 3.0, f"Gaussian IS z-score {z_g:.2f}"
    assert est.ess > 1e3, f"ess {est.ess:.0f}"

    mathieu = lx.mathieu_model()
    p_ref_m = lx.exact_tail(mathieu, FRAME, 0.3, 30.0, n=256)
    est_m = lx.estimate_tail_is(mathieu, FRAME, 0.3, 30.0, 1e-3, 100_000, seed=907, n=256)
    z_m = abs(est_m.p_hat - p_ref_m) / est_m.stderr
    assert z_m < 3.0, f"Mathieu IS z-score {z_m:.2f}"
    assert est_m.ess > 1e3, f"ess {est_m.ess:.0f}"

    # naive MC at the same settings: partition the path budget into runs of
    # 100; the binomial oracle predicts (1-p)^100 = 99.68% zero-hit runs
    batch = lx.euler_maruyama(gaussian, 16.0, 1e-3, 100_000, seed=31)
    hits = (batch.y_final >= 16.0).reshape(1000, 100)
    zero_runs = float(np.mean(~hits.any(axis=1)))
    oracle_zero = (1.0 - p_ref) ** 100
    assert oracle_zero > 0.99
    assert zero_runs >= 0.99, f"zero-hit run fraction {zero_runs:.4f}"
    assert abs(zero_runs - oracle_zero) < 3 * np.sqrt(oracle_zero * (1 - oracle_zero) / 1000) + 1e-3
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"runtime {elapsed:.0f}s exceeds 5min"
    _report(5, "importance sampling cross-validation", started,
            gauss_z=f"{z_g:.2f}", mathieu_z=f"{z_m:.2f}",
            ess=f"{est.ess:.0f}/{est_m.ess:.0f}", zero_runs=f"{100 * zero_runs:.2f}%")


def test_criterion_6_condition_suite():
    _fresh()
    started = time.perf_counter()
    s_grid = [0.1, 1.0, 5.0, 20.0, 50.0]
    rep_g = lx.run_condition_suite(lx.gaussian_baseline(), [0.0, 0.5, 1.0],
                                   s_grid, [1.0, 1.5, 2.0], n=64, label="gaussian")
    assert rep_g.passed, [(v.name, v.passed) for v in rep_g.verdicts]
    rep_m = lx.run_condition_suite(lx.mathieu_model(), [0.0, 0.5, 1.0],
                                   s_grid, [1.0, 1.5, 2.0], n=256, label="mathieu")
    assert rep_m.passed, [(v.name, v.passed) for v in rep_m.verdicts]
    for rep in (rep_g, rep_m):
        assert rep.verdict("B2").evidence["min_gap"] > 0
        for th, ev in rep.verdict("D1-2").evidence.items():
            assert ev["epsilon"] > 0
        assert all(r < 1e-8 for r in rep.verdict("D2").evidence["residuals"].values())
        assert all(dd > 0 for _, dd in rep.verdict("D3").evidence["second_divided_differences"])
        assert all(v > 0 for v in rep.verdict("D3").evidence["ell_pi_v"].values())
    rep_neg = lx.run_condition_suite(lx.checkerboard_chain(), [0.2, 0.5, 1.0],
                                     [0.5, np.pi], [1, 2], label="checkerboard")
    assert not rep_neg.verdict("B3").passed
    assert not rep_neg.passed
    _report(6, "condition suite", started,
            gaussian="pass", mathieu="pass", negative_control="fails B3 as designed")


def test_criterion_7_numerical_hygiene(tmp_path):
    _fresh()
    started = time.perf_counter()
    # grid doubling moves mu(theta) by less than 1e-6
    worst_gap = 0.0
    for spec in (lx.gaussian_baseline(), lx.mathieu_model()):
        for theta in (0.5, 1.0):
            delta = abs(lx.cgf(spec, theta, n=512) - lx.cgf(spec, theta, n=256))
            worst_gap = max(worst_gap, delta)
    assert worst_gap < 1e-6, f"grid-doubling shift {worst_gap:.2e}"

    # Legendre duality residual below 1e-10 on every rate-table row
    worst_dual = 0.0
    for spec, a_grid in ((lx.gaussian_baseline(), np.linspace(0.2, 2.0, 7)),
                         (lx.mathieu_model(), np.linspace(0.1, 0.6, 6))):
        ops = discretize.operators_for(spec, 256)
        table = lx.rate_table(spec, a_grid, n=256)
        assert not table.failures
        for p in table.points:
            worst_dual = max(worst_dual, p.duality_residual(ops.mu(p.theta)))
    assert worst_dual < 1e-10, f"duality residual {worst_dual:.2e}"

    # parallel and serial runs byte-identical for a fixed seed
    payload = {"model": {"builtin": "gaussian_baseline", "grid_n": 64},
               "theta_grid": [0.0, 0.5, 1.0],
               "conditions": {"s_grid": [0.1, 1.0, 5.0], "t_grid": [1.0, 2.0]},
               "simulate": {"a": 1.0, "t": 2.0, "dt": 0.01, "n_paths": 4000},
               "seed": 99, "output_dir": str(tmp_path / "det")}
    cfg_path = tmp_path / "det.json"
    cfg_path.write_text(json.dumps(payload))
    outputs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, LDP_EXPAND_THREADS=threads)
        for cmd in ("simulate", "verify-conditions"):
            proc = subprocess.run([sys.executable, "-m", "ldp_expand.cli", cmd,
                                   "--config", str(cfg_path)],
                                  capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
        for name in ("simulate.csv", "conditions.csv"):
            body = []
            for ln in (tmp_path / "det" / name).read_text().splitlines():
                if ln.startswith("# generated="):
                    continue  # the one nondeterministic header line
                if name == "simulate.csv" and ln.startswith("tilted,"):
                    ln = ",".join(ln.split(",")[:-1])  # wall_time measurement
                body.append(ln)
            outputs.setdefault(name, []).append(body)
    for name, versions in outputs.items():
        assert versions[0] == versions[1], f"{name} differs between thread settings"
    _report(7, "numerical hygiene", started,
            grid_shift=f"{worst_gap:.1e}", duality=f"{worst_dual:.1e}",
            determinism="byte-identical")
