import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

import ldp_expand as lx
from ldp_expand.discretize import operators_for
from ldp_expand.errors import AdmissibleRangeError
from ldp_expand.spectral import spectral_mu_prime

MATHIEU_GOLDEN_03 = (0.285536475104517, 0.0428302822520959, 0.951805048644368)


def test_gaussian_theta_equals_a(gaussian):
    assert abs(lx.solve_theta(gaussian, 1.0, n=64) - 1.0) < 1e-10
    rp = lx.rate_point(gaussian, 2.0, n=64)
    assert abs(rp.theta - 2.0) < 1e-10
    assert abs(rp.rate - 2.0) < 1e-10
    assert abs(rp.curvature - 1.0) < 1e-12


def test_gaussian_rate_table_values(gaussian):
    table = lx.rate_table(gaussian, [0.5, 1.0, 2.0], n=64)
    rates = [p.rate for p in table.points]
    assert np.allclose(rates, [0.125, 0.5, 2.0], atol=1e-9)
    assert not table.failures
    thetas = [p.theta for p in table.points]
    assert all(b > a for a, b in zip(thetas, thetas[1:]))  # monotone tilt


def test_empty_table(gaussian):
    table = lx.rate_table(gaussian, [], n=64)
    assert table.points == () and table.failures == ()


def test_rate_near_mean_vanishes(gaussian):
    rp = lx.rate_point(gaussian, 1e-4, n=64)
    assert rp.rate < 1e-7


def test_out_of_range_reports_interval(gaussian):
    with pytest.raises(AdmissibleRangeError) as err:
        lx.solve_theta(gaussian, 100.0, n=64)
    assert "admissible" in str(err.value)
    table = lx.rate_table(gaussian, [1.0, 100.0], n=64)
    assert len(table.points) == 1 and len(table.failures) == 1


def test_duality_residual(mathieu):
    ops = operators_for(mathieu, 256)
    for a in (0.1, 0.3, 0.6):
        rp = lx.rate_point(mathieu, a, n=256)
        assert rp.duality_residual(ops.mu(rp.theta)) < 1e-10
        assert abs(spectral_mu_prime(ops, rp.theta) - a) < 1e-10
        assert rp.curvature > 0


def test_mathieu_golden_triple(mathieu):
    rp = lx.rate_point(mathieu, 0.3, n=256)
    theta, rate, curv = MATHIEU_GOLDEN_03
    assert abs(rp.theta - theta) < 1e-9
    assert abs(rp.rate - rate) < 1e-10
    assert abs(rp.curvature - curv) < 1e-7


def test_rate_derivative_identity(mathieu):
    # dI/da = theta_a by convex duality
    h = 1e-4
    rp = lx.rate_point(mathieu, 0.3, n=256)
    up = lx.rate_point(mathieu, 0.3 + h, n=256)
    dn = lx.rate_point(mathieu, 0.3 - h, n=256)
    assert abs((up.rate - dn.rate) / (2 * h) - rp.theta) < 1e-6


def test_rate_convexity(gaussian):
    table = lx.rate_table(gaussian, np.linspace(0.2, 2.0, 7), n=64)
    rates = np.array([p.rate for p in table.points])
    a = np.array([p.a for p in table.points])
    dd = np.diff(np.diff(rates) / np.diff(a)) / np.diff(a[:-1])
    assert np.all(dd > -1e-10)


def test_chain_rate_matches_cosh(pm1_chain):
    for a in (0.6, 0.3):
        rp = lx.rate_point(pm1_chain, a)
        theta = np.arctanh(a)
        assert abs(rp.theta - theta) < 1e-10
        assert abs(rp.rate - (a * theta - np.log(np.cosh(theta)))) < 1e-12
        # I''(a) = 1 / mu''(theta_a) = cosh^2(theta_a), exact from the perturbation solve
        assert abs(rp.curvature / np.cosh(rp.theta) ** 2 - 1.0) < 1e-12


@given(st.floats(0.05, 1.9))
def test_duality_property_random_levels(a):
    gaussian = lx.gaussian_baseline()
    rp = lx.rate_point(gaussian, a, n=64)
    assert rp.rate >= -1e-12
    assert abs(rp.theta - a) < 1e-9
    assert abs(rp.rate - a * a / 2) < 1e-9


def test_bracket_expansion(gaussian):
    # admissible beyond the first bracket [0, 1] through expand-by-doubling
    rp = lx.rate_point(gaussian, 10.0, n=64)
    assert abs(rp.theta - 10.0) < 1e-9


@pytest.mark.parametrize("a", [1.0, 2.0, 8.0, 16.0])
def test_level_at_a_bracket_end_is_admissible(gaussian, a):
    # mu'(theta) = theta on the Gaussian, so each level is mu' at a bracket
    # end [0, 1], [0, 2], ..., which the doubling passes before the range check
    assert abs(lx.solve_theta(gaussian, a, n=64) - a) < 1e-9


def test_one_perturbation_solve_per_rate_point(mathieu, monkeypatch):
    from ldp_expand import rate
    calls = []
    real = rate._perturbation

    def counted(ops, theta):
        calls.append(theta)
        return real(ops, theta)

    monkeypatch.setattr(rate, "_perturbation", counted)
    lx.clear_caches()
    rp = lx.rate_point(mathieu, 0.3, n=128)
    assert calls == [rp.theta]


def test_one_perturbation_solve_per_cgf_derivatives(mathieu, monkeypatch):
    # the Xi cross-check takes the (mu', gdot) of the perturbation solve
    from ldp_expand import spectral
    from ldp_expand.discretize import CyclicTridiagonal
    lx.clear_caches()
    first = lx.cgf_derivatives(mathieu, 0.5, n=256)
    calls, factors = [], []
    real_perturbation, real_solver = spectral._perturbation, CyclicTridiagonal.shifted_solver
    monkeypatch.setattr(spectral, "_perturbation",
                        lambda ops, theta: calls.append(theta) or real_perturbation(ops, theta))
    monkeypatch.setattr(CyclicTridiagonal, "shifted_solver",
                        lambda self, sigma: factors.append(sigma) or real_solver(self, sigma))
    assert lx.cgf_derivatives(mathieu, 0.5, n=256) == first
    assert calls == [0.5] and len(factors) == 1
    assert first == real_perturbation(operators_for(mathieu, 256), 0.5)[:2]


@pytest.mark.parametrize("model, n, a_grid", [
    ("mathieu", 256, (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)),
    ("gaussian", 64, (0.05, 0.5, 1.0, 2.0, 10.0)),
])
def test_solve_theta_matches_brentq(request, model, n, a_grid):
    from scipy.optimize import brentq

    spec = request.getfixturevalue(model)
    ops = operators_for(spec, n)
    for a in a_grid:
        theta = lx.solve_theta(spec, a, n=n)
        hi = 8.0 if a < 8.0 else 16.0
        ref = brentq(lambda th: spectral_mu_prime(ops, th) - a, 0.0, hi, xtol=1e-15)
        assert abs(theta - ref) <= 1e-12 * ref
    with pytest.raises(AdmissibleRangeError):
        lx.solve_theta(spec, -0.1, n=n)


def test_cli_import_skips_optimize_and_special():
    code = ("import sys, ldp_expand.cli; "
            "print(sorted(m for m in ('scipy.optimize', 'scipy.special') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.strip() == "[]"
