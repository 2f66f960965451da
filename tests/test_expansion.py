import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import comb
from scipy.stats import norm

import ldp_expand as lx
from ldp_expand.discretize import DiffusionOperators
from ldp_expand.errors import (AdmissibilityError, AdmissibleRangeError,
                               ConvergenceError, FitError, SemigroupOverflowError)
from ldp_expand.expansion import TailCurve

SQRT_2PI = np.sqrt(2 * np.pi)


def binomial_tail(n_steps: int, a: float) -> float:
    """P(S_n >= a n) for a Rademacher walk (independent enumeration oracle)."""
    k_min = int(np.ceil((a * n_steps + n_steps) / 2 - 1e-12))
    total = sum(comb(n_steps, k, exact=True) for k in range(k_min, n_steps + 1))
    return total / 2**n_steps


# -- transform values --------------------------------------------------------

def test_mgf_at_zero_is_one(gaussian, frame):
    assert abs(lx.mgf(gaussian, frame, 0.0, 3.0, n=64) - 1.0) < 1e-10


def test_mgf_real_tilt(gaussian, frame):
    t, theta = 2.5, 1.2
    assert abs(lx.mgf(gaussian, frame, theta, t, n=64) - np.exp(t * theta**2 / 2)) < 1e-9


def test_mgf_imaginary_tilt_magnitude(gaussian, frame):
    val = lx.mgf(gaussian, frame, 1j, 1.0, n=64)
    assert abs(abs(val) - np.exp(-0.5)) < 1e-10


def test_mgf_log_mode_handles_overflow(gaussian, frame):
    with pytest.raises(SemigroupOverflowError):
        lx.mgf(gaussian, frame, 4.0, 200.0, n=64)
    logv = lx.mgf(gaussian, frame, 4.0, 200.0, n=64, log=True)
    assert abs(logv.real - 200.0 * 8.0) < 1e-6


def test_mgf_chain_is_cosh_power(pm1_chain, frame):
    val = lx.mgf(pm1_chain, frame, 0.4, 6)
    assert abs(val - np.cosh(0.4) ** 6) < 1e-12
    with pytest.raises(ValueError):
        lx.mgf(pm1_chain, frame, 0.4, 2.5)


# -- exact tails --------------------------------------------------------------

def test_gaussian_tail_matches_normal_sf(gaussian, frame):
    for a in (0.2, 0.4, 0.6, 0.8, 1.0):
        for t in (16.0, 32.0, 64.0, 128.0):
            exact = norm.sf(a * np.sqrt(t))
            assert abs(lx.exact_tail(gaussian, frame, a, t, n=64) - exact) <= 5e-11 * exact, (a, t)


def test_tail_rejects_nonpositive_time(gaussian, frame):
    with pytest.raises(ValueError):
        lx.exact_tail(gaussian, frame, 1.0, 0.0, n=64)
    with pytest.raises(ValueError):
        lx.exact_tail(gaussian, frame, 1.0, -3.0, n=64)


def test_chain_tail_matches_binomial(pm1_chain, frame):
    p = lx.exact_tail(pm1_chain, frame, 0.6, 10)
    assert p == pytest.approx(56 / 1024, rel=1e-9)
    assert abs(p - binomial_tail(10, 0.6)) / binomial_tail(10, 0.6) < 1e-9


def test_refinement_self_consistency(gaussian, frame):
    loose = lx.exact_tail(gaussian, frame, 1.0, 16.0, n=64, rel_tol=1e-4)
    tight = lx.exact_tail(gaussian, frame, 1.0, 16.0, n=64, rel_tol=1e-8)
    assert abs(loose - tight) / tight < 1e-4


def test_tail_curve_flattening_monotone(gaussian, frame):
    ts = [16.0 * 2 ** (k / 2) for k in range(9)]
    curve = lx.tail_curve(gaussian, frame, 1.0, ts, n=64)
    flat = curve.flattened()
    assert np.all(np.diff(flat) > 0)  # monotone convergence up to D0
    assert flat[-1] < 1 / SQRT_2PI
    for t, q in zip(curve.t, flat):
        oracle = np.sqrt(t) * np.exp(t / 2) * norm.sf(np.sqrt(t))
        assert abs(q - oracle) / oracle < 1e-9


# -- leading coefficient ------------------------------------------------------

def test_leading_coefficient_gaussian(gaussian, frame):
    d0 = lx.leading_coefficient(gaussian, frame, 1.0, n=64)
    assert abs(d0 - 1 / SQRT_2PI) < 1e-10
    d0 = lx.leading_coefficient(gaussian, frame, 2.0, n=64)
    assert abs(d0 - 1 / (2 * SQRT_2PI)) < 1e-10


def test_leading_coefficient_boundary_warning(gaussian, frame):
    with pytest.warns(UserWarning, match="boundary"):
        lx.leading_coefficient(gaussian, frame, 1e-3, n=64)


def test_leading_coefficient_nonreversible_flag(frame):
    spec = lx.gradient_drift_model()
    rho = lx.invariant_density(DiffusionOperators(spec, 128).stencil)
    centered = lx.center_observable(spec, rho.rho)
    with pytest.warns(UserWarning, match="non-self-adjoint"):
        lx.leading_coefficient(centered, frame, 0.2, n=128)


def test_mathieu_leading_coefficient_golden(mathieu, frame):
    d0 = lx.leading_coefficient(mathieu, frame, 0.3, n=256)
    assert abs(d0 - 1.38269137327162) < 1e-8


# -- coefficient extraction ----------------------------------------------------

def mills_curve(a: float, ts) -> TailCurve:
    """Synthetic normalized-tail curve from the exact Gaussian law: the
    independent oracle for the fitter (no transform inversion involved)."""
    ts = np.asarray(ts, dtype=float)
    probs = norm.sf(a * np.sqrt(ts))
    rate = a * a / 2
    return TailCurve(a=a, t=tuple(ts), prob=tuple(probs),
                     normalized=tuple(probs * np.exp(rate * ts)))


def test_fit_recovers_mills_coefficients_from_oracle(gaussian, frame):
    # Mills series: sqrt(2 pi) e^{x^2/2} Phi-bar(x) = 1/x - 1/x^3 + 3/x^5 - ...
    ts = [16.0 * 2 ** (k / 2) for k in range(9)]
    curve = mills_curve(1.0, ts)
    fit = lx.extract_coefficients(gaussian, frame, 1.0, ts, order=6, n=64, curve=curve)
    d0 = 1 / SQRT_2PI
    assert abs(fit.coefficients[0] - d0) / d0 < 0.01
    assert abs(fit.coefficients[1] + d0) / d0 < 0.02
    assert abs(fit.coefficients[2] - 3 * d0) / (3 * d0) < 0.10
    assert fit.condition < 1e8


def test_fit_a2_second_coefficient(gaussian, frame):
    ts = [8.0 * 2 ** (k / 2) for k in range(9)]
    curve = mills_curve(2.0, ts)
    fit = lx.extract_coefficients(gaussian, frame, 2.0, ts, order=6, n=64, curve=curve)
    d1 = -1 / (8 * SQRT_2PI)
    assert abs(fit.coefficients[1] - d1) / abs(d1) < 0.02


def test_fit_from_inversion_matches_analytic(gaussian, frame):
    ts = [16.0 * 2 ** (k / 2) for k in range(9)]
    fit = lx.extract_coefficients(gaussian, frame, 1.0, ts, order=6, n=64)
    assert abs(fit.d0 - 1 / SQRT_2PI) / (1 / SQRT_2PI) < 0.01


def test_order_zero_fit_is_weighted_mean(gaussian, frame):
    ts = [16.0, 32.0, 64.0, 128.0, 192.0]
    curve = mills_curve(1.0, ts)
    fit = lx.extract_coefficients(gaussian, frame, 1.0, ts, order=0, n=64,
                                  curve=curve, residual_tol=0.2, check_leading=False)
    t_arr = np.asarray(ts)
    w = t_arr ** 0.5  # weights t^{(r+1)/2} with r=0
    basis = t_arr ** -0.5
    y = np.asarray(curve.normalized)
    expect = np.sum(w**2 * basis * y) / np.sum(w**2 * basis**2)
    assert fit.d0 == pytest.approx(expect, rel=1e-12)


def test_fit_d0_stability_against_extra_sample(gaussian, frame):
    ts = [16.0 * 2 ** (k / 2) for k in range(9)]
    fit = lx.extract_coefficients(gaussian, frame, 1.0, ts, order=6, n=64,
                                  curve=mills_curve(1.0, ts))
    ts2 = ts + [16.0 * 2 ** 4.5]
    fit2 = lx.extract_coefficients(gaussian, frame, 1.0, ts2, order=6, n=64,
                                   curve=mills_curve(1.0, ts2))
    assert abs(fit2.d0 - fit.d0) / fit.d0 < 0.005


def test_fit_rejects_narrow_span(gaussian, frame):
    with pytest.raises(FitError, match="factor 8"):
        lx.extract_coefficients(gaussian, frame, 1.0, [16.0, 20.0, 24.0, 28.0, 32.0, 40.0],
                                order=4, n=64)


def test_fit_rejects_ill_conditioned(gaussian, frame):
    ts = [16.0 * 2 ** (k / 2) for k in range(9)]
    with pytest.raises(FitError, match="condition|samples"):
        lx.extract_coefficients(gaussian, frame, 1.0, ts, order=14, n=64,
                                curve=mills_curve(1.0, ts))


# -- weak expectations ---------------------------------------------------------

def test_weak_expectation_zero_window(gaussian, frame):
    f = lx.gaussian_window(amplitude=0.0)
    assert lx.weak_expectation(gaussian, frame, f, 1.0, 16.0, n=64) == 0.0


def test_weak_expectation_one_sided_exponential(gaussian, frame):
    t, a, beta = 16.0, 1.0, 2.0
    f = lx.one_sided_exponential(beta)
    val = lx.weak_expectation(gaussian, frame, f, a, t, n=64)
    oracle = quad(lambda u: np.exp(-beta * u) * norm.pdf(u + a * t, scale=np.sqrt(t)),
                  0, 60)[0] * np.exp(a * a * t / 2)
    assert abs(val - oracle) / oracle < 1e-6


def test_weak_expectation_gaussian_window(gaussian, frame):
    t, a = 16.0, 1.0
    f = lx.gaussian_window(center=0.5, width=0.8)
    val = lx.weak_expectation(gaussian, frame, f, a, t, n=64)
    oracle = quad(lambda u: f(u) * norm.pdf(u + a * t, scale=np.sqrt(t)),
                  -40, 40)[0] * np.exp(a * a * t / 2)
    assert abs(val - oracle) / oracle < 1e-6


def test_weak_expectation_bump_window(gaussian, frame):
    t, a = 9.0, 0.8
    f = lx.bump_window(center=0.0, width=1.5)
    val = lx.weak_expectation(gaussian, frame, f, a, t, n=64)
    oracle = quad(lambda u: f(u) * norm.pdf(u + a * t, scale=np.sqrt(t)),
                  -1.5, 1.5)[0] * np.exp(a * a * t / 2)
    assert abs(val - oracle) / oracle < 1e-5


def test_weak_expectation_linearity(gaussian, frame):
    f1 = lx.one_sided_exponential(2.0)
    f3 = lx.one_sided_exponential(2.0, amplitude=3.0)
    v1 = lx.weak_expectation(gaussian, frame, f1, 1.0, 16.0, n=64)
    v3 = lx.weak_expectation(gaussian, frame, f3, 1.0, 16.0, n=64)
    assert abs(v3 - 3 * v1) < 1e-12 * max(1.0, abs(v3))


def test_weak_expectation_rejects_inadmissible(gaussian, frame):
    f = lx.one_sided_exponential(0.5)  # decay order 0.5 < theta_a = 1
    with pytest.raises(AdmissibilityError):
        lx.weak_expectation(gaussian, frame, f, 1.0, 16.0, n=64)


def test_weak_leading_term_is_flat(gaussian, frame):
    # leading-order fit over a t-grid is consistent with a k=0 term
    f = lx.gaussian_window(width=1.0)
    ts = np.array([25.0, 50.0, 100.0, 200.0])
    vals = np.array([lx.weak_expectation(gaussian, frame, f, 1.0, t, n=64) for t in ts])
    scaled = vals * np.sqrt(ts)
    spread = (scaled.max() - scaled.min()) / scaled.mean()
    assert spread < 0.05


def test_tail_curve_validates_probabilities():
    with pytest.raises(Exception):
        TailCurve(a=1.0, t=(4.0,), prob=(1.5,), normalized=(1.0,))


def test_leading_requires_positive_tilt(gaussian, frame):
    with pytest.raises((AdmissibleRangeError, Exception)):
        lx.leading_coefficient(gaussian, frame, -0.5, n=64)


# -- single-mode certification -----------------------------------------------

def _certify(ops, rp, t, frame):
    """certify_top_mode with the tolerance and probe tilts exact_tail uses at
    rel_tol 1e-6."""
    width = 1.0 / np.sqrt(t / rp.curvature)
    return ops.certify_top_mode(rp.theta, t, frame, 0.02 * 1e-6, (0.0, 4.0 * width, 8.0 * width))


CERT_VERDICTS = {0.2: False, 0.5: False, 1.0: True, 30.0: True}


def test_certify_top_mode_verdicts(mathieu, frame):
    from ldp_expand.discretize import DiffusionOperators
    rp = lx.rate_point(mathieu, 0.3, n=256)
    for t, verdict in CERT_VERDICTS.items():
        ops = DiffusionOperators(mathieu, 256)
        assert _certify(ops, rp, t, frame) is verdict, t
        assert ops.certify_fallbacks == 0


def _count_dense_nmgf(monkeypatch):
    """The tilts of every dense ``DiffusionOperators.nmgf`` call from now on."""
    from ldp_expand.discretize import DiffusionOperators
    calls, real = [], DiffusionOperators.nmgf

    def counted(self, z, *args):
        calls.append(z)
        return real(self, z, *args)

    monkeypatch.setattr(DiffusionOperators, "nmgf", counted)
    return calls


def test_certify_top_mode_falls_back_to_dense_nmgf(mathieu, frame, monkeypatch):
    from ldp_expand import discretize
    rp = lx.rate_point(mathieu, 0.3, n=256)
    lx.clear_caches()
    p_banded = lx.exact_tail(mathieu, frame, 0.3, 30.0, n=256)
    monkeypatch.setattr(discretize, "krylov_expm_entry", lambda *args, **kwargs: None)
    dense = _count_dense_nmgf(monkeypatch)
    for t, verdict in CERT_VERDICTS.items():
        ops = discretize.DiffusionOperators(mathieu, 256)
        dense.clear()
        assert _certify(ops, rp, t, frame) is verdict, t
        assert ops.certify_fallbacks >= 1
        assert len(dense) == ops.certify_fallbacks
    lx.clear_caches()
    assert lx.exact_tail(mathieu, frame, 0.3, 30.0, n=256) == p_banded
    assert discretize.operators_for(mathieu, 256).certify_fallbacks == 3


def test_cold_mathieu_tail_takes_no_dense_eigensolve(mathieu, frame, monkeypatch):
    import scipy.linalg
    calls = []
    for name in ("eig", "eigvals"):
        real = getattr(scipy.linalg, name)
        monkeypatch.setattr(scipy.linalg, name,
                            lambda *args, real=real, **kwargs: calls.append(1) or real(*args, **kwargs))
    lx.clear_caches()
    lx.rate_point(mathieu, 0.3, n=256)
    lx.exact_tail(mathieu, frame, 0.3, 30.0, n=256, rel_tol=1e-6)
    # t = 0.5 is not certified for the single mode: every node takes Krylov
    lx.exact_tail(mathieu, frame, 0.3, 0.5, n=256)
    assert calls == []
    assert lx.operators_for(mathieu, 256).quadrature_fallbacks == 0


@pytest.mark.parametrize("n", [64, 128])
def test_uncertified_nodes_match_the_dense_transform(mathieu, frame, monkeypatch, n):
    from ldp_expand import discretize
    dense = _count_dense_nmgf(monkeypatch)
    lx.clear_caches()
    p_krylov = lx.exact_tail(mathieu, frame, 0.3, 0.5, n=n)
    ops = discretize.operators_for(mathieu, n)
    assert ops.quadrature_fallbacks == 0 and not dense
    monkeypatch.setattr(discretize, "krylov_expm_entry", lambda *args, **kwargs: None)
    lx.clear_caches()
    p_dense = lx.exact_tail(mathieu, frame, 0.3, 0.5, n=n)
    assert discretize.operators_for(mathieu, n).quadrature_fallbacks > 100
    assert abs(p_krylov - p_dense) <= 1e-9 * p_dense


def test_short_horizons_fail_with_a_hint(mathieu, frame):
    from ldp_expand.cli import DEFAULTS
    with pytest.raises(FitError, match=r"t in \[16, 128\].*longer horizons.*--t-min/--t-max"):
        lx.extract_coefficients(mathieu, frame, 0.3, DEFAULTS["t_grid"], order=4, n=256)


# -- trapezoid step from the strip of analyticity ------------------------------

def _count_transform_evals(monkeypatch) -> list:
    """Record every transform evaluation (single-mode, Krylov or dense) of a
    diffusion workspace."""
    from ldp_expand import discretize
    calls = []
    for name in ("nmgf_top", "nmgf_krylov", "nmgf"):
        real = getattr(discretize.DiffusionOperators, name)
        monkeypatch.setattr(discretize.DiffusionOperators, name,
                            lambda self, *args, real=real, **kwargs:
                            calls.append(1) or real(self, *args, **kwargs))
    return calls


# cold evaluations of Mathieu n = 128 at (a, t) under the start step
# 2^floor(log2(w/6)) where the pole at theta limits the step: short horizons,
# and a level near the mean (theta_0.05 = 0.047)
W6_START_EVALS = {(0.3, 0.2): 563, (0.3, 0.5): 358, (0.3, 1.0): 258,
                  (0.3, 2.0): 185, (0.3, 5.0): 119,
                  (0.05, 1.0): 1008, (0.05, 16.0): 258}


def test_long_horizon_tails_take_few_transform_evaluations(mathieu, frame, monkeypatch):
    calls = _count_transform_evals(monkeypatch)
    # a start at w/6 took 191 and 107 evaluations at t = 30 and 400
    caps = {**W6_START_EVALS, (0.3, 30.0): 60, (0.3, 400.0): 40}
    for (a, t), cap in caps.items():
        lx.clear_caches()
        calls.clear()
        lx.exact_tail(mathieu, frame, a, t, n=128)
        assert len(calls) <= cap, (a, t)


# Mathieu n = 256, a = 0.3, cold exact_tail at t = 30 followed by tail_curve at
# t = 50 * 2^(k/2), k = 0..6, at the default rel_tol with the start at w/6
W6_START_TAILS = [
    (30.0, 0.0554511623632438),
    (50.0, 0.01957327707023111),
    (50 * 2**0.5, 0.007038061382168953),
    (100.0, 0.0017395143307901853),
    (100 * 2**0.5, 0.0002540539959877798),
    (200.0, 1.7698074373509002e-05),
    (200 * 2**0.5, 4.3418473730209157e-07),
    (400.0, 2.4413083260814295e-09),
]


def test_larger_step_keeps_mathieu_tails_on_the_reference(mathieu, frame):
    """Each value is off a rel_tol = 1e-11 reference by no more than the
    value with the start at w/6 is, plus 1e-11 and the eigenvalue
    resolution."""
    ts = [t for t, _ in W6_START_TAILS[1:]]
    lx.clear_caches()
    probs = [lx.exact_tail(mathieu, frame, 0.3, 30.0, n=256),
             *lx.tail_curve(mathieu, frame, 0.3, ts, n=256).prob]
    lx.clear_caches()
    refs = [lx.exact_tail(mathieu, frame, 0.3, 30.0, n=256, rel_tol=1e-11),
            *lx.tail_curve(mathieu, frame, 0.3, ts, n=256, rel_tol=1e-11).prob]
    for (t, w6), p, ref in zip(W6_START_TAILS, probs, refs):
        # the continued top eigenvalue is resolved to about 1e-13, which a
        # single-mode node carries as t * 1e-13 relative; fewer nodes average
        # less of that out
        slack = (1e-11 + 1e-13 * t) * ref
        assert abs(p - ref) <= abs(w6 - ref) + slack, t


@pytest.mark.parametrize("t", [1.0, 30.0])
def test_oversized_start_step_converges_by_halving(mathieu, frame, monkeypatch, t):
    from ldp_expand import expansion
    lx.clear_caches()
    p = lx.exact_tail(mathieu, frame, 0.3, t, n=128)
    monkeypatch.setattr(expansion, "_trapezoid_step", lambda width, rel_tol: 8.0 * width)
    lx.clear_caches()
    assert abs(lx.exact_tail(mathieu, frame, 0.3, t, n=128) - p) <= 1e-6 * p


@pytest.mark.parametrize("rel_tol", [0.0, -1e-6, float("nan"), float("inf"), 1.0, 2.0])
def test_invalid_tolerance_is_rejected_before_quadrature(gaussian, frame, rel_tol):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="rel_tol"):
        lx.exact_tail(gaussian, frame, 1.0, 16.0, n=64, rel_tol=rel_tol)
    with pytest.raises(ValueError, match="rel_tol"):
        lx.tail_curve(gaussian, frame, 1.0, [16.0, 32.0], n=64, rel_tol=rel_tol)
    with pytest.raises(ValueError, match="rel_tol"):
        lx.weak_expectation(gaussian, frame, lx.gaussian_window(), 1.0, 16.0, n=64,
                            rel_tol=rel_tol)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("model, a, t, n", [
    ("mathieu", 0.3, 30.0, 256), ("mathieu", 0.3, 0.5, 128),
    ("gaussian", 0.7, 64.0, 64), ("pm1_chain", 0.6, 20, None)])
def test_exact_tail_is_tail_curve_at_one_horizon(request, frame, model, a, t, n):
    spec = request.getfixturevalue(model)
    lx.clear_caches()
    p = lx.exact_tail(spec, frame, a, t, n=n)
    lx.clear_caches()
    assert p == lx.tail_curve(spec, frame, a, [t], n=n).prob[0]


@pytest.mark.parametrize("model, a, t, n, what", [
    ("gaussian", 1.0, 16.0, 64, "saddle-line inversion"),
    ("pm1_chain", 0.6, 10, None, "lattice inversion")])
def test_inversion_that_does_not_settle_in_max_rounds_raises(
        request, frame, monkeypatch, model, a, t, n, what):
    from ldp_expand import expansion
    spec = request.getfixturevalue(model)
    monkeypatch.setattr(expansion, "MAX_ROUNDS", 1)
    with pytest.raises(ConvergenceError, match=f"{what} did not stabilize"):
        lx.exact_tail(spec, frame, a, t, n=n)


def test_level_at_the_mean_slope_is_refused_at_once(mathieu, frame):
    """At a = 0 theta_a rounds to about 1e-15: the pole of 1/z sits on the
    saddle line, and no number of halvings reaches it.  A window has no pole
    there, so its expectation is still computed."""
    start = time.perf_counter()
    with pytest.raises(ConvergenceError, match="theta_a=1.08e-15.*step near.*finest step"):
        lx.exact_tail(mathieu, frame, 0.0, 16.0, n=128)
    with pytest.raises(ConvergenceError, match="mean slope"):
        lx.exact_tail(mathieu, frame, 1e-4, 1.0, n=128)
    with pytest.raises(ConvergenceError, match="mean slope"):
        lx.tail_curve(mathieu, frame, 0.0, [1.0, 16.0], n=128)
    assert lx.weak_expectation(mathieu, frame, lx.gaussian_window(), 0.0, 16.0, n=128) > 0.0
    assert time.perf_counter() - start < 1.0


def test_lattice_level_at_the_mean_slope_is_refused_at_once(pm1_chain, frame):
    """On the +-1 walk the lattice kernel's pole at z = 0 sits theta_a from
    the line: a = 1e-5 needs about 9.6e5 points per period, more than the
    last round's 64 * 2^13, and is refused before any transform; a = 1e-4
    is within reach and keeps its value."""
    from ldp_expand import expansion
    start = time.perf_counter()
    with pytest.raises(ConvergenceError, match="theta_a=1e-05.*lattice kernel.*524288"):
        lx.exact_tail(pm1_chain, frame, 1e-5, 10)
    assert time.perf_counter() - start < 1.0
    expansion._check_lattice_pole_reachable(lx.rate_point(pm1_chain, 1e-4), 2.0,
                                            expansion.DEFAULT_REL_TOL)
    # 386 / 1024 to rounding, the value the inversion gave before the check
    assert lx.exact_tail(pm1_chain, frame, 0.05, 10) == 0.376953125
