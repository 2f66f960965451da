import numpy as np
import pytest
import scipy.linalg

import ldp_expand as lx
import ldp_expand.spectral as sp
from ldp_expand._eigen import spectrum
from ldp_expand.discretize import operators_for
from ldp_expand.errors import DegenerateSpectrumError
from ldp_expand.spectral import spectral_mu_prime

# dense eigensolve oracle values, recorded at n=512 (Mathieu model)
MATHIEU_MU = {0.5: 0.131330876822688, 1.0: 0.525302237978796, 2.0: 2.10087162069197}
MATHIEU_MU1_1 = 1.05054785773237
MATHIEU_MU2_1 = 1.0503246730779


def test_stationary_triple(gaussian):
    triple = lx.spectral_triple(gaussian, 0.0, n=64)
    assert abs(triple.mu) < 1e-12
    assert np.allclose(triple.g, 1.0, atol=1e-10)
    rho = lx.invariant_density(lx.build_generator(gaussian, lx.PeriodicGrid(64))).rho
    assert np.max(np.abs(triple.psi - rho)) < 1e-8
    assert triple.gap > 0
    assert triple.residual < 1e-10


def test_triple_normalizations(mathieu):
    triple = lx.spectral_triple(mathieu, 1.0, n=256)
    assert abs(np.max(triple.g) - 1.0) < 1e-14
    assert triple.g.min() > 0
    assert abs(np.sum(triple.psi * triple.g) * triple.weight - 1.0) < 1e-12
    assert triple.residual < 1e-10
    proj = triple.projector()
    assert np.max(np.abs(proj @ proj - proj)) < 1e-12


def test_diagonal_shift_eigenvalue(gaussian):
    assert abs(lx.cgf(gaussian, 2.0, n=64) - 2.0) < 1e-11


def test_cgf_values(gaussian):
    assert abs(lx.cgf(gaussian, 1.0, n=64) - 0.5) < 1e-12
    assert abs(lx.cgf(gaussian, 0.0, n=64)) < 1e-12


def test_mathieu_golden_curve(mathieu):
    for theta, golden in MATHIEU_MU.items():
        assert abs(lx.cgf(mathieu, theta, n=512) - golden) < 1e-10
        assert abs(lx.cgf(mathieu, theta, n=256) - golden) < 5e-6


def test_cgf_derivatives_gaussian(gaussian):
    d1, d2 = lx.cgf_derivatives(gaussian, 1.3, n=64)
    assert abs(d1 - 1.3) < 1e-9
    assert abs(d2 - 1.0) < 1e-6
    # exact second-order perturbation, not a finite difference
    assert abs(d2 - 1.0) < 1e-12


def test_centered_slope_vanishes(mathieu):
    d1, _ = lx.cgf_derivatives(mathieu, 0.0, n=256)
    assert abs(d1) < 1e-8


def test_mathieu_golden_derivatives(mathieu):
    d1, d2 = sp.cgf_fd_derivatives(mathieu, 1.0, n=512)
    assert abs(d1 - MATHIEU_MU1_1) < 1e-8
    assert abs(d2 - MATHIEU_MU2_1) < 1e-5


def test_derivative_crosscheck_agrees(mathieu):
    check = sp.cgf_derivative_crosscheck(mathieu, 0.5, n=256)
    assert check.d2_rel_err < 5e-3
    assert abs(check.d1_fd - check.d1_spectral) < 1e-8


def test_chain_derivatives_match_cosh(pm1_chain):
    theta = 0.8
    d1, d2 = lx.cgf_derivatives(pm1_chain, theta)
    assert abs(d1 - np.tanh(theta)) < 1e-9
    assert abs(d2 - 1.0 / np.cosh(theta) ** 2) < 1e-7
    assert abs(d2 * np.cosh(theta) ** 2 - 1.0) < 1e-12


def _noisy_chain_mu(z):
    """log of the closed-form Perron root of the 2x2 tilted transfer matrix
    of ``noisy_two_state_chain``, at each complex tilt in z."""
    spec = lx.noisy_two_state_chain()
    (p00, p01), (p10, p11) = spec.transition
    w0, w1 = (np.exp(z * m + 0.5 * z * z * v)
              for m, v in zip(spec.increment_mean, spec.increment_var))
    tr, det = p00 * w0 + p11 * w1, (p00 * p11 - p01 * p10) * w0 * w1
    return np.log(0.5 * (tr + np.sqrt(tr * tr - 4.0 * det)))


@pytest.mark.parametrize("theta", [-0.5, 0.0, 0.2, 0.8, 1.5])
def test_noisy_chain_derivatives_match_closed_form(theta):
    # Cauchy integral of radius 0.1 over 64 points: mu^(k) = k! r^-k mean(mu e^{-ik phi})
    r, phi = 0.1, 2.0 * np.pi * np.arange(64) / 64
    mu = _noisy_chain_mu(theta + r * np.exp(1j * phi))
    ref1 = float(np.real(np.mean(mu * np.exp(-1j * phi)))) / r
    ref2 = 2.0 * float(np.real(np.mean(mu * np.exp(-2j * phi)))) / r**2
    d1, d2 = lx.cgf_derivatives(lx.noisy_two_state_chain(), theta)
    assert abs(d1 - ref1) < 1e-10
    assert abs(d2 - ref2) < 1e-10


def test_check_b3_gaussian_value(gaussian):
    s = 2 * np.pi
    [(s_out, margin)] = lx.check_b3(gaussian, 1.0, [s], n=64)
    assert s_out == s
    assert abs(margin - s * s / 2) < 1e-9


def test_check_b3_rejects_zero():
    with pytest.raises(ValueError):
        lx.check_b3(lx.gaussian_baseline(), 1.0, [0.0], n=64)


def test_check_b3_mathieu_golden(mathieu):
    golden = {1.0: 0.525189409987, 5.0: 13.147241698, 20.0: 209.710223433}
    for s, margin in lx.check_b3(mathieu, 1.0, list(golden), n=256):
        assert margin > 0
        assert abs(margin - golden[s]) < 1e-6


def test_decay_profile_gaussian_exact(gaussian):
    prof = lx.decay_profile(gaussian, 1.0, [1.0, 2.0], [1.0, 2.0], n=64)
    for s, t, ratio in prof.samples:
        assert abs(ratio - np.exp(-s * s * t / 2)) < 1e-12
    assert prof.epsilon > 0
    for s, t, ratio in prof.samples:
        if abs(s) >= prof.K:
            assert ratio <= (1 - prof.epsilon) ** int(t) + 1e-9


def test_decay_ratio_at_s0_is_one(gaussian):
    ops = operators_for(gaussian, 64)
    M = sp._semigroup(ops, 1.0, (2.0,), ops.mu(1.0))[2.0]
    assert abs(np.max(np.sum(np.abs(M), axis=1)) - 1.0) < 1e-10


def _count_expm(monkeypatch) -> list:
    """Record every scipy.linalg.expm call."""
    real_expm, calls = scipy.linalg.expm, []
    monkeypatch.setattr(scipy.linalg, "expm", lambda a: calls.append(1) or real_expm(a))
    return calls


@pytest.mark.parametrize("ts, n_expm", [
    ((1.0, 1.5, 2.0), 1),               # step 0.5: one exponential, three products
    ((2.0, 1.0), 1),
    ((0.5, 1.0, 1.5, 2.0), 1),
    ((1.0, np.sqrt(2.0)), 2),           # no common step
    ((0.25, 2.5), 2),                   # step 0.25, but t / h = 10 > 8
])
def test_semigroup_matches_direct_exponentials(mathieu, monkeypatch, ts, n_expm):
    ops = operators_for(mathieu, 128)
    mu = ops.mu(1.0)
    real_expm = scipy.linalg.expm
    calls = _count_expm(monkeypatch)
    for z in (1.0, complex(1.0, 0.0), complex(1.0, 1.0), complex(0.0, 20.0)):
        calls.clear()
        mats = sp._semigroup(ops, z, ts, mu)
        assert len(calls) == n_expm
        G = ops.tilted(complex(z)).astype(complex)
        G[np.diag_indices_from(G)] -= mu
        for t in ts:
            M = mats[t]
            # real arithmetic at a real tilt
            assert M.dtype == (np.float64 if complex(z).imag == 0.0 else np.complex128)
            ref = real_expm(t * G)
            norm = np.max(np.sum(np.abs(ref), axis=1))
            assert np.max(np.sum(np.abs(M - ref), axis=1)) <= 1e-10 * max(norm, 1e-300), (z, t)


def test_decomposition_takes_one_exponential(mathieu, monkeypatch):
    calls = _count_expm(monkeypatch)
    # t = 0.5, 1, 2 plus the semigroup checks at 1 and 1.5 share the step 0.5
    rep = lx.decomposition_check(mathieu, 1.0, 0.1, [0.5, 1.0, 2.0], n=128)
    assert len(calls) == 1
    for _, resid in rep.power_residuals:
        assert resid < 1e-8


def test_decay_profile_mathieu_records_epsilon(mathieu):
    prof = lx.decay_profile(mathieu, 1.0, [10.0], [1.0, 2.0, 3.0, 4.0], n=256)
    assert prof.epsilon > 0.999  # ratio underflows at s=10: essentially full decay


def test_decomposition_gaussian_remainder(gaussian):
    rep = lx.decomposition_check(gaussian, 1.0, 0.0, [0.5, 1.0], n=64)
    for row in rep.rows:
        expect = np.exp(-2 * np.pi**2 * row["t"])
        assert row["remainder_norm"] < 2.0 * expect
        assert row["reconstruction"] < 1e-12
    assert rep.remainder_decays
    for _, resid in rep.power_residuals:
        assert resid < 1e-8


def test_decomposition_t0_exact(gaussian):
    rep = lx.decomposition_check(gaussian, 1.0, 0.0, [0.0], n=64)
    assert rep.rows[0]["reconstruction"] < 1e-12


def test_decomposition_mathieu_complex(mathieu):
    rep = lx.decomposition_check(mathieu, 1.0, 0.1, [0.5, 1.0, 2.0], n=256)
    norms = [r["remainder_norm"] for r in rep.rows]
    assert norms[1] < norms[0]
    for _, resid in rep.power_residuals:
        assert resid < 1e-8


def test_spectrum_conjugate_symmetry(mathieu):
    ops = operators_for(mathieu, 64)
    up = np.sort_complex(spectrum(ops.tilted(complex(1.0, 0.5))))
    dn = np.sort_complex(np.conj(spectrum(ops.tilted(complex(1.0, -0.5)))))
    assert np.max(np.abs(up - dn)) < 1e-8


def test_convexity_profile(mathieu):
    dds = sp.convexity_profile(mathieu, [0.0, 0.25, 0.5, 0.75, 1.0], n=256)
    assert all(dd > 0 for _, dd in dds)


def test_degenerate_top_raises():
    ops = operators_for(lx.checkerboard_chain())
    with pytest.raises(DegenerateSpectrumError, match="near-degenerate"):
        ops.eigendata(0.5)


def test_effective_diffusivity_core_identity(mathieu):
    ops = operators_for(mathieu, 256)
    xi, f, c_theta, resid = sp.effective_diffusivity_core(ops, 0.5)
    _, d2 = sp.cgf_fd_derivatives(mathieu, 0.5, n=256)
    assert abs(xi - d2) / d2 < 5e-3
    assert resid < 1e-8
    # the corrector's c_theta is mu', from the same perturbation routine
    assert abs(c_theta - spectral_mu_prime(ops, 0.5)) < 1e-10
