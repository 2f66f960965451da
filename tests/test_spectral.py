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
    ops = operators_for(gaussian, 64)
    ed = ops.eigendata(0.0)
    assert abs(ed.value) < 1e-12
    assert np.allclose(ed.g, 1.0, atol=1e-10)
    rho = lx.invariant_density(ops.stencil).rho
    assert np.max(np.abs(ed.psi - rho)) < 1e-8
    assert ed.gap > 0
    assert ed.residual < 1e-10


def test_triple_normalizations(mathieu):
    ops = operators_for(mathieu, 256)
    ed = ops.eigendata(1.0)
    assert abs(np.max(ed.g) - 1.0) < 1e-14
    assert ed.g.min() > 0
    assert abs(np.sum(ed.psi * ed.g) * ops.weight - 1.0) < 1e-12
    assert ed.residual < 1e-10
    proj = np.outer(ed.g, ed.psi) * ops.weight
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
    d1_fd, d2_fd = sp.cgf_fd_derivatives(mathieu, 0.5, n=256)
    d1, d2, _ = sp._perturbation(operators_for(mathieu, 256), 0.5)
    assert abs(d2_fd - d2) / abs(d2_fd) < 5e-3
    assert abs(d1_fd - d1) < 1e-8


def test_taylor_is_exact_on_the_gaussian(gaussian):
    # mu(theta) = theta^2 / 2, so mu(0.5 + w) = 1/8 + w / 2 + w^2 / 2
    c, g = sp._taylor(operators_for(gaussian, 64), 0.5, 6)
    assert len(c) == 7 and len(g) == 6
    assert np.max(np.abs(np.array(c) - (0.125, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0))) < 1e-12


# Central differences of the exact mu'' with step h: (mu''(+h) - mu''(-h)) / 2h
# misses mu''' = 6 c_3 by h^2 mu^(5) / 6 + O(h^4), and the second difference
# misses mu'''' = 24 c_4 by h^2 mu^(6) / 12 + O(h^4).
_FD_H = 1e-2


def _taylor_against_differences(ops, theta):
    c, _ = sp._taylor(ops, theta, 6)
    lo, mid, hi = (sp._perturbation(ops, theta + k * _FD_H)[1] for k in (-1, 0, 1))
    d3 = (hi - lo) / (2.0 * _FD_H) - 6.0 * c[3]
    d4 = (hi - 2.0 * mid + lo) / _FD_H**2 - 24.0 * c[4]
    # the h^2 terms, read from the same recursion's c_5 and c_6
    lead3, lead4 = 20.0 * c[5] * _FD_H**2, 60.0 * c[6] * _FD_H**2
    return c, d3, d4, lead3, lead4


def test_taylor_matches_differences_of_mu2_on_mathieu(mathieu):
    c, d3, d4, lead3, lead4 = _taylor_against_differences(operators_for(mathieu, 256), 0.5)
    assert abs(6.0 * c[3] + 3.40341e-4) < 1e-9 and abs(24.0 * c[4] + 6.76665e-4) < 1e-9
    # |mu^(5)| / 6 and |mu^(6)| / 12 are below 1e-5 here, so the h^2 terms
    # are below 1e-9; the rest of the 5e-9 bound covers the rounding of mu''
    # divided by h^2
    assert abs(lead3) < 1e-9 and abs(lead4) < 1e-9
    assert abs(d3) < 5e-9 and abs(d4) < 5e-9


def test_taylor_matches_differences_of_mu2_on_the_noisy_chain():
    ops = operators_for(lx.noisy_two_state_chain())
    c, d3, d4, lead3, lead4 = _taylor_against_differences(ops, 0.5)
    assert abs(6.0 * c[3] + 0.508351) < 1e-6 and abs(24.0 * c[4] - 0.541403) < 1e-6
    # |mu^(5)| / 6 and |mu^(6)| / 12 are below 1 here: the O(h^2) bound h^2
    assert abs(d3) < _FD_H**2 and abs(d4) < _FD_H**2
    # what the h^2 terms of c_5 and c_6 leave is O(h^4) = 1e-8
    assert abs(d3 - lead3) < 1e-7 and abs(d4 - lead4) < 1e-7


def test_taylor_order_one_takes_no_solve(monkeypatch, mathieu):
    from ldp_expand import _eigen, discretize
    models = (operators_for(mathieu, 256), operators_for(lx.noisy_two_state_chain()))
    for ops in models:
        ops.perron(0.7)
    calls = []
    for cls in (discretize.CyclicTridiagonal, _eigen._DenseSolver):
        def counted(self, sigma, _real=cls.shifted_solver):
            calls.append(sigma)
            return _real(self, sigma)
        monkeypatch.setattr(cls, "shifted_solver", counted)
    for ops in models:
        c, g = sp._taylor(ops, 0.7, 1)
        assert len(c) == 2 and len(g) == 1
        assert calls == []
        # the order-2 reading takes its one solve
        assert c[1] == sp._perturbation(ops, 0.7)[0]
        assert len(calls) == 1
        calls.clear()


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
    [(s_out, margin)] = sp.b3_margins(operators_for(gaussian, 64), 1.0, [s])
    assert s_out == s
    assert abs(margin - s * s / 2) < 1e-9


def test_check_b3_rejects_zero():
    with pytest.raises(ValueError):
        sp.b3_margins(operators_for(lx.gaussian_baseline(), 64), 1.0, [0.0])


def test_check_b3_mathieu_golden(mathieu):
    golden = {1.0: 0.525189409987, 5.0: 13.147241698, 20.0: 209.710223433}
    for s, margin in sp.b3_margins(operators_for(mathieu, 256), 1.0, list(golden)):
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


def _decomposition(ops, z, ts, mu):
    """Pi and {t: (exp(t (G(z) - mu)), R(t))} for exp(t G(z)) = e^{t lambda} Pi + R(t)."""
    ed = ops.eigendata(z)
    proj = np.outer(ed.g, ed.psi) * ops.weight
    mats = sp._semigroup(ops, z, ts, mu)
    return proj, {t: (M, M - np.exp(t * (ed.value - mu)) * proj) for t, M in mats.items()}


def test_decomposition_takes_one_exponential(mathieu, monkeypatch):
    ops = operators_for(mathieu, 128)
    calls = _count_expm(monkeypatch)
    # t = 0.5, 1, 2 plus the powers 2 and 3 of t = 0.5 share the step 0.5
    _, dec = _decomposition(ops, complex(1.0, 0.1), [0.5, 1.0, 2.0, 1.5], ops.mu(1.0))
    assert len(calls) == 1
    for N in (2, 3):
        resid = sp._rowsum_norm(dec[0.5 * N][1] - np.linalg.matrix_power(dec[0.5][1], N))
        assert resid < 1e-8


def test_decomposition_gaussian_remainder(gaussian):
    ops = operators_for(gaussian, 64)
    proj, dec = _decomposition(ops, 1.0, [0.5, 1.0], ops.mu(1.0))
    comp = np.eye(len(proj)) - proj
    norms = []
    for t, (M, R) in dec.items():
        norms.append(sp._rowsum_norm(R))
        assert norms[-1] < 2.0 * np.exp(-2 * np.pi**2 * t)
        # R(t) = exp(tG)(I - Pi): the top mode carries e^{t lambda} Pi exactly
        assert sp._rowsum_norm(R - M @ comp) < 1e-12
    assert norms[1] < 0.95 * norms[0]
    assert sp._rowsum_norm(dec[1.0][1] - dec[0.5][1] @ dec[0.5][1]) < 1e-8


def test_decomposition_t0_exact(gaussian):
    ops = operators_for(gaussian, 64)
    proj, dec = _decomposition(ops, 1.0, [0.0], ops.mu(1.0))
    M, R = dec[0.0]
    eye = np.eye(len(proj))
    assert sp._rowsum_norm(M - eye) < 1e-12
    assert sp._rowsum_norm(R - (eye - proj)) < 1e-12
    assert sp._rowsum_norm(proj @ proj - proj) < 1e-12


def test_decomposition_mathieu_complex(mathieu):
    # exp(t G(z)) = e^{t lambda} Pi + R(t), with Pi R = R Pi = 0 and R(2t) = R(t)^2
    ops = operators_for(mathieu, 128)
    proj, dec = _decomposition(ops, complex(1.0, 0.1), [0.25, 0.5, 1.0], ops.mu(1.0))
    rem = {t: R for t, (_, R) in dec.items()}
    for R in rem.values():
        assert sp._rowsum_norm(proj @ R) < 1e-10
        assert sp._rowsum_norm(R @ proj) < 1e-10
    for t in (0.25, 0.5):
        assert sp._rowsum_norm(rem[2 * t] - rem[t] @ rem[t]) < 1e-8
        assert sp._rowsum_norm(rem[2 * t]) < sp._rowsum_norm(rem[t])


def test_decay_profile_mathieu_records_epsilon(mathieu):
    prof = lx.decay_profile(mathieu, 1.0, [10.0], [1.0, 2.0, 3.0, 4.0], n=256)
    assert prof.epsilon > 0.999  # ratio underflows at s=10: essentially full decay


def test_spectrum_conjugate_symmetry(mathieu):
    ops = operators_for(mathieu, 64)
    up = np.sort_complex(spectrum(ops.tilted(complex(1.0, 0.5))))
    dn = np.sort_complex(np.conj(spectrum(ops.tilted(complex(1.0, -0.5)))))
    assert np.max(np.abs(up - dn)) < 1e-8


@pytest.mark.parametrize("model, z", [("mathieu", 0.5), ("mathieu", complex(0.5, 2.0)),
                                      ("gradient_drift", 0.5)])
def test_spectrum_takes_the_hermitian_solver_only_for_a_hermitian_matrix(request, model, z):
    M = operators_for(request.getfixturevalue(model), 64).tilted(z)
    w = spectrum(M)
    hermitian = np.array_equal(M, M.conj().T)
    assert hermitian == (model == "mathieu" and z == 0.5)
    assert np.isrealobj(w) == hermitian
    ref = np.sort_complex(scipy.linalg.eigvals(M))
    assert np.max(np.abs(np.sort_complex(w) - ref)) < 1e-12 * np.max(np.abs(M))


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
