import numpy as np
import pytest
import scipy.linalg
from scipy.special import comb
from scipy.stats import norm

import ldp_expand as lx
from ldp_expand import fields, spectral, verify
from ldp_expand.discretize import DiffusionOperators, operators_for
from ldp_expand.errors import ModelValidationError
from ldp_expand.model import DiscreteChainSpec, TorusDiffusionSpec


def test_single_step_base_case(pm1_chain):
    # n=1: tail of a single increment (here the +-1 mixture)
    assert lx.brute_force_chain_tail(pm1_chain, 1, 0.5) == 0.5
    assert lx.brute_force_chain_tail(pm1_chain, 1, -1.0) == 1.0


def test_binomial_oracle_exact(pm1_chain):
    p = lx.brute_force_chain_tail(pm1_chain, 10, 0.6)
    assert p == 56 / 1024
    for n_steps in (10, 20, 40):
        k_min = int(np.ceil((0.6 * n_steps + n_steps) / 2 - 1e-12))
        oracle = sum(comb(n_steps, k, exact=True) for k in range(k_min, n_steps + 1)) / 2**n_steps
        assert lx.brute_force_chain_tail(pm1_chain, n_steps, 0.6) == pytest.approx(oracle, rel=1e-13)


def test_distribution_table_mass(pm1_chain):
    oracle = lx.chain_distribution(pm1_chain, 12)
    assert abs(oracle.probs.sum() - 1.0) < 1e-12
    assert oracle.tail(-13.0) == pytest.approx(1.0)
    # value support is the +-1 walk lattice
    assert set(np.round(np.diff(oracle.values), 9)) == {2.0}


def test_asymmetric_lattice_chain_dp():
    chain = DiscreteChainSpec(transition=((0.3, 0.7), (0.6, 0.4)),
                              increment_mean=(1.0, -1.0), increment_var=(0.0, 0.0))
    # direct enumeration over 2^n paths as an independent oracle
    n_steps, a = 8, 0.25
    P = np.array(chain.transition)
    total = 0.0
    for mask in range(2**n_steps):
        prob, state, s = 1.0, 0, 0.0
        for step in range(n_steps):
            nxt = (mask >> step) & 1
            prob *= P[state, nxt]
            s += (1.0, -1.0)[nxt]
            state = nxt
        if s >= a * n_steps - 1e-12:
            total += prob
    dp = lx.brute_force_chain_tail(chain, n_steps, a)
    assert dp == pytest.approx(total, rel=1e-12)


def test_gaussian_increment_dp_matches_normal():
    # single state, Gaussian increments: S_n ~ N(n m, n v) exactly
    chain = DiscreteChainSpec(transition=((1.0,),), increment_mean=(0.2,),
                              increment_var=(0.5,))
    for n_steps, a in ((10, 0.5), (25, 0.4)):
        p = lx.brute_force_chain_tail(chain, n_steps, a)
        oracle = norm.sf((a - 0.2) * n_steps / np.sqrt(0.5 * n_steps))
        assert abs(p - oracle) / oracle < 1e-8


def test_cross_oracle_inversion_vs_dp(frame):
    noisy = lx.noisy_two_state_chain()
    for n_steps, a in ((10, 0.3), (20, 0.25), (40, 0.2)):
        p_inv = lx.exact_tail(noisy, frame, a, n_steps)
        p_dp = lx.brute_force_chain_tail(noisy, n_steps, a)
        assert abs(p_inv - p_dp) / p_dp < 1e-6


def test_oracle_rejects_scale_violations(pm1_chain):
    with pytest.raises(ModelValidationError):
        lx.brute_force_chain_tail(pm1_chain, 100, 0.5)
    mixed = DiscreteChainSpec(transition=((0.5, 0.5), (0.5, 0.5)),
                              increment_mean=(1.0, -1.0), increment_var=(0.1, 0.0))
    with pytest.raises(ModelValidationError, match="mixed"):
        lx.brute_force_chain_tail(mixed, 5, 0.1)


def test_projector_time_independence_gaussian(gaussian):
    resid = lx.projector_time_independence(gaussian, 1.0, [1.0, 1.5, 2.0], n=64)
    assert resid < 1e-12


def test_projector_time_independence_mathieu(mathieu):
    resid = lx.projector_time_independence(mathieu, 1.0, [1.0, 1.5, 2.0], n=256)
    assert resid < 1e-8


def test_projector_self_comparison(gaussian):
    assert lx.projector_time_independence(gaussian, 0.5, [1.0], n=64) < 1e-12


def test_projector_rejects_out_of_window(gaussian):
    with pytest.raises(ValueError):
        lx.projector_time_independence(gaussian, 0.5, [3.0], n=64)


def test_suite_gaussian_all_pass(gaussian):
    rep = lx.run_condition_suite(gaussian, [0.0, 0.5, 1.0], [0.1, 1.0, 5.0, 20.0, 50.0],
                                 [1.0, 1.5, 2.0], n=64)
    assert rep.passed
    gap0 = rep.verdict("B2").evidence["gaps"][0.0]
    assert abs(gap0 - 2 * np.pi**2) < 0.02  # second torus mode at this resolution
    assert rep.verdict("D1-2").evidence[0.0]["epsilon"] > 0
    assert rep.verdict("B1").evidence["residual"] < 1e-8


def test_suite_checkerboard_fails_b3_reported(gaussian):
    rep = lx.run_condition_suite(lx.checkerboard_chain(), [0.2, 0.5, 1.0],
                                 [0.5, np.pi], [1, 2])
    assert not rep.passed
    b3 = rep.verdict("B3")
    assert not b3.passed
    assert b3.evidence["min_margin"] < 1e-8
    # chains are measured densely by design: nothing certified, nothing counted
    assert b3.evidence["certified_lower_bounds"] == b3.evidence["dense_fallbacks"] == 0


def test_suite_empty_theta_grid(gaussian):
    rep = lx.run_condition_suite(gaussian, [], [1.0], [1.0], n=64)
    assert rep.verdicts == () and rep.passed


def test_quick_condition_check(gaussian):
    rep = lx.verify.quick_condition_check(gaussian, 1.0, n=64)
    assert rep.passed


def test_lattice_chain_fails_b3_exactly_at_pi(pm1_chain):
    rep = lx.run_condition_suite(pm1_chain, [0.5], [1.0, np.pi], [1, 2])
    margins = rep.verdict("B3").evidence["margins"]
    assert margins[(0.5, 1.0)] > 1e-3
    assert abs(margins[(0.5, np.pi)]) < 1e-10
    assert not rep.verdict("B3").passed


def test_noisy_chain_prefactor_agreement(frame):
    # the fitted leading coefficient tracks the analytic one for the
    # non-reversible Gaussian-increment chain once the horizon span is long
    noisy = lx.noisy_two_state_chain()
    with pytest.warns(UserWarning, match="non-self-adjoint"):
        d0 = lx.leading_coefficient(noisy, frame, 0.2)
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        fit = lx.extract_coefficients(noisy, frame, 0.2, [50, 71, 100, 141, 200, 283, 400],
                                      order=4)
    assert abs(fit.d0 - d0) / d0 < 0.01


# ---------------------------------------------------------------------------
# B1 disc values by continuation.

def _dense_disc(ops, th):
    from ldp_expand._eigen import top_eigen_data
    return np.array([complex(top_eigen_data(ops.tilted(z), weight=ops.weight).value)
                     for z in verify._disc_points(th, 0.05)])


def _fallback_disc(ops, th):
    """B1's all-dense fallback: the cached centre, then every ring point
    solved densely."""
    vals = _dense_disc(ops, th)
    vals[0] = ops.eigendata(th).value
    return vals


@pytest.mark.parametrize("model, n, thetas", [
    ("mathieu", 128, (0.0, 1.0)),
    ("mathieu", 256, (1.0,)),
    ("gaussian", 64, (0.0, 1.0)),
    ("gradient_drift", 128, (1.0,)),  # non-self-adjoint generator
])
def test_b1_continued_disc_matches_dense(request, model, n, thetas):
    ops = operators_for(request.getfixturevalue(model), n)
    for th in thetas:
        vals, dense = verify._disc_values(ops, verify._disc_points(th, 0.05))
        assert dense == 0
        assert vals.shape == (17,)
        assert np.max(np.abs(vals - _dense_disc(ops, th))) < 1e-10


def test_b1_forced_fallback_reproduces_dense(mathieu, monkeypatch):
    thetas = [0.0, 0.5, 1.0]
    continued = verify._check_b1_surrogate(DiffusionOperators(mathieu, 64), thetas)
    assert continued.evidence["dense_fallbacks"] == 0
    monkeypatch.setattr(verify, "rqi_pair", lambda *args, **kwargs: None)
    ops = DiffusionOperators(mathieu, 64)
    fallback = verify._check_b1_surrogate(ops, thetas)
    assert fallback.evidence["dense_fallbacks"] == 16 * len(thetas)
    # the all-dense surrogate, computed independently
    worst = 0.0
    for th in thetas:
        dz = np.array(verify._disc_points(th, 0.05)) - th
        vals = _fallback_disc(ops, th)
        design = np.column_stack([dz**p for p in range(5)])
        coef, *_ = np.linalg.lstsq(design, vals, rcond=None)
        worst = max(worst, float(np.max(np.abs(design @ coef - vals))))
    assert fallback.evidence["residual"] == worst
    assert fallback.passed and continued.passed
    assert abs(continued.evidence["residual"] - worst) < 1e-11


def _record_linalg(monkeypatch, names, entry):
    """Route the named ``scipy.linalg`` functions through a recorder; returns
    the list that gets ``entry(name, a)`` for each call."""
    calls = []
    for name in names:
        def recorded(a, *args, _name=name, _real=getattr(scipy.linalg, name), **kwargs):
            calls.append(entry(_name, a))
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(scipy.linalg, name, recorded)
    return calls


def test_b1_adds_no_complex_eigensolve_on_a_diffusion(mathieu, monkeypatch):
    calls = _record_linalg(monkeypatch, ("eig", "eigvals", "eigvalsh"),
                           lambda name, a: (name, np.iscomplexobj(a)))
    ops = DiffusionOperators(mathieu, 64)
    verdict = verify._check_b1_surrogate(ops, [0.0, 0.5, 1.0])
    assert verdict.passed
    # one eigenvalues-only solve per real centre (the symmetric one: Mathieu
    # is self-adjoint), none at a complex tilt, and no dense eigenvectors
    assert calls == [("eigvalsh", False)] * 3


def test_b1_rejects_a_pair_off_the_top_branch(mathieu, monkeypatch):
    ops = DiffusionOperators(mathieu, 64)
    gap = ops.eigendata(0.5).gap
    real_rqi = verify.rqi_pair

    def wrong_branch(*args, **kwargs):
        value, g, psi = real_rqi(*args, **kwargs)
        return value - 0.6 * gap, g, psi

    monkeypatch.setattr(verify, "rqi_pair", wrong_branch)
    vals, dense = verify._disc_values(ops, verify._disc_points(0.5, 0.05))
    assert dense == 16
    assert np.max(np.abs(vals - _fallback_disc(ops, 0.5))) == 0.0


# ---------------------------------------------------------------------------
# D1-2 and D2 from one exponential per tilt, D2 top pairs by power steps.

def _direct_semigroup(ops, z, t, mu):
    """The reference: one complex expm (or matrix power) per time."""
    if ops.is_chain:
        return np.linalg.matrix_power(ops.tilted(z) * np.exp(-mu), int(round(t)))
    G = ops.tilted(complex(z)).astype(complex)
    G[np.diag_indices_from(G)] -= mu
    return scipy.linalg.expm(t * G)


def _direct_decay(ops, thetas, s_decay, t_decay):
    from ldp_expand.spectral import _fit_decay
    evidence = {}
    for th in thetas:
        mu = ops.mu(th)
        samples = [(s, t, float(np.max(np.sum(np.abs(
            _direct_semigroup(ops, complex(th, s), t, mu)), axis=1))))
            for s in sorted(s_decay) for t in t_decay]
        K, eps = _fit_decay(samples)
        evidence[th] = (K, eps, None if eps is None else -np.log1p(-eps))
    return evidence


def _dense_projector(ops, th, mats, ed=None):
    """D2's dense branch: the largest projector deviation over the time-t
    matrices ``mats`` ({t: M(t)}), each with a dense ``top_eigen_data``, from
    the time-1 pair ``ed`` (by default the dense one)."""
    from ldp_expand._eigen import top_eigen_data
    if ed is None:
        ed = top_eigen_data(ops.tilted(th), weight=ops.weight,
                            sort="abs" if ops.is_chain else "real", positive=True)
    proj = np.outer(ed.g, ed.psi) * ops.weight
    worst = 0.0
    for M in mats.values():
        ed_t = top_eigen_data(M, weight=ops.weight, sort="abs", positive=True)
        worst = max(worst, float(np.max(np.abs(np.outer(ed_t.g, ed_t.psi) * ops.weight - proj))))
    return worst


def _direct_projector(ops, th, t_list):
    return _dense_projector(ops, th, {t: _direct_semigroup(ops, th, t, ops.mu(th)) for t in t_list})


@pytest.mark.parametrize("model, n, thetas", [
    ("mathieu", 128, (0.0, 0.5, 1.0)),
    ("mathieu", 256, (1.0,)),
    ("gaussian", 64, (0.0, 0.5, 1.0)),
    ("gradient_drift", 128, (0.0, 1.0)),
])
def test_decay_and_projector_match_direct_exponentials(request, model, n, thetas):
    spec = request.getfixturevalue(model)
    ops = operators_for(spec, n)
    svals, tvals = [0.1, 1.0, 5.0, 20.0, 50.0], [1.0, 1.5, 2.0]
    decay = verify._check_decay(spec, list(thetas), svals, tvals, n)
    ref = _direct_decay(ops, thetas, [1.0, 5.0, 20.0, 50.0], tvals)
    assert decay.passed
    for th in thetas:
        ev = decay.evidence[th]
        for got, want in zip((ev["K"], ev["epsilon"], ev["decay_rate"]), ref[th]):
            assert abs(got - want) <= 1e-10 * abs(want), (th, got, want)
    proj = verify._check_projector(ops, list(thetas))
    assert proj.passed and proj.evidence["dense_fallbacks"] == 0
    for th in thetas:
        want = _direct_projector(ops, th, [1.0, 1.5, 2.0])
        assert want < 1e-8
        assert abs(proj.evidence["residuals"][th] - want) < 1e-13


def test_chain_decay_and_projector_verdicts_match_direct_powers():
    from ldp_expand.errors import ConvergenceError, DegenerateSpectrumError
    for chain, thetas in ((lx.checkerboard_chain(), [0.2, 0.5, 1.0]),
                          (lx.two_state_pm1_chain(), [0.5])):
        ops = operators_for(chain)
        decay = verify._check_decay(chain, thetas, [0.5, np.pi], [1, 2], None)
        try:
            ref = _direct_decay(ops, thetas, [0.5, np.pi], [1.0, 2.0])
            want = all(eps is not None for _, eps, _ in ref.values())
        except (ConvergenceError, DegenerateSpectrumError):
            want = False
        assert decay.passed == want
        proj = verify._check_projector(ops, thetas)
        try:
            residuals = [_direct_projector(ops, th, [1, 2]) for th in thetas]
            want = all(r < 1e-8 for r in residuals)
            for th, r in zip(thetas, residuals):
                assert abs(proj.evidence["residuals"][th] - r) < 1e-13
        except DegenerateSpectrumError:
            want = False
        assert proj.passed == want
        assert proj.evidence["dense_fallbacks"] == 0


def test_suite_takes_one_exponential_per_tilt_and_no_time_t_eigensolve(mathieu, monkeypatch):
    expms = _record_linalg(monkeypatch, ("expm",), lambda name, a: a.dtype)
    eigs = _record_linalg(monkeypatch, ("eig",), lambda name, a: np.count_nonzero(a))
    eigvals = _record_linalg(monkeypatch, ("eigvals", "eigvalsh"),
                             lambda name, a: np.count_nonzero(a))
    thetas, svals = [0.0, 0.5, 1.0], [0.1, 1.0, 5.0, 20.0, 50.0]
    n = 96
    rep = lx.run_condition_suite(mathieu, thetas, svals, [1.0, 1.5, 2.0], n=n)
    assert rep.passed
    # D1-2 takes only the smallest |s| densely and certifies the others
    assert len(expms) == 2 * len(thetas)
    assert all(rep.verdict("D1-2").evidence[th]["certified_s"] == 3 for th in thetas)
    # the projector's exponentials are taken at real tilts in real arithmetic
    assert sum(dt == np.float64 for dt in expms) == len(thetas)
    # no dense eigenvectors; the only dense eigensolves are the eigenvalues
    # alone of banded generators, one per real centre
    assert eigs == []
    assert len(eigvals) == len(thetas) and all(nnz <= 3 * n for nnz in eigvals)
    assert rep.verdict("B2").evidence["dense_centres"] == 0
    # B3 is certified from those centres' pairs, with no dense spectrum
    assert rep.verdict("B3").evidence["dense_fallbacks"] == 0
    assert rep.verdict("D2").evidence["dense_fallbacks"] == 0


def _dense_projector_from(ops, th, t_list):
    """The dense branch on the shared-step routine's own matrices, from the
    time-1 pair the check is served."""
    from ldp_expand.spectral import _semigroup
    return _dense_projector(ops, th, _semigroup(ops, th, t_list, ops.mu(th)), ops.eigendata(th))


def _patch_seed(monkeypatch, ops, changes):
    """Serve the projector check a modified copy of the time-1 pair."""
    import dataclasses
    real = ops.eigendata
    monkeypatch.setattr(ops, "eigendata",
                        lambda z: dataclasses.replace(real(z), **changes(real(z))))


def test_projector_falls_back_to_dense_when_power_steps_are_too_many(mathieu, monkeypatch):
    thetas, t_list = [0.0, 0.5, 1.0], [1.0, 1.5, 2.0]
    ops = DiffusionOperators(mathieu, 64)
    # a gap 100 times smaller needs more than three power steps at every t
    _patch_seed(monkeypatch, ops, lambda ed: {"gap": ed.gap / 100.0})
    verdict = verify._check_projector(ops, thetas)
    assert verdict.evidence["dense_fallbacks"] == len(thetas) * len(t_list)
    for th in thetas:
        want = _dense_projector_from(ops, th, t_list)
        assert abs(verdict.evidence["residuals"][th] - want) < 1e-15
    assert verdict.passed


def test_projector_refuses_power_steps_that_leave_a_residual(mathieu, monkeypatch):
    # an overstated gap asks for one step from a flat seed, which leaves a
    # sub-dominant part of about e^{-gap} at t = 1
    thetas, t_list = [0.5, 1.0], [1.0]
    ops = DiffusionOperators(mathieu, 64)
    _patch_seed(monkeypatch, ops, lambda ed: {"gap": ed.gap * 100.0,
                                                      "g": np.ones_like(ed.g)})
    verdict = verify._check_projector(ops, thetas)
    assert verdict.evidence["dense_fallbacks"] == len(thetas) * len(t_list)
    for th in thetas:
        want = _dense_projector_from(ops, th, t_list)
        assert abs(verdict.evidence["residuals"][th] - want) < 1e-15


# ---------------------------------------------------------------------------
# B3 certified from the Perron pair, with dense fallbacks.

B3_THETAS, B3_SVALS = [0.0, 0.5, 1.0], [0.1, 1.0, 5.0, 20.0, 50.0]


def _variable_model():
    """Variable V, V0 and sigma: the pi-weighting, not symmetry, carries the
    certificate."""
    return TorusDiffusionSpec(
        fields_v=(fields.harmonic("cos", 1, amplitude=0.3).shifted(1.0),),
        drift_v0=fields.harmonic("sin", 1, amplitude=0.8),
        obs_drift_b=fields.harmonic("cos", 1),
        obs_noise_sigma=fields.harmonic("sin", 2, amplitude=0.4).shifted(1.0))


def _zero_offdiagonal_model():
    """V = 1 and V0 = 8 at n = 8: the stencil's lower off-diagonal is
    0.5 / dx^2 - V0 / (2 dx) = 0 exactly (a negative one is refused when the
    stencil is built), so the twisted kernel is not certified."""
    return TorusDiffusionSpec(fields_v=(fields.constant(1.0),), drift_v0=fields.constant(8.0),
                              obs_drift_b=fields.harmonic("cos", 1),
                              obs_noise_sigma=fields.constant(1.0))


def _dense_b3(ops, thetas, svals):
    """The all-dense margins, one ``b3_margins`` sweep per theta."""
    from ldp_expand.spectral import b3_margins
    return {(th, s): m for th in thetas for s, m in b3_margins(ops, th, svals)}


@pytest.mark.parametrize("model, n", [
    ("mathieu", 256), ("gradient_drift", 128), ("variable", 128), ("gaussian", 64)])
def test_b3_certificate_is_a_lower_bound_of_the_dense_margin(request, model, n):
    spec = _variable_model() if model == "variable" else request.getfixturevalue(model)
    ops = operators_for(spec, n)
    verdict = verify._check_b3_suite(ops, B3_THETAS, B3_SVALS)
    dense = _dense_b3(ops, B3_THETAS, B3_SVALS)
    ev = verdict.evidence
    assert ev["dense_fallbacks"] == 0
    assert ev["certified_lower_bounds"] == len(B3_THETAS) * len(B3_SVALS)
    assert list(ev["margins"]) == list(dense)
    c = 0.5 * float(np.min(ops.sigma2))
    for key, margin in ev["margins"].items():
        assert margin == c * key[1] * key[1]
        assert margin <= dense[key] + 1e-10, (key, margin, dense[key])
    assert verdict.passed and min(dense.values()) > 1e-8
    if model == "gaussian":
        assert c == 0.5  # sigma^2 = 1: the certificate is the exact margin s^2 / 2


@pytest.mark.parametrize("case", ["zero_offdiagonal", "unpositive_pair"])
def test_b3_falls_back_to_dense_margins(mathieu, monkeypatch, case):
    if case == "zero_offdiagonal":
        spec, n = _zero_offdiagonal_model(), 8
        ops = operators_for(spec, n)
        assert np.min(ops.stencil.lo) == 0.0
        verdict = lx.run_condition_suite(spec, B3_THETAS, B3_SVALS, [1.0, 1.5, 2.0],
                                         n=n).verdict("B3")
    else:
        ops = DiffusionOperators(mathieu, 64)
        # the cached real-tilt pair with one right-vector entry at zero
        _patch_seed(monkeypatch, ops, lambda ed: {"g": np.where(np.arange(ed.g.size) == 3,
                                                                 0.0, ed.g)})
        verdict = verify._check_b3_suite(ops, B3_THETAS, B3_SVALS)
    dense = _dense_b3(ops, B3_THETAS, B3_SVALS)
    ev = verdict.evidence
    assert ev["dense_fallbacks"] == len(B3_THETAS) * len(B3_SVALS)
    assert ev["certified_lower_bounds"] == 0
    assert ev["margins"] == dense and list(ev["margins"]) == list(dense)
    assert ev["min_margin"] == min(dense.values())
    assert verdict.passed == (min(dense.values()) > 1e-8)


def test_dense_b3_margins_take_the_real_tilt_envelope_from_the_centre(monkeypatch):
    from ldp_expand._eigen import spectrum
    spec, n = _zero_offdiagonal_model(), 8
    ops = operators_for(spec, n)
    # the margins of one fresh dense spectrum per tilt, the real one included
    ref = {(th, s): float(np.max(spectrum(ops.tilted(th)).real))
           - float(np.max(spectrum(ops.tilted(complex(th, s))).real))
           for th in B3_THETAS for s in B3_SVALS}
    lx.clear_caches()
    calls = _record_linalg(monkeypatch, ("eig", "eigvals", "eigvalsh"),
                           lambda name, a: np.iscomplexobj(a))
    rep = lx.run_condition_suite(spec, B3_THETAS, B3_SVALS, [1.0, 1.5, 2.0], n=n)
    # one real-tilt eigenvalue solve per theta: the centre's, which B3 reads
    assert calls.count(False) == len(B3_THETAS)
    margins = rep.verdict("B3").evidence["margins"]
    assert rep.verdict("B3").evidence["dense_fallbacks"] == len(ref)
    assert list(margins) == list(ref)
    assert np.array_equal(list(margins.values()), list(ref.values()))


def test_b3_bound_below_the_floor_falls_back_per_point(mathieu):
    # s = 1e-4 certifies only 5e-9, below the 1e-8 floor; s = 1 is certified
    ops = DiffusionOperators(mathieu, 64)
    verdict = verify._check_b3_suite(ops, [0.5], [1e-4, 1.0])
    ev = verdict.evidence
    assert ev["dense_fallbacks"] == 1 and ev["certified_lower_bounds"] == 1
    assert ev["margins"][(0.5, 1e-4)] == _dense_b3(ops, [0.5], [1e-4])[(0.5, 1e-4)]
    assert ev["margins"][(0.5, 1.0)] == 0.5


@pytest.mark.parametrize("model", ["mathieu", "zero_offdiagonal", "checkerboard"])
def test_condition_report_is_identical_under_one_and_two_threads(request, monkeypatch, model):
    grids = (B3_THETAS, B3_SVALS, [1.0, 1.5, 2.0])
    if model == "mathieu":
        spec, n, args = request.getfixturevalue("mathieu"), 64, grids
    elif model == "zero_offdiagonal":
        spec, n, args = _zero_offdiagonal_model(), 8, grids
    else:
        spec, n, args = lx.checkerboard_chain(), None, ([0.2, 0.5, 1.0], [0.5, np.pi], [1, 2])
    reports = []
    for threads in ("1", "2"):
        monkeypatch.setenv("LDP_EXPAND_THREADS", threads)
        lx.clear_caches()
        reports.append(lx.run_condition_suite(spec, *args, n=n))
    assert reports[0] == reports[1]
    assert repr(reports[0]) == repr(reports[1])


# ---------------------------------------------------------------------------
# D1-2 certified by the l-infinity log-norm bound, with dense fallbacks.

D12_THETAS, D12_SVALS, D12_TVALS = [0.0, 0.5, 1.0], [1.0, 5.0, 20.0, 50.0], [1.0, 1.5, 2.0]
D12_MODELS = [("mathieu", 128), ("mathieu", 256), ("gaussian", 64),
              ("gradient_drift", 128), ("variable", 128)]


def _d12_spec(request, model):
    return _variable_model() if model == "variable" else request.getfixturevalue(model)


def _dense_d12(spec, thetas, s_decay, t_decay, n):
    """The all-dense reference: one ``decay_profile`` per theta."""
    out = {}
    for th in thetas:
        prof = spectral.decay_profile(spec, th, s_decay, t_decay, n=n)
        out[th] = {"K": prof.K, "epsilon": prof.epsilon,
                   "decay_rate": -np.log1p(-prof.epsilon)}
    return out


def _without_count(evidence):
    return {th: {k: v for k, v in ev.items() if k != "certified_s"}
            for th, ev in evidence.items()}


@pytest.mark.parametrize("model, n", D12_MODELS)
def test_semigroup_norm_bound_holds_on_dense_samples(request, model, n):
    spec = _d12_spec(request, model)
    ops = operators_for(spec, n)
    for th in D12_THETAS:
        for s, t, ratio in spectral.decay_profile(spec, th, D12_SVALS, D12_TVALS, n=n).samples:
            kappa, rho = spectral.semigroup_norm_bound(ops, th, complex(th, s))
            assert kappa >= 1.0
            assert ratio <= kappa * np.exp(t * rho) * (1 + 1e-12), (th, s, t)


@pytest.mark.parametrize("model, n", D12_MODELS)
def test_certified_decay_matches_the_all_dense_fit_bit_for_bit(request, model, n):
    spec = _d12_spec(request, model)
    verdict = verify._check_decay(spec, D12_THETAS, [0.1] + D12_SVALS, D12_TVALS, n)
    ref = _dense_d12(spec, D12_THETAS, D12_SVALS, D12_TVALS, n)
    assert verdict.passed
    assert repr(_without_count(verdict.evidence)) == repr(ref)
    # s = 1 is sampled densely; 5, 20 and 50 are certified
    assert all(ev["certified_s"] == 3 for ev in verdict.evidence.values())


@pytest.mark.parametrize("bound", [(np.inf, np.inf), None], ids=["infinite", "refused"])
def test_decay_without_a_usable_bound_samples_every_s(mathieu, monkeypatch, bound):
    monkeypatch.setattr(spectral, "semigroup_norm_bound", lambda *args: bound)
    verdict = verify._check_decay(mathieu, D12_THETAS, D12_SVALS, D12_TVALS, 128)
    assert all(ev["certified_s"] == 0 for ev in verdict.evidence.values())
    assert repr(_without_count(verdict.evidence)) == repr(
        _dense_d12(mathieu, D12_THETAS, D12_SVALS, D12_TVALS, 128))


def test_decay_takes_both_signs_of_the_smallest_s_densely(mathieu, monkeypatch):
    sampled, real = [], spectral._decay_samples
    monkeypatch.setattr(spectral, "_decay_samples", lambda ops, theta, s_list, t_list, mu:
                        sampled.extend(s_list) or real(ops, theta, s_list, t_list, mu))
    svals = [-1.0, 1.0, -5.0, 20.0]
    verdict = verify._check_decay(mathieu, [0.5], svals, D12_TVALS, 128)
    assert sorted(sampled) == [-1.0, 1.0]
    assert verdict.evidence[0.5]["certified_s"] == 2
    assert repr(_without_count(verdict.evidence)) == repr(
        _dense_d12(mathieu, [0.5], svals, D12_TVALS, 128))


def test_decay_samples_the_certified_s_when_a_dense_one_moves_the_fit(mathieu, monkeypatch):
    # s = 5 is refused a bound and its samples are raised to ratio 1, which
    # pushes the fit past K = 1 and 5; the certified s = 6 and 20 then decide it
    svals = [1.0, 5.0, 6.0, 20.0]
    bound, real = spectral.semigroup_norm_bound, spectral._decay_samples
    monkeypatch.setattr(spectral, "semigroup_norm_bound",
                        lambda ops, th, z: None if z.imag == 5.0 else bound(ops, th, z))
    monkeypatch.setattr(spectral, "_decay_samples", lambda ops, theta, s_list, t_list, mu: [
        (s, t, 1.0 if s == 5.0 else r) for s, t, r in real(ops, theta, s_list, t_list, mu)])
    verdict = verify._check_decay(mathieu, [0.5], svals, D12_TVALS, 128)
    ev = verdict.evidence[0.5]
    ops = operators_for(mathieu, 128)
    samples = spectral._decay_samples(ops, 0.5, svals, D12_TVALS, ops.mu(0.5))
    assert (ev["K"], ev["epsilon"]) == spectral._fit_decay(samples)
    assert ev["K"] == 6.0 and ev["certified_s"] == 0 and verdict.passed


@pytest.mark.parametrize("s_grid, t_grid", [([0.0], [1.0]), ([], [1.0]), ([np.nan], [1.0]),
                                             ([1.0], [np.inf])],
                         ids=["zero", "empty", "nan-s", "infinite-t"])
def test_suite_refuses_grids_without_a_usable_s_before_any_work(mathieu, monkeypatch,
                                                                s_grid, t_grid):
    def no_work(*args, **kwargs):
        raise AssertionError("the suite started work")

    monkeypatch.setattr(verify, "operators_for", no_work)
    with pytest.raises(ValueError, match="nonzero s"):
        lx.run_condition_suite(mathieu, [0.5], s_grid, t_grid, n=128)


@pytest.mark.parametrize("theta_grid", [[0.5, 0.5, 1.0], [0.0, np.nan], [np.inf, 0.5]],
                         ids=["repeated", "nan", "infinite"])
def test_suite_refuses_a_repeated_or_non_finite_theta_before_any_work(mathieu, monkeypatch,
                                                                      theta_grid):
    def no_work(*args, **kwargs):
        raise AssertionError("the suite started work")

    monkeypatch.setattr(verify, "operators_for", no_work)
    with pytest.raises(ValueError, match="theta grid"):
        lx.run_condition_suite(mathieu, theta_grid, [1.0], [1.0], n=128)


# ---------------------------------------------------------------------------
# Real-tilt centres from the banded Perron pair and an eigenvalues-only spectrum.

CENTRE_THETAS = [0.0, 0.5, 1.0]


@pytest.mark.parametrize("model, n", [("mathieu", 256), ("gaussian", 64), ("gradient_drift", 128),
                                      ("variable", 128), ("zero_offdiagonal", 8)])
def test_centre_matches_the_dense_top_eigen_data(request, model, n):
    from ldp_expand._eigen import top_eigen_data
    if model == "zero_offdiagonal":
        spec = _zero_offdiagonal_model()
    else:
        spec = _variable_model() if model == "variable" else request.getfixturevalue(model)
    ops = DiffusionOperators(spec, n)
    for th in CENTRE_THETAS:
        ed = ops.eigendata(th)
        ref = top_eigen_data(ops.tilted(th), weight=ops.weight, positive=True)
        assert abs(ed.value - ref.value) <= 1e-12 * max(1.0, abs(ref.value)), th
        assert np.max(np.abs(ed.g - ref.g)) <= 5e-12, th
        assert np.max(np.abs(ed.psi - ref.psi)) <= 5e-12 * np.max(np.abs(ref.psi)), th
        assert abs(ed.gap - ref.gap) <= 1e-10 * ref.gap, th
    assert verify._check_b2(ops, CENTRE_THETAS).evidence["dense_centres"] == 0
    assert ops.dense_centres == set()


def test_centre_off_the_top_branch_is_dense(mathieu, monkeypatch):
    from ldp_expand._eigen import spectrum, top_eigen_data, top_gap
    grids = (CENTRE_THETAS, B3_SVALS, [1.0, 1.5, 2.0])
    n = 64
    lx.clear_caches()
    want = lx.run_condition_suite(mathieu, *grids, n=n)
    _, gap = top_gap(spectrum(operators_for(mathieu, n).tilted(0.5)))
    real = DiffusionOperators._rqi

    def off_branch(self, theta, seed):
        # the continued pair at 0.5 comes back 0.6 gap below the top
        mu, g, psi = real(self, theta, seed)
        return (mu - 0.6 * gap if theta == 0.5 else mu), g, psi

    monkeypatch.setattr(DiffusionOperators, "_rqi", off_branch)
    lx.clear_caches()
    got = lx.run_condition_suite(mathieu, *grids, n=n)
    ops = operators_for(mathieu, n)
    assert ops.dense_centres == {0.5}
    assert got.verdict("B2").evidence["dense_centres"] == 1
    assert want.verdict("B2").evidence["dense_centres"] == 0
    ed = ops.eigendata(0.5)
    ref = top_eigen_data(ops.tilted(0.5), weight=ops.weight, positive=True)
    assert ed.value == ref.value and np.array_equal(ed.g, ref.g)
    assert np.array_equal(ed.psi, ref.psi)
    # the dense centre also replaces the continued pair that perron serves
    assert ops.perron(0.5)[0] == ref.value
    assert [(v.name, v.passed) for v in got.verdicts] == [(v.name, v.passed) for v in want.verdicts]
    assert got.passed
    for th, g in want.verdict("B2").evidence["gaps"].items():
        assert abs(got.verdict("B2").evidence["gaps"][th] - g) <= 1e-10 * g


def test_zero_offdiagonal_stencil_has_a_uniform_density_and_a_rate():
    from ldp_expand._eigen import top_eigen_data
    spec, n, a = _zero_offdiagonal_model(), 8, 0.5
    ops = DiffusionOperators(spec, n)
    assert np.min(ops.stencil.lo) == 0.0
    # the null space is one-dimensional, with the uniform density
    assert np.max(np.abs(ops.rho.rho - 1.0)) < 1e-12 and ops.rho.residual < 1e-12
    mu, g, psi = ops.perron(a)
    ref = top_eigen_data(ops.tilted(a), weight=ops.weight, positive=True)
    assert abs(mu - ref.value) < 1e-12 and np.max(np.abs(g - ref.g)) < 1e-12
    point = lx.rate_point(spec, a, n=n)

    def mu_dense(th):
        return top_eigen_data(ops.tilted(th), weight=ops.weight, positive=True).value

    h = 1e-4
    slope = (mu_dense(point.theta + h) - mu_dense(point.theta - h)) / (2 * h)
    assert abs(slope - a) < 1e-7
    assert abs(point.rate - (point.theta * a - mu_dense(point.theta))) < 1e-12
