import sys
import threading

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, strategies as st

import ldp_expand as lx
from ldp_expand import discretize, fields
from ldp_expand.discretize import CyclicTridiagonal, DiffusionOperators, operators_for
from ldp_expand.errors import GridResolutionError, ModelValidationError
from ldp_expand.model import DiscreteChainSpec, TorusDiffusionSpec
from ldp_expand.spectral import spectral_mu_prime


def test_laplacian_stencil_n8(gaussian):
    A = DiffusionOperators(gaussian, 8).stencil.dense()
    n, dx2 = 8, (1 / 8) ** 2
    expect = np.zeros((n, n))
    idx = np.arange(n)
    expect[idx, (idx + 1) % n] = 0.5 / dx2
    expect[idx, (idx - 1) % n] = 0.5 / dx2
    expect[idx, idx] = -1.0 / dx2
    assert np.array_equal(A, expect)


def test_conservation_row_sums(gradient_drift):
    A = DiffusionOperators(gradient_drift, 128).stencil.dense()
    assert np.max(np.abs(A @ np.ones(128))) < 1e-10


def test_invariant_density_closed_form(gradient_drift, grad_density_oracle):
    dens = lx.invariant_density(DiffusionOperators(gradient_drift, 256).stencil)
    assert abs(dens.integral() - 1.0) < 1e-12
    assert np.max(np.abs(dens.rho - grad_density_oracle(256))) < 1e-4
    assert dens.rho.min() >= 0.0


def test_invariant_density_uniform(gaussian):
    dens = lx.invariant_density(DiffusionOperators(gaussian, 64).stencil)
    assert np.allclose(dens.rho, 1.0, atol=1e-9)


def test_invariant_density_two_state_symmetric(pm1_chain):
    dens = lx.invariant_density(pm1_chain)
    assert np.allclose(dens.rho, [0.5, 0.5], atol=1e-12)


def test_invariant_density_rejects_reducible_chain():
    chain = DiscreteChainSpec(transition=((1.0, 0.0), (0.0, 1.0)),
                              increment_mean=(1.0, -1.0), increment_var=(0.0, 0.0))
    with pytest.raises(ModelValidationError, match="null space"):
        lx.invariant_density(chain)


@pytest.mark.parametrize("n", [64, 256, 512])
@pytest.mark.parametrize("model", ["mathieu", "gaussian", "gradient_drift"])
def test_banded_density_matches_dense_null_vector(request, model, n):
    from ldp_expand.discretize import _null_density
    op = DiffusionOperators(request.getfixturevalue(model), n).stencil
    # a base stencil's rows sum to zero far inside the refusal bound of 64
    # rounding units of its scale
    assert np.max(np.abs(op.matvec(np.ones(n)))) <= 4 * np.finfo(float).eps * op.scale
    dens = lx.invariant_density(op)
    ref = _null_density(op.dense().T, scale=op.scale)
    ref = ref / (ref.sum() / n)
    assert np.max(np.abs(dens.rho - ref)) < 1e-12
    assert dens.residual == np.max(np.abs(op.rmatvec(dens.rho)))


@pytest.mark.parametrize("theta", [1e-6, 0.5])
def test_invariant_density_refuses_a_tilted_stencil(mathieu, theta):
    with pytest.raises(ModelValidationError, match="untilted"):
        lx.invariant_density(DiffusionOperators(mathieu, 64).operator(theta))


def test_banded_density_rejects_two_dimensional_null_space():
    # two rings of 8 states joined by two edges of rate 1e-14 * scale
    n = 16
    up, lo = np.ones(n), np.ones(n)
    up[7] = lo[8] = up[15] = lo[0] = 1e-14 * 2.0
    op = CyclicTridiagonal(lo=lo, diag=-(lo + up), up=up)
    assert op.scale == 2.0
    with pytest.raises(ModelValidationError, match="null space"):
        lx.invariant_density(op)


def test_tilt_zero_is_base(gaussian):
    ops = DiffusionOperators(gaussian, 32)
    assert ops.operator(0.0) is ops.stencil
    assert np.array_equal(ops.tilted(0.0), ops.stencil.dense())


def test_tilt_diagonal_shift(gaussian):
    ops = DiffusionOperators(gaussian, 32)
    theta = 1.5
    assert np.allclose(ops.tilted(theta) - ops.stencil.dense(), np.eye(32) * theta**2 / 2,
                       atol=1e-14)
    # top eigenvalue mu(theta) = theta^2/2 via the diagonal shift of A's kernel
    assert abs(ops.eigendata(theta).value - theta**2 / 2) < 1e-10


def test_nyquist_rejects_coarse_grid():
    spec = TorusDiffusionSpec(fields_v=(fields.constant(1.0),), drift_v0=fields.zero(),
                              obs_drift_b=fields.harmonic("cos", 5),
                              obs_noise_sigma=fields.constant(1.0))
    with pytest.raises(GridResolutionError):
        DiffusionOperators(spec, 16)


def test_peclet_rejects_overwhelming_drift():
    spec = TorusDiffusionSpec(fields_v=(fields.constant(0.05),),
                              drift_v0=fields.harmonic("sin", 1, amplitude=-3.0),
                              obs_drift_b=fields.zero(), obs_noise_sigma=fields.constant(1.0))
    with pytest.raises(GridResolutionError):
        DiffusionOperators(spec, 8)


def test_grid_invariants():
    with pytest.raises(GridResolutionError):
        lx.PeriodicGrid(6)
    with pytest.raises(GridResolutionError):
        lx.PeriodicGrid(9)


def test_semigroup_stochastic_rows(gradient_drift):
    P = sla.expm(0.7 * DiffusionOperators(gradient_drift, 64).tilted(0.0))
    assert np.max(np.abs(P @ np.ones(64) - 1.0)) < 1e-10
    assert P.min() > 0.0  # positivity of the elliptic semigroup


@given(st.integers(min_value=3, max_value=7), st.integers(0, 2**31 - 1),
       st.floats(0.1, 0.9), st.floats(0.1, 0.9))
def test_semigroup_property_random_generators(m, seed, s, t):
    rng = np.random.default_rng(seed)
    M = rng.uniform(0.0, 1.0, (m, m))
    np.fill_diagonal(M, 0.0)
    M[np.arange(m), np.arange(m)] = -M.sum(axis=1)
    M = M + np.diag(1j * rng.uniform(-1, 1, m))  # complex tilted diagonal
    left = sla.expm((s + t) * M)
    right = sla.expm(s * M) @ sla.expm(t * M)
    assert np.max(np.abs(left - right)) < 1e-10


def test_positivity_of_tilted_semigroup(mathieu):
    M = sla.expm(1.0 * DiffusionOperators(mathieu, 64).tilted(1.0))
    assert M.min() > 0.0


def test_chain_tilted_matrix(pm1_chain):
    ops = operators_for(pm1_chain)
    theta = 0.7
    T = ops.tilted(theta)
    expect = 0.5 * np.array([[np.exp(theta), np.exp(-theta)]] * 2)
    assert np.allclose(T, expect, atol=1e-14)
    assert abs(ops.mu(theta) - np.log(np.cosh(theta))) < 1e-12
    assert ops.lattice() == (2.0, 1.0)


def test_chain_gaussian_increment_has_no_lattice():
    ops = operators_for(lx.noisy_two_state_chain())
    assert ops.lattice() is None


def test_workspace_cache_is_shared(gaussian):
    assert operators_for(gaussian, 64) is operators_for(gaussian, 64)


def test_workspace_table_keeps_the_most_recent_workspaces(gaussian):
    lx.clear_caches()
    first = operators_for(gaussian, 64)
    for n in range(8, 8 + 2 * discretize.MAX_WORKSPACES, 2):
        operators_for(gaussian, n)
        # each use makes a workspace the most recent, so first outlives the rest
        assert operators_for(gaussian, 64) is first
    assert len(discretize._WORKSPACES) == discretize.MAX_WORKSPACES
    for n in range(100, 100 + 2 * discretize.MAX_WORKSPACES, 2):
        operators_for(gaussian, n)
    assert operators_for(gaussian, 64) is not first
    assert operators_for(gaussian, 64) is operators_for(gaussian, 64)


def test_grid_convergence_mathieu(mathieu):
    mu256 = lx.cgf(mathieu, 1.0, n=256)
    mu512 = lx.cgf(mathieu, 1.0, n=512)
    assert abs(mu512 - mu256) < 1e-6


@pytest.mark.parametrize("n", [8, 64, 256])
def test_cyclic_solver_matches_dense_lu(gradient_drift, n):
    ops = operators_for(gradient_drift, n)
    theta = 0.7
    op = ops.operator(theta)
    M = op.dense()
    assert np.max(np.abs(op.up - op.lo)) > 0  # drift makes the stencil nonsymmetric
    mu = ops.mu(theta)
    rng = np.random.default_rng(n)
    r = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    # (shift, forward tolerance): the near-Perron shift amplifies rounding by
    # the condition number, so there both solvers agree only to ~1e-5
    cases = [(complex(mu + 5e-9, 5e-9), 1e-3), (complex(0.5, 3.0), 1e-10),
             (complex(-40.0, -1.0), 1e-10), (0.3, 1e-10)]
    for sigma, tol in cases:
        solve = op.shifted_solver(sigma)
        A = M - sigma * np.eye(n)
        lu = sla.lu_factor(A)
        for trans in (False, True):
            x = solve(r, trans=trans)
            ref = sla.lu_solve(lu, r, trans=int(trans))
            At = A.T if trans else A
            backward = np.max(np.abs(At @ x - r)) / (np.max(np.abs(At)) * np.max(np.abs(x)))
            assert backward < 1e-14, (sigma, trans, backward)
            assert np.max(np.abs(x - ref)) < tol * np.max(np.abs(ref)), (sigma, trans)


def test_cyclic_solver_with_a_pin_that_cancels_the_first_diagonal_entry(mathieu):
    # the corrector's pin at index 0 cancels Mathieu's flat diagonal at theta = 0,
    # leaving a (0,0) entry of -sigma; the corner split must not divide by it
    ops = operators_for(mathieu, 256)
    op = ops.operator(0.0)
    pin = np.zeros(256)
    pin[0] = op.scale
    pinned = op.shifted_diagonal(pin)
    assert pinned.diag[0] == 0.0
    r = np.random.default_rng(0).standard_normal(256)
    for sigma in (1e-14, -1e-14):
        A = pinned.dense() - sigma * np.eye(256)
        solve = pinned.shifted_solver(sigma)
        for trans in (False, True):
            ref = np.linalg.solve(A.T if trans else A, r)
            x = solve(r, trans=trans)
            assert np.max(np.abs(x - ref)) < 1e-12 * np.max(np.abs(ref)), (sigma, trans)


def test_corrector_at_theta_zero_after_a_projector_check(mathieu):
    # this order left mu(0) a rounding-level nonzero from the dense solve at
    # theta = 1, which the pinned corrector solve used to divide by
    lx.clear_caches()
    assert lx.projector_time_independence(mathieu, 1.0, [1.0, 1.5, 2.0], n=256) < 1e-8
    d1, _ = lx.cgf_derivatives(mathieu, 0.0, n=256)
    assert abs(d1) < 1e-8


def test_cyclic_products_match_dense(mathieu):
    ops = operators_for(mathieu, 64)
    op = ops.operator(complex(0.5, 2.0))
    M = op.dense()
    assert np.array_equal(M, ops.tilted(complex(0.5, 2.0)))
    u = np.random.default_rng(3).standard_normal(64)
    assert np.allclose(op.matvec(u), M @ u, rtol=1e-13, atol=1e-12 * op.scale)
    assert np.allclose(op.rmatvec(u), u @ M, rtol=1e-13, atol=1e-12 * op.scale)


@pytest.mark.parametrize("theta", [0.3, 1.0, 3.0])
def test_banded_perron_and_top_pair_match_dense(mathieu, theta):
    from ldp_expand._eigen import top_eigen_data
    ops = operators_for(mathieu, 256)
    mu, g, psi = ops.perron(theta)
    ed = top_eigen_data(ops.tilted(theta), weight=ops.weight, positive=True)
    assert abs(mu - ed.value) < 1e-10 * max(1.0, abs(ed.value))
    assert np.max(np.abs(g - ed.g)) < 1e-10
    assert np.max(np.abs(psi - ed.psi)) < 1e-10 * np.max(np.abs(ed.psi))
    for s in (0.0, 2.0, 8.0):
        value, g, psi = ops.top_pair(theta, s)
        ed = top_eigen_data(ops.tilted(complex(theta, s)), weight=ops.weight)
        assert abs(value - ed.value) < 1e-10 * max(1.0, abs(ed.value)), s
        assert np.max(np.abs(g - ed.g)) < 1e-10, s
        assert np.max(np.abs(psi - ed.psi)) < 1e-10 * np.max(np.abs(ed.psi)), s


def test_cyclic_solver_at_an_eigenvalue_returns_its_vector(mathieu):
    # a converged Rayleigh quotient is an eigenvalue to working precision;
    # inverse iteration then needs a finite multiple of the eigenvector
    ops = operators_for(mathieu, 256)
    for theta in (0.2871632053371564, 1.0):
        mu, g, psi = ops.perron(theta)
        op = ops.operator(theta)
        solve = op.shifted_solver(mu)
        for vec, ref, trans in ((np.ones(256), g, False), (np.ones(256), psi, True)):
            x = solve(vec, trans=trans)
            assert np.all(np.isfinite(x))
            x = x / x[int(np.argmax(np.abs(x)))]
            assert np.max(np.abs(x - ref / np.max(ref))) < 1e-6


def _pair_solve_case(ops, case):
    """(operator, shift, g, psi) of one two-sided solve case."""
    rng = np.random.default_rng(11)
    n = ops.grid.n
    real = rng.standard_normal((2, n))
    cplx = real + 1j * rng.standard_normal((2, n))
    if case == "real":
        return ops.operator(0.5), 0.3, *real
    if case == "complex_operator":
        return ops.operator(complex(0.5, 2.0)), complex(-3.0, 1.5), *cplx
    if case == "real_operator_complex_vectors":
        return ops.operator(0.5), 0.3, *cplx
    if case == "at_an_eigenvalue":
        theta = 0.2871632053371564
        return ops.operator(theta), ops.perron(theta)[0], *real
    # the pin of test_cyclic_solver_with_a_pin_that_cancels_the_first_diagonal_entry
    op = ops.operator(0.0)
    pin = np.zeros(n)
    pin[0] = op.scale
    return op.shifted_diagonal(pin), 1e-14, *real


@pytest.mark.parametrize("case", ["real", "complex_operator", "real_operator_complex_vectors",
                                  "at_an_eigenvalue", "pin_cancels_first_entry", "dense"])
def test_two_sided_solve_equals_the_two_shifted_solves(mathieu, monkeypatch, case):
    """The two solves of an inverse-iteration step, (M - sigma)^{-1} g and
    (M - sigma)^{-T} psi from one ``shifted_solver`` factor, to backward
    error 1e-13 against the dense matrix, in the dtype of operator and
    vector."""
    from ldp_expand._eigen import _DenseSolver
    from ldp_expand.discretize import _ShiftedLU
    ops = operators_for(mathieu, 256)
    op, sigma, g, psi = _pair_solve_case(ops, "complex_operator" if case == "dense" else case)
    A = op.dense() - sigma * np.eye(ops.grid.n)
    dtype = np.result_type(op.dtype, g)
    if case == "dense":
        op = _DenseSolver(op.dense())
    if case == "pin_cancels_first_entry":
        assert op.diag[0] == 0.0
    denominators = []
    real_denominator = _ShiftedLU._denominator

    def recorded(lu, c, trans):
        denominators.append(real_denominator(lu, c, trans))
        return denominators[-1]

    monkeypatch.setattr(_ShiftedLU, "_denominator", recorded)
    solve = op.shifted_solver(sigma)
    x, y = solve(g), solve(psi, trans=True)
    assert x.dtype == dtype and y.dtype == dtype
    assert np.all(np.isfinite(x)) and np.all(np.isfinite(y))
    if case == "at_an_eigenvalue":
        # both Sherman-Morrison denominators of the corner column vanish and
        # take the eps guard; the solves are then multiples of the pair
        assert denominators == [np.finfo(float).eps] * 2
        return
    for At, sol, rhs in ((A, x, g), (A.T, y, psi)):
        backward = np.max(np.abs(At @ sol - rhs)) / (np.max(np.abs(At)) * np.max(np.abs(sol)))
        assert backward < 1e-13, backward


class _CountingOperator:
    """An operator whose method calls are counted by name."""

    def __init__(self, op):
        self.op = op
        self.calls = {}

    def __getattr__(self, name):
        attr = getattr(self.op, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            return attr(*args, **kwargs)
        return counted


def _count_lapack(monkeypatch):
    """Count the ?gttrf and ?gttrs calls of every banded factor and solve."""
    counts = {"gttrf": 0, "gttrs": 0}
    real_get = sla.get_lapack_funcs

    def get_lapack_funcs(names, arrays=(), *args, **kwargs):
        funcs = real_get(names, arrays, *args, **kwargs)
        if isinstance(names, str):
            return funcs

        def wrap(name, fn):
            def counted(*a, **k):
                counts[name] += 1
                return fn(*a, **k)
            counted.dtype = fn.dtype
            return counted
        return [wrap(name, fn) if name in counts else fn for name, fn in zip(names, funcs)]

    monkeypatch.setattr(sla, "get_lapack_funcs", get_lapack_funcs)
    return counts


@pytest.mark.parametrize("z", [0.5, complex(0.5, 2.0)])
def test_banded_rqi_step_and_pair_kernel_counts(mathieu, monkeypatch, z):
    from ldp_expand import _eigen
    ops = operators_for(mathieu, 256)
    seed = (ops.perron(0.45) if isinstance(z, float) else ops.top_pair(0.5, 1.9))[1:]
    counts = _count_lapack(monkeypatch)
    op = _CountingOperator(ops.operator(z))
    value = (seed[1] @ op.op.matvec(seed[0])) / (seed[1] @ seed[0])
    with _eigen.quiet_singular():
        assert _eigen._rqi_step(op, value, *seed) is not None
    # one factor and one two-column solve per side
    assert counts == {"gttrf": 1, "gttrs": 2}
    assert op.calls == {"shifted_solver": 1, "matvec": 1}
    counts.update(gttrf=0, gttrs=0)
    op = _CountingOperator(ops.operator(z))
    assert _eigen.rqi_pair(op, *seed, ops.weight) is not None
    steps = op.calls["shifted_solver"]
    assert steps >= 2
    # the seed's product, then one per step: the residual test reuses it
    assert op.calls["matvec"] == 1 + steps
    assert counts == {"gttrf": steps, "gttrs": 2 * steps}


def test_warm_seed_refined_when_it_already_passes_the_residual_test(mathieu):
    # a seed 1e-10 away in theta is within the iteration's residual target,
    # but its vectors carry a 1e-11 error; one step removes it
    ops = DiffusionOperators(mathieu, 256)
    _, g, psi = ops._rqi(0.3 + 1e-10, ops.perron(0.3))
    # the reference workspace holds the dense top_eigen_data pair at the tilt
    dense = DiffusionOperators(mathieu, 256)
    ref = dense._dense_centre(0.3 + 1e-10)
    assert np.max(np.abs(g - ref.g)) < 1e-12
    assert np.max(np.abs(psi - ref.psi)) < 1e-12 * np.max(ref.psi)
    assert abs(spectral_mu_prime(ops, 0.3 + 1e-10) - spectral_mu_prime(dense, 0.3 + 1e-10)) < 5e-13


def test_a_dense_centre_reseeds_its_saddle_line(mathieu, monkeypatch):
    from ldp_expand._eigen import spectrum, top_gap
    _, gap = top_gap(spectrum(DiffusionOperators(mathieu, 64).tilted(0.5)))
    real = DiffusionOperators._rqi

    def off_branch(self, theta, seed):
        # the continued pair at 0.5 comes back 0.6 gap below the top
        mu, g, psi = real(self, theta, seed)
        return (mu - 0.6 * gap if theta == 0.5 else mu), g, psi

    monkeypatch.setattr(DiffusionOperators, "_rqi", off_branch)
    ops = DiffusionOperators(mathieu, 64)
    ops.top_pair(0.5, 0.0)
    ops.top_pair(0.5, 2.0)
    ops.eigendata(0.5)
    assert ops.dense_centres == {0.5}
    # the saddle line at 0.5 restarts from the dense centre's pair
    assert ops.top_pair(0.5, 0.0)[0] == complex(ops.perron(0.5)[0])
    ref = DiffusionOperators(mathieu, 64)
    ref._dense_centre(0.5)
    assert ops.top_pair(0.5, 2.0)[0] == ref.top_pair(0.5, 2.0)[0]
    # the dense centre outlives its record: a rebuilt 0.5 takes the dense
    # pair again, not the continued one
    monkeypatch.setattr(discretize, "MAX_TILTS", 2)
    for theta in (1.3, -0.7, 0.2):
        ops.perron(theta)
    assert 0.5 not in ops._tilts
    ed, want = ops.eigendata(0.5), ref.eigendata(0.5)
    assert (ed.value, ed.gap, ed.residual) == (want.value, want.gap, want.residual)
    assert np.array_equal(ed.g, want.g) and np.array_equal(ed.psi, want.psi)
    for theta in (1.3, -0.7):
        ops.perron(theta)
    assert 0.5 not in ops._tilts
    assert ops.perron(0.5)[0] == ref.perron(0.5)[0]
    assert ops.top_pair(0.5, 2.0)[0] == ref.top_pair(0.5, 2.0)[0]


HISTORIES = {
    "rate_points": lambda m, f, n: [lx.rate_point(m, a, n=n) for a in (0.1, 0.5, 0.6)],
    "tail_t400": lambda m, f, n: lx.exact_tail(m, f, 0.3, 400.0, n=n),
    "tail_t2": lambda m, f, n: lx.exact_tail(m, f, 0.3, 2.0, n=n),
    "tail_t0.5_t100": lambda m, f, n: [lx.exact_tail(m, f, 0.3, t, n=n) for t in (0.5, 100.0)],
    "cgf": lambda m, f, n: [lx.cgf(m, th, n=n) for th in (0.2, 0.7, 1.3)],
}


def _history_values(m, f, n):
    rp = lx.rate_point(m, 0.3, n=n)
    return (rp.theta, rp.rate, rp.curvature, lx.leading_coefficient(m, f, 0.3, n=n),
            lx.exact_tail(m, f, 0.3, 30.0, n=n))


@pytest.fixture(scope="module")
def cold_values(mathieu, frame):
    lx.clear_caches()
    return _history_values(mathieu, frame, 128)


@pytest.mark.parametrize("history", HISTORIES)
def test_values_do_not_depend_on_call_history(mathieu, frame, cold_values, history):
    # every Perron pair is continued from fixed seeds in theta and s, so
    # theta_a, I, I'', D0 and the tail are the cold values to the bit
    lx.clear_caches()
    HISTORIES[history](mathieu, frame, 128)
    assert _history_values(mathieu, frame, 128) == cold_values
    assert operators_for(mathieu, 128).dense_centres == set()


def test_a_verdict_does_not_outlive_its_tolerance(mathieu, frame):
    # a single-mode verdict certified at rel_tol 1e-6 must not serve a 1e-11
    # tail: the single-mode value is 4.4e-11 relative off the cold one
    lx.clear_caches()
    cold = lx.exact_tail(mathieu, frame, 0.3, 30.0, n=256, rel_tol=1e-11)
    lx.clear_caches()
    lx.exact_tail(mathieu, frame, 0.3, 1.0, n=256, rel_tol=1e-6)
    assert lx.exact_tail(mathieu, frame, 0.3, 30.0, n=256, rel_tol=1e-11) == cold


def test_evicted_tilts_are_rebuilt_bit_for_bit(mathieu, frame, cold_values, monkeypatch):
    sizes, real = [], discretize._recent

    def bounded(store, key, make, cap):
        value = real(store, key, make, cap)
        sizes.append(len(store) <= cap)
        return value

    monkeypatch.setattr(discretize, "MAX_TILTS", 2)
    monkeypatch.setattr(discretize, "_recent", bounded)
    lx.clear_caches()
    lx.rate_table(mathieu, np.linspace(0.1, 0.6, 10), n=128)
    lx.tail_curve(mathieu, frame, 0.4, (2.0, 50.0), n=128)
    lx.exact_tail(mathieu, frame, 0.2, 100.0, n=128)
    assert _history_values(mathieu, frame, 128) == cold_values
    ops = operators_for(mathieu, 128)
    assert len(ops._tilts) <= 2 and len(sizes) > 100 and all(sizes)
    assert ops.dense_centres == set()


def test_two_threads_share_a_bounded_workspace(mathieu, monkeypatch):
    thetas = [float(th) for th in np.linspace(-1.0, 2.0, 50)]
    ref = DiffusionOperators(mathieu, 64)
    want = [(ref.envelope(th), ref.eigendata(th)) for th in thetas]
    monkeypatch.setattr(discretize, "MAX_TILTS", 4)
    ops = DiffusionOperators(mathieu, 64)
    got, errors = [[], []], []

    def run(k):
        try:
            for th in thetas if k else thetas[::-1]:
                got[k].append((th, ops.envelope(th), ops.eigendata(th)))
        except Exception as exc:  # reported below, with the thread it stopped
            errors.append((k, exc))

    threads = [threading.Thread(target=run, args=(k,)) for k in (0, 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads) and errors == []
    for rows in got:
        assert len(rows) == len(thetas)
        for th, envelope, ed in rows:
            ref_envelope, ref_ed = want[thetas.index(th)]
            assert envelope == ref_envelope and ed.value == ref_ed.value, th
            assert np.array_equal(ed.g, ref_ed.g) and np.array_equal(ed.psi, ref_ed.psi), th
    assert len(ops._tilts) <= 4


@pytest.mark.parametrize("model, n", [("mathieu", 256), ("gaussian", 64), ("gradient_drift", 128)])
def test_krylov_transform_matches_dense_nmgf(request, frame, model, n):
    from ldp_expand._eigen import krylov_expm_entry
    ops = DiffusionOperators(request.getfixturevalue(model), n)
    theta = 0.3
    mu = ops.mu(theta)
    i0, v = frame.index_on(n), frame.vector_on(n)
    for t in (0.2, 0.5, 1.0, 2.0, 30.0):
        peak = abs(ops.nmgf(theta, t, frame, mu))
        for s in (0.0, 1.0, 3.0):
            z = complex(theta, s)
            value = krylov_expm_entry(ops.operator(z), mu, t, i0, v, 2e-11, peak)
            assert abs(value - ops.nmgf(z, t, frame, mu)) < 1e-8 * peak, (t, s)
